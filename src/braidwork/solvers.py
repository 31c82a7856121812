"""
Desk-scale solvers for conjugacy-search instances: exhaustive coset
search and greedy length descent. Exponent search, as Stickel's scheme
needs it, is the exhaustive search over one generator's alphabet, whose
enumeration is the powers g^0, g^1, g^-1, ..., so it has no search of
its own: `solve_exhaustive` is the one entry that meets in the middle.

All solvers share the convention of CspInstance: a solution g satisfies
g x_i g^-1 = y_i for every pair. Candidates are formed as `word . t` where
the word ranges over a canonical deterministic enumeration of the
configured alphabet and t is a fixed coset factor, the inverse of the
instance's post_transform. The enumerated word is the secret itself: an
extra check (an attack's filter) is asked about it, on the alphabet's
strand count, and t is applied only to the word it accepts, a report's
`raw_word`. Reports are deterministic functions of (instance, config).

The setup alone decides, once, which pairs every word of the alphabet
solves, and drops them: those with t x t^-1 == y whose y commutes with
every alphabet generator. Generator supports show it with no arithmetic
(`garside.commutes_by_support`: an even Delta power is central, and
sigma_i commutes with y when y's normal form or np-form N^-1 P uses
neither sigma_(i-1) nor sigma_(i+1)), as for (sigma_6, sigma_6) over
sigma_1..sigma_3, or for (sigma_4^-1, sigma_4^-1) over sigma_1 on 5
strands, whose normal form is Delta^-1 times a factor that uses every
generator while N = sigma_4; else one conjugation of y per generator
does, as for (sigma_2 sigma_1^2 sigma_2, the same) over sigma_1 on 3
strands. When it drops every pair it keeps the last, so the
searches get at least one pair and check every pair they get. The same
support test spares the setup the products of t x t^-1 for an x that
commutes with every letter of t, and spares the final check its products
for a pair with x == y whose y commutes with every letter of g.

The canonical enumeration (`words.enumerate_products`) orders words by
length, then lexicographically by symbol (each generator followed by its
inverse), and skips neighbouring symbols that cancel. The exhaustive search
returns the first word in that order that solves every pair, but meets in
the middle rather than conjugating by every word:

- Split a word of length d as w = a.b, with |a| = ceil(d/2) and
  |b| = floor(d/2). Then w x w^-1 = y exactly when b x b^-1 = a^-1 y a.
  The halves meet on the first pair's x and y alone, the key pair; the
  pairs after it are checked on a match, as w^-1 y w = x, before the extra
  check. Since the setup drops pairs every word solves, the key is not one
  unless every pair is, and then every tail matches every head.
- The search grows levels: the level of length h lists, in canonical
  order, each symbol sequence c of length h with the strand permutation of
  the normal form it carries (a homomorphism B_n -> S_n, so one braid has
  one permutation), grown from the level before by translates. A node's
  form, its parent's conjugated by its last symbol, is computed only when
  read and memoised per sequence: each node is conjugated at most once.
- The tails grow from x: c carries c^-1 x c = b x b^-1, b = c^-1. At
  length 2h tail level h is grown into a table from each permutation to
  its c's, serving lengths 2h and 2h + 1 only; the first head to hit a
  bucket resolves it by normal form into the b's, in canonical order.
- The heads grow from y: a carries a^-1 y a. Head level h + 1 is grown
  lazily at length 2h + 1, as the search reaches each a, and is kept for
  length 2h + 2 (and the growth of the next level) only when the search
  reaches that length. Then the table of length 2h + 2 holds as many
  entries, so no level is kept that is larger than a table the cap admits.
- Each a whose permutation hits a bucket is followed by the b's of its
  normal form in order, less those that cancel at the junction or fail
  another pair, so the extra check sees the matches in canonical order.
- A word's rank in the enumeration, which its report gives as the number
  of candidates tested, has a closed form: 1 + sum over j < d of
  m(m-1)^(j-1) words are shorter (m symbols), and its lexicographic place
  among the words of its length counts m choices for the first symbol and
  m - 1 for each later one. A match ranked past the budget, or a whole
  space larger than it, ends as "budget-exceeded"; "exhausted" reports the
  size of the whole space.
- Before building any table the search works out the longest length its
  budget reaches and the size of that length's table, and refuses a table
  above MAX_TABLE_ENTRIES with a ValueError.

The length descent keeps two dicts for one solve, dropped when it returns:
the conjugate of each normal form by each symbol, and each pair's cost
term at each normal form. Storing the conjugate c of z by symbol k also
stores z as c's conjugate by the inverse symbol k ^ 1, since normal forms
are unique. So a solve conjugates each (normal form, symbol) pair at most
once, never conjugates a result back, and makes at most the one-symbol
conjugations the descent without the dicts made; its reports are those
of that descent.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Callable, Iterable, Sequence

from .extractors import CspInstance
from .garside import (
    GarsideNormalForm,
    commutes_by_support,
    conjugate,
    embed,
    inverse,
    normal_form,
    permutation,
    product,
)
from .subgroups import SubgroupSpec, letter_support
from .words import (
    MAX_SECRET_LENGTH,
    BraidWord,
    canonical_symbols,
    compose,
    crossings,
    identity,
    invert,
)

SOLVED = "solved"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"
STALLED = "stalled"

# The most words of one length a table may hold. The exhaustive search
# works out, before it builds any table, the longest length its budget
# reaches and the table that length needs, and refuses a larger one. An
# entry holds a sequence and a permutation, about 0.17 kB on 8 strands, and
# a normal form, about 0.5 kB for a length-4 probe, once a head hits its
# bucket (tracemalloc, 64-bit CPython 3.11): a full table 11 to 44 MB. The
# default budget of 200,000 needs a table of a few thousand words at most.
MAX_TABLE_ENTRIES = 1 << 16

# A node of the search: a symbol sequence and the strand permutation, as
# one-line images, of the normal form it carries.
_Node = tuple[tuple[int, ...], bytes]


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Enumeration parameters shared by the solvers."""

    max_length: int
    alphabet: SubgroupSpec | None = None  # defaults to the instance's alphabet
    budget: int = 200_000
    restarts: int = 10  # stochastic restarts for the descent solver
    seed: int = 0
    # The descent's one cost, the sum over pairs of the canonical length of
    # z.x^-1; no other value is accepted. The bench still passes it.
    length_functional: str = "difference"

    def __post_init__(self):
        if self.length_functional != "difference":
            raise ValueError(f"unknown length functional {self.length_functional!r}")
        for name in ("max_length", "budget", "restarts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.max_length > MAX_SECRET_LENGTH:
            raise ValueError(
                f"length bound {self.max_length} is above the cap of {MAX_SECRET_LENGTH}"
            )


@dataclasses.dataclass(frozen=True)
class SolutionReport:
    status: str  # solved | exhausted | budget-exceeded | stalled
    solution: BraidWord | None
    raw_word: BraidWord | None  # the enumerated word before the coset factor
    candidates_tested: int
    per_pair: tuple[bool, ...] = ()
    trace: tuple[str, ...] = ()

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    def to_record(self) -> dict:
        return {
            "status": self.status,
            "solution": self.solution.to_record() if self.solution is not None else None,
            "raw_word": self.raw_word.to_record() if self.raw_word is not None else None,
            "candidates_tested": self.candidates_tested,
            "per_pair": list(self.per_pair),
            "trace": list(self.trace),
        }


def verify_solution(instance: CspInstance, g: BraidWord) -> list[bool]:
    """Per-pair check of the defining relation g x g^-1 = y as g . x = y . g,
    by products of normal forms on the largest strand count among g and the
    pairs, x and y read from the instance's own forms. A pair with x == y
    whose y commutes with every letter of g by generator supports
    (`garside.commutes_by_support`) holds with no product. It does not read
    the normal forms a search carried, so each bit is a check, from the
    instance and g alone, independent of the search that found g."""
    n = max([g.strands] + [f.strands for pair in instance.forms for f in pair])
    g_nf = normal_form(g.embed(n))
    letters = letter_support(g)
    return [
        (x == y and commutes_by_support(y, letters))
        or product(g_nf, embed(x, n)) == product(embed(y, n), g_nf)
        for x, y in instance.forms
    ]


def _setup(
    instance: CspInstance, config: SolverConfig
) -> tuple[int, SubgroupSpec, BraidWord, list[tuple[GarsideNormalForm, GarsideNormalForm]]]:
    """The strand count n, the alphabet, the coset factor t on n strands (the
    inverse of the instance's post_transform, or the identity), and the
    pairs a search must check, as normal forms of t x t^-1 and y: g = P.t
    solves a pair iff P conjugates t x t^-1 to y, so every P does, and the
    pair is dropped, when t x t^-1 == y and y commutes with every alphabet
    generator, shown by generator supports or else by one conjugation per
    generator. When every pair is dropped the last one is kept, so a search
    has a pair to key on. The pairs' forms are the instance's, embedded in
    B_n: an instance holds only normal forms, and only its `pairs` and
    record spell them. t x t^-1 is x when x commutes with every letter of t
    by supports, and otherwise a product of normal forms, with t's inverted
    in closed form."""
    alphabet = config.alphabet if config.alphabet is not None else instance.alphabet
    n = max(instance.strands, alphabet.strands)
    xs = [embed(x, n) for x, _ in instance.forms]
    ys = [embed(y, n) for _, y in instance.forms]
    t = identity(n)
    if instance.post_transform is not None:
        post = instance.post_transform.embed(n)
        t = invert(post)
        coset = letter_support(post)
        moved = [i for i, x in enumerate(xs) if not commutes_by_support(x, coset)]
        if moved:
            post_nf = normal_form(post)
            t_nf = inverse(post_nf)
            for i in moved:
                xs[i] = product(product(t_nf, xs[i]), post_nf)
    letters = letter_support(*alphabet.generators)
    pairs = list(zip(xs, ys))
    kept = [
        (x, y)
        for x, y in pairs
        if x != y
        or not (
            commutes_by_support(y, letters)
            or all(conjugate(y, g) == y for g in alphabet.generators)
        )
    ]
    return n, alphabet, t, kept or pairs[-1:]


def solve_exhaustive(
    instance: CspInstance,
    config: SolverConfig,
    extra_check: Callable[[BraidWord], bool] | None = None,
) -> SolutionReport:
    """
    The first word, in canonical breadth-first order, that with the coset
    factor verifies every pair and that the optional `extra_check`
    accepts; the check sees the enumerated word (`raw_word`), not its
    product with the coset factor (`solution`). It is found by meeting in
    the middle: each word is split into a head and a tail of half its
    length, tails are looked up in a table built for one length at a
    time, and the rank of the word gives `candidates_tested`, as the
    module docstring sets out. Status
    "exhausted" means the whole space up to the length bound was
    searched; "budget-exceeded" means the candidate budget ran out first.
    Raises ValueError when the longest length the budget reaches needs a
    table of more than MAX_TABLE_ENTRIES words.
    """
    n, alphabet, t, ((x0, y0), *rest) = _setup(instance, config)
    symbols = canonical_symbols(alphabet.generators)
    m = len(symbols)
    budget, max_length = config.budget, config.max_length

    # The deepest length whose first word the budget reaches.
    deepest, reached = -1, 0
    while deepest < max_length and reached < budget:
        deepest += 1
        reached += _words_of_length(m, deepest)
    entries = _words_of_length(m, max(deepest, 0) // 2)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"a search to length {deepest} needs a table of {entries} words, above "
            f"the cap of {MAX_TABLE_ENTRIES}: lower the length bound or the budget"
        )

    # Each symbol s as the image of s^-1's permutation, which
    # `words.crossings` gives, and the translation table of s's.
    ident, pad = bytes(range(n)), bytes(range(n, 256))
    steps = [(i, bytes.maketrans(i, ident)) for i in (crossings(s.embed(n))[0] for s in symbols)]
    head_forms, tail_forms = {(): y0}, {(): x0}
    heads: list[_Node] | None = [((), permutation(y0))]
    tails: list[_Node] = [((), permutation(x0))]
    before = 0  # the number of words shorter than the current length
    for length in range(deepest + 1):
        if length % 2:
            # The heads one symbol longer, kept for the next length if it is
            # searched.
            grown = [] if length < deepest else None
            level = _grow(steps, pad, heads, grown)
            heads = grown
        else:
            # The tails c of half this length by the permutation of c^-1 x c.
            if length:
                tails = list(_grow(steps, pad, tails))
            table, resolved = {}, {}
            for c, key in tails:
                table.setdefault(key, []).append(c)
            level = heads
        for a, key in level:
            by_form = resolved.get(key)
            if by_form is None:
                if key not in table:
                    continue
                # The b's of the bucket under the normal form of b x b^-1.
                by_form = resolved[key] = {}
                for c in table[key]:
                    b = tuple(k ^ 1 for k in reversed(c))
                    by_form.setdefault(_form(tail_forms, symbols, c), []).append(b)
                for bs in by_form.values():
                    bs.sort()
            if heads is None:  # the last level has no children to keep forms for
                z = conjugate(_form(head_forms, symbols, a[:-1]), symbols[a[-1]])
            else:
                z = _form(head_forms, symbols, a)
            for b in by_form.get(z, ()):
                if a and b and a[-1] ^ 1 == b[0]:
                    continue
                rank = before + _lex_rank(a + b, m) + 1
                if rank > budget:
                    return SolutionReport(BUDGET_EXCEEDED, None, None, budget)
                word = _spell(symbols, a + b, alphabet.strands)
                if rest and not all(conjugate(y, word) == x for x, y in rest):
                    continue
                if extra_check is not None and not extra_check(word):
                    continue
                g = compose(word, t)
                per_pair = tuple(verify_solution(instance, g))
                return SolutionReport(SOLVED, g, word, rank, per_pair)
        before += _words_of_length(m, length)
    if deepest < max_length or before > budget:
        return SolutionReport(BUDGET_EXCEEDED, None, None, budget)
    return SolutionReport(EXHAUSTED, None, None, before)


def solve_power(instance: CspInstance, max_exponent: int) -> SolutionReport:
    """The exhaustive search over the alphabet's first generator to length
    max_exponent, whose enumeration is exactly the powers base^0, base^1,
    base^-1, ..., base^-max_exponent; a ValueError for a negative bound."""
    alphabet = instance.alphabet
    cyclic = SubgroupSpec(alphabet.name, alphabet.strands, alphabet.generators[:1])
    return solve_exhaustive(instance, SolverConfig(max_exponent, cyclic))


def _words_of_length(m: int, length: int) -> int:
    """The number of symbol sequences of that length over m symbols with
    no cancelling neighbours."""
    return m * (m - 1) ** (length - 1) if length else 1


def _lex_rank(seq: tuple[int, ...], m: int) -> int:
    """The place, from 0, of a symbol sequence with no cancelling
    neighbours among those of its length in canonical order: every symbol
    after the first has m - 1 choices, as it may not cancel the one before."""
    rank = seq[0] if seq else 0
    for prev, k in zip(seq, seq[1:]):
        rank = rank * (m - 1) + k - (prev ^ 1 < k)
    return rank


def _spell(symbols: list[BraidWord], seq: Sequence[int], strands: int) -> BraidWord:
    """The word on `strands` strands spelt by a sequence of symbols."""
    return BraidWord(strands, tuple(x for k in seq for x in symbols[k].letters))


def _grow(steps: list, pad: bytes, level: Iterable[_Node], keep: list[_Node] | None = None):
    """The level one symbol longer, in canonical order: each sequence of
    `level` followed by every symbol s that does not cancel its last one,
    with its permutation p conjugated by s's, s^-1 then p then s, in three
    C calls. Lazy; each node is also appended to `keep` when one is given."""
    for seq, p in level:
        cancels = seq[-1] ^ 1 if seq else -1
        for k, (pre, post) in enumerate(steps):
            if k != cancels:
                node = (seq + (k,), pre.translate(p.translate(post) + pad))
                if keep is not None:
                    keep.append(node)
                yield node


def _form(forms: dict, symbols: list[BraidWord], seq: tuple[int, ...]) -> GarsideNormalForm:
    """The normal form a node carries, its parent's conjugated by its last
    symbol, memoised in `forms` per sequence, so computed at most once."""
    z = forms.get(seq)
    if z is None:
        z = forms[seq] = conjugate(_form(forms, symbols, seq[:-1]), symbols[seq[-1]])
    return z


def _cost_term(z: GarsideNormalForm, x: GarsideNormalForm, x_inv: GarsideNormalForm) -> int:
    """One pair's term of the descent cost of a state, whose cost is the sum
    over its pairs: the canonical length of the quotient z.x^-1, 0 exactly
    when z == x, where no product is formed."""
    return 0 if z == x else len(product(z, x_inv).factors)


def solve_length_descent(
    instance: CspInstance,
    config: SolverConfig,
) -> SolutionReport:
    """
    Greedy length attack: repeatedly conjugate all pairs by the alphabet
    letter that most decreases the cost, the sum over the pairs of the
    canonical length of z.x^-1, where z is the pair's conjugated side and
    x its target, until the pairs match their left-hand sides (cost 0,
    success) or no move helps (stall). When no letter strictly decreases
    the sum, equal-cost moves to states not yet visited are taken, so
    plateaus are walked rather than aborted. Stalls
    restart with a seeded random prefix. Ties break on the first symbol in
    enumeration order, so traces are reproducible. Status "stalled" means
    every attempt ended with no helpful move; "budget-exceeded" means some
    attempt ran out of steps first.

    Two dicts, dropped when the solve returns, hold the conjugate of each
    normal form z by each symbol k and each pair's cost term at each z.
    Storing a conjugate c of z also stores z as c's conjugate by the
    inverse symbol k ^ 1, so a move that undoes the last one, or a symbol
    and its inverse that both fix z, cost no second conjugation. Restart
    prefixes go through the dict one symbol at a time, so the solve
    conjugates by no more symbols than the descent without the dicts,
    which conjugated by a whole prefix in one call; values, tie-breaks,
    counts and traces are that descent's.
    """
    n, alphabet, t, pairs = _setup(instance, config)
    symbols = canonical_symbols(alphabet.generators)
    m = len(symbols)
    xs = [x for x, _ in pairs]
    ys0 = [y for _, y in pairs]
    x_invs = [inverse(x) for x in xs]
    conjugates: dict[tuple[GarsideNormalForm, int], GarsideNormalForm] = {}
    terms: dict[tuple[int, GarsideNormalForm], int] = {}

    def move(zs: list[GarsideNormalForm], k: int) -> list[GarsideNormalForm]:
        out = []
        for z in zs:
            c = conjugates.get((z, k))
            if c is None:
                c = conjugates[z, k] = conjugate(z, symbols[k])
                conjugates[c, k ^ 1] = z
            out.append(c)
        return out

    def cost(zs: list[GarsideNormalForm]) -> int:
        total = 0
        for p, z in enumerate(zs):
            term = terms.get((p, z))
            if term is None:
                term = terms[p, z] = _cost_term(z, xs[p], x_invs[p])
            total += term
        return total

    rng = random.Random(config.seed)
    trace: list[str] = []
    tested = 0
    stalls = 0

    for attempt in range(config.restarts + 1):
        # The symbols conjugated by so far, from a random prefix on restarts.
        path = [rng.randrange(m) for _ in range(1 + attempt)] if attempt else []
        prefix = _spell(symbols, path, n)
        if attempt:
            trace.append(f"restart {attempt} prefix {list(prefix.letters)}")
        ys = ys0
        for k in path:
            ys = move(ys, k)
        visited = {tuple(ys)}

        for step in range(10 * (config.max_length + len(prefix)) + 10):
            if ys == xs:
                word = _spell(symbols, path, n)
                g = compose(word, t)
                per_pair = tuple(verify_solution(instance, g))
                trace.append(f"success after {step} steps (attempt {attempt})")
                return SolutionReport(SOLVED, g, word, tested, per_pair, tuple(trace))
            current = cost(ys)
            firsts = [move(ys, k) for k in range(m)]
            costs = [cost(cand) for cand in firsts]
            tested += m
            moves: list[int] = []
            best = min(costs)
            if best < current:
                moves = [costs.index(best)]
                ys = firsts[moves[0]]
            else:
                # Depth-2 lookahead: a single move may have to go uphill
                # before the cost can drop again. The first moves are the
                # conjugates above; a second move that undoes the first
                # (symbol k1 ^ 1) comes back to the current cost, so it is
                # counted but not computed.
                for k1, k2 in itertools.product(range(m), repeat=2):
                    tested += 1
                    if k2 == k1 ^ 1:
                        continue
                    cand = move(firsts[k1], k2)
                    if cost(cand) < current:
                        moves, ys = [k1, k2], cand
                        break
                else:
                    # Failing that, the first equal-cost move to a new state.
                    for k, cand in enumerate(firsts):
                        if costs[k] == current and tuple(cand) not in visited:
                            moves, ys = [k], cand
                            break
            if not moves:
                # Traces write the cost as the pair (cost, cost), the form
                # the pinned records hold.
                trace.append(f"stall at cost {(current, current)} (attempt {attempt})")
                stalls += 1
                break
            visited.add(tuple(ys))
            # y -> s^-1 y s means the solution gains s on the right: g = P s ...
            path += moves

    status = STALLED if stalls == config.restarts + 1 else BUDGET_EXCEEDED
    return SolutionReport(status, None, None, tested, (), tuple(trace))
