"""
Left Garside normal form for braid words, with permutation-braid factors.

Every braid is written uniquely as Delta^k A_1 ... A_l where Delta is the
half twist, each A_t is a nontrivial permutation braid different from
Delta, and adjacent factors are left-weighted: the starting set of A_{t+1}
is contained in the finishing set of A_t. Permutation braids are stored as
one-line permutations of {0..n-1} (images of positions) in bytes, so n is at
most 256, far above MAX_STRANDS = 64. A factor hashes once and compares by
memcmp; inverting it (the identity translated by the table p -> identity)
and flipping it by Delta (reversed, translated by x -> n-1-x) are C calls.
A normal form, like a word, is a tuple: built, hashed and compared in C.

Convention: a word read left to right maps to the permutation product
"apply first letter first", i.e. perm(ab)[i] = perm(b)[perm(a)[i]].
Under this convention
  - the starting set of a factor B is {i : B[i-1] > B[i]},
  - the finishing set of A is the starting set of A^-1.

The normal form is built as in Epstein et al., *Word Processing in Groups*
(1992), ch. 9:

  - Packing, in one right-to-left pass over the letters. A positive letter
    is put in front of the factor being packed, or starts a new one when it
    is in that factor's starting set. A negative run is P^-1 for a positive
    word P, which the pass reads left to right: a letter starts a new
    factor of P exactly when it is in the finishing set of the current one,
    and each factor B is closed as Delta^-1 . (Delta B^-1), so a literal
    Delta^-k leaves only a Delta power and no factor. The Delta power to
    the right of a factor is carried, not applied: conjugation by Delta
    maps sigma_i to sigma_(n-i), so a factor under an odd power is packed
    from mirrored letters and comes out flipped. When a Delta^-1 changes
    the power, the pending letter is mirrored again. The factors are then
    multiplied in from the left end, one comb each.
  - Right multiplication (`_comb_right`). A normal form times one
    permutation braid is normalised by a single backward comb: left-weight
    the last pair, then the pair before it, stopping at the first pair left
    unchanged. A trailing identity factor is dropped. When a pair step
    turns factor j into Delta, the rest of the comb would only carry that
    Delta to the front, one step (A, Delta) -> (Delta, flip(A)) per earlier
    factor; instead factors 0..j-1 are flipped in place and the Delta moves
    into the Delta power, in closed form.
  - The pair step (`_left_weight_pair`) moves generators from the front of
    the right factor to the back of the left one until the pair is
    left-weighted, which transfers the meet of the right factor and the
    complement of the left one. It holds the inverse of the left factor and
    the right factor as lists by position, and a move swaps the pairs at
    two adjacent positions. One insertion pass shifts each pair left past
    every neighbour it can move past, so it takes n-1+moves steps.

Equality of braid words is decided by comparing normal forms.

Arithmetic on normal forms (the element-level design of Cha, Ko, Lee, Han &
Cheon, "An Efficient Implementation of Braid Groups", ASIACRYPT 2001) lets
a search carry elements without re-expanding them into letters. Costs are
in pair steps, for normal forms of canonical lengths l and m:

  - `product(a, b)`: b's Delta power moves to the front (flipping a's l
    factors when it is odd), then m right multiplications, O(m (l + m)).
  - `inverse(a)`: closed form, no pair step; each factor becomes its
    complement A^-1 Delta, flipped by parity, in reverse order, O(l n).
  - `_comb_left`: left multiplication by one permutation braid, a forward
    comb that carries a remainder down the factors and stops at the first
    pair left unchanged, O(l).
  - `conjugate(a, s)`: per letter of s, one right and one left
    multiplication, O(l) pair steps. Only the left end cancels: there
    sigma_i^-1 passes the Delta power (as sigma_(n-i)^-1 if it is odd) and
    leaves the first factor if it starts it, and the comb carries the rest
    of that factor. Otherwise the inverse letter is written Delta^-1 .
    (Delta sigma^-1): on the left its Delta^-1 joins the Delta power, on
    the right it flips the l factors.

Commutation with generators is decided without arithmetic where supports
show it (`commutes_by_support`): a braid commutes with sigma_i when, up to
an even Delta power, it uses neither sigma_(i-1) nor sigma_(i+1). Supports
are read off the factors of the normal form and of the np-form N^-1 P,
both positive, which `inverse` gives in closed form; the np-form shows the
support that a negative infimum hides in the normal form.

The permutations of the identity, Delta, each sigma_i and each Delta
sigma_i^-1, the mirror table, and the letters of Delta and its inverse,
are built once per strand count (functools caches, emptied with the rest).

Values that leave the library (protocol tokens and keys, extractor
instances, recovered keys in reports) are exposed as canonical words:
their letters are part of the reports' bytes, and the canonical expansion
hides the letters the value was built from. A value computed by the
arithmetic above leaves through `GarsideNormalForm.to_word`; a value
composed as a word leaves through `rewrite`, which normalises it first.
The normal form is unique, so both give the same letters. Inside the
library a value stays a normal form: a key-agreement transcript holds the
normal forms of K_A, K_B and kappa, an instance holds the normal forms the
extractors computed, and each is spelt as a word only where a record or a
word-level caller reads it. A word read from a record is normalised once.
`embed` carries a normal form into a larger braid group in closed form.
"""

from __future__ import annotations

import functools
import itertools
from typing import Collection, Iterable, NamedTuple

from .words import BraidWord, delta, invert, reconcile

Perm = bytes


@functools.cache
def perm_identity(n: int) -> Perm:
    return bytes(range(n))


def perm_inv(p: Perm) -> Perm:
    """The inverse permutation: the identity read through the table p -> identity."""
    ident = perm_identity(len(p))
    return ident.translate(bytes.maketrans(p, ident))


@functools.cache
def perm_transposition(n: int, i: int) -> Perm:
    """The adjacent transposition underlying sigma_i (1-indexed)."""
    assert 1 <= i <= n - 1
    p = bytearray(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return bytes(p)


@functools.cache
def _delta_sigma_inverse(n: int, i: int) -> Perm:
    """The permutation braid Delta sigma_i^-1: sigma_i after the reversal."""
    return perm_transposition(n, i)[::-1]


@functools.cache
def _twist(n: int, positive: bool) -> tuple[int, ...]:
    """The letters of Delta_n as `words.delta` spells them, or of its inverse."""
    twist = delta(n)
    return twist.letters if positive else invert(twist).letters


@functools.cache
def perm_longest(n: int) -> Perm:
    """The order-reversing permutation, underlying Delta."""
    return bytes(range(n - 1, -1, -1))


@functools.cache
def _mirror(n: int) -> bytes:
    """The translation table x -> n-1-x."""
    return bytes.maketrans(perm_identity(n), perm_longest(n))


def perm_flip(p: Perm) -> Perm:
    """Conjugation by the longest element: Delta^-1 . p . Delta at braid level."""
    return p[::-1].translate(_mirror(len(p)))


def factor_word(p: Perm) -> list[int]:
    """A reduced positive word for the permutation braid p (letters 1-indexed),
    taking the least starting generator each time. Swapping at i can only
    create a descent at i-1 or i+1, so the scan steps back one place."""
    n = len(p)
    letters: list[int] = []
    q = list(p)
    i = 1
    while i < n:
        if q[i - 1] > q[i]:
            letters.append(i)
            q[i - 1], q[i] = q[i], q[i - 1]
            if i > 1:
                i -= 1
        else:
            i += 1
    return letters


class GarsideNormalForm(NamedTuple):
    """Delta power plus left-weighted permutation-braid factor sequence."""

    strands: int
    infimum: int
    factors: tuple[Perm, ...]

    def to_word(self) -> BraidWord:
        """Re-expand to a braid word equal to the original element."""
        n, k = self.strands, self.infimum
        letters = list(_twist(n, k > 0) * abs(k)) if k else []
        for p in self.factors:
            letters.extend(factor_word(p))
        return BraidWord(n, tuple(letters))


@functools.lru_cache(maxsize=1 << 18)
def _left_weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm, bool]:
    """Transfer generators from the front of b to the back of a until the
    pair (a, b) is left-weighted. Returns (a', b', changed)."""
    n = len(a)
    ident = perm_identity(n)
    # Position i holds the pair (u[i], v[i]) of a^-1 and b. sigma_j moves
    # when it starts b (v[j-1] > v[j]) and does not finish a (u[j-1] <
    # u[j]), and moving it swaps the pairs at j-1 and j. So one insertion
    # pass shifts each pair left past every neighbour it can move past. The
    # pair it lands beside and the one it passed last cannot move against
    # it, so the pass ends with none movable: a maximal sequence of moves,
    # which transfers the meet of b and the complement of a, as any does.
    u = list(ident.translate(bytes.maketrans(a, ident)))
    v = list(b)
    changed = False
    for i in range(1, n):
        x, y = u[i], v[i]
        j = i
        while j and v[j - 1] > y and u[j - 1] < x:
            u[j] = u[j - 1]
            v[j] = v[j - 1]
            j -= 1
        if j != i:
            u[j] = x
            v[j] = y
            changed = True
    if not changed:
        return a, b, False
    return ident.translate(bytes.maketrans(bytes(u), ident)), bytes(v), True


def _comb_right(factors: list[Perm], p: Perm, ident: Perm, w0: Perm) -> int:
    """Right-multiply left-weighted factors by the permutation braid p, in
    place: one backward comb, which stops at the first pair it leaves
    unchanged. Only the appended factor can end up trivial, and one simple
    factor raises the infimum by at most one, so at most one Delta appears;
    it is removed, and the return value (1 or 0) is what the caller adds to
    its Delta power. `ident` and `w0` are the identity and the longest
    permutation."""
    if p == ident:
        return 0
    factors.append(p)
    j = len(factors) - 2
    while j >= 0:
        a, b, moved = _left_weight_pair(factors[j], factors[j + 1])
        if not moved:
            break
        factors[j + 1] = b
        if a == w0:
            # The rest of the comb would carry Delta to the front, one pair
            # step (A, Delta) -> (Delta, flip(A)) per earlier factor.
            factors[:j] = [perm_flip(f) for f in factors[:j]]
            del factors[j]
            if factors[-1] == ident:
                factors.pop()
            return 1
        factors[j] = a
        j -= 1
    if factors[-1] == ident:
        factors.pop()
    # The front factor changed only if the comb reached it.
    if j < 0 and factors and factors[0] == w0:
        factors.pop(0)
        return 1
    return 0


def _comb_left(factors: list[Perm], p: Perm, ident: Perm, w0: Perm) -> int:
    """Left-multiply left-weighted factors by the permutation braid p, in
    place: one forward comb. Left-weighting (r, A_t) gives the next factor
    and a remainder r for A_{t+1}; the comb stops at the first pair left
    unchanged or when the remainder is trivial. As in `_comb_right`, at
    most one Delta appears, in front; it is removed and counted."""
    if p == ident:
        return 0
    r = p
    for j, f in enumerate(factors):
        b, r, moved = _left_weight_pair(r, f)
        if not moved:
            factors.insert(j, b)
            break
        factors[j] = b
        if r == ident:
            break
    else:
        factors.append(r)
    if factors[0] == w0:
        factors.pop(0)
        return 1
    return 0


@functools.lru_cache(maxsize=1 << 14)
def normal_form(a: BraidWord) -> GarsideNormalForm:
    """The left Garside normal form of a word: one right-to-left pass packs
    the letters into permutation braids, with each factor's Delta power
    carried as mirrored letters, and the factors are combed in one by one."""
    n = a.strands
    ident = perm_identity(n)
    w0 = perm_longest(n)
    # `power` is the Delta exponent to the right of the factor q being
    # packed; f . Delta^E = Delta^E . flip^E(f), so under an odd power the
    # letters are mirrored. In a negative run q is the inverse of a factor
    # B of the reversed, negated run, and closes as Delta B^-1, whose
    # Delta^-1 changes `power` and so the pending letter's mirroring.
    factors: list[Perm] = []
    power = 0
    start = list(ident)
    q = start.copy()
    negative = False
    for x in reversed(a.letters):
        i = x if x > 0 else -x
        if power % 2:
            i = n - i
        # sigma_i joins q unless it starts q (for a negative run, finishes
        # B) or changes the sign; an empty q closes as the identity.
        if (x < 0) != negative or q[i - 1] > q[i]:
            if negative:
                q.reverse()
                power -= 1
                i = n - i
            factors.append(bytes(q))
            q = start.copy()
            negative = x < 0
        q[i - 1], q[i] = q[i], q[i - 1]
    if negative:
        q.reverse()
        power -= 1
    factors.append(bytes(q))
    result: list[Perm] = []
    for p in reversed(factors):
        power += _comb_right(result, p, ident, w0)
    return GarsideNormalForm(n, power, tuple(result))


def product(a: GarsideNormalForm, b: GarsideNormalForm) -> GarsideNormalForm:
    """The normal form of a . b: b's Delta power moves to the front, flipping
    a's factors if it is odd, and b's factors are appended one comb each."""
    n = a.strands
    if b.strands != n:
        raise ValueError(f"product of normal forms on {n} and {b.strands} strands")
    ident = perm_identity(n)
    w0 = perm_longest(n)
    factors = [perm_flip(p) for p in a.factors] if b.infimum % 2 else list(a.factors)
    power = a.infimum + b.infimum
    for p in b.factors:
        power += _comb_right(factors, p, ident, w0)
    return GarsideNormalForm(n, power, tuple(factors))


def inverse(a: GarsideNormalForm) -> GarsideNormalForm:
    """The normal form of a^-1, in closed form. With A^-1 = (A^-1 Delta) .
    Delta^-1, the inverse of Delta^k A_1 ... A_l is Delta^(-k-l) times the
    factors A_t^-1 Delta for t = l..1, each flipped k+t times; the result
    is left-weighted as it stands."""
    n = a.strands
    k = a.infimum
    mirror = _mirror(n)
    factors = []
    for t in range(len(a.factors), 0, -1):
        inv = perm_inv(a.factors[t - 1])
        # flip(A^-1 Delta) is Delta A^-1, the reversed inverse.
        factors.append(inv[::-1] if (k + t) % 2 else inv.translate(mirror))
    return GarsideNormalForm(n, -k - len(a.factors), tuple(factors))


def conjugate(a: GarsideNormalForm, s: BraidWord) -> GarsideNormalForm:
    """The normal form of s^-1 . a . s, one letter of s at a time, each with
    one comb on either side. Only the left end cancels: there sigma_i^-1
    passes the Delta power as sigma_j^-1 (j = i, or n-i for an odd power)
    and cancels from the first factor when sigma_j starts it. Otherwise
    the inverse letter is written Delta^-1 . (Delta sigma^-1), whose
    Delta^-1 joins the Delta power on the left and flips a's factors on
    the right.
    s may have fewer strands than a, but not more."""
    n = a.strands
    if s.strands > n:
        raise ValueError(f"conjugating a normal form on {n} strands by a word on {s.strands}")
    ident = perm_identity(n)
    w0 = perm_longest(n)
    power = a.infimum
    factors = list(a.factors)
    for letter in s.letters:
        i = abs(letter)
        if letter > 0:
            # sigma_i^-1 . a . sigma_i, and sigma_i^-1 . Delta^k is
            # Delta^k . sigma_j^-1 with j = i, or n-i when k is odd.
            power += _comb_right(factors, perm_transposition(n, i), ident, w0)
            j = n - i if power % 2 else i
            if factors and factors[0][j - 1] > factors[0][j]:
                # sigma_j starts the first factor: cancelling it there leaves
                # a permutation braid, which one comb left-multiplies into
                # the rest; a trivial one is dropped.
                first = bytearray(factors.pop(0))
                first[j - 1], first[j] = first[j], first[j - 1]
                power += _comb_left(factors, bytes(first), ident, w0)
            else:
                # sigma_j^-1 = Delta^-1 . (Delta sigma_j^-1).
                power -= 1
                power += _comb_left(factors, _delta_sigma_inverse(n, j), ident, w0)
            continue
        # sigma_i . a . sigma_i^-1, with sigma_i^-1 = Delta^-1 . (Delta sigma_i^-1).
        factors = [perm_flip(p) for p in factors]
        power -= 1
        power += _comb_right(factors, _delta_sigma_inverse(n, i), ident, w0)
        j = n - i if power % 2 else i
        power += _comb_left(factors, perm_transposition(n, j), ident, w0)
    return GarsideNormalForm(n, power, tuple(factors))


def embed(a: GarsideNormalForm, n: int) -> GarsideNormalForm:
    """The normal form of a in B_n, for n >= a.strands, in closed form. Each
    factor fixes the added strands, and so does Delta_m for m = a.strands;
    every padded factor starts within {1..m-1}, which the padded Delta_m
    finishes, so Delta_m^k A_1 ... A_l padded is left-weighted as it stands
    for k >= 0. For k < 0 the padded Delta_m^k is inverted in closed form
    and multiplied in."""
    m = a.strands
    if n < m:
        raise ValueError(f"cannot embed a normal form on {m} strands into B_{n}")
    if n == m:
        return a
    pad = bytes(range(m, n))
    factors = tuple(p + pad for p in a.factors)
    twists = (perm_longest(m) + pad,) * abs(a.infimum)
    if a.infimum >= 0:
        return GarsideNormalForm(n, 0, twists + factors)
    return product(inverse(GarsideNormalForm(n, 0, twists)), GarsideNormalForm(n, 0, factors))


def neighbours(letters: Iterable[int]) -> set[int]:
    """The generator indices next to one of `letters`. sigma_i commutes with
    sigma_j unless |i - j| = 1, so with every braid that uses no generator
    in neighbours({i}): the one rule by which generator supports decide
    commutation, of words (`subgroups.elements_commute`, from their
    letters) and of normal forms (`commutes_by_support`, from the factors
    of the normal form and of its np-form N^-1 P)."""
    return {j for i in letters for j in (i - 1, i + 1) if j}


def commutes_by_support(a: GarsideNormalForm, letters: Collection[int]) -> bool:
    """Whether a commutes with sigma_i for each i in `letters`, decided by
    generator supports, with no pair step; False means undecided. a is
    written as Delta^e times positive braids in two ways, and sigma_i passes
    when, in one of them, e is even (an even Delta power is central in B_m,
    m = a.strands, and commutes with sigma_i for i > m, but not with
    sigma_m) and no factor uses a generator in `neighbours({i})`; an odd e
    decides nothing. The writings are the normal form and its np-form N^-1
    P (`_np_form`), which shows the support that a negative infimum hides:
    sigma_4^-1 on 7 strands is Delta^-1 times one factor that uses every
    generator, but N = sigma_4. N and P use just the generators of the
    least standard parabolic subgroup holding a (Charney, Math. Ann. 1992;
    Cumplido, Gebhardt, Gonzalez-Meneses & Wiest, Adv. Math. 2019), so for
    a word over a proper subset S of the generators, every set of letters
    that avoids neighbours(S) is decided."""
    blocked = _blocked(a)
    return blocked is not None and blocked.isdisjoint(letters)


@functools.lru_cache(maxsize=1 << 12)
def _blocked(a: GarsideNormalForm) -> frozenset[int] | None:
    """The letters i for which neither writing of a shows that sigma_i
    commutes with a, or None when neither has an even Delta power. Letters
    above a.strands are blocked by no factor. Memoised per normal form: an
    extractor asks about one token once per probe, and the solvers about
    one y in the setup and again in the final check."""
    writings = [(a.infimum, a.factors)]
    if a.infimum < 0 and a.factors:
        writings.append(_np_form(a))
    blocked = [
        neighbours(_support(factors)) | ({a.strands} if power else set())
        for power, factors in writings
        if power % 2 == 0
    ]
    return frozenset(set.intersection(*blocked)) if blocked else None


def _np_form(a: GarsideNormalForm) -> tuple[int, tuple[Perm, ...]]:
    """a as Delta^e N^-1 P with N and P positive, as e and the factors of N
    and P, for a negative infimum k and at least one factor. For the normal
    form Delta^k A_1 ... A_l and j = min(l, -k), e = k + j, N = (A_1 ...
    A_j)^-1 Delta^j and P = A_(j+1) ... A_l. N's factors are those of
    `inverse` on A_1 ... A_j flipped j times, by the Delta^j they are
    conjugated by: closed form, no pair step."""
    k, factors = a.infimum, a.factors
    j = min(len(factors), -k)
    heads = inverse(GarsideNormalForm(a.strands, 0, factors[:j])).factors
    if j % 2:
        heads = tuple(perm_flip(p) for p in heads)
    return k + j, heads + factors[j:]


def _support(factors: tuple[Perm, ...]) -> list[int]:
    """The generators some factor uses. A factor p uses sigma_j exactly
    when it moves a strand across the gap between positions j - 1 and j,
    that is when p[:j] is not 0..j-1; j distinct images sum to at least
    j(j-1)/2, with equality just then. So some factor uses sigma_j exactly
    when the first j images of all the factors sum to more than j(j-1)/2
    times their number: one prefix sum of the column sums."""
    count = len(factors)
    sums = itertools.accumulate(map(sum, zip(*factors)))
    return [j for j, total in enumerate(sums, 1) if total > count * j * (j - 1) // 2]


def permutation(a: GarsideNormalForm) -> Perm:
    """The permutation a induces on its strands, as one-line images of
    positions: Delta's by the parity of its power, then the factors'."""
    n = a.strands
    ident = perm_identity(n)
    p = perm_longest(n) if a.infimum % 2 else ident
    for f in a.factors:
        p = p.translate(bytes.maketrans(ident, f))
    return p


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same braid, after strand reconciliation."""
    a, b = reconcile(a, b)
    return normal_form(a) == normal_form(b)


def is_trivial(a: BraidWord) -> bool:
    return normal_form(a) == GarsideNormalForm(a.strands, 0, ())


def canonical_length(a: BraidWord) -> int:
    """Number of permutation-braid factors in the normal form."""
    return len(normal_form(a).factors)


def nf_key(a: BraidWord, strands: int | None = None) -> GarsideNormalForm:
    """The normal form of a in the given ambient group, a key for its braid."""
    if strands is not None:
        a = a.embed(strands)
    return normal_form(a)


def rewrite(a: BraidWord) -> BraidWord:
    """Canonical re-expansion of a word from its normal form. Used to expose
    public values without leaking the literal letters they were built from."""
    return normal_form(a).to_word()
