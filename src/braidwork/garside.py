"""
Left Garside normal form for braid words, with permutation-braid factors.

Every braid is written uniquely as Delta^k A_1 ... A_l where Delta is the
half twist, each A_t is a nontrivial permutation braid different from
Delta, and adjacent factors are left-weighted: the starting set of A_{t+1}
is contained in the finishing set of A_t. Permutation braids are stored as
one-line permutations of {0..n-1} (images of positions).

Convention: a word read left to right maps to the permutation product
"apply first letter first", i.e. perm(ab)[i] = perm(b)[perm(a)[i]].
Under this convention
  - the starting set of a factor B is {i : B[i-1] > B[i]},
  - the finishing set of A is the starting set of A^-1.

The normal form is built left-greedily, as in Epstein et al., *Word
Processing in Groups* (1992), ch. 9:

  - Packing. The word is split into runs of same-sign letters. A positive
    run is packed greedily into permutation braids: the next letter starts
    a new factor exactly when it is in the finishing set of the current
    one. A negative run is P^-1 for a positive word P; P is packed into
    B_1 ... B_m, and each B^-1 is written Delta^-1 . (Delta B^-1), so a
    literal Delta^-k leaves only a Delta power and no factor. The Delta
    powers are then moved to the front, each factor they pass being
    conjugated by Delta (`perm_flip`).
  - Right multiplication (`_comb_right`). A normal form times one
    permutation braid is normalised by a single backward comb: left-weight
    the last pair, then the pair before it, stopping at the first pair left
    unchanged. A leading Delta factor is moved into the Delta power and a
    trailing identity factor dropped as they appear.
  - The pair step (`_left_weight_pair`) moves generators from the front of
    the right factor to the back of the left one until the pair is
    left-weighted. It works on the right factor and the inverse of the left
    one as lists, where a move is two adjacent swaps, and after a move at i
    it re-examines only i-1..i+1, so it costs O(n + moves).

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
    multiplication, O(l) pair steps. A sigma_i^-1 is Delta^-1 . (Delta
    sigma_i^-1): on the left its Delta^-1 joins the Delta power, on the
    right it flips the l factors unless sigma_i can be cancelled from the
    last one.

Values that leave the library (protocol tokens, extractor instances,
recovered keys in reports) are still re-expanded with `rewrite`: their
letters are part of the reports' bytes, and the canonical expansion hides
the letters the value was built from.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Sequence

from .words import BraidWord, reconcile

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inv(p: Sequence[int]) -> Perm:
    """The inverse permutation."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def perm_transposition(n: int, i: int) -> Perm:
    """The adjacent transposition underlying sigma_i (1-indexed)."""
    assert 1 <= i <= n - 1
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_longest(n: int) -> Perm:
    """The order-reversing permutation, underlying Delta."""
    return tuple(range(n - 1, -1, -1))


def perm_flip(p: Perm) -> Perm:
    """Conjugation by the longest element: Delta^-1 . p . Delta at braid level."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def starting_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that can begin a positive word for the factor p."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def finishing_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that can end a positive word for the factor p."""
    return starting_set(perm_inv(p))


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


@dataclasses.dataclass(frozen=True)
class GarsideNormalForm:
    """Delta power plus left-weighted permutation-braid factor sequence."""

    strands: int
    infimum: int
    factors: tuple[Perm, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def word_length(self) -> int:
        """len(self.to_word()), without building it: Delta has n(n-1)/2
        letters, and a factor as many as its permutation has inversions."""
        n = self.strands
        inversions = sum(
            p[i] > p[j] for p in self.factors for i in range(n) for j in range(i + 1, n)
        )
        return abs(self.infimum) * n * (n - 1) // 2 + inversions

    def to_word(self) -> BraidWord:
        """Re-expand to a braid word equal to the original element."""
        n = self.strands
        letters: list[int] = []
        if self.infimum != 0:
            from .words import delta, power

            letters.extend(power(delta(n), self.infimum).letters)
        for p in self.factors:
            letters.extend(factor_word(p))
        return BraidWord(n, tuple(letters))


@functools.lru_cache(maxsize=1 << 18)
def _left_weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm, bool]:
    """Transfer generators from the front of b to the back of a until the
    pair (a, b) is left-weighted. Returns (a', b', changed)."""
    n = len(a)
    a_inv = list(perm_inv(a))
    b_list = list(b)
    changed = False
    # sigma_i is movable when it starts b (b[i-1] > b[i]) and does not
    # finish a (a_inv[i-1] < a_inv[i]). Moving it swaps both pairs, which
    # can only make i-1 or i+1 movable, so step back one place after a move:
    # every index below i stays unmovable, and the moves come out in the
    # same order as always taking the least movable generator.
    i = 1
    while i < n:
        if b_list[i - 1] > b_list[i] and a_inv[i - 1] < a_inv[i]:
            b_list[i - 1], b_list[i] = b_list[i], b_list[i - 1]
            a_inv[i - 1], a_inv[i] = a_inv[i], a_inv[i - 1]
            changed = True
            if i > 1:
                i -= 1
        else:
            i += 1
    if not changed:
        return a, b, False
    return perm_inv(a_inv), tuple(b_list), True


def _pack(n: int, letters: Sequence[int]) -> list[list[int]]:
    """Split a positive word greedily into permutation braids, each given by
    its inverse permutation: a letter starts a new factor exactly when it is
    in the finishing set of the current one."""
    packed: list[list[int]] = []
    inv = list(range(n))
    for i in letters:
        if inv[i - 1] > inv[i]:
            packed.append(inv)
            inv = list(range(n))
        inv[i - 1], inv[i] = inv[i], inv[i - 1]
    packed.append(inv)
    return packed


def _comb_right(factors: list[Perm], p: Perm, ident: Perm, w0: Perm) -> int:
    """Right-multiply left-weighted factors by the permutation braid p, in
    place: one backward comb, which stops at the first pair it leaves
    unchanged. Only the appended factor can end up trivial, and one simple
    factor raises the infimum by at most one, so at most one Delta appears,
    in front; it is removed, and the return value (1 or 0) is what the
    caller adds to its Delta power. `ident` and `w0` are the identity and
    the longest permutation."""
    if p == ident:
        return 0
    factors.append(p)
    j = len(factors) - 2
    while j >= 0:
        factors[j], factors[j + 1], moved = _left_weight_pair(factors[j], factors[j + 1])
        if not moved:
            break
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
    """The left Garside normal form of a word."""
    n = a.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    # Read the runs of same-sign letters right to left, so that `power` is
    # the Delta exponent to the right of each factor: f . Delta^E equals
    # Delta^E . flip^E(f).
    factors: list[Perm] = []
    power = 0
    runs = [list(run) for _, run in itertools.groupby(a.letters, lambda x: x > 0)]
    for run in reversed(runs):
        if run[0] > 0:
            for inv in reversed(_pack(n, run)):
                p = perm_inv(inv)
                factors.append(perm_flip(p) if power % 2 else p)
        else:
            # The run is (B_1 ... B_m)^-1 = B_m^-1 ... B_1^-1 for the packed
            # positive word B_1 ... B_m, and B^-1 = Delta^-1 . (Delta B^-1).
            for inv in _pack(n, [-x for x in reversed(run)]):
                p = tuple(reversed(inv))
                factors.append(perm_flip(p) if power % 2 else p)
                power -= 1
    ident = perm_identity(n)
    w0 = perm_longest(n)
    result: list[Perm] = []
    for p in reversed(factors):
        power += _comb_right(result, p, ident, w0)
    return GarsideNormalForm(n, power, tuple(result))


def product(a: GarsideNormalForm, b: GarsideNormalForm) -> GarsideNormalForm:
    """The normal form of a . b: b's Delta power moves to the front, flipping
    a's factors if it is odd, and b's factors are appended one comb each."""
    n = a.strands
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
    factors = []
    for t in range(len(a.factors), 0, -1):
        inv = perm_inv(a.factors[t - 1])
        # flip(A^-1 Delta) is Delta A^-1, the reversed inverse.
        factors.append(inv[::-1] if (k + t) % 2 else tuple(n - 1 - x for x in inv))
    return GarsideNormalForm(n, -k - len(a.factors), tuple(factors))


def conjugate(a: GarsideNormalForm, s: BraidWord) -> GarsideNormalForm:
    """The normal form of s^-1 . a . s, one letter of s at a time, each with
    one comb on either side. A sigma_i^-1 is written Delta^-1 . (Delta
    sigma_i^-1); its Delta^-1 passes a's factors only on the right, and not
    at all when sigma_i ends the last factor and can be cancelled there."""
    n = a.strands
    ident = perm_identity(n)
    w0 = perm_longest(n)
    power = a.infimum
    factors = list(a.factors)
    for letter in s.letters:
        i = abs(letter)
        if letter > 0:
            # sigma_i^-1 . a . sigma_i, and sigma_i^-1 . Delta^k is
            # Delta^(k-1) . flip^k(Delta sigma_i^-1), where
            # flip(Delta sigma_i^-1) = Delta sigma_(n-i)^-1.
            power += _comb_right(factors, perm_transposition(n, i), ident, w0)
            j = n - i if power % 2 else i
            power -= 1
            power += _comb_left(factors, perm_transposition(n, j)[::-1], ident, w0)
            continue
        # sigma_i . a . sigma_i^-1
        if factors and factors[-1].index(i - 1) > factors[-1].index(i):
            # sigma_i ends the last factor: cancelling it there keeps the
            # factors left-weighted, since the starting set can only shrink.
            last = tuple(i - 1 if x == i else i if x == i - 1 else x for x in factors[-1])
            if last == ident:
                factors.pop()
            else:
                factors[-1] = last
        else:
            factors = [perm_flip(p) for p in factors]
            power -= 1
            power += _comb_right(factors, perm_transposition(n, i)[::-1], ident, w0)
        j = n - i if power % 2 else i
        power += _comb_left(factors, perm_transposition(n, j), ident, w0)
    return GarsideNormalForm(n, power, tuple(factors))


def is_left_weighted(nf: GarsideNormalForm) -> bool:
    """Check the structural invariants of a normal form at the permutation level."""
    ident = perm_identity(nf.strands)
    w0 = perm_longest(nf.strands)
    for p in nf.factors:
        if p == ident or p == w0:
            return False
    for a, b in zip(nf.factors, nf.factors[1:]):
        if not starting_set(b) <= finishing_set(a):
            return False
    return True


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same braid, after strand reconciliation."""
    a, b = reconcile(a, b)
    return normal_form(a) == normal_form(b)


def is_trivial(a: BraidWord) -> bool:
    return normal_form(a) == GarsideNormalForm(a.strands, 0, ())


def canonical_length(a: BraidWord) -> int:
    """Number of permutation-braid factors in the normal form."""
    return normal_form(a).canonical_length


def nf_key(a: BraidWord, strands: int | None = None) -> tuple:
    """A hashable key identifying the braid a represents, in the given ambient group."""
    if strands is not None:
        a = a.embed(strands)
    nf = normal_form(a)
    return (nf.strands, nf.infimum, nf.factors)


def rewrite(a: BraidWord) -> BraidWord:
    """Canonical re-expansion of a word from its normal form. Used to expose
    public values without leaking the literal letters they were built from."""
    return normal_form(a).to_word()
