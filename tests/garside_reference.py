"""
Reference Garside normal form: the letter-per-factor algorithm that
`braidwork.garside` used before it packed letters into simple factors.

Every letter becomes its own permutation-braid factor, the Delta powers are
moved to the front by flipping each factor they pass, the sequence is
combed one generator at a time, and a fixpoint pass re-checks every pair at
the end. It is slow but simple, and the differential tests compare against
it the library's single right-to-left pass, which packs letters into
factors and carries the Delta parity as mirrored letters. `factor_word` is
the rescanning version of the re-expansion, whose letters the public words
are made of. The permutation product, starting and finishing sets and the
left-weighted check are the definitions the reference and the tests are
written in.

The reference computes on permutations as tuples, with its own loops for
the identity, transpositions, Delta, inverse and flip, so it does not share
the library's byte-level kernels; it converts to `bytes` only where it
builds a `GarsideNormalForm`. Not part of the library.
"""

from __future__ import annotations

import functools
from typing import Sequence

from braidwork.garside import GarsideNormalForm
from braidwork.words import BraidWord

Perm = tuple[int, ...]


@functools.cache
def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_inv(p: Sequence[int]) -> Perm:
    """The inverse permutation."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


@functools.cache
def perm_transposition(n: int, i: int) -> Perm:
    """The adjacent transposition underlying sigma_i (1-indexed)."""
    assert 1 <= i <= n - 1
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


@functools.cache
def perm_longest(n: int) -> Perm:
    """The order-reversing permutation, underlying Delta."""
    return tuple(range(n - 1, -1, -1))


def perm_flip(p: Perm) -> Perm:
    """Conjugation by the longest element: Delta^-1 . p . Delta at braid level."""
    m = len(p) - 1
    return tuple([m - x for x in reversed(p)])


def as_form(n: int, power: int, factors) -> GarsideNormalForm:
    """A normal form with the library's factor type."""
    return GarsideNormalForm(n, power, tuple(bytes(p) for p in factors))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def starting_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that can begin a positive word for the factor p."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def finishing_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i that can end a positive word for the factor p."""
    return starting_set(perm_inv(p))


def is_left_weighted(nf: GarsideNormalForm) -> bool:
    """Check the structural invariants of a normal form at the permutation level."""
    ident = perm_identity(nf.strands)
    w0 = perm_longest(nf.strands)
    factors = [tuple(p) for p in nf.factors]
    for p in factors:
        if p == ident or p == w0:
            return False
    for a, b in zip(factors, factors[1:]):
        if not starting_set(b) <= finishing_set(a):
            return False
    return True


def factor_word(p: Perm) -> list[int]:
    """A reduced positive word for the permutation braid p (letters 1-indexed)."""
    n = len(p)
    letters: list[int] = []
    q = list(p)
    while True:
        for i in range(1, n):
            if q[i - 1] > q[i]:
                letters.append(i)
                q[i - 1], q[i] = q[i], q[i - 1]
                break
        else:
            return letters


@functools.lru_cache(maxsize=1 << 18)
def _left_weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm, bool]:
    """Transfer generators from the front of b to the back of a until the
    pair (a, b) is left-weighted. Returns (a', b', changed)."""
    n = len(a)
    changed = False
    while True:
        movable = starting_set(b) - finishing_set(a)
        if not movable:
            return a, b, changed
        i = min(movable)
        s = perm_transposition(n, i)
        a = perm_mul(a, s)
        b = perm_mul(s, b)
        changed = True


def _normalise_factors(n: int, factors: list[Perm]) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight a factor sequence, stripping Delta factors to a leading
    power and dropping trivial factors. Returns (delta_power, factors)."""
    ident = perm_identity(n)
    w0 = perm_longest(n)
    factors = [p for p in factors if p != ident]
    # Incremental pass: extend a normalised prefix one factor at a time,
    # combing changes backwards.
    for i in range(len(factors) - 1):
        factors[i], factors[i + 1], moved = _left_weight_pair(
            factors[i], factors[i + 1]
        )
        if moved:
            for j in range(i - 1, -1, -1):
                a, b, moved_back = _left_weight_pair(factors[j], factors[j + 1])
                if not moved_back:
                    break
                factors[j], factors[j + 1] = a, b
    # Fixpoint safety net: combing can in principle disturb later pairs.
    while True:
        changed = False
        for i in range(len(factors) - 1):
            factors[i], factors[i + 1], moved = _left_weight_pair(
                factors[i], factors[i + 1]
            )
            changed = changed or moved
        if not changed:
            break
    power = 0
    lo = 0
    hi = len(factors)
    while lo < hi and factors[lo] == w0:
        power += 1
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return power, tuple(factors[lo:hi])


@functools.lru_cache(maxsize=1 << 14)
def normal_form(a: BraidWord) -> GarsideNormalForm:
    """The left Garside normal form of a word."""
    n = a.strands
    if n == 1:
        return as_form(1, 0, ())
    w0 = perm_longest(n)
    factors: list[Perm] = []
    dpows: list[int] = []
    for letter in a.letters:
        s = perm_transposition(n, abs(letter))
        if letter > 0:
            factors.append(s)
            dpows.append(0)
        else:
            # sigma_i^-1 = Delta^-1 . (Delta sigma_i^-1), the latter a permutation braid
            factors.append(perm_mul(w0, s))
            dpows.append(-1)
    # Push all Delta powers to the front: f . Delta^E = Delta^E . flip^E(f).
    trailing = 0
    for i in range(len(factors) - 1, -1, -1):
        if trailing % 2:
            factors[i] = perm_flip(factors[i])
        trailing += dpows[i]
    extra, normalised = _normalise_factors(n, factors)
    return as_form(n, trailing + extra, normalised)


def inverse(a: GarsideNormalForm) -> GarsideNormalForm:
    """The normal form of a^-1, in closed form: Delta^(-k-l) times the
    factors A_t^-1 Delta for t = l..1, each flipped k+t times."""
    n = a.strands
    k = a.infimum
    factors = []
    for t in range(len(a.factors), 0, -1):
        inv = perm_inv(a.factors[t - 1])
        # flip(A^-1 Delta) is Delta A^-1, the reversed inverse.
        factors.append(inv[::-1] if (k + t) % 2 else tuple(n - 1 - x for x in inv))
    return as_form(n, -k - len(a.factors), factors)
