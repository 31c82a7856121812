"""
Words over the Artin generators of the braid groups B_n.

A braid word is a sequence of nonzero integers: the letter i (positive)
stands for the Artin generator sigma_i, the letter -i for its inverse.
The strand count n is explicit; letters must satisfy 1 <= |i| <= n-1.
Words on fewer strands embed into words on more strands with unchanged
letters (the natural inclusion B_n < B_m), and binary operations
reconcile strand counts by taking the maximum.

All values are immutable; operations return fresh words.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Iterable, Iterator, NamedTuple, Sequence

# Largest strand count accepted from records and the CLI, above every n the
# tests, README and benchmark use: arithmetic and search cost grows with n.
MAX_STRANDS = 64
# Largest secret length accepted from records and the CLI, far above the
# default of 8 and every length the tests, README and benchmark use: the
# cost of a protocol run grows faster than linearly with it.
MAX_SECRET_LENGTH = 256


@functools.lru_cache(maxsize=MAX_STRANDS)
def _letters(strands: int) -> frozenset[int]:
    """The letters of B_strands: +-1 .. +-(strands - 1). BraidWord checks
    its letters as one inclusion in this set, which runs in C."""
    return frozenset(range(1 - strands, strands)) - {0}


class _BraidWordFields(NamedTuple):
    strands: int
    letters: tuple[int, ...]


class BraidWord(_BraidWordFields):
    """A word in the Artin generators of B_n. The empty word is the identity."""

    __slots__ = ()

    def __new__(cls, strands: int, letters: Iterable[int] = ()) -> BraidWord:
        if strands < 1:
            raise ValueError(f"strand count must be positive, got {strands}")
        letters = tuple(letters)
        if not _letters(strands).issuperset(letters):
            x = next(x for x in letters if x not in _letters(strands))
            raise ValueError(f"letter {x} out of range for {strands} strands")
        return tuple.__new__(cls, (strands, letters))

    @classmethod
    def _make(cls, fields: Iterable) -> BraidWord:
        """Through `__new__`, so `_make` and `_replace` check the letters."""
        return cls(*fields)

    def __len__(self) -> int:
        return len(self.letters)

    def embed(self, strands: int) -> BraidWord:
        """Reinterpret this word in a larger braid group (natural inclusion)."""
        if strands < self.strands:
            raise ValueError(f"cannot embed B_{self.strands} word into B_{strands}")
        if strands == self.strands:
            return self
        return BraidWord(strands, self.letters)

    def to_record(self) -> dict:
        return {"n": self.strands, "word": list(self.letters)}

    @staticmethod
    def from_record(record: dict) -> BraidWord:
        expect_object(record, "a braid word record")
        n, letters = record["n"], record["word"]
        if type(n) is not int or not isinstance(letters, list) or any(
            type(x) is not int for x in letters
        ):
            raise ValueError("a braid word record needs an integer n and integer letters")
        return BraidWord(expect_strands(n), tuple(letters))


def expect_object(record, what: str) -> dict:
    """`record` itself if it is a JSON object; a ValueError naming `what`
    otherwise. Records are read from outside input, so the from_record
    functions check each nested record's type before indexing it."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(record).__name__}")
    return record


def expect_list(value, what: str) -> list:
    """`value` itself if it is a JSON array; a ValueError naming `what` otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def expect_type(value, kind: type, what: str):
    """`value` itself if its type is exactly `kind` (so a bool is not an
    int); a ValueError naming `what` otherwise."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return value


def expect_strands(n: int) -> int:
    """`n` itself if it is at most MAX_STRANDS; a ValueError otherwise."""
    if n > MAX_STRANDS:
        raise ValueError(f"strand count {n} is above the cap of {MAX_STRANDS}")
    return n


def expect_secret_length(length: int) -> int:
    """`length` itself if it is from 0 to MAX_SECRET_LENGTH; a ValueError otherwise."""
    if length < 0:
        raise ValueError(f"secret length {length} is negative")
    if length > MAX_SECRET_LENGTH:
        raise ValueError(f"secret length {length} is above the cap of {MAX_SECRET_LENGTH}")
    return length


def identity(strands: int) -> BraidWord:
    return BraidWord(strands, ())


def generator(strands: int, index: int) -> BraidWord:
    """The generator sigma_index (or its inverse for negative index) as a word."""
    return BraidWord(strands, (index,))


def reconcile(a: BraidWord, b: BraidWord) -> tuple[BraidWord, BraidWord]:
    """Embed both words into the larger of the two ambient groups."""
    n = max(a.strands, b.strands)
    return a.embed(n), b.embed(n)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenation a*b. No free reduction is applied."""
    a, b = reconcile(a, b)
    return BraidWord(a.strands, a.letters + b.letters)


def compose_all(words: Iterable[BraidWord]) -> BraidWord:
    words = list(words)
    if not words:
        raise ValueError("compose_all needs at least one word")
    n = max(w.strands for w in words)
    letters: list[int] = []
    for w in words:
        letters.extend(w.letters)
    return BraidWord(n, tuple(letters))


def invert(a: BraidWord) -> BraidWord:
    """Letters reversed with signs flipped."""
    return BraidWord(a.strands, tuple(-x for x in reversed(a.letters)))


def power(a: BraidWord, exponent: int) -> BraidWord:
    """a composed with itself |exponent| times, inverted for negative exponents."""
    base = a if exponent >= 0 else invert(a)
    return BraidWord(a.strands, base.letters * abs(exponent))


def delta(strands: int) -> BraidWord:
    """The fundamental braid Delta_n = (s1)(s2 s1)...(s_{n-1} ... s1)."""
    if strands < 2:
        raise ValueError(f"delta needs at least 2 strands, got {strands}")
    letters: list[int] = []
    for i in range(1, strands):
        letters.extend(range(i, 0, -1))
    return BraidWord(strands, tuple(letters))


def crossings(a: BraidWord) -> tuple[bytes, tuple[int, ...]]:
    """The image of a word in B_n/[P_n, P_n], in one pass over its letters.

    Strands are numbered by the position they start at. The first part is
    the strand at each position after the word, one byte per position
    (the inverse of `garside`'s one-line images of positions). The second
    counts, for each pair of strands a < b at index a*n + b (the other
    entries stay 0), how often they cross: +1 at each sigma_i, -1 at each
    sigma_i^-1, summed.

    Equal braids have equal images, so a difference proves two words
    unequal. Each braid relation crosses the same pairs of strands with
    the same signs on both sides (sigma_i sigma_j = sigma_j sigma_i with
    |i - j| >= 2 crosses two disjoint pairs, sigma_i sigma_{i+1} sigma_i
    = sigma_{i+1} sigma_i sigma_{i+1} crosses each pair of three strands
    once), and a cancelling pair sigma_i^{+-1} sigma_i^{-+1} crosses one
    pair +1 and -1. O(len a + n^2)."""
    n = a.strands
    at = list(range(n))
    counts = [0] * (n * n)
    for x in a.letters:
        i = abs(x)
        p, q = at[i - 1], at[i]
        counts[p * n + q if p < q else q * n + p] += 1 if x > 0 else -1
        at[i - 1], at[i] = q, p
    return bytes(at), tuple(counts)


def shift(a: BraidWord) -> BraidWord:
    """Dehornoy's shift endomorphism d: every index up by one, strands up by one."""
    return BraidWord(a.strands + 1, tuple([x + 1 if x > 0 else x - 1 for x in a.letters]))


def unshift(a: BraidWord) -> BraidWord:
    """
    Literal inverse of shift: every index down by one, strands down by one.

    Purely syntactic: raises ValueError if the word contains a letter +-1,
    i.e. is not literally in the image of shift.
    """
    for x in a.letters:
        if abs(x) == 1:
            raise ValueError("word contains sigma_1^{+-1}, not in the image of shift")
    return BraidWord(a.strands - 1, tuple([x - 1 if x > 0 else x + 1 for x in a.letters]))


@dataclasses.dataclass(frozen=True)
class Endomorphism:
    """One of the finite family of maps used by the twisted-conjugacy machinery:
    the identity, the index shift, or conjugation by a fixed braid."""

    kind: str  # "identity" | "shift" | "inner"
    conjugator: BraidWord | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "shift", "inner"):
            raise ValueError(f"unknown endomorphism kind {self.kind!r}")
        if self.kind == "inner" and self.conjugator is None:
            raise ValueError("inner endomorphism needs a conjugator")


IDENTITY_ENDO = Endomorphism("identity")
SHIFT_ENDO = Endomorphism("shift")


def inner_endo(h: BraidWord) -> Endomorphism:
    return Endomorphism("inner", h)


def apply_endo(f: Endomorphism, a: BraidWord) -> BraidWord:
    if f.kind == "identity":
        return a
    if f.kind == "shift":
        return shift(a)
    assert f.conjugator is not None
    return compose(f.conjugator, compose(a, invert(f.conjugator)))


def shifted_conjugate(r: BraidWord, p: BraidWord) -> BraidWord:
    """The shifted conjugacy operation r*p = r . d(p) . sigma_1 . d(r)^-1,
    on max(r.strands, p.strands) + 1 strands, written as one word."""
    letters = [*r.letters, *[x + 1 if x > 0 else x - 1 for x in p.letters], 1]
    letters += [-x - 1 if x > 0 else 1 - x for x in reversed(r.letters)]
    return BraidWord(max(r.strands, p.strands) + 1, letters)


def random_word(
    alphabet: Sequence[BraidWord],
    length: int,
    rng: random.Random | int,
    use_inverses: bool = True,
) -> BraidWord:
    """
    A product of `length` uniformly chosen alphabet entries (or their
    inverses when use_inverses is set). Deterministic given a seed.
    """
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if isinstance(rng, int):
        rng = random.Random(rng)
    n = max(w.strands for w in alphabet)
    letters: list[int] = []
    for _ in range(length):
        w = alphabet[rng.randrange(len(alphabet))].letters
        if use_inverses and rng.random() < 0.5:
            w = [-x for x in reversed(w)]
        letters.extend(w)
    return BraidWord(n, tuple(letters))


def canonical_symbols(generators: Sequence[BraidWord]) -> list[BraidWord]:
    """The canonical symbols of the enumeration: symbol 2i is the i-th
    generator and 2i+1 its inverse, so k ^ 1 cancels k."""
    return [s for g in generators for s in (g, invert(g))]


def enumerate_products(
    alphabet: Sequence[BraidWord], max_length: int
) -> Iterator[BraidWord]:
    """
    Canonical breadth-first enumeration of products of alphabet entries of
    length 0..max_length: ordered by length, then lexicographically by
    symbol position (each generator followed by its inverse). Immediately
    cancelling symbol pairs are skipped; every group element expressible
    within the length bound still appears. Each length is walked depth
    first, so the state is one prefix per depth, not a whole length level.
    """
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    n = max(w.strands for w in alphabet)
    symbols = [s.letters for s in canonical_symbols(alphabet)]

    def walk(prefix: tuple[int, ...], last: int, depth: int) -> Iterator[BraidWord]:
        for k, letters in enumerate(symbols):
            if k ^ 1 == last:
                continue
            if depth == 1:
                yield BraidWord(n, prefix + letters)
            else:
                yield from walk(prefix + letters, k, depth - 1)

    yield identity(n)
    for length in range(1, max_length + 1):
        yield from walk((), -1, length)
