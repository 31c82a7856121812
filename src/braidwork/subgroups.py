"""
Finite-generator subgroup specifications, commutation checks, and
length-bounded centralizer search.

A SubgroupSpec is just a named, ordered list of generator words; the order
matters because enumeration (and hence every solver and search built on
top) is deterministic in it. Centralizer search combines rule-based seeds
(the central element Delta^2, generators of disjoint support) with an
exhaustive sweep over short words in the ambient Artin generators,
filtered by exact commutation, and returns the elements it found.
"""

from __future__ import annotations

import dataclasses

from .garside import neighbours, nf_key, words_equal
from .words import (
    BraidWord,
    compose,
    delta,
    enumerate_products,
    expect_list,
    expect_object,
    expect_strands,
    expect_type,
    generator,
    power,
)


@dataclasses.dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup (or subset) of B_n named by a finite generator list."""

    name: str
    strands: int
    generators: tuple[BraidWord, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError(f"subgroup {self.name!r} has no generators")
        object.__setattr__(
            self, "generators", tuple(g.embed(self.strands) for g in self.generators)
        )

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "n": self.strands,
            "generators": [g.to_record() for g in self.generators],
        }

    @staticmethod
    def from_record(record: dict) -> SubgroupSpec:
        expect_object(record, "a subgroup record")
        if type(record["n"]) is not int:
            raise ValueError("a subgroup record needs an integer n")
        return SubgroupSpec(
            expect_type(record["name"], str, "a subgroup name"),
            expect_strands(record["n"]),
            tuple(
                BraidWord.from_record(g)
                for g in expect_list(record["generators"], "a subgroup's generators")
            ),
        )


def interval_generators(strands: int, lo: int, hi: int) -> SubgroupSpec:
    """The spec {sigma_lo, ..., sigma_hi} inside B_strands."""
    if not 1 <= lo <= hi <= strands - 1:
        raise ValueError(f"invalid generator interval [{lo}, {hi}] in B_{strands}")
    return SubgroupSpec(
        f"sigma[{lo}..{hi}]",
        strands,
        tuple(generator(strands, i) for i in range(lo, hi + 1)),
    )


def _commute(a: BraidWord, b: BraidWord, support_a: set[int], support_b: set[int]) -> bool:
    by_support = support_b.isdisjoint(neighbours(support_a))
    return by_support or words_equal(compose(a, b), compose(b, a))


def elements_commute(a: BraidWord, b: BraidWord) -> bool:
    """Whether ab = ba. Since sigma_i sigma_j = sigma_j sigma_i unless
    |i - j| = 1, words none of whose letter indices is next to one of the
    other's commute (`garside.neighbours`), with no normal form
    computed; any other pair is decided by comparing the normal forms of
    ab and ba."""
    return _commute(a, b, letter_support(a), letter_support(b))


def sets_commute(a: SubgroupSpec, b: SubgroupSpec) -> bool:
    """[A, B] = 1, decided pairwise on generators (which suffices) as in
    `elements_commute`. When no letter index of B is next to one of A's,
    one support test decides every pair at once."""
    by_support = letter_support(*b.generators).isdisjoint(neighbours(letter_support(*a.generators)))
    return by_support or noncommuting_witness(a, b) is None


def noncommuting_witness(
    a: SubgroupSpec, b: SubgroupSpec
) -> tuple[BraidWord, BraidWord] | None:
    """First generator pair (in enumeration order) failing to commute, if
    any. Each generator's letter support is taken once."""
    supports_b = [letter_support(gb) for gb in b.generators]
    for ga in a.generators:
        support_a = letter_support(ga)
        for gb, support_b in zip(b.generators, supports_b):
            if not _commute(ga, gb, support_a, support_b):
                return ga, gb
    return None


def letter_support(*words: BraidWord) -> set[int]:
    """The generator indices |i| the letters of the words use."""
    return {abs(x) for w in words for x in w.letters}


def centralizer_search(target: SubgroupSpec, max_length: int) -> tuple[BraidWord, ...]:
    """
    Rule-based seeds plus exhaustive search for elements of B_n,
    n = target.strands, commuting with every target generator.

    Rules: Delta^2 (central), and every Artin generator whose index support
    is distance >= 2 from every target generator's support. Search: all
    words of length <= max_length in the Artin generators of B_n, filtered
    by exact commutation, deduplicated by normal form. Results are in
    canonical order: rules first (so Delta^2 first for n >= 2), then search
    in enumeration order.
    """
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    n, targets = target.strands, target.generators
    support = letter_support(*targets)

    found: dict[tuple, BraidWord] = {}  # by normal form; the first word stays

    def add(w: BraidWord) -> None:
        found.setdefault(nf_key(w, n), w)

    if n >= 2:
        add(power(delta(n), 2))
    for i in range(1, n):
        if all(abs(i - s) >= 2 for s in support):
            add(generator(n, i))
    for w in enumerate_products([generator(n, i) for i in range(1, n)], max_length):
        if all(elements_commute(w, t) for t in targets):
            add(w)
    return tuple(found.values())
