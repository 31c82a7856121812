"""
Finite-generator subgroup specifications, commutation checks, and budgeted
centralizer search.

A SubgroupSpec is just a named, ordered list of generator words; the order
matters because enumeration (and hence every solver and search built on
top) is deterministic in it. Centralizer search combines rule-based seeds
(the central element Delta^2, generators of disjoint support) with an
exhaustive sweep over short alphabet words, filtered by exact commutation,
and returns the elements it found.
"""

from __future__ import annotations

import dataclasses

from .garside import nf_key, words_equal
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
        if not isinstance(self.generators, tuple):
            object.__setattr__(self, "generators", tuple(self.generators))
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


def elements_commute(a: BraidWord, b: BraidWord) -> bool:
    return words_equal(compose(a, b), compose(b, a))


def sets_commute(a: SubgroupSpec, b: SubgroupSpec) -> bool:
    """[A, B] = 1, decided pairwise on generators (which suffices)."""
    return noncommuting_witness(a, b) is None


def noncommuting_witness(
    a: SubgroupSpec, b: SubgroupSpec
) -> tuple[BraidWord, BraidWord] | None:
    """First generator pair (in enumeration order) failing to commute, if any."""
    for ga in a.generators:
        for gb in b.generators:
            if not elements_commute(ga, gb):
                return ga, gb
    return None


def letter_support(*words: BraidWord) -> set[int]:
    """The generator indices |i| the letters of the words use."""
    return {abs(x) for w in words for x in w.letters}


def centralizer_search(
    target: SubgroupSpec, max_length: int, alphabet: SubgroupSpec
) -> tuple[BraidWord, ...]:
    """
    Rule-based seeds plus exhaustive search for elements commuting with
    every target generator.

    Rules: Delta^2 of the ambient group (central), and every ambient Artin
    generator whose index support is distance >= 2 from every target
    generator's support. Search: all alphabet words of length <= max_length,
    filtered by exact commutation, deduplicated by normal form. Results are
    in canonical order: rules first, then search in enumeration order.
    """
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    n = max(target.strands, alphabet.strands)
    targets = [t.embed(n) for t in target.generators]
    support = letter_support(*targets)

    found: dict[tuple, BraidWord] = {}  # by normal form; the first word stays

    def add(w: BraidWord) -> None:
        found.setdefault(nf_key(w, n), w)

    if n >= 2:
        add(power(delta(n), 2))
    for i in range(1, n):
        if all(abs(i - s) >= 2 for s in support):
            add(generator(n, i))
    for w in enumerate_products(alphabet.generators, max_length):
        if all(elements_commute(w, t) for t in targets):
            add(w)
    return tuple(found.values())
