"""
Reference exhaustive search: the candidate loop that `braidwork.solvers`
ran before it met in the middle.

It enumerates every word with `enumerate_products`, in canonical order,
and conjugates each pair by the whole word, so the rank of a word is the
count of words tested. It is slow but simple, and the differential tests
compare the meet-in-the-middle search against it. Not part of the library.
"""

from __future__ import annotations

from typing import Callable

from braidwork.extractors import CspInstance
from braidwork.garside import conjugate
from braidwork.solvers import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    SOLVED,
    SolutionReport,
    SolverConfig,
    _setup,
    verify_solution,
)
from braidwork.words import BraidWord, compose, enumerate_products, invert


def _candidate_loop(
    instance: CspInstance,
    config: SolverConfig,
    extra_check: Callable[[BraidWord], bool] | None = None,
) -> SolutionReport:
    """The search behind solve_exhaustive and solve_power, kept apart so
    neither traced solver entry calls the other."""
    n, alphabet, t, xs, ys = _setup(instance, config)
    tested = 0
    for word in enumerate_products(alphabet.generators, config.max_length):
        if tested >= config.budget:
            return SolutionReport(BUDGET_EXCEEDED, None, None, tested)
        tested += 1
        # word . (t x t^-1) . word^-1 is the conjugate by word^-1.
        word_inv = invert(word)
        if all(conjugate(x, word_inv) == y for x, y in zip(xs, ys)):
            g = compose(word, t)
            if extra_check is not None and not extra_check(g):
                continue
            per_pair = tuple(verify_solution(instance, g))
            return SolutionReport(SOLVED, g, word, tested, per_pair)
    return SolutionReport(EXHAUSTED, None, None, tested)
