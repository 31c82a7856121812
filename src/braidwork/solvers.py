"""
Desk-scale solvers for conjugacy-search instances: exhaustive coset
search, greedy length descent, and exponent search, which is the
exhaustive candidate loop over one generator.

All solvers share the convention of CspInstance: a solution g satisfies
g x_i g^-1 = y_i for every pair. Candidates are formed as `word . t` where
the word ranges over a canonical deterministic enumeration of the
configured alphabet and t is a fixed coset factor, the inverse of the
instance's post_transform (so the enumerated word is the secret itself).
Reports are deterministic functions of (instance, config).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

from .extractors import CspInstance
from .garside import (
    GarsideNormalForm,
    conjugate,
    inverse,
    normal_form,
    product,
    words_equal,
)
from .subgroups import SubgroupSpec
from .words import (
    BraidWord,
    compose,
    compose_all,
    enumerate_products,
    identity,
    invert,
)

SOLVED = "solved"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"
STALLED = "stalled"


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Enumeration parameters shared by the solvers."""

    max_length: int
    alphabet: SubgroupSpec | None = None  # defaults to the instance's alphabet
    budget: int = 200_000
    restarts: int = 10  # stochastic restarts for the descent solver
    seed: int = 0
    length_functional: str = "canonical"  # "canonical" | "letters" | "difference"


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
            "solution": self.solution.to_record() if self.solution else None,
            "raw_word": self.raw_word.to_record() if self.raw_word else None,
            "candidates_tested": self.candidates_tested,
            "per_pair": list(self.per_pair),
            "trace": list(self.trace),
        }


def verify_solution(instance: CspInstance, g: BraidWord) -> list[bool]:
    """Per-pair check of the defining relation g x g^-1 = y."""
    g_inv = invert(g)
    return [
        words_equal(compose_all([g, x, g_inv]), y) for x, y in instance.pairs
    ]


def _setup(
    instance: CspInstance, config: SolverConfig
) -> tuple[int, SubgroupSpec, BraidWord, list[GarsideNormalForm], list[GarsideNormalForm]]:
    """The strand count n, the alphabet, the coset factor t on n strands (the
    inverse of the instance's post_transform, or the identity) and the normal
    forms of t x t^-1 and y per pair: g = P.t solves a pair iff P conjugates
    t x t^-1 to y."""
    alphabet = config.alphabet if config.alphabet is not None else instance.alphabet
    n = max(instance.strands, alphabet.strands)
    post = instance.post_transform
    post = identity(n) if post is None else post.embed(n)
    t = invert(post)
    xs = [normal_form(compose_all([t, x, post])) for x, _ in instance.pairs]
    ys = [normal_form(y.embed(n)) for _, y in instance.pairs]
    return n, alphabet, t, xs, ys


def solve_exhaustive(
    instance: CspInstance,
    config: SolverConfig,
    extra_check: Callable[[BraidWord], bool] | None = None,
) -> SolutionReport:
    """
    Enumerate candidate words in canonical breadth-first order, apply the
    coset factor, and return the first candidate verifying every pair (and
    the optional extra predicate). Status "exhausted" means the whole
    space up to the length bound was searched; "budget-exceeded" means the
    candidate budget ran out first.
    """
    return _candidate_loop(instance, config, extra_check)


def solve_power(instance: CspInstance, max_exponent: int) -> SolutionReport:
    """Try powers base^0, base^1, base^-1, ... of the alphabet's first
    generator as conjugators (the cyclic-subgroup case): the exhaustive
    candidate loop over that one generator, whose enumeration is exactly
    these 2*max_exponent+1 powers, so its budget is never the bound."""
    if max_exponent < 0:
        raise ValueError("max exponent must be nonnegative")
    alphabet = instance.alphabet
    cyclic = SubgroupSpec(alphabet.name, alphabet.strands, alphabet.generators[:1])
    config = SolverConfig(max_exponent, cyclic, budget=2 * max_exponent + 1)
    return _candidate_loop(instance, config)


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


def _conjugate_cost(
    ys: list[GarsideNormalForm], x_invs: list[GarsideNormalForm], functional: str
) -> tuple[int, int]:
    """Primary cost of the current conjugated tuple, with the canonical
    length of the per-pair quotients y.x^-1 as a target-aware tie-break
    (zero exactly at success, so flat-length plateaus still give a signal)."""
    gap = sum(len(product(y, x_inv).factors) for y, x_inv in zip(ys, x_invs))
    if functional == "difference":
        return (gap, gap)
    if functional == "letters":
        return (sum(y.word_length for y in ys), gap)
    return (sum(len(y.factors) for y in ys), gap)


def solve_length_descent(
    instance: CspInstance,
    config: SolverConfig,
) -> SolutionReport:
    """
    Greedy length attack: repeatedly conjugate all pairs by the alphabet
    letter that most decreases the total length, until the pairs match
    their left-hand sides (success) or no move helps (stall). When no
    letter strictly decreases the sum, equal-cost moves to states not yet
    visited are taken, so plateaus are walked rather than aborted. Stalls
    restart with a seeded random prefix. Ties break on the first symbol in
    enumeration order, so traces are reproducible. Status "stalled" means
    every attempt ended with no helpful move; "budget-exceeded" means some
    attempt ran out of steps first.
    """
    n, alphabet, t, xs, ys0 = _setup(instance, config)
    symbols: list[BraidWord] = []
    for g in alphabet.generators:
        symbols += [g.embed(n), invert(g).embed(n)]
    x_invs = [inverse(x) for x in xs]

    rng = random.Random(config.seed)
    trace: list[str] = []
    tested = 0
    stalls = 0

    for attempt in range(config.restarts + 1):
        if attempt == 0:
            prefix = identity(n)
        else:
            prefix_syms = [rng.randrange(len(symbols)) for _ in range(1 + attempt)]
            prefix = compose_all([identity(n)] + [symbols[i] for i in prefix_syms])
            trace.append(f"restart {attempt} prefix {list(prefix.letters)}")
        accumulated = prefix
        ys = [conjugate(y, prefix) for y in ys0]
        visited = {tuple(ys)}

        for step in range(10 * (config.max_length + len(prefix)) + 10):
            if ys == xs:
                g = compose(accumulated, t)
                per_pair = tuple(verify_solution(instance, g))
                trace.append(f"success after {step} steps (attempt {attempt})")
                return SolutionReport(
                    SOLVED, g, accumulated, tested, per_pair, tuple(trace)
                )
            current = _conjugate_cost(ys, x_invs, config.length_functional)
            best_cost = current
            best_sym = None
            best_ys = None
            plateau_sym = None
            plateau_ys = None
            for sym in symbols:
                tested += 1
                cand = [conjugate(y, sym) for y in ys]
                cost = _conjugate_cost(cand, x_invs, config.length_functional)
                if cost < best_cost:
                    best_cost = cost
                    best_sym = sym
                    best_ys = cand
                elif (
                    cost == current
                    and plateau_sym is None
                    and tuple(cand) not in visited
                ):
                    plateau_sym = sym
                    plateau_ys = cand
            pending: BraidWord | None = None
            if best_sym is not None:
                pending = best_sym
                pending_ys = best_ys
            else:
                # Depth-2 lookahead: a single move may have to go uphill
                # before the cost can drop again.
                for s1 in symbols:
                    if pending is not None:
                        break
                    mid = [conjugate(y, s1) for y in ys]
                    for s2 in symbols:
                        tested += 1
                        cand = [conjugate(y, s2) for y in mid]
                        if _conjugate_cost(cand, x_invs, config.length_functional) < current:
                            pending = compose(s1, s2)
                            pending_ys = cand
                            break
                if pending is None and plateau_sym is not None:
                    pending = plateau_sym
                    pending_ys = plateau_ys
            if pending is None:
                trace.append(f"stall at cost {current} (attempt {attempt})")
                stalls += 1
                break
            visited.add(tuple(pending_ys))
            # y -> s^-1 y s means the solution gains s on the right: g = P s ...
            accumulated = compose(accumulated, pending)
            ys = pending_ys

    status = STALLED if stalls == config.restarts + 1 else BUDGET_EXCEEDED
    return SolutionReport(status, None, None, tested, (), tuple(trace))
