"""
Reference solvers: the code `braidwork.solvers` ran before its faster
forms, kept for the differential tests, and `word_instance`, which builds
the tests' instances from word pairs. Not part of the library.

- `_setup` normalises each t x t^-1 as a word, where the library multiplies
  normal forms.
- `_candidate_loop` is the exhaustive search before it met in the middle.
  It enumerates every word with `enumerate_products`, in canonical order,
  and conjugates each pair by the whole word, so the rank of a word is the
  count of words tested. Its extra check sees the enumerated word, as the
  library's does, not the word times the coset factor.
- `solve_length_descent` is the descent before its lookahead reused the
  first-level conjugates: it recomputes them, and also computes the second
  moves that undo the first. It keeps no memo: each state it meets is
  conjugated and costed afresh, by its own copy of `_conjugate_cost`, so
  the library's per-solve dicts are checked against code they share none
  of.
"""

from __future__ import annotations

import random
from typing import Callable

from braidwork.extractors import CspInstance
from braidwork.garside import GarsideNormalForm, conjugate, inverse, normal_form, product
from braidwork.solvers import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    SOLVED,
    STALLED,
    SolutionReport,
    SolverConfig,
    verify_solution,
)
from braidwork.subgroups import SubgroupSpec
from braidwork.words import (
    BraidWord,
    compose,
    compose_all,
    enumerate_products,
    identity,
    invert,
)


def word_instance(
    pairs: tuple[tuple[BraidWord, BraidWord], ...],
    alphabet: SubgroupSpec,
    post_transform: BraidWord | None = None,
    meta: tuple[tuple[str, str], ...] = (),
) -> CspInstance:
    """The instance of these word pairs, normalised once each as a record's are."""
    forms = tuple((normal_form(x), normal_form(y)) for x, y in pairs)
    return CspInstance(forms, alphabet, post_transform, meta)


def _setup(
    instance: CspInstance, config: SolverConfig
) -> tuple[int, SubgroupSpec, BraidWord, list[GarsideNormalForm], list[GarsideNormalForm]]:
    """The strand count n, the alphabet, the coset factor t on n strands and
    the normal forms of t x t^-1 and y per pair, each from one word."""
    alphabet = config.alphabet if config.alphabet is not None else instance.alphabet
    n = max(instance.strands, alphabet.strands)
    post = instance.post_transform
    post = identity(n) if post is None else post.embed(n)
    t = invert(post)
    xs = [normal_form(compose_all([t, x, post])) for x, _ in instance.pairs]
    ys = [normal_form(y.embed(n)) for _, y in instance.pairs]
    return n, alphabet, t, xs, ys


def _candidate_loop(
    instance: CspInstance,
    config: SolverConfig,
    extra_check: Callable[[BraidWord], bool] | None = None,
) -> SolutionReport:
    """The exhaustive search before it met in the middle: each word of the
    canonical enumeration in turn, conjugating every pair by the whole
    word."""
    n, alphabet, t, xs, ys = _setup(instance, config)
    tested = 0
    for word in enumerate_products(alphabet.generators, config.max_length):
        if tested >= config.budget:
            return SolutionReport(BUDGET_EXCEEDED, None, None, tested)
        tested += 1
        # word . (t x t^-1) . word^-1 is the conjugate by word^-1.
        word_inv = invert(word)
        if all(conjugate(x, word_inv) == y for x, y in zip(xs, ys)):
            if extra_check is not None and not extra_check(word):
                continue
            g = compose(word, t)
            per_pair = tuple(verify_solution(instance, g))
            return SolutionReport(SOLVED, g, word, tested, per_pair)
    return SolutionReport(EXHAUSTED, None, None, tested)


def _conjugate_cost(ys: list[GarsideNormalForm], x_invs: list[GarsideNormalForm]) -> int:
    """Cost of the current conjugated tuple: the sum of the canonical lengths
    of the per-pair quotients y.x^-1, zero exactly at success."""
    return sum(len(product(y, x_inv).factors) for y, x_inv in zip(ys, x_invs))


def solve_length_descent(
    instance: CspInstance,
    config: SolverConfig,
) -> SolutionReport:
    """Greedy length attack with plateau moves, a depth-2 lookahead and
    seeded restarts, as `braidwork.solvers.solve_length_descent` documents."""
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
            current = _conjugate_cost(ys, x_invs)
            best_cost = current
            best_sym = None
            best_ys = None
            plateau_sym = None
            plateau_ys = None
            for sym in symbols:
                tested += 1
                cand = [conjugate(y, sym) for y in ys]
                cost = _conjugate_cost(cand, x_invs)
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
                for s1 in symbols:
                    if pending is not None:
                        break
                    mid = [conjugate(y, s1) for y in ys]
                    for s2 in symbols:
                        tested += 1
                        cand = [conjugate(y, s2) for y in mid]
                        if _conjugate_cost(cand, x_invs) < current:
                            pending = compose(s1, s2)
                            pending_ys = cand
                            break
                if pending is None and plateau_sym is not None:
                    pending = plateau_sym
                    pending_ys = plateau_ys
            if pending is None:
                trace.append(f"stall at cost {(current, current)} (attempt {attempt})")
                stalls += 1
                break
            visited.add(tuple(pending_ys))
            accumulated = compose(accumulated, pending)
            ys = pending_ys

    status = STALLED if stalls == config.restarts + 1 else BUDGET_EXCEEDED
    return SolutionReport(status, None, None, tested, (), tuple(trace))
