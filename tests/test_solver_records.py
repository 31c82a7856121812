"""Golden digests of solver reports.

The sorted-JSON `to_record()` of every report below is hashed and compared
with a digest taken before the solvers moved from re-expanded words to
arithmetic on normal forms, so any change in status, solution letters,
candidate count or trace shows here.
"""

import dataclasses
import hashlib
import json

from braidwork.extractors import CspInstance, build_mscsp_dhdp
from braidwork.garside import rewrite
from braidwork.protocols import ka_run, make_preset
from braidwork.solvers import SolverConfig, solve_exhaustive, solve_length_descent
from braidwork.subgroups import SubgroupSpec, interval_generators
from braidwork.words import (
    BraidWord,
    compose,
    compose_all,
    generator,
    invert,
    random_word,
)

FUNCTIONALS = ("canonical", "letters", "difference")


def digest(reports) -> str:
    blob = json.dumps([r.to_record() for r in reports], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def conjugation_instance(g, probes, alphabet, post=None) -> CspInstance:
    g_inv = invert(g)
    pairs = tuple((p, rewrite(compose_all([g, p, g_inv]))) for p in probes)
    return CspInstance(pairs, alphabet, post)


def klchkp_instance(strands, secret_length, seed, target="a", positive_only=True):
    config = dataclasses.replace(
        make_preset("klchkp", strands=strands, secret_length=secret_length),
        positive_only=positive_only,
    )
    return build_mscsp_dhdp(ka_run(config, seed=seed).public, target)


def random_instance(n, length, seed) -> CspInstance:
    """A random secret over sigma_1..sigma_{n/2}, three random probes over
    all generators, and on odd seeds a coset factor sigma_{n-1}."""
    alphabet = interval_generators(n, 1, n // 2)
    g = random_word(alphabet.generators, length, seed)
    letters = [generator(n, i) for i in range(1, n)]
    probes = tuple(random_word(letters, 5, 7 * seed + k) for k in range(3))
    if seed % 2 == 0:
        return conjugation_instance(g, probes, alphabet)
    t = generator(n, n - 1)
    return conjugation_instance(compose(g, t), probes, alphabet, post=invert(t))


def descent_reports():
    # Acceptance criterion 5's instances (right coset factor z^-1), once per
    # length functional.
    for functional in FUNCTIONALS:
        for seed in range(100):
            yield solve_length_descent(
                klchkp_instance(10, 5, seed),
                SolverConfig(
                    max_length=5, restarts=6, seed=seed, length_functional=functional
                ),
            )
    # Random secrets with inverses: restarts, plateaus and lookahead.
    for functional in FUNCTIONALS:
        for n, length in ((6, 4), (7, 6), (8, 5)):
            for seed in range(8):
                yield solve_length_descent(
                    random_instance(n, length, seed),
                    SolverConfig(
                        max_length=length,
                        restarts=2,
                        seed=seed,
                        length_functional=functional,
                    ),
                )
    # The other coset side (post_transform z), and an explicit transform.
    for seed in range(5):
        yield solve_length_descent(
            klchkp_instance(10, 5, seed, target="b"),
            SolverConfig(max_length=5, restarts=6, seed=seed),
        )
    t = generator(6, 5)
    post_inst = conjugation_instance(
        compose(BraidWord(6, (1, -2, 3)), t),
        (generator(6, 1), generator(6, 3), generator(6, 5)),
        interval_generators(6, 1, 3),
        post=invert(t),
    )
    yield solve_length_descent(post_inst, SolverConfig(max_length=3))
    yield solve_length_descent(
        dataclasses.replace(post_inst, post_transform=t),
        SolverConfig(max_length=3, seed=2),
    )
    # No coset factor; and an instance that stalls in every attempt.
    yield solve_length_descent(
        conjugation_instance(
            BraidWord(6, (2, 3, -1)),
            (generator(6, 1), generator(6, 4)),
            interval_generators(6, 1, 5),
        ),
        SolverConfig(max_length=3, length_functional="letters"),
    )
    yield solve_length_descent(
        CspInstance(
            ((generator(4, 2), generator(4, 3)),),
            SubgroupSpec("s1", 4, (generator(4, 1),)),
        ),
        SolverConfig(max_length=1, restarts=2),
    )


def exhaustive_reports():
    # The instances of test_solvers.py.
    alphabet = interval_generators(5, 1, 2)
    yield solve_exhaustive(
        conjugation_instance(
            BraidWord(5, (1, 2)), (generator(5, 4), generator(5, 1)), alphabet
        ),
        SolverConfig(max_length=2),
    )
    yield solve_exhaustive(
        conjugation_instance(
            generator(4, 2),
            (generator(4, 1), generator(4, 3)),
            interval_generators(4, 1, 3),
        ),
        SolverConfig(max_length=1),
    )
    yield solve_exhaustive(
        CspInstance(
            ((generator(4, 2), generator(4, 3)),),
            SubgroupSpec("s1", 4, (generator(4, 1),)),
        ),
        SolverConfig(max_length=2),
    )
    yield solve_exhaustive(
        CspInstance(((generator(5, 1), generator(5, 2)),), interval_generators(5, 1, 4)),
        SolverConfig(max_length=4, budget=5),
    )
    t = generator(5, 4)
    yield solve_exhaustive(
        conjugation_instance(
            compose(BraidWord(5, (1, 2)), t), (generator(5, 1),), alphabet, post=invert(t)
        ),
        SolverConfig(max_length=2),
    )
    yield solve_exhaustive(
        CspInstance(((generator(4, 1), generator(4, 1)),), interval_generators(4, 1, 3)),
        SolverConfig(max_length=1),
        extra_check=lambda g: len(g) > 0,
    )
    # Random instances, some solved deep in the enumeration order.
    for n, length in ((5, 3), (6, 3), (5, 4)):
        for seed in range(6):
            yield solve_exhaustive(
                random_instance(n, length, seed),
                SolverConfig(max_length=3, budget=400),
            )
    for seed in (9, 1):
        for target in ("a", "b"):
            yield solve_exhaustive(
                klchkp_instance(6, 2, seed, target=target, positive_only=False),
                SolverConfig(max_length=2),
            )


def test_descent_reports_unchanged():
    assert digest(descent_reports()) == DESCENT_DIGEST


def test_exhaustive_reports_unchanged():
    assert digest(exhaustive_reports()) == EXHAUSTIVE_DIGEST


DESCENT_DIGEST = "365576b3bc2afc582bc1a65109580f045d01b9b6efd0c897537611b25d8e3b46"
EXHAUSTIVE_DIGEST = "64ee3b81eeacefda460c4eb395cf832582242fa7fcc4185694fcb17d5f804e2f"
