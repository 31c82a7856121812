"""Golden digests of solver reports.

The sorted-JSON `to_record()` of every report below is hashed and compared
with a pinned digest, so any change in status, solution letters, candidate
count or trace shows here. The digests were taken before the solvers moved
from re-expanded words to arithmetic on normal forms, and re-pinned once
when `to_record` stopped writing an identity solution as null; the answer
digests, of the reports with identity words written as null again, show
that nothing else in them moved. The descent's two digests were re-pinned
when it kept one cost, the difference: its reports under the other two
are gone, and each new pin is the digest the same instances gave before
with the difference cost forced on every config.
"""

import dataclasses
import hashlib
import json
import random

from solver_reference import word_instance

from braidwork.extractors import CspInstance, build_mscsp_dhdp, build_stickel_instance
from braidwork.garside import rewrite
from braidwork.protocols import ka_run, make_preset
from braidwork.solvers import (
    SolverConfig,
    solve_exhaustive,
    solve_length_descent,
    solve_power,
)
from braidwork.subgroups import SubgroupSpec, interval_generators
from braidwork.words import (
    BraidWord,
    compose,
    compose_all,
    generator,
    invert,
    power,
    random_word,
)

def digest(records) -> str:
    blob = json.dumps(list(records), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# Word fields that `to_record` wrote as null when they held the identity
# word, since the empty word is falsy, until it tested for None instead.
IDENTITY_AS_NULL = ("solution", "raw_word", "residual", "remaining_token")


def identity_as_null(value):
    """A record as `to_record` wrote it before identity words were kept:
    every identity word under IDENTITY_AS_NULL written as null."""
    if isinstance(value, list):
        return [identity_as_null(v) for v in value]
    if not isinstance(value, dict):
        return value
    return {
        k: None
        if k in IDENTITY_AS_NULL and isinstance(v, dict) and v["word"] == []
        else identity_as_null(v)
        for k, v in value.items()
    }


def conjugation_instance(g, probes, alphabet, post=None) -> CspInstance:
    g_inv = invert(g)
    pairs = tuple((p, rewrite(compose_all([g, p, g_inv]))) for p in probes)
    return word_instance(pairs, alphabet, post)


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
    g = random_word(alphabet.generators, length, random.Random(seed))
    letters = [generator(n, i) for i in range(1, n)]
    probes = tuple(random_word(letters, 5, random.Random(7 * seed + k)) for k in range(3))
    if seed % 2 == 0:
        return conjugation_instance(g, probes, alphabet)
    t = generator(n, n - 1)
    return conjugation_instance(compose(g, t), probes, alphabet, post=invert(t))


def descent_reports():
    # Acceptance criterion 5's instances (right coset factor z^-1).
    for seed in range(100):
        yield solve_length_descent(
            klchkp_instance(10, 5, seed), SolverConfig(max_length=5, restarts=6, seed=seed)
        )
    # Random secrets with inverses: restarts, plateaus and lookahead.
    for n, length in ((6, 4), (7, 6), (8, 5)):
        for seed in range(8):
            yield solve_length_descent(
                random_instance(n, length, seed),
                SolverConfig(max_length=length, restarts=2, seed=seed),
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
    # No coset factor, two instances that stall in every attempt: one on
    # the full alphabet, one on a single letter.
    yield solve_length_descent(
        conjugation_instance(
            BraidWord(6, (1, -2, -3)),
            (generator(6, 4), invert(generator(6, 2))),
            interval_generators(6, 1, 5),
        ),
        SolverConfig(max_length=3),
    )
    yield solve_length_descent(
        word_instance(
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
        word_instance(
            ((generator(4, 2), generator(4, 3)),),
            SubgroupSpec("s1", 4, (generator(4, 1),)),
        ),
        SolverConfig(max_length=2),
    )
    yield solve_exhaustive(
        word_instance(((generator(5, 1), generator(5, 2)),), interval_generators(5, 1, 4)),
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
        word_instance(((generator(4, 1), generator(4, 1)),), interval_generators(4, 1, 3)),
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


def power_reports():
    # The stickel attack's instances at every bound from 0 to 8.
    for n in (4, 6, 8):
        config = make_preset("stickel", strands=n, exponent_bound=5)
        a, b = config.stickel_pair
        for seed in range(6):
            token = ka_run(config, seed=seed).public.token_a
            for alpha in (1, 2):
                instance = build_stickel_instance(a, b, token, alpha)
                for bound in range(9):
                    yield solve_power(instance, bound)
    # The instances of test_solvers.py, and a two-generator alphabet whose
    # second generator is never tried.
    a, b = BraidWord(5, (1, 2)), BraidWord(5, (3, 4))
    cyclic = SubgroupSpec("<a>", 5, (a,))
    for exponent, bound in ((3, 5), (3, 2), (-2, 3)):
        yield solve_power(conjugation_instance(power(a, exponent), (b,), cyclic), bound)
    yield solve_power(word_instance(((generator(5, 4), generator(5, 4)),), cyclic), 3)
    yield solve_power(
        conjugation_instance(
            generator(5, 2), (generator(5, 1),), interval_generators(5, 1, 3)
        ),
        2,
    )


def check_digests(reports, name):
    records = [r.to_record() for r in reports]
    assert digest(records) == DIGESTS[name]
    # The answer digests were taken before identity words were kept, so they
    # show that keeping them moved nothing else.
    assert digest(identity_as_null(r) for r in records) == ANSWER_DIGESTS[name]


def test_descent_reports_unchanged():
    check_digests(descent_reports(), "descent")


def test_exhaustive_reports_unchanged():
    check_digests(exhaustive_reports(), "exhaustive")


def test_power_reports_unchanged():
    check_digests(power_reports(), "power")


DIGESTS = {
    "descent": "9474b31d1523e92c2c449b23b5e35dd99d70ea5d0198276d0df0c01335c45db0",
    "exhaustive": "4511bde6483341f45ee9e0bbe133c58ab07cb180532931afa7d6536698624074",
    "power": "0d10d45ebd58f6e791c51e695f73e8457f8a09d3230dd744a09c1b844e2b886c",
}
ANSWER_DIGESTS = {
    "descent": "f4cc768e367bc29a5b2e7aa9433dbd93b2111a1822ca2fc3883838f992776612",
    "exhaustive": "64ee3b81eeacefda460c4eb395cf832582242fa7fcc4185694fcb17d5f804e2f",
    "power": "1b7a4ccd24a4711c7f554133c4b11b1cbcfcabaa943d9230739f5b09de374d4e",
}
