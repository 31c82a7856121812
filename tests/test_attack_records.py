"""Golden digests of attack records.

The sorted-JSON `to_record()` of every attack result below, and of the
instances the extractors and attack pipelines build, is hashed and compared
with a digest taken before instance construction moved behind the extractor
builders, so any change in a pair's letters, a check, a recovered value or a
solver report shows here. Instances an attack builds for itself are captured
at the solver call and pinned by their pairs and meta.
"""

import dataclasses
import hashlib
import json
import random

import pytest

import braidwork.attacks as attacks
from braidwork.attacks import (
    attack_decomposition,
    attack_dehornoy_centralizer,
    attack_dehornoy_pair,
    attack_stickel,
    complete_base,
    decide_edl,
    partial_factor_attack,
    solve_gtcp,
)
from braidwork.extractors import (
    build_gtcp_instances,
    build_mscsp_dhdp,
    build_stickel_instance,
)
from braidwork.garside import rewrite
from braidwork.protocols import (
    DehornoyKeys,
    dehornoy_commit,
    dehornoy_keygen,
    dehornoy_respond,
    ka_run,
    make_preset,
)
from braidwork.solvers import SolverConfig
from braidwork.subgroups import SubgroupSpec, interval_generators
from braidwork.words import (
    IDENTITY_ENDO,
    SHIFT_ENDO,
    BraidWord,
    apply_endo,
    compose,
    compose_all,
    generator,
    identity,
    inner_endo,
    invert,
    power,
    random_word,
    shifted_conjugate,
)

GTCP_MODES = ("pairwise-ce1", "pairwise-ce2", "centralizer-ce3", "centralizer-ce4")


def digest(records) -> str:
    blob = json.dumps(list(records), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def solved_instances(monkeypatch):
    """Pairs and meta of every instance the attack pipelines hand to a solver."""
    seen = []

    def capture(solve):
        def wrapper(instance, *args, **kwargs):
            record = instance.to_record()
            seen.append({"pairs": record["pairs"], "meta": record["meta"]})
            return solve(instance, *args, **kwargs)

        return wrapper

    for name in ("solve_exhaustive", "solve_length_descent", "solve_power"):
        monkeypatch.setattr(attacks, name, capture(getattr(attacks, name)))
    return seen


def rand_word(n, length, rng):
    return random_word([generator(n, i) for i in range(1, n)], length, rng)


def edl_records():
    # Acceptance criterion 7's draws: planted positives, spoiled negatives
    # and the subset plant.
    alphabet = interval_generators(6, 1, 2)
    config = SolverConfig(max_length=2, alphabet=alphabet)
    rng = random.Random(7)
    probe_gens = [generator(6, i) for i in (4, 5)]

    def xs(k):
        return tuple(random_word(probe_gens, 1 + rng.randrange(2), rng) for _ in range(k))

    for _ in range(50):
        u = random_word(alphabet.generators, 1 + rng.randrange(2), rng)
        v = random_word(alphabet.generators, 1 + rng.randrange(2), rng)
        tokens = tuple((x, rewrite(compose_all([u, x, v]))) for x in xs(2))
        yield from (d.to_record() for d in decide_edl(tokens, config))
    spoil = interval_generators(6, 3, 4)
    for _ in range(50):
        tokens = []
        for x in xs(2):
            ui = random_word(spoil.generators, 2, rng, use_inverses=False)
            vi = random_word(spoil.generators, 2, rng, use_inverses=False)
            tokens.append((x, rewrite(compose_all([ui, compose(x, power(ui, 2)), vi]))))
        yield from (d.to_record() for d in decide_edl(tuple(tokens), config))
    u = BraidWord(6, (1, 2))
    v = invert(u)
    x0, x1, x2 = generator(6, 4), BraidWord(6, (4, 5)), generator(6, 5)
    tokens = (
        (x0, rewrite(compose_all([u, x0, v]))),
        (x1, rewrite(compose_all([u, x1, v]))),
        (x2, rewrite(compose_all([generator(6, 3), x2, generator(6, 3)]))),
    )
    subsets = ((0, 1), (0, 2), (1, 2), (0, 1, 2))
    yield from (d.to_record() for d in decide_edl(tokens, config, subsets=subsets))


def gtcp_samples(endos, r, ps):
    u, v, w = endos
    return tuple(
        (
            rewrite(
                compose_all([apply_endo(u, r), apply_endo(v, p), apply_endo(w, invert(r))])
            ),
            p,
        )
        for p in ps
    )


GTCP_MAPS = {
    "identity": IDENTITY_ENDO,
    "shift": SHIFT_ENDO,
    "inner": inner_endo(BraidWord(4, (1, 2))),
}


def gtcp_cases():
    """(samples, endos, mode, oracle) over every mode and map pair."""
    rng = random.Random(9)
    ps = (generator(4, 1), generator(4, 3), BraidWord(4, (2, 3)))
    for k, mode in enumerate(GTCP_MODES):
        for u_name in GTCP_MAPS:
            for w_name in GTCP_MAPS:
                endos = (GTCP_MAPS[u_name], IDENTITY_ENDO, GTCP_MAPS[w_name])
                r = rand_word(4, 1 + (k + len(u_name) + len(w_name)) % 3, rng)
                yield gtcp_samples(endos, r, ps), endos, mode, r


def gtcp_records():
    spec = interval_generators(4, 1, 3)
    for samples, endos, mode, r in gtcp_cases():
        yield solve_gtcp(
            samples, endos, mode, spec, SolverConfig(max_length=3), oracle_r=r
        ).to_record()
    # A secret out of reach, and a non-identity v.
    endos = (inner_endo(generator(4, 1)), IDENTITY_ENDO, inner_endo(generator(4, 2)))
    r = BraidWord(4, (1, 2, 1, 2))
    samples = gtcp_samples(endos, r, (generator(4, 1), generator(4, 3)))
    for mode in GTCP_MODES:
        yield solve_gtcp(samples, endos, mode, spec, SolverConfig(max_length=1)).to_record()
    endos = (IDENTITY_ENDO, inner_endo(generator(4, 3)), SHIFT_ENDO)
    samples = gtcp_samples(endos, BraidWord(4, (2,)), (generator(4, 1), generator(4, 2)))
    for mode in GTCP_MODES:
        yield solve_gtcp(samples, endos, mode, spec, SolverConfig(max_length=2)).to_record()


def dehornoy_records():
    # Acceptance criterion 8's pair-attack seeds, then the degenerate key.
    gens4 = [generator(4, i) for i in range(1, 4)]
    alphabet = interval_generators(4, 1, 3)
    for seed in range(10):
        keys = dehornoy_keygen(strands=4, secret_length=3, base_length=4, seed=seed)
        nonce = random_word(gens4, 3, random.Random(f"nonce:{seed}"))
        x, x_prime = dehornoy_commit(keys, nonce)
        response = dehornoy_respond(keys, nonce, challenge=1)
        yield attack_dehornoy_pair(
            x,
            x_prime,
            keys.base,
            keys.public_key,
            response,
            SolverConfig(max_length=3, alphabet=alphabet, budget=500_000),
            oracle_s=keys.secret,
        ).to_record()
    base = BraidWord(3, (1, 2))
    x, x_prime = dehornoy_commit(DehornoyKeys(3, base, base, identity(3)), generator(3, 1))
    yield attack_dehornoy_pair(
        x,
        x_prime,
        base,
        base,
        identity(3),
        SolverConfig(max_length=1, alphabet=interval_generators(3, 1, 2)),
    ).to_record()
    # Criterion 8's centralizer seeds, a two-generator R and explicit probes.
    for seed in range(25):
        sub_rng = random.Random(f"centralizer:{seed}")
        gen_index = 1 + sub_rng.randrange(3)
        r_spec = SubgroupSpec(f"<sigma{gen_index}>", 4, (generator(4, gen_index),))
        base = rand_word(4, 2 + sub_rng.randrange(2), sub_rng)
        r = power(generator(4, gen_index), sub_rng.randrange(0, 3))
        commitment = rewrite(shifted_conjugate(r, base))
        yield attack_dehornoy_centralizer(
            r_spec, base, commitment, SolverConfig(max_length=2), oracle_r=r
        ).to_record()
    r_spec = interval_generators(4, 1, 2)
    base = BraidWord(4, (3, 1))
    r = BraidWord(4, (1, 2))
    commitment = rewrite(shifted_conjugate(r, base))
    yield attack_dehornoy_centralizer(
        r_spec, base, commitment, SolverConfig(max_length=2), oracle_r=r
    ).to_record()
    yield attack_dehornoy_centralizer(
        r_spec,
        base,
        commitment,
        SolverConfig(max_length=2),
        probes=(generator(4, 3), BraidWord(4, (1, 2, 1, 1, 2, 1))),
        oracle_r=r,
    ).to_record()


def partial_factor_records():
    # Acceptance criterion 10's planted and random peels, then completion.
    head_alphabet = interval_generators(8, 6, 7)
    config = SolverConfig(max_length=2, alphabet=head_alphabet)
    rng = random.Random(10)
    low_gens = [generator(8, i) for i in (1, 2, 3)]
    for _ in range(10):
        h = random_word(head_alphabet.generators, 1 + rng.randrange(2), rng)
        z = random_word(low_gens, 1 + rng.randrange(3), rng)
        token = rewrite(compose(h, z))
        for res in partial_factor_attack(token, (generator(8, 5),), config, depth=2):
            yield res.to_record()
    for seed in range(10):
        peel_rng = random.Random(f"peel:{seed}")
        token = rewrite(rand_word(8, 6, peel_rng))
        probe = generator(8, 1 + peel_rng.randrange(7))
        for res in partial_factor_attack(token, (probe, generator(8, 4)), config):
            yield res.to_record()
    h, z_bar, residual = generator(8, 7), generator(8, 1), generator(8, 2)
    token = rewrite(compose_all([h, z_bar, residual]))
    for tail_length in (0, 1, 2):
        full = complete_base(
            token,
            residual,
            head_alphabet,
            interval_generators(8, 1, 2),
            head_max_length=1,
            tail_max_length=tail_length,
        )
        yield full.to_record() if full is not None else None


def stickel_records():
    config = make_preset("stickel", strands=8, exponent_bound=5)
    a, b = config.stickel_pair
    for seed in range(6):
        run = ka_run(config, seed=seed)
        for bound in (8, 1):
            yield attack_stickel(
                a, b, run.public.token_a, run.public.token_b, bound, oracle=run.secret
            ).to_record()


def decomposition_records():
    for preset, strands, length in (("klchkp", 6, 2), ("cklhc", 6, 2), ("generalized", 8, 2)):
        for seed in range(2):
            run = ka_run(make_preset(preset, strands=strands, secret_length=length), seed=seed)
            for party in ("a", "b"):
                yield attack_decomposition(
                    run.public, SolverConfig(max_length=3), party=party, oracle=run.secret
                ).to_record()
    config = dataclasses.replace(
        make_preset("klchkp", strands=8, secret_length=3), positive_only=True
    )
    for seed in range(3):
        run = ka_run(config, seed=seed)
        for party in ("a", "b"):
            yield attack_decomposition(
                run.public,
                SolverConfig(max_length=3, restarts=6, length_functional="difference"),
                party=party,
                method="descent",
                oracle=run.secret,
            ).to_record()
    run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=3)
    tampered = dataclasses.replace(
        run.public, token_a=rewrite(compose(run.public.token_a, generator(6, 3)))
    )
    yield attack_decomposition(tampered, SolverConfig(max_length=2), oracle=run.secret).to_record()


def extractor_records():
    for preset in ("klchkp", "cklhc", "generalized", "shpilrain-central"):
        run = ka_run(make_preset(preset, strands=8, secret_length=3), seed=4)
        for target in "abcd":
            yield build_mscsp_dhdp(run.public, target).to_record()
    config = make_preset("stickel", strands=8, exponent_bound=5)
    a, b = config.stickel_pair
    run = ka_run(config, seed=2)
    for alpha in (1, 2):
        yield build_stickel_instance(a, b, run.public.token_a, alpha).to_record()
    spec = interval_generators(4, 1, 3)
    for samples, endos, mode, _ in gtcp_cases():
        for sample_index in ((0, 2) if mode.startswith("centralizer") else (0,)):
            yield build_gtcp_instances(
                samples, endos, mode, spec, sample_index=sample_index
            ).to_record()


def test_edl_records_unchanged(solved_instances):
    records = list(edl_records())
    assert digest(records) == EDL_DIGEST
    assert digest(solved_instances) == EDL_INSTANCES_DIGEST


def test_gtcp_records_unchanged():
    assert digest(gtcp_records()) == GTCP_DIGEST


def test_dehornoy_records_unchanged(solved_instances):
    records = list(dehornoy_records())
    assert digest(records) == DEHORNOY_DIGEST
    assert digest(solved_instances) == DEHORNOY_INSTANCES_DIGEST


def test_partial_factor_records_unchanged(solved_instances):
    records = list(partial_factor_records())
    assert digest(records) == PARTIAL_FACTOR_DIGEST
    assert digest(solved_instances) == PARTIAL_FACTOR_INSTANCES_DIGEST


def test_stickel_records_unchanged():
    assert digest(stickel_records()) == STICKEL_DIGEST


def test_decomposition_records_unchanged():
    assert digest(decomposition_records()) == DECOMPOSITION_DIGEST


def test_extractor_records_unchanged():
    assert digest(extractor_records()) == EXTRACTOR_DIGEST


EDL_DIGEST = "12d26f9181e82913d5a2d07c8fbd907cb5ce4ebe305e4f8646298589d83b4088"
EDL_INSTANCES_DIGEST = "3252002483b946b6c004bfbed4c97bbaa9821162249cc5e8fe091c8ffae2783b"
GTCP_DIGEST = "565ef15a36830054b4caca317fcb8da4227a26eb2f12bdfce3f0ae5c21ae1e7c"
DEHORNOY_DIGEST = "7a774e83d8098e0afb1f7c3da92019d9069a02af44185b8c16e367d5abb785b7"
DEHORNOY_INSTANCES_DIGEST = "7239b74be7e531ffe60437af978e88efbe27bce720876ac31acfe1c000b2a336"
PARTIAL_FACTOR_DIGEST = "228100b4b4159a0380042a0bcf78e448c90ee75c0bd2437f5b16b5abfa04d6e8"
PARTIAL_FACTOR_INSTANCES_DIGEST = "77b9143845d00ca7debae637ac83d6581c4fb968daa8c4da570e9920d63f4cf2"
STICKEL_DIGEST = "5b1fa22293a0e8f0669562c2ea7bfbabae3e7332e5ef63fefbd6677566431414"
DECOMPOSITION_DIGEST = "e122c6f8d1b052f7f57448bb159e38c712ffba53e2efd1812c293cb37660c427"
EXTRACTOR_DIGEST = "5673fa90107bb483cf81bb263251e8d77cee3e327cede0cc1f7a88883dd9f936"
