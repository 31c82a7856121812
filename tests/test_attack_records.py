"""Golden digests of attack records.

The sorted-JSON `to_record()` of every attack result below, and of the
instances the extractors and attack pipelines build, is hashed and compared
with a pinned digest, so any change in a pair's letters, a check, a
recovered value or a solver report shows here. Instances an attack builds
for itself are captured at the solver call and pinned by their pairs and
meta. The extractor, partial-factor and dehornoy-instance digests date from
before instance construction moved behind the extractor builders; the
others were re-pinned when the EDL v-side solve, two checks that could not
fail and the empty timings field were deleted, and the stickel and
decomposition digests again when the decomposition right-side solve and
the token-reconstruction checks were deleted. Every attack-record digest
was re-pinned once more when `to_record` stopped writing an identity
solution, raw word or residual as null, and the EDL, gtcp, dehornoy and
partial-factor digests again when the checks that re-ran a solver filter's
predicate on the recovered value (and the product certificate, true by
construction) were deleted. `test_answers_unchanged` shows that nothing
else in those records moved.

The decomposition, dehornoy, partial-factor and extractor digests, with
their instance digests and the answer digests of those four sets and of
gtcp, were re-pinned when four settings that only tests set became
constants. The records of attacking party b's token, of explicit
centralizer probes, of a second peel level and of a later gtcp sample are
gone, and so are the `depth`, `remaining_token` and `sample_index` fields.
Each new pin equals the digest that the library before that change gives
for the same calls with those three fields dropped, so no other byte moved.

The extractor and dehornoy-instance digests, and the answer digests of
those two sets, were re-pinned when instances came to hold only normal
forms and to spell their pairs from them: a conjugation instance's x is
now written as its normal form's spelling, as y already was. Each new pin
equals the digest the library before that change gives for the same calls
with every instance record's pairs spelt from the instance's forms.

The extractor digest, and its answer digest, were re-pinned when
shpilrain-central's peer specs came to keep one generator of each inverse
pair. Only that preset's four instances moved: targets a and b, built from
the unchanged K_A, keep the earlier pairs whose probe is not an inverse, in
order, and targets c and d read K_B, which Bob now draws from the halved
generator lists.
"""

import dataclasses
import hashlib
import json
import random
import re

import pytest
from test_solver_records import identity_as_null

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
from braidwork.garside import normal_form, rewrite
from braidwork.handle import ReductionBudgetExceeded, shift_preimage
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
    """(samples, endos, mode, r) over every mode and map pair."""
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
            samples, endos, mode, spec, SolverConfig(max_length=3)
        ).with_verdict("r-candidate", r).to_record()
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
        ).with_verdict("s-candidate", keys.secret).to_record()
    base = BraidWord(3, (1, 2))
    x, x_prime = dehornoy_commit(DehornoyKeys(base, base, identity(3)), generator(3, 1))
    yield attack_dehornoy_pair(
        x,
        x_prime,
        base,
        base,
        identity(3),
        SolverConfig(max_length=1, alphabet=interval_generators(3, 1, 2)),
    ).to_record()
    # Criterion 8's centralizer seeds, then a two-generator R.
    for seed in range(25):
        sub_rng = random.Random(f"centralizer:{seed}")
        gen_index = 1 + sub_rng.randrange(3)
        r_spec = SubgroupSpec(f"<sigma{gen_index}>", 4, (generator(4, gen_index),))
        base = rand_word(4, 2 + sub_rng.randrange(2), sub_rng)
        r = power(generator(4, gen_index), sub_rng.randrange(0, 3))
        commitment = rewrite(shifted_conjugate(r, base))
        yield attack_dehornoy_centralizer(
            r_spec, base, commitment, SolverConfig(max_length=2)
        ).with_verdict("r-candidate", r).to_record()
    r_spec = interval_generators(4, 1, 2)
    base = BraidWord(4, (3, 1))
    r = BraidWord(4, (1, 2))
    commitment = rewrite(shifted_conjugate(r, base))
    yield attack_dehornoy_centralizer(
        r_spec, base, commitment, SolverConfig(max_length=2)
    ).with_verdict("r-candidate", r).to_record()


# Instances 123 and 1139 of the auth benchmark workload on seed 1, as (key
# seed, nonce letters). Many candidates satisfy their conjugacy relation, so
# the pair attack's filter lifts 135 and 173 of them.
MANY_MATCH_CASES = (((2577888341, (-2, -3, 2)), 135), ((76993924, (-3, 2, 1)), 173))


def many_match_records():
    for (key_seed, nonce_letters), _ in MANY_MATCH_CASES:
        keys = dehornoy_keygen(strands=4, secret_length=3, base_length=4, seed=key_seed)
        nonce = BraidWord(4, nonce_letters)
        x, x_prime = dehornoy_commit(keys, nonce)
        response = dehornoy_respond(keys, nonce, challenge=1)
        yield attack_dehornoy_pair(
            x,
            x_prime,
            keys.base,
            keys.public_key,
            response,
            SolverConfig(max_length=3, alphabet=interval_generators(4, 1, 3), budget=500_000),
        ).with_verdict("s-candidate", keys.secret).to_record()


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
        for res in partial_factor_attack(token, (generator(8, 5),), config):
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
                a, b, run.public.token_a, run.public.token_b, bound
            ).with_verdict("key-candidate", run.secret.kappa).to_record()


def decomposition_records():
    for preset, strands, length in (("klchkp", 6, 2), ("cklhc", 6, 2), ("generalized", 8, 2)):
        for seed in range(2):
            run = ka_run(make_preset(preset, strands=strands, secret_length=length), seed=seed)
            yield attack_decomposition(
                run.public, SolverConfig(max_length=3)
            ).with_verdict("key-candidate", run.secret.kappa).to_record()
    config = dataclasses.replace(
        make_preset("klchkp", strands=8, secret_length=3), positive_only=True
    )
    for seed in range(3):
        run = ka_run(config, seed=seed)
        yield attack_decomposition(
            run.public,
            SolverConfig(max_length=3, restarts=6, length_functional="difference"),
            method="descent",
        ).with_verdict("key-candidate", run.secret.kappa).to_record()
    run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=3)
    tampered = dataclasses.replace(
        run.public, form_a=normal_form(compose(run.public.token_a, generator(6, 3)))
    )
    yield attack_decomposition(tampered, SolverConfig(max_length=2)).with_verdict(
        "key-candidate", run.secret.kappa
    ).to_record()


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
        yield build_gtcp_instances(samples, endos, mode, spec).to_record()


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


def test_many_match_records_unchanged(monkeypatch):
    lifts = []

    def counting_preimage(word):
        lifts.append(word)
        return shift_preimage(word)

    monkeypatch.setattr(attacks, "shift_preimage", counting_preimage)
    assert digest(many_match_records()) == MANY_MATCH_DIGEST
    assert len(lifts) == sum(count for _, count in MANY_MATCH_CASES)


def test_unreduced_response_gives_the_same_records(monkeypatch):
    # When reducing the response runs over budget, the filter lifts the
    # response as given; each candidate is then the same element.
    def over_budget(word):
        raise ReductionBudgetExceeded("over budget")

    monkeypatch.setattr(attacks, "handle_reduce", over_budget)
    assert digest(many_match_records()) == MANY_MATCH_DIGEST


def test_partial_factor_records_unchanged(solved_instances):
    records = list(partial_factor_records())
    assert digest(records) == PARTIAL_FACTOR_DIGEST
    assert digest(solved_instances) == PARTIAL_FACTOR_INSTANCES_DIGEST


def test_stickel_records_unchanged():
    assert digest(stickel_records()) == STICKEL_DIGEST


def test_decomposition_records_unchanged():
    assert digest(decomposition_records()) == DECOMPOSITION_DIGEST


def test_exhaustive_decomposition_solves_one_instance(solved_instances):
    run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=0)
    report = attack_decomposition(run.public, SolverConfig(max_length=3))
    assert report.success
    assert [i["meta"]["extractor"] for i in solved_instances] == ["dhdp-a"]
    assert len(report.solver_reports) == 1


def test_extractor_records_unchanged():
    assert digest(extractor_records()) == EXTRACTOR_DIGEST


# Answers: every record with the keys, checks and reports that cannot change
# an answer left out (the EDL v-side solve and its instance, the
# decomposition right-side solve and its instance, the gtcp map-inverted
# and dehornoy-centralizer unshifted checks, the stickel and decomposition
# token-reconstruction checks, the always-empty timings, and the re-runs of
# a solver filter's predicate: the gtcp per-sample, dehornoy commitment and
# public-key checks, the EDL verified flags and the partial-factor product
# certificate), and with identity words written as null where to_record
# used to write them so. Each digest was taken with this projection on a
# tree that still had what it leaves out, so it shows that no deletion
# changed a verdict, recovered value, remaining check or first report.
UNANSWERED_CHECKS = (
    "map-inverted",
    "unshifted",
    "token-reconstruction",
    "public-key-reproduced",
    "commitment-reproduced",
)
UNANSWERED_KEYS = ("timings_ms", "verified", "certificate_product")
UNANSWERED_INSTANCES = ("edl-v", "dhdp-b", "dhdp-d")
ANSWER_SETS = {
    "edl": edl_records,
    "gtcp": gtcp_records,
    "dehornoy": dehornoy_records,
    "partial-factor": partial_factor_records,
    "stickel": stickel_records,
    "decomposition": decomposition_records,
    "extractor": extractor_records,
}


def unanswered_check(name):
    return name in UNANSWERED_CHECKS or re.fullmatch(r"sample-\d+-reproduced", name)


def answer(record):
    record = identity_as_null(record)
    if not isinstance(record, dict):
        return record
    kept = {k: v for k, v in record.items() if k not in UNANSWERED_KEYS}
    if "solver_reports" not in record:
        return kept
    if "verdict" in record or record.get("attack") == "decomposition":
        # an EDL decision's u-side report, a decomposition's left-side one
        kept["solver_reports"] = record["solver_reports"][:1]
    if "verdict" not in record:
        kept["checks"] = [c for c in record["checks"] if not unanswered_check(c["name"])]
    return kept


@pytest.mark.parametrize("name", ANSWER_SETS)
def test_answers_unchanged(name, solved_instances):
    answers = [answer(r) for r in ANSWER_SETS[name]()]
    instances = [
        i for i in solved_instances
        if i["meta"].get("extractor") not in UNANSWERED_INSTANCES
    ]
    assert digest(answers + instances) == ANSWER_DIGESTS[name]


EDL_DIGEST = "c7fc416c2e40fea323cdf2996af72af566c17b92124f6e0581261b5787bb3213"
EDL_INSTANCES_DIGEST = "4292281555d6d89d46e60d6e1164864c8da1a15b6aa7ceaa94f95d53a73cce6d"
GTCP_DIGEST = "472999af80c2f5a7d25aacf465603c2ffaa7bfe1ecf3c06dd887c8618f0ee253"
DEHORNOY_DIGEST = "fae4340e98c5fce49a5351af21f479c936869306f23ca88b96aef8cd1d53f92c"
DEHORNOY_INSTANCES_DIGEST = "f7b8db296860b4e26645ad0d9393bd2c0571f5a6dfac282087b7fb3fc8984a22"
# Taken at 81a01fb, before the pair attack reduced the response once.
MANY_MATCH_DIGEST = "c72c34b393378fc05db78de9c3852ca861eee4e054fbdb15b27f7c420c4549f9"
PARTIAL_FACTOR_DIGEST = "cd20bb18248ddf18b5bc2d0275670a29a77e8887856d1f694643107f44f4f9b6"
PARTIAL_FACTOR_INSTANCES_DIGEST = "404ef32f2f19f4f930cdcb3382161c158dfab80803edd4258dba6e8b08ddcbca"
STICKEL_DIGEST = "fdeec6ae4fe4995c3e398c1195dc54b60beee03ca20195a89990f55ad1e80509"
DECOMPOSITION_DIGEST = "2908756a95ce34eccdafb576383bdb5ee0cb59be776e10891bb9fd096f808aac"
EXTRACTOR_DIGEST = "c5f9264a4d9fa360870f160b22c3c7cf0ea2816e5c2f46eb5397a1f27aff1d24"
ANSWER_DIGESTS = {
    "edl": "57973129e1bec9b14ea9fe2dca7f32a0846f1463c7e12e35c1109f6e3e75edf8",
    "gtcp": "50f449f471f5fc21c666f9038eda3fa10126aa4bc495dfedac169e4f68338b38",
    "dehornoy": "42ad825a8706eb956d6c573d5ee04fa3678beee32e919640d778ddfc011984f6",
    "partial-factor": "34dfd5c2eff1130baf54dda1fa5841848dac074cd47dd1a1c21e7603e0ddf3b2",
    "stickel": "71593bb897d08e1ddf2077e5fcc944f11ba38b2d0d8b581da07d8bb55f4b9e79",
    "decomposition": "6acef8241d12799f318c9afdff0ab1f6f86fbaf508dea4fc172c1e20dab5d33b",
    "extractor": "c5f9264a4d9fa360870f160b22c3c7cf0ea2816e5c2f46eb5397a1f27aff1d24",
}
