import pytest
from hypothesis import assume, given, settings, strategies as st
from solver_reference import word_instance

from braidwork import extractors
from braidwork.extractors import (
    CspInstance,
    build_conjugation_instance,
    build_dehornoy_centralizer_instance,
    build_difference_instance,
    build_gtcp_instances,
    build_mscsp_dhdp,
    build_stickel_instance,
    ce_conjugate_sample,
    ce_difference_pair,
)
from braidwork.garside import embed, neighbours, normal_form, product, rewrite, words_equal
from braidwork.protocols import dehornoy_commit, dehornoy_keygen, ka_run, make_preset
from braidwork.solvers import SolverConfig, solve_exhaustive, solve_length_descent
from braidwork.subgroups import SubgroupSpec, interval_generators
from braidwork.words import (
    IDENTITY_ENDO,
    SHIFT_ENDO,
    BraidWord,
    apply_endo,
    compose,
    compose_all,
    delta,
    generator,
    identity,
    inner_endo,
    invert,
    power,
    random_word,
    shift,
    shifted_conjugate,
)


def conjugates(g: BraidWord, x: BraidWord, y: BraidWord) -> bool:
    return words_equal(compose_all([g, x, invert(g)]), y)


class TestCeSamples:
    def test_left_sample(self):
        token, probe = BraidWord(4, (1, 2)), generator(4, 3)
        sample = ce_conjugate_sample(token, probe, "left")
        assert words_equal(sample, compose_all([token, probe, invert(token)]))

    def test_right_sample(self):
        token, probe = BraidWord(4, (1, 2)), generator(4, 3)
        sample = ce_conjugate_sample(token, probe, "right")
        assert words_equal(sample, compose_all([invert(token), probe, token]))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            ce_conjugate_sample(identity(3), identity(3), "up")

    def test_difference_pair_sides(self):
        y1, y2 = BraidWord(3, (1,)), BraidWord(3, (2,))
        assert ce_difference_pair(y1, y2, "left") == compose(y1, invert(y2))
        assert ce_difference_pair(y1, y2, "right") == compose(invert(y2), y1)


class TestBuilders:
    alphabet = interval_generators(6, 1, 2)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_conjugation_pairs_are_canonical_conjugates(self, side):
        token = BraidWord(6, (1, -2, 1))
        probes = (generator(6, 4), BraidWord(6, (4, 5)))
        inst = build_conjugation_instance(normal_form(token), probes, side, self.alphabet)
        g = token if side == "left" else invert(token)
        assert [x for x, _ in inst.pairs] == list(probes)
        for x, y in inst.pairs:
            assert y == rewrite(y)
            assert conjugates(g, x, y)

    def test_conjugation_side_is_checked_first(self):
        with pytest.raises(ValueError, match="side"):
            build_conjugation_instance(normal_form(identity(3)), (), "up", self.alphabet)

    def test_difference_pairs_cancel_the_shared_factors(self):
        u, v = BraidWord(6, (1, 2)), BraidWord(6, (-2,))
        xs = (generator(6, 4), BraidWord(6, (4, 5)), generator(6, 5))
        samples = tuple((x, compose_all([u, x, v])) for x in xs)
        index_pairs = ((0, 1), (1, 2))
        left = build_difference_instance(samples, index_pairs, "left", self.alphabet)
        right = build_difference_instance(samples, index_pairs, "right", self.alphabet)
        assert len(left.pairs) == len(right.pairs) == 2
        for x, y in left.pairs:
            assert conjugates(u, x, y)
        for x, y in right.pairs:
            assert conjugates(invert(v), x, y)
        for x, y in left.pairs + right.pairs:
            assert (x, y) == (rewrite(x), rewrite(y))


def words_on(strands: int, max_size: int):
    nonzero = st.integers(min_value=1, max_value=strands - 1).flatmap(
        lambda i: st.sampled_from([i, -i])
    )
    return st.lists(nonzero, max_size=max_size).map(lambda w: BraidWord(strands, tuple(w)))


# Example counts follow the hypothesis profile (see conftest.py).
@given(
    st.integers(min_value=2, max_value=7).flatmap(lambda n: words_on(n, 40)),
    st.lists(st.integers(min_value=2, max_value=7).flatmap(lambda n: words_on(n, 8)), max_size=4),
    st.sampled_from(["left", "right"]),
)
@settings(deadline=None)
def test_conjugation_instance_is_the_rewritten_sample(token, probes, side):
    # Tokens and probes on different strand counts: each pair lives on the
    # larger one, as the composed sample does.
    alphabet = interval_generators(2, 1, 1)
    if not probes:
        with pytest.raises(ValueError):
            build_conjugation_instance(normal_form(token), (), side, alphabet)
        return
    inst = build_conjugation_instance(normal_form(token), tuple(probes), side, alphabet)
    expected = tuple(
        (
            rewrite(p.embed(max(token.strands, p.strands))),
            rewrite(ce_conjugate_sample(token, p, side)),
        )
        for p in probes
    )
    assert inst.pairs == expected


@st.composite
def commuting_tokens_and_probes(draw):
    """A token over generators S, not all of them, and probes over the
    generators not next to S, each with as many strands as the token."""
    n = draw(st.integers(min_value=3, max_value=9))
    support = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1, max_size=n - 2))
    )
    free = [i for i in range(1, n) if i not in neighbours(support)]
    assume(free)

    def word(gens, max_size):
        letter = st.sampled_from(gens).flatmap(lambda i: st.sampled_from([i, -i]))
        return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_size))))

    probes = tuple(word(free, 6) for _ in range(draw(st.integers(min_value=1, max_value=3))))
    return word(support, 20), probes


@given(commuting_tokens_and_probes(), st.sampled_from(["left", "right"]))
@settings(deadline=None)
def test_a_token_that_commutes_by_supports_forms_no_product(case, side):
    # Each probe commutes with the token by generator supports, so its pair
    # is (NF(probe), NF(probe)) with no product, and that is the normal
    # form of the composed sample.
    token, probes = case
    calls = []

    def counting_product(a, b):
        calls.append((a, b))
        return product(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extractors, "product", counting_product)
        inst = build_conjugation_instance(
            normal_form(token), probes, side, interval_generators(2, 1, 1)
        )
    assert calls == []
    assert inst.forms == tuple(
        (normal_form(p), normal_form(ce_conjugate_sample(token, p, side))) for p in probes
    )


class TestCspInstance:
    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            CspInstance((), interval_generators(3, 1, 2), None, ())

    def test_record_roundtrip(self):
        inst = word_instance(
            ((generator(3, 1), generator(3, 2)),),
            interval_generators(3, 1, 2),
            post_transform=generator(3, 1),
            meta=(("extractor", "test"),),
        )
        assert CspInstance.from_record(inst.to_record()) == inst

    def test_identity_post_transform_roundtrip(self):
        inst = word_instance(
            ((generator(3, 1), generator(3, 2)),),
            interval_generators(3, 1, 2),
            post_transform=identity(5),
        )
        record = inst.to_record()
        assert record["post_transform"] == {"n": 5, "word": []}
        assert CspInstance.from_record(record) == inst

    @pytest.mark.parametrize("post", [{}, [], 0])
    def test_malformed_post_transform_is_rejected(self, post):
        record = word_instance(
            ((generator(3, 1), generator(3, 2)),), interval_generators(3, 1, 2)
        ).to_record()
        record["post_transform"] = post
        with pytest.raises((KeyError, ValueError)):
            CspInstance.from_record(record)

    def test_strands_is_ambient_max(self):
        inst = word_instance(
            ((generator(5, 4), generator(5, 4)),), interval_generators(3, 1, 2)
        )
        assert inst.strands == 5


class TestDhdpExtractor:
    @pytest.fixture
    def run(self):
        return ka_run(make_preset("generalized", strands=8, secret_length=4), seed=0)

    @pytest.mark.parametrize(
        "target,secret_fn",
        [
            ("a", lambda s, z: compose(s.a1, z)),
            ("c", lambda s, z: compose(s.b1, z)),
            ("b", lambda s, z: compose(invert(s.a2), invert(z))),
            ("d", lambda s, z: compose(invert(s.b2), invert(z))),
        ],
    )
    def test_known_coset_element_solves(self, run, target, secret_fn):
        inst = build_mscsp_dhdp(run.public, target)
        g = secret_fn(run.secret, run.public.config.base)
        for x, y in inst.pairs:
            assert conjugates(g, x, y)

    @pytest.mark.parametrize(
        "target,secret_attr,sign",
        [("a", "a1", 1), ("c", "b1", 1), ("b", "a2", -1), ("d", "b2", -1)],
    )
    def test_post_transform_recovers_secret_factor(
        self, run, target, secret_attr, sign
    ):
        inst = build_mscsp_dhdp(run.public, target)
        z = run.public.config.base
        g = (
            compose(getattr(run.secret, secret_attr), z)
            if sign == 1
            else compose(invert(getattr(run.secret, secret_attr)), invert(z))
        )
        recovered = compose(g, inst.post_transform)
        expected = getattr(run.secret, secret_attr)
        if sign == -1:
            expected = invert(expected)
        assert words_equal(recovered, expected)

    def test_alphabet_matches_secret_source(self, run):
        cfg = run.public.config
        assert build_mscsp_dhdp(run.public, "a").alphabet == cfg.left_a
        assert build_mscsp_dhdp(run.public, "d").alphabet == cfg.right_b

    def test_trivial_base_drops_post_transform(self):
        run = ka_run(make_preset("stickel", strands=8), seed=1)
        inst = build_mscsp_dhdp(run.public, "a")
        assert inst.post_transform is None

    def test_rejects_unknown_target(self, run):
        with pytest.raises(ValueError):
            build_mscsp_dhdp(run.public, "z")

    def test_outputs_are_canonical(self, run):
        inst = build_mscsp_dhdp(run.public, "a")
        for _, y in inst.pairs:
            assert y == rewrite(y)


class TestStickelExtractor:
    def test_true_power_solves(self):
        config = make_preset("stickel", strands=8, exponent_bound=3)
        run = ka_run(config, seed=4)
        a, b = config.stickel_pair
        r = len(run.secret.a1) // len(a)
        assert run.secret.a1 == power(a, r)
        inst = build_stickel_instance(a, b, run.public.token_a, alpha=1)
        (x, y), = inst.pairs
        assert conjugates(power(a, r), x, y)

    def test_rejects_zero_alpha(self):
        a, b = BraidWord(4, (1, 2)), BraidWord(4, (2, 3))
        with pytest.raises(ValueError):
            build_stickel_instance(a, b, identity(4), alpha=0)


class TestGtcpExtractors:
    def samples(self, endos, r, ps):
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

    @pytest.fixture
    def setup(self):
        spec = interval_generators(4, 1, 3)
        endos = (inner_endo(generator(4, 1)), IDENTITY_ENDO, inner_endo(generator(4, 2)))
        r = BraidWord(4, (2, 1))
        ps = (generator(4, 1), generator(4, 3), BraidWord(4, (2, 3)))
        return spec, endos, r, ps

    def test_pairwise_ce1_solved_by_u_image(self, setup):
        spec, endos, r, ps = setup
        u = endos[0]
        inst = build_gtcp_instances(self.samples(endos, r, ps), endos, "pairwise-ce1", spec)
        g = apply_endo(u, r)
        for x, y in inst.pairs:
            assert conjugates(g, x, y)

    def test_pairwise_ce2_solved_by_w_image(self, setup):
        spec, endos, r, ps = setup
        w = endos[2]
        inst = build_gtcp_instances(self.samples(endos, r, ps), endos, "pairwise-ce2", spec)
        g = invert(apply_endo(w, invert(r)))
        for x, y in inst.pairs:
            assert conjugates(g, x, y)

    def test_centralizer_ce3_solved_by_uv_product(self, setup):
        spec, endos, r, ps = setup
        u, v, _ = endos
        inst = build_gtcp_instances(self.samples(endos, r, ps), endos, "centralizer-ce3", spec)
        g = compose(apply_endo(u, r), apply_endo(v, ps[0]))
        for x, y in inst.pairs:
            assert conjugates(g, x, y)
        assert words_equal(compose(g, inst.post_transform), apply_endo(u, r))

    def test_centralizer_ce4_solved_by_wv_product(self, setup):
        spec, endos, r, ps = setup
        _, v, w = endos
        inst = build_gtcp_instances(self.samples(endos, r, ps), endos, "centralizer-ce4", spec)
        g = compose(invert(apply_endo(w, invert(r))), invert(apply_endo(v, ps[0])))
        for x, y in inst.pairs:
            assert conjugates(g, x, y)
        assert words_equal(
            compose(g, inst.post_transform), invert(apply_endo(w, invert(r)))
        )

    def test_shift_endo_alphabet(self, setup):
        spec, _, r, ps = setup
        endos = (SHIFT_ENDO, IDENTITY_ENDO, IDENTITY_ENDO)
        inst = build_gtcp_instances(self.samples(endos, r, ps), endos, "pairwise-ce1", spec)
        g = shift(r)
        for x, y in inst.pairs:
            assert conjugates(g, x, y)
        for gen in inst.alphabet.generators:
            assert 1 not in {abs(x) for x in gen.letters}

    def test_pairwise_needs_two_samples(self, setup):
        spec, endos, r, ps = setup
        with pytest.raises(ValueError):
            build_gtcp_instances(self.samples(endos, r, ps[:1]), endos, "pairwise-ce1", spec)

    def test_unknown_mode(self, setup):
        spec, endos, r, ps = setup
        with pytest.raises(ValueError):
            build_gtcp_instances(self.samples(endos, r, ps), endos, "ce5", spec)


class TestDehornoyCentralizerExtractor:
    def test_known_solution_solves(self):
        keys = dehornoy_keygen(strands=3, secret_length=2, base_length=2, seed=0)
        r = BraidWord(3, (1, 2))
        x, _ = dehornoy_commit(keys, r)
        # x = r . d(p) . sigma_1 . d(r)^-1, so O = d(p).sigma_1.d(r)^-1 satisfies
        # x^-1 N x = O^-1 N O for every N commuting with r.
        o = compose_all([shift(keys.base), generator(4, 1), invert(shift(r))])
        probes = (power(delta(4), 2), rewrite(compose(r.embed(4), power(delta(4), 2))))
        inst = build_dehornoy_centralizer_instance(
            x.embed(4), probes, interval_generators(3, 1, 2), keys.base
        )
        g = invert(o)
        for px, py in inst.pairs:
            assert conjugates(g, px, py)

    def test_degenerate_probes_flagged(self):
        x = BraidWord(4, (1, 2))
        probes = (power(delta(4), 2), generator(4, 3))
        inst = build_dehornoy_centralizer_instance(
            x, probes, interval_generators(3, 1, 2), BraidWord(3, (2,))
        )
        assert "0" in dict(inst.meta)["degenerate_pairs"].split(",")

    def test_requires_probes(self):
        with pytest.raises(ValueError):
            build_dehornoy_centralizer_instance(
                BraidWord(3, (1,)), (), interval_generators(2, 1, 1), identity(2)
            )


def assert_forms_are(inst: CspInstance, pairs) -> None:
    """The instance's forms, embedded on its strand count, are the normal
    forms of these word pairs there."""
    n = inst.strands
    assert [tuple(embed(f, n) for f in forms) for forms in inst.forms] == [
        tuple(normal_form(w.embed(n)) for w in pair) for pair in pairs
    ]


def conjugated(token: BraidWord, probes, side: str):
    return [(p, ce_conjugate_sample(token, p, side)) for p in probes]


def differenced(samples, index_pairs, side: str):
    return [
        tuple(ce_difference_pair(samples[i][k], samples[j][k], side) for k in (0, 1))
        for i, j in index_pairs
    ]


class TestForms:
    """Each builder's forms against the normal forms of the samples it
    models, composed as words by `ce_conjugate_sample` or
    `ce_difference_pair`."""

    alphabet = interval_generators(6, 1, 2)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_conjugation_builder(self, side):
        # The second probe has fewer strands than the token.
        token = BraidWord(6, (1, -2, 5, -1))
        probes = (generator(6, 4), BraidWord(4, (-3, 2)))
        inst = build_conjugation_instance(normal_form(token), probes, side, self.alphabet)
        assert_forms_are(inst, conjugated(token, probes, side))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_difference_builder(self, side):
        u, v = BraidWord(6, (1, 2)), BraidWord(6, (-2, -5))
        xs = (generator(6, 4), BraidWord(6, (4, -5)), generator(6, 5))
        samples = tuple((x, compose_all([u, x, v])) for x in xs)
        index_pairs = ((0, 1), (1, 2))
        inst = build_difference_instance(samples, index_pairs, side, self.alphabet)
        assert_forms_are(inst, differenced(samples, index_pairs, side))

    def test_dhdp_builder(self):
        run = ka_run(make_preset("klchkp", strands=8, secret_length=3), seed=2)
        probes = run.public.config.right_b.generators
        inst = build_mscsp_dhdp(run.public, "a")
        assert_forms_are(inst, conjugated(run.public.token_a, probes, "left"))

    def test_stickel_builder(self):
        a, b = BraidWord(5, (1, 2)), BraidWord(5, (3, -4))
        token = compose_all([a, power(b, 2), invert(a)])
        inst = build_stickel_instance(a, b, token, alpha=2)
        assert_forms_are(inst, conjugated(token, (power(b, 2),), "left"))

    def test_gtcp_builder(self):
        spec = interval_generators(4, 1, 3)
        endos = (inner_endo(generator(4, 1)), IDENTITY_ENDO, inner_endo(generator(4, 2)))
        r = BraidWord(4, (2, 1))
        u, v, w = endos
        samples = tuple(
            (compose_all([apply_endo(u, r), apply_endo(v, p), apply_endo(w, invert(r))]), p)
            for p in (generator(4, 1), generator(4, 3), BraidWord(4, (2, 3)))
        )
        inst = build_gtcp_instances(samples, endos, "pairwise-ce2", spec)
        # v is the identity, so the difference samples are (p_k, y_k).
        differences = differenced([(p, y) for y, p in samples], ((0, 1), (0, 2), (1, 2)), "right")
        assert_forms_are(inst, differences)

    def test_dehornoy_centralizer_builder(self):
        commitment = BraidWord(4, (1, 2, -3))
        probes = (power(delta(4), 2), generator(4, 3), BraidWord(4, (3, -1)))
        inst = build_dehornoy_centralizer_instance(
            commitment, probes, interval_generators(3, 1, 2), BraidWord(3, (2,))
        )
        assert_forms_are(inst, conjugated(commitment, probes, "right"))
        assert dict(inst.meta)["degenerate_pairs"] == "0"

    def test_record_roundtrip(self):
        # Equality compares the forms, so it holds although the probe's
        # record is spelt on the token's strand count.
        token = BraidWord(6, (1, -2, 5))
        probe = BraidWord(4, (3, 2, -2))
        inst = build_conjugation_instance(normal_form(token), (probe,), "left", self.alphabet)
        pair, = inst.to_record()["pairs"]
        assert pair["x"] == {"n": 6, "word": [3]}
        assert CspInstance.from_record(inst.to_record()) == inst


class TestWordEdge:
    """Words appear only at the record's edge: the solvers never spell an
    instance's pairs, and a record's words are normalised once on reading."""

    @pytest.mark.parametrize("solve", [solve_length_descent, solve_exhaustive])
    def test_solvers_spell_no_pairs(self, solve):
        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=0)
        instance = build_mscsp_dhdp(run.public, "a")
        assert solve(instance, SolverConfig(max_length=2)).solved
        assert "pairs" not in vars(instance)
        instance.to_record()
        assert "pairs" in vars(instance)

    def test_non_canonical_record_is_canonical_after_one_round_trip(self):
        alphabet = interval_generators(3, 1, 2)
        record = word_instance(((generator(3, 1), generator(3, 2)),), alphabet).to_record()
        record["pairs"] = [
            {"x": {"n": 3, "word": [2, 1, -1, -2, 1]}, "y": {"n": 3, "word": [-1, 2, 1]}}
        ]
        once = CspInstance.from_record(record).to_record()
        assert once != record
        assert once["pairs"][0]["x"] == {"n": 3, "word": [1]}
        assert CspInstance.from_record(once).to_record() == once

    def test_instances_of_equal_elements_are_equal(self):
        alphabet = interval_generators(3, 1, 2)
        spelt = word_instance(((BraidWord(3, (1, 2, -2)), BraidWord(3, (-1, 2, 1))),), alphabet)
        plain = word_instance(((generator(3, 1), BraidWord(3, (2, 1, -2))),), alphabet)
        assert spelt == plain
        assert CspInstance.from_record(spelt.to_record()) == spelt

    def test_dhdp_instance_round_trips(self):
        # The builder writes its meta in build order and a record reads it
        # back in key order; the instance keeps one order, so the two are equal.
        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=0)
        instance = build_mscsp_dhdp(run.public, "a")
        assert [key for key, _ in instance.meta] == sorted(dict(instance.meta))
        assert CspInstance.from_record(instance.to_record()) == instance
