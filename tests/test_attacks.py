import ast
import dataclasses
import inspect
import pathlib
import random
import typing

import pytest
from test_solvers import descent_steps, searching_run

from braidwork import attacks
from braidwork.attacks import (
    AttackReport,
    attack_decomposition,
    attack_dehornoy_centralizer,
    attack_dehornoy_pair,
    attack_stickel,
    complete_base,
    decide_edl,
    partial_factor_attack,
    solve_gtcp,
)
from braidwork.garside import is_trivial, normal_form, rewrite, words_equal
from braidwork.handle import is_trivial_handle_reduction, shift_preimage
from braidwork.protocols import (
    DehornoyKeys,
    dehornoy_commit,
    dehornoy_keygen,
    dehornoy_respond,
    ka_run,
    make_preset,
)
from braidwork.solvers import SolverConfig, solve_exhaustive
from braidwork.subgroups import SubgroupSpec, elements_commute, interval_generators
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
    shift,
    shifted_conjugate,
)


class TestDecomposition:
    @pytest.mark.parametrize("preset", ["klchkp", "cklhc"])
    def test_recovers_key(self, preset):
        run = ka_run(make_preset(preset, strands=6, secret_length=2), seed=0)
        report = attack_decomposition(
            run.public, SolverConfig(max_length=3)
        ).with_verdict("key-candidate", run.secret.kappa)
        assert report.success
        assert report.harness_verdict is True

    def test_generalized_preset(self):
        run = ka_run(make_preset("generalized", strands=8, secret_length=2), seed=1)
        report = attack_decomposition(
            run.public, SolverConfig(max_length=2)
        ).with_verdict("key-candidate", run.secret.kappa)
        assert report.success and report.harness_verdict is True

    def test_trivial_secrets(self):
        run = ka_run(
            make_preset("klchkp", strands=6, secret_length=0, base_length=2), seed=0
        )
        report = attack_decomposition(
            run.public, SolverConfig(max_length=1)
        ).with_verdict("key-candidate", run.secret.kappa)
        assert report.success and report.harness_verdict is True

    def test_descent_method(self):
        config = dataclasses.replace(
            make_preset("klchkp", strands=8, secret_length=3), positive_only=True
        )
        run = ka_run(config, seed=2)
        report = attack_decomposition(
            run.public,
            SolverConfig(max_length=3, restarts=6, length_functional="difference"),
            method="descent",
        ).with_verdict("key-candidate", run.secret.kappa)
        assert report.success and report.harness_verdict is True

    @pytest.mark.parametrize("seed", [1, 3, 4, 5])
    def test_descent_method_on_a_searching_instance(self, seed):
        run = searching_run(seed)
        report = attack_decomposition(
            run.public, SolverConfig(max_length=4, restarts=6, seed=seed), method="descent"
        ).with_verdict("key-candidate", run.secret.kappa)
        assert report.success and report.harness_verdict is True
        assert descent_steps(report.solver_reports[0]) >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_tampered_transcript_never_yields_key(self, seed):
        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=seed)
        mid = generator(6, 3)
        tampered = dataclasses.replace(
            run.public, form_a=normal_form(compose(run.public.token_a, mid))
        )
        report = attack_decomposition(
            tampered, SolverConfig(max_length=2)
        ).with_verdict("key-candidate", run.secret.kappa)
        assert not (report.success and report.harness_verdict)

    def test_failure_reports_unsolved_check(self):
        run = ka_run(make_preset("klchkp", strands=6, secret_length=4), seed=1)
        report = attack_decomposition(run.public, SolverConfig(max_length=1))
        assert not report.success
        assert ("left-instance-solved", False) in [
            (c.name, c.passed) for c in report.checks
        ]

    def test_report_record_shape(self):
        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=0)
        record = attack_decomposition(
            run.public, SolverConfig(max_length=3)
        ).with_verdict("key-candidate", run.secret.kappa).to_record()
        assert set(record) == {
            "attack",
            "recovered",
            "checks",
            "harness_verdict",
            "solver_reports",
        }
        assert "key-candidate" in record["recovered"]


class TestStickel:
    def test_recovers_key(self):
        config = make_preset("stickel", strands=8, exponent_bound=4)
        run = ka_run(config, seed=5)
        a, b = config.stickel_pair
        report = attack_stickel(
            a,
            b,
            run.public.token_a,
            run.public.token_b,
            exponent_bound=4,
        ).with_verdict("key-candidate", run.secret.kappa)
        assert report.success
        assert report.harness_verdict is True

    def test_honest_failure_below_true_exponent(self):
        a, b = BraidWord(6, (1, 2)), BraidWord(6, (2, 3))
        token_a = rewrite(compose(power(a, 2), power(b, 1)))
        token_b = rewrite(compose(power(a, 1), power(b, 2)))
        report = attack_stickel(a, b, token_a, token_b, exponent_bound=1)
        assert not report.success
        assert report.recovered == ()

    def test_rejects_negative_bound(self):
        a, b = BraidWord(6, (1, 2)), BraidWord(6, (2, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            attack_stickel(a, b, a, b, exponent_bound=-1)


class TestEdl:
    alphabet = interval_generators(6, 1, 2)

    def planted_tokens(self, u, v, xs):
        return tuple((x, rewrite(compose_all([u, x, v]))) for x in xs)

    def test_planted_positive(self):
        u = BraidWord(6, (1, 2))
        v = BraidWord(6, (2,))
        xs = (generator(6, 4), BraidWord(6, (4, 5)), generator(6, 5))
        tokens = self.planted_tokens(u, v, xs)
        (decision,) = decide_edl(
            tokens, SolverConfig(max_length=2, alphabet=self.alphabet)
        )
        assert decision.success
        found = decision.recovered_dict()
        u_cand, v_cand = found["u-candidate"], found["v-candidate"]
        for x, y in tokens:
            assert words_equal(compose_all([u_cand, x, v_cand]), y)

    def test_unrelated_tokens_no_evidence(self):
        tokens = (
            (generator(6, 4), generator(6, 5)),
            (generator(6, 5), BraidWord(6, (4, 4))),
        )
        (decision,) = decide_edl(
            tokens, SolverConfig(max_length=2, alphabet=self.alphabet)
        )
        assert not decision.success
        assert decision.recovered == ()

    def test_subset_mode_localizes_plant(self):
        u = BraidWord(6, (1, 2))
        v = invert(u)
        x0, x1, x2 = generator(6, 4), BraidWord(6, (4, 5)), generator(6, 5)
        tokens = self.planted_tokens(u, v, (x0, x1)) + (
            (x2, rewrite(compose_all([generator(6, 3), x2, generator(6, 3)]))),
        )
        decisions = decide_edl(
            tokens,
            SolverConfig(max_length=2, alphabet=self.alphabet),
            subsets=((0, 1), (0, 2), (1, 2)),
        )
        assert [d.success for d in decisions] == [True, False, False]

    def test_requires_alphabet(self):
        tokens = ((identity(4), identity(4)), (identity(4), identity(4)))
        with pytest.raises(ValueError):
            decide_edl(tokens, SolverConfig(max_length=1))

    def test_requires_two_tokens(self):
        with pytest.raises(ValueError):
            decide_edl(
                ((identity(4), identity(4)),),
                SolverConfig(max_length=1, alphabet=self.alphabet),
            )


class TestGtcp:
    spec = interval_generators(4, 1, 3)

    def samples_for(self, endos, r, ps):
        u, v, w = endos
        return tuple(
            (
                rewrite(
                    compose_all(
                        [apply_endo(u, r), apply_endo(v, p), apply_endo(w, invert(r))]
                    )
                ),
                p,
            )
            for p in ps
        )

    @pytest.mark.parametrize(
        "mode", ["pairwise-ce1", "pairwise-ce2", "centralizer-ce3", "centralizer-ce4"]
    )
    def test_inner_endos(self, mode):
        endos = (
            inner_endo(generator(4, 1)),
            IDENTITY_ENDO,
            inner_endo(generator(4, 2)),
        )
        r = BraidWord(4, (2, 1))
        ps = (generator(4, 1), generator(4, 3), BraidWord(4, (2, 3)))
        samples = self.samples_for(endos, r, ps)
        report = solve_gtcp(
            samples, endos, mode, self.spec, SolverConfig(max_length=2)
        ).with_verdict("r-candidate", r)
        assert report.success
        assert report.harness_verdict is True

    @pytest.mark.parametrize("mode", ["pairwise-ce1", "pairwise-ce2"])
    def test_shift_endos(self, mode):
        endos = (SHIFT_ENDO, IDENTITY_ENDO, SHIFT_ENDO)
        r = BraidWord(4, (1, 3))
        ps = (generator(4, 1), generator(4, 2), BraidWord(4, (3, 2)))
        samples = self.samples_for(endos, r, ps)
        report = solve_gtcp(
            samples, endos, mode, self.spec, SolverConfig(max_length=2)
        ).with_verdict("r-candidate", r)
        assert report.success
        assert report.harness_verdict is True

    def test_identity_endos_specialize_to_plain_conjugacy(self):
        endos = (IDENTITY_ENDO, IDENTITY_ENDO, IDENTITY_ENDO)
        r = generator(4, 2)
        ps = (generator(4, 1), generator(4, 3))
        samples = self.samples_for(endos, r, ps)
        # y_i = r.p_i.r^-1 exactly: every token must be a plain conjugate.
        for y, p in samples:
            assert words_equal(y, compose_all([r, p, invert(r)]))
        report = solve_gtcp(
            samples, endos, "pairwise-ce1", self.spec, SolverConfig(max_length=1),
        ).with_verdict("r-candidate", r)
        assert report.success and report.harness_verdict is True

    def test_failure_when_secret_out_of_reach(self):
        endos = (
            inner_endo(generator(4, 1)),
            IDENTITY_ENDO,
            inner_endo(generator(4, 2)),
        )
        r = BraidWord(4, (1, 2, 1, 2))
        ps = (generator(4, 1), generator(4, 3))
        samples = self.samples_for(endos, r, ps)
        report = solve_gtcp(
            samples, endos, "pairwise-ce1", self.spec, SolverConfig(max_length=1)
        )
        assert not report.success


def pair_round():
    keys = dehornoy_keygen(strands=4, secret_length=3, base_length=3, seed=0)
    gens = [generator(4, i) for i in range(1, 4)]
    r = random_word(gens, 3, random.Random("nonce:0"))
    x, x_prime = dehornoy_commit(keys, r)
    response = dehornoy_respond(keys, r, challenge=1)
    config = SolverConfig(max_length=3, alphabet=interval_generators(4, 1, 3))
    return attack_dehornoy_pair(
        x, x_prime, keys.base, keys.public_key, response, config
    ).with_verdict("s-candidate", keys.secret)


def gtcp_shift_round():
    # The shift carries the secret, so the filter lifts through it.
    endos = (SHIFT_ENDO, IDENTITY_ENDO, SHIFT_ENDO)
    r = BraidWord(4, (1, 3))
    ps = (generator(4, 1), generator(4, 2), BraidWord(4, (3, 2)))
    samples = tuple(
        (rewrite(compose_all([shift(r), p, invert(shift(r))])), p) for p in ps
    )
    spec = interval_generators(4, 1, 3)
    return solve_gtcp(
        samples, endos, "pairwise-ce1", spec, SolverConfig(max_length=2)
    ).with_verdict("r-candidate", r)


def centralizer_round():
    r_spec = interval_generators(4, 1, 2)
    base = BraidWord(4, (3, 1))
    r = BraidWord(4, (1, 2))
    commitment = rewrite(shifted_conjugate(r, base))
    return attack_dehornoy_centralizer(
        r_spec, base, commitment, SolverConfig(max_length=2)
    ).with_verdict("r-candidate", r)


class TestDehornoyAttacks:
    def test_pair_attack_recovers_secret(self):
        keys = dehornoy_keygen(strands=4, secret_length=3, base_length=3, seed=0)
        gens = [generator(4, i) for i in range(1, 4)]
        r = random_word(gens, 3, random.Random("nonce:0"))
        x, x_prime = dehornoy_commit(keys, r)
        response = dehornoy_respond(keys, r, challenge=1)
        report = attack_dehornoy_pair(
            x,
            x_prime,
            keys.base,
            keys.public_key,
            response,
            SolverConfig(
                max_length=3, alphabet=interval_generators(4, 1, 3), budget=500_000
            ),
        ).with_verdict("s-candidate", keys.secret)
        assert report.success
        assert report.harness_verdict is True
        s_cand = report.recovered_dict()["s-candidate"]
        assert words_equal(shifted_conjugate(s_cand, keys.base), keys.public_key)

    @pytest.mark.parametrize(
        "attack",
        (pair_round, gtcp_shift_round, centralizer_round),
        ids=("pair", "gtcp-shift", "centralizer"),
    )
    def test_filter_lifts_each_candidate_once(self, monkeypatch, attack):
        # One shift preimage per candidate the filter sees, and none after
        # the solve: the accepted candidate's value is the one the filter
        # lifted.
        lifts, seen, lifts_at_solve = [], [], []

        def counting_preimage(word):
            lifts.append(word)
            return shift_preimage(word)

        def counting_solve(inst, config, extra_check):
            def check(word):
                seen.append(word)
                return extra_check(word)

            rep = solve_exhaustive(inst, config, extra_check=check)
            lifts_at_solve.append(len(lifts))
            return rep

        monkeypatch.setattr(attacks, "shift_preimage", counting_preimage)
        monkeypatch.setattr(attacks, "solve_exhaustive", counting_solve)
        report = attack()
        assert report.success and report.harness_verdict is True
        assert seen and len(lifts) == len(seen)
        assert lifts_at_solve == [len(lifts)]

    def test_pair_attack_answers_in_the_key_group(self):
        # Criterion 8's seeds: r and s are read off the enumerated secret,
        # so they live on the key's strand count, and s * p = p'.
        gens = [generator(4, i) for i in range(1, 4)]
        config = SolverConfig(
            max_length=3, alphabet=interval_generators(4, 1, 3), budget=500_000
        )
        for seed in range(10):
            keys = dehornoy_keygen(strands=4, secret_length=3, base_length=4, seed=seed)
            nonce = random_word(gens, 3, random.Random(f"nonce:{seed}"))
            x, x_prime = dehornoy_commit(keys, nonce)
            response = dehornoy_respond(keys, nonce, challenge=1)
            report = attack_dehornoy_pair(
                x, x_prime, keys.base, keys.public_key, response, config
            )
            assert report.success
            recovered = report.recovered_dict()
            assert recovered["r-candidate"].strands == keys.strands
            s = recovered["s-candidate"]
            assert s.strands == keys.strands
            assert is_trivial_handle_reduction(
                compose(shifted_conjugate(s, keys.base), invert(keys.public_key))
            )

    def test_pair_attack_compares_keys_on_the_larger_strand_count(self):
        # p, s and r on 3 strands put the public key on 4, while the
        # 4-strand alphabet puts each candidate's s * p on 5: the filter
        # must compare both on 5 strands, as words_equal does.
        p, s, r = BraidWord(3, (-1, 2, -2, 1)), BraidWord(3, (1, 2, 2)), BraidWord(3, (2, 1, -2))
        p_pub = rewrite(shifted_conjugate(s, p))
        report = attack_dehornoy_pair(
            rewrite(shifted_conjugate(r, p)),
            rewrite(shifted_conjugate(r, p_pub)),
            p,
            p_pub,
            rewrite(shifted_conjugate(r, s)),
            SolverConfig(max_length=3, alphabet=interval_generators(4, 1, 3), budget=500_000),
        ).with_verdict("s-candidate", s)
        assert p_pub.strands == 4
        assert report.success and report.harness_verdict is True

    def test_pair_attack_flags_degenerate_keys(self):
        base = BraidWord(3, (1, 2))
        keys = DehornoyKeys(base, base, identity(3))
        x, x_prime = dehornoy_commit(keys, generator(3, 1))
        report = attack_dehornoy_pair(
            x,
            x_prime,
            base,
            base,
            identity(3),
            SolverConfig(max_length=1, alphabet=interval_generators(3, 1, 2)),
        )
        assert not report.success
        assert report.checks[0].name == "informative-instance"
        assert not report.checks[0].passed

    def test_centralizer_attack_recovers_nonce(self):
        r_spec = interval_generators(4, 1, 2)
        base = BraidWord(4, (3, 1))
        r = BraidWord(4, (1, 2))
        commitment = rewrite(shifted_conjugate(r, base))
        report = attack_dehornoy_centralizer(
            r_spec,
            base,
            commitment,
            SolverConfig(max_length=2),
        ).with_verdict("r-candidate", r)
        assert report.success
        assert report.harness_verdict is True

    def test_centralizer_attack_filters_on_the_commitment(self):
        # Over the full alphabet of B_5 the first conjugator found is often
        # not d(r) for any r reproducing the commitment; the solver's filter
        # skips those, so every seed succeeds (18 of 25 when the commitment
        # was only checked after the solve).
        r_spec = interval_generators(4, 1, 2)
        successes = 0
        for seed in range(25):
            rng = random.Random(f"full:{seed}")
            base = random_word([generator(4, i) for i in range(1, 4)], 3, rng)
            r = random_word(r_spec.generators, 2, rng)
            commitment = rewrite(shifted_conjugate(r, base))
            config = SolverConfig(max_length=2, alphabet=interval_generators(5, 1, 4))
            report = attack_dehornoy_centralizer(r_spec, base, commitment, config)
            successes += report.success
        assert successes == 25

    def test_centralizer_attack_trivial_nonce(self):
        r_spec = interval_generators(4, 1, 2)
        base = BraidWord(4, (2, 3))
        commitment = rewrite(shifted_conjugate(identity(4), base))
        report = attack_dehornoy_centralizer(
            r_spec, base, commitment, SolverConfig(max_length=1)
        ).with_verdict("r-candidate", identity(4))
        assert report.success and report.harness_verdict is True


class TestPartialFactor:
    head_alphabet = interval_generators(6, 4, 5)

    def test_exact_peel(self):
        h = generator(6, 5)
        z = BraidWord(6, (1, 2, 1))
        token = rewrite(compose(h, z))
        probe = generator(6, 4)
        (result,) = partial_factor_attack(
            token, (probe,), SolverConfig(max_length=1, alphabet=self.head_alphabet)
        )
        assert result.success
        residual = result.recovered_dict()["residual"]
        assert elements_commute(residual, probe)
        assert words_equal(compose(rewrite(compose(token, invert(residual))), residual), token)

    def test_trivial_base_gives_trivial_residual(self):
        # The caller peels level after level on the head until the residual
        # is trivial.
        token = rewrite(BraidWord(6, (5, 4)))
        probe = generator(6, 4)
        config = SolverConfig(max_length=2, alphabet=self.head_alphabet)
        for _ in range(3):
            (result,) = partial_factor_attack(token, (probe,), config)
            head = result.solver_reports[0].solution
            residual = result.recovered_dict()["residual"]
            assert words_equal(compose(head, residual), token)
            if is_trivial(residual):
                break
            token = rewrite(head)
        assert is_trivial(residual)
        # A trivial residual is recorded as a word, not left out.
        assert result.to_record()["recovered"]["residual"] == residual.to_record()

    def test_unsolved_probe_reported(self):
        token = BraidWord(6, (1, 2))
        probe = generator(6, 1)
        (result,) = partial_factor_attack(
            token,
            (probe,),
            SolverConfig(max_length=1, alphabet=self.head_alphabet),
        )
        assert result.recovered == ()
        assert not result.solver_reports[0].solved
        assert not result.success

    def test_complete_base_recovers_plant(self):
        h = generator(6, 5)
        z_bar = generator(6, 1)
        residual = generator(6, 2)
        token = rewrite(compose_all([h, z_bar, residual]))
        full = complete_base(
            token,
            residual,
            self.head_alphabet,
            interval_generators(6, 1, 2),
            head_max_length=1,
            tail_max_length=1,
        )
        assert full is not None
        assert words_equal(full, compose(z_bar, residual))

    def test_complete_base_none_when_budget_short(self):
        h = generator(6, 5)
        token = rewrite(compose_all([h, generator(6, 1), generator(6, 2)]))
        full = complete_base(
            token,
            generator(6, 2),
            self.head_alphabet,
            interval_generators(6, 1, 2),
            head_max_length=1,
            tail_max_length=0,
        )
        assert full is None


def handle_equal(a, b):
    """Equality by handle reduction, an oracle apart from the normal forms
    the solver filters compare."""
    return is_trivial_handle_reduction(compose(a, invert(b)))


def refused(report):
    return ("instance-solved", False) in [(c.name, c.passed) for c in report.checks]


class TestTamperedTranscripts:
    """The solver filter is the only check of each pipeline's public
    relation, so a transcript that breaks the relation must not yield a
    claimed success unless the recovered value really satisfies it."""

    @pytest.mark.parametrize("foreign", ["nonce", "secret"])
    def test_pair_attack_with_foreign_response(self, foreign):
        # A response to another nonce mostly fails to unwrap through the
        # shift; one under another secret unwraps, and only the filter's
        # public-key relation can refuse it.
        gens = [generator(4, i) for i in range(1, 4)]
        config = SolverConfig(max_length=3, alphabet=interval_generators(4, 1, 3))
        refusals = 0
        for seed in range(10):
            keys = dehornoy_keygen(strands=4, secret_length=3, base_length=4, seed=seed)
            nonce = random_word(gens, 3, random.Random(f"nonce:{seed}"))
            other = random_word(gens, 3, random.Random(f"other-{foreign}:{seed}"))
            x, x_prime = dehornoy_commit(keys, nonce)
            if foreign == "nonce":
                response = dehornoy_respond(keys, other, challenge=1)
            else:
                forged = dataclasses.replace(keys, secret=other)
                response = dehornoy_respond(forged, nonce, challenge=1)
            report = attack_dehornoy_pair(
                x, x_prime, keys.base, keys.public_key, response, config
            )
            if report.success:
                s_cand = report.recovered_dict()["s-candidate"]
                assert handle_equal(shifted_conjugate(s_cand, keys.base), keys.public_key)
            refusals += refused(report)
        assert refusals > 0

    def test_gtcp_with_foreign_sample(self):
        spec = interval_generators(4, 1, 3)
        gens = [generator(4, i) for i in range(1, 4)]
        maps = (IDENTITY_ENDO, SHIFT_ENDO, inner_endo(BraidWord(4, (1, 2))))
        modes = ("pairwise-ce1", "pairwise-ce2", "centralizer-ce3", "centralizer-ce4")
        ps = (generator(4, 1), generator(4, 3), BraidWord(4, (2, 3)))
        refusals = 0
        for seed in range(10):
            rng = random.Random(f"gtcp-tamper:{seed}")
            u, w = rng.choice(maps), rng.choice(maps)
            r, r_other = random_word(gens, 2, rng), random_word(gens, 2, rng)

            def token(secret, p):
                return rewrite(
                    compose_all([apply_endo(u, secret), p, apply_endo(w, invert(secret))])
                )

            samples = tuple(
                (token(r_other if i == 1 else r, p), p) for i, p in enumerate(ps)
            )
            endos = (u, IDENTITY_ENDO, w)
            report = solve_gtcp(
                samples, endos, modes[seed % 4], spec, SolverConfig(max_length=2)
            )
            if report.success:
                r_cand = report.recovered_dict()["r-candidate"]
                for y, p in samples:
                    assert handle_equal(token(r_cand, p), y)
            refusals += refused(report)
        assert refusals > 0

    def test_centralizer_attack_with_foreign_base(self):
        r_spec = interval_generators(4, 1, 2)
        gens = [generator(4, i) for i in range(1, 4)]
        refusals = 0
        for seed in range(10):
            rng = random.Random(f"centralizer-tamper:{seed}")
            base, other_base = random_word(gens, 3, rng), random_word(gens, 3, rng)
            r = random_word(r_spec.generators, 2, rng)
            commitment = rewrite(shifted_conjugate(r, other_base))
            report = attack_dehornoy_centralizer(
                r_spec, base, commitment, SolverConfig(max_length=2)
            )
            if report.success:
                r_cand = report.recovered_dict()["r-candidate"]
                assert handle_equal(shifted_conjugate(r_cand, base), commitment)
            refusals += refused(report)
        assert refusals > 0


# The protocol types that carry a secret: an attack may not name them.
SECRET_TYPES = {"SecretTranscript", "ProtocolTranscript", "DehornoyKeys"}


def public_attack_names() -> dict:
    """The public names `braidwork.attacks` defines, by name."""
    return {
        name: obj
        for name, obj in vars(attacks).items()
        if not name.startswith("_") and getattr(obj, "__module__", "") == attacks.__name__
    }


# Pipelines that search a caller's alphabet, each on public data of 4 strands.
ALPHABET_PIPELINES = {
    "edl": lambda config: decide_edl(
        ((generator(4, 1), generator(4, 2)), (generator(4, 2), generator(4, 1))), config
    ),
    "dehornoy-pair": lambda config: attack_dehornoy_pair(*[generator(4, 1)] * 5, config),
    "partial-factor": lambda config: partial_factor_attack(
        generator(4, 1), (generator(4, 2),), config
    ),
}


@pytest.mark.parametrize("pipeline", ALPHABET_PIPELINES)
def test_search_alphabet_is_required(monkeypatch, pipeline):
    # The instance a pipeline builds refuses a missing alphabet, before any
    # solver runs.
    def no_solver(*args, **kwargs):
        raise AssertionError("a solver ran")

    for name in ("solve_exhaustive", "solve_length_descent"):
        monkeypatch.setattr(attacks, name, no_solver)
    with pytest.raises(ValueError, match="explicit search alphabet"):
        ALPHABET_PIPELINES[pipeline](SolverConfig(max_length=1))


def test_attack_report_is_the_one_report_type():
    # Every pipeline returns AttackReports; complete_base returns a word.
    public = public_attack_names()
    assert [name for name, obj in public.items() if inspect.isclass(obj)] == ["AttackReport"]
    pipelines = {
        name: f for name, f in public.items() if inspect.isfunction(f) and name != "complete_base"
    }
    assert {"decide_edl", "partial_factor_attack"} <= set(pipelines)
    for name, f in pipelines.items():
        returned = typing.get_type_hints(f)["return"]
        if typing.get_origin(returned) in (tuple, list):
            assert set(typing.get_args(returned)) - {Ellipsis} == {AttackReport}, name
        else:
            assert returned is AttackReport, name


class TestPublicDataOnly:
    """Attacks read public data only. The harness verdict is the caller's:
    whoever holds the secret judges a report with `with_verdict`."""

    def test_no_attack_takes_a_secret(self):
        public = list(public_attack_names().values())
        functions = [f for f in public if inspect.isfunction(f)] + [
            m for cls in public if inspect.isclass(cls)
            for m in vars(cls).values() if inspect.isfunction(m)
        ]
        assert attack_decomposition in functions
        for f in functions:
            for param in inspect.signature(f).parameters.values():
                where = f"{f.__qualname__}({param.name}: {param.annotation})"
                assert not param.name.startswith("oracle"), where
                annotated = set(str(param.annotation).replace("|", " ").split())
                assert not SECRET_TYPES & annotated, where

    def test_attacks_module_imports_no_secret_type(self):
        tree = ast.parse(pathlib.Path(attacks.__file__).read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not SECRET_TYPES & imported


class TestWithVerdict:
    def test_no_verdict_when_pair_attack_is_unsolved(self):
        keys = dehornoy_keygen(strands=4, secret_length=3, base_length=3, seed=0)
        r = random_word([generator(4, i) for i in range(1, 4)], 3, random.Random("nonce:0"))
        x, x_prime = dehornoy_commit(keys, r)
        response = dehornoy_respond(keys, r, challenge=1)
        config = SolverConfig(max_length=1, alphabet=interval_generators(4, 1, 3))
        report = attack_dehornoy_pair(x, x_prime, keys.base, keys.public_key, response, config)
        assert ("instance-solved", False) in [(c.name, c.passed) for c in report.checks]
        judged = report.with_verdict("s-candidate", keys.secret)
        assert judged == report and judged.harness_verdict is None

    def test_no_verdict_when_stickel_finds_no_b_power(self):
        # token_a = a.b^3: the a-power is found, but b^3 is past the bound.
        a, b = BraidWord(6, (1, 2)), BraidWord(6, (2, 3))
        token_a = rewrite(compose(a, power(b, 3)))
        token_b = rewrite(compose(a, b))
        report = attack_stickel(a, b, token_a, token_b, exponent_bound=2)
        assert [(c.name, c.passed) for c in report.checks] == [
            ("a-power-found", True),
            ("b-power-found", False),
        ]
        key = compose_all([a, token_b, power(b, 3)])
        assert report.with_verdict("key-candidate", key).harness_verdict is None

    def test_compares_the_named_candidate_as_braids(self):
        report = AttackReport("test", (("r-candidate", BraidWord(4, (1, 2, 1))),), (), ())
        assert report.with_verdict("r-candidate", BraidWord(4, (2, 1, 2))).harness_verdict is True
        assert report.with_verdict("r-candidate", generator(4, 1)).harness_verdict is False
        assert report.with_verdict("s-candidate", generator(4, 1)).harness_verdict is None

    def test_identity_candidate_is_judged(self):
        # The identity word is falsy; it is still a recovered candidate.
        report = AttackReport("test", (("r-candidate", identity(4)),), (), ())
        assert not report.recovered_dict()["r-candidate"]
        assert report.with_verdict("r-candidate", identity(4)).harness_verdict is True
        assert report.with_verdict("r-candidate", BraidWord(4, (1, -1))).harness_verdict is True
