import dataclasses
import hashlib
import json
import re

import pytest
import solver_reference
from hypothesis import given, settings, strategies as st
from solver_reference import word_instance

from braidwork import solvers
from braidwork.attacks import solve_gtcp
from braidwork.extractors import (
    CspInstance,
    build_gtcp_instances,
    build_mscsp_dhdp,
    build_stickel_instance,
)
from braidwork.garside import conjugate, inverse, normal_form, product, rewrite, words_equal
from braidwork.handle import is_trivial_handle_reduction
from braidwork.protocols import ka_run, make_preset
from braidwork.solvers import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    SOLVED,
    STALLED,
    SolutionReport,
    SolverConfig,
    solve_exhaustive,
    solve_length_descent,
    solve_power,
    verify_solution,
)
from braidwork.subgroups import SubgroupSpec, interval_generators
from braidwork.words import (
    MAX_SECRET_LENGTH,
    BraidWord,
    Endomorphism,
    apply_endo,
    canonical_symbols,
    compose,
    compose_all,
    delta,
    generator,
    identity,
    invert,
    power,
)


def conjugation_instance(g: BraidWord, probes, alphabet, post=None) -> CspInstance:
    g_inv = invert(g)
    pairs = tuple(
        (p, rewrite(compose_all([g, p, g_inv]))) for p in probes
    )
    return word_instance(pairs, alphabet, post)


class TestVerifySolution:
    def test_per_pair_flags(self):
        inst = word_instance(
            (
                (generator(4, 3), generator(4, 3)),
                (generator(4, 2), generator(4, 2)),
            ),
            interval_generators(4, 1, 3),
        )
        checks = verify_solution(inst, generator(4, 1))
        assert checks == [True, False]

    def test_equal_sides_hold_only_for_commuting_letters(self):
        # x == y is not enough: g = sigma_1 sigma_3 on 5 strands fixes none
        # of sigma_2, Delta_3 (an odd power) and Delta_3^2 (central in B_3,
        # but sigma_3 crosses its last strand), only the central Delta_5^2.
        twist = power(delta(5), 2)
        pairs = ((generator(4, 2),) * 2, (delta(3),) * 2, (power(delta(3), 2),) * 2, (twist, twist))
        inst = word_instance(pairs, interval_generators(5, 1, 3))
        g = BraidWord(5, (1, 3))
        assert verify_solution(inst, g) == [False, False, False, True]
        assert [
            is_trivial_handle_reduction(compose_all([g, x, invert(g), invert(y)]))
            for x, y in pairs
        ] == [False, False, False, True]

    def test_pairs_decided_by_supports_form_no_product(self, monkeypatch):
        # Each y equals its x and commutes with sigma_1 and sigma_2, the
        # letters of g, by generator supports, so no product is formed.
        calls = []

        def counting_product(a, b):
            calls.append((a, b))
            return product(a, b)

        monkeypatch.setattr(solvers, "product", counting_product)
        twist = power(delta(5), 2)
        pairs = (
            (generator(5, 4),) * 2,
            (twist, twist),
            (compose(invert(twist), power(generator(5, 4), 2)),) * 2,
        )
        inst = word_instance(pairs, interval_generators(5, 1, 2))
        assert verify_solution(inst, BraidWord(5, (1, -2, -2))) == [True, True, True]
        assert calls == []
        assert verify_solution(inst, BraidWord(5, (3,))) == [False, True, False]
        assert len(calls) == 4

    @given(st.data())
    @settings(deadline=None)
    def test_matches_handle_reduction(self, data):
        # g, each x and each y live on their own strand counts; y is a
        # planted conjugate g x g^-1 or an arbitrary word. The instance's
        # post_transform, when it has one, does not enter the check.
        def word(min_strands):
            n = data.draw(st.integers(min_value=min_strands, max_value=6))
            letter = st.integers(min_value=1, max_value=n - 1).flatmap(
                lambda i: st.sampled_from([i, -i])
            )
            return BraidWord(n, tuple(data.draw(st.lists(letter, max_size=6))))

        g = word(2)
        pairs = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            x = word(2)
            if data.draw(st.booleans()):
                y = compose_all([g, x, invert(g)])
                y = y.embed(data.draw(st.integers(min_value=y.strands, max_value=7)))
            else:
                y = word(2)
            pairs.append((x, y))
        post = word(2) if data.draw(st.booleans()) else None
        inst = word_instance(tuple(pairs), interval_generators(3, 1, 2), post)
        expected = [
            is_trivial_handle_reduction(compose_all([g, x, invert(g), invert(y)]))
            for x, y in pairs
        ]
        assert verify_solution(inst, g) == expected


class TestSolveExhaustive:
    def test_finds_planted_conjugator(self):
        alphabet = interval_generators(5, 1, 2)
        g = BraidWord(5, (1, 2))
        inst = conjugation_instance(g, (generator(5, 4), generator(5, 1)), alphabet)
        report = solve_exhaustive(inst, SolverConfig(max_length=2))
        assert report.solved
        assert all(verify_solution(inst, report.solution))

    def test_solution_is_sound_not_just_syntactic(self):
        alphabet = interval_generators(4, 1, 3)
        g = generator(4, 2)
        inst = conjugation_instance(g, (generator(4, 1), generator(4, 3)), alphabet)
        report = solve_exhaustive(inst, SolverConfig(max_length=1))
        assert report.solved
        assert all(verify_solution(inst, report.solution))

    def test_exhausted_when_out_of_reach(self):
        alphabet = SubgroupSpec("s1", 4, (generator(4, 1),))
        inst = word_instance(
            ((generator(4, 2), generator(4, 3)),), alphabet
        )
        report = solve_exhaustive(inst, SolverConfig(max_length=2))
        assert report.status == EXHAUSTED
        assert report.solution is None

    def test_budget_exceeded(self):
        alphabet = interval_generators(5, 1, 4)
        inst = word_instance(((generator(5, 1), generator(5, 2)),), alphabet)
        report = solve_exhaustive(inst, SolverConfig(max_length=4, budget=5))
        assert report.status == BUDGET_EXCEEDED
        assert report.candidates_tested == 5

    def test_post_transform_applied(self):
        # Plant g = w . t with t fixed: the solver must enumerate w only.
        alphabet = interval_generators(5, 1, 2)
        t = generator(5, 4)
        w = BraidWord(5, (1, 2))
        g = compose(w, t)
        inst = conjugation_instance(
            g, (generator(5, 1),), alphabet, post=invert(t)
        )
        report = solve_exhaustive(inst, SolverConfig(max_length=2))
        assert report.solved
        assert words_equal(compose(report.raw_word, t), report.solution)
        assert all(verify_solution(inst, report.solution))

    def test_extra_check_filters(self):
        alphabet = interval_generators(4, 1, 3)
        inst = word_instance(((generator(4, 1), generator(4, 1)),), alphabet)
        # Identity solves the pair; the predicate forces a later candidate.
        report = solve_exhaustive(
            inst,
            SolverConfig(max_length=1),
            extra_check=lambda g: len(g) > 0,
        )
        assert report.solved
        assert len(report.solution) > 0

    def test_each_node_is_conjugated_once(self, monkeypatch):
        # Four symbols and two pairs; no word conjugates the first (the
        # exponent sum of sigma_3 is not that of its inverse), so the search
        # exhausts length 5 with no match. It grows head levels 1..3 and tail
        # levels 1..2, and conjugates each node's one normal form, the first
        # pair's, at most once. Here every node is conjugated: sigma_3 and
        # sigma_3^-1 induce one permutation, so heads and tails of one
        # length carry the same permutations and every head hits a bucket
        # at even lengths, and the tails of length 2 carry all three that
        # sigma_1 and sigma_2 conjugate it to, which the heads of length 3
        # hit at length 5.
        calls = []

        def counting_conjugate(a, s):
            calls.append(s)
            return conjugate(a, s)

        monkeypatch.setattr(solvers, "conjugate", counting_conjugate)
        alphabet = interval_generators(4, 1, 2)
        inst = word_instance(
            (
                (generator(4, 3), invert(generator(4, 3))),
                (generator(4, 1), generator(4, 2)),
            ),
            alphabet,
        )
        report = solve_exhaustive(inst, SolverConfig(max_length=5))
        assert report.status == EXHAUSTED

        def nodes(length):
            return 4 * 3 ** (length - 1)

        heads = sum(nodes(h) for h in range(1, 4))
        tails = sum(nodes(h) for h in range(1, 3))
        assert (heads, tails) == (52, 16)
        assert len(calls) == heads + tails

    def test_heads_whose_permutation_no_tail_has_are_not_conjugated(self, monkeypatch):
        # sigma_2 sigma_3 and sigma_2^-1 sigma_3^-1 induce one permutation,
        # a 3-cycle through the fourth strand, but their exponent sums
        # differ, so no word conjugates one to the other. A word in sigma_1
        # and sigma_2 permutes the first three strands, evenly exactly when
        # its length is even, and the six permutations of three strands
        # conjugate that 3-cycle to six different ones. So a head and a
        # tail share a permutation only when their lengths have the same
        # parity, which they have at even lengths alone: each node of head
        # and tail levels 1..2 is conjugated once, 32 in all, and none of
        # the 36 heads of length 3, met at length 5 with tails of length 2.
        calls = []

        def counting_conjugate(a, s):
            calls.append(s)
            return conjugate(a, s)

        monkeypatch.setattr(solvers, "conjugate", counting_conjugate)
        inst = word_instance(
            ((BraidWord(4, (2, 3)), BraidWord(4, (-2, -3))),), interval_generators(4, 1, 2)
        )
        config = SolverConfig(max_length=5)
        report = solve_exhaustive(inst, config)
        assert report.status == EXHAUSTED
        assert len(calls) == 4 + 12 + 4 + 12 < 52 + 16
        assert report == solver_reference._candidate_loop(inst, config)

    @pytest.mark.parametrize(
        "second, matches",
        [pytest.param(-4, 0, id="no-match"), pytest.param(4, 485, id="every-word")],
    )
    def test_key_pair_skips_pairs_every_word_solves(self, monkeypatch, second, matches):
        # (Delta^2, Delta^2) is solved by every word, as its even Delta power
        # and empty support show with no conjugation, so it does not key the
        # table: the table is keyed by the second pair, at most one
        # conjugation per node (52 heads and 16 tails, as above). Here each
        # node is conjugated once: sigma_1 and sigma_2 fix the permutation
        # of sigma_4, which sigma_4^-1 shares, so every head hits a bucket.
        # (sigma_4, sigma_4^-1) matches no word. sigma_4 is at least 2 from
        # both letters of the alphabet, so every word solves (sigma_4,
        # sigma_4) too: the last pair keys the table, every word up to
        # length 5 matches, and no match conjugates either pair.
        calls = []

        def counting_conjugate(a, s):
            calls.append(s)
            return conjugate(a, s)

        monkeypatch.setattr(solvers, "conjugate", counting_conjugate)
        full_twist = power(delta(5), 2)
        inst = word_instance(
            ((full_twist, full_twist), (generator(5, 4), BraidWord(5, (second,)))),
            interval_generators(5, 1, 2),
        )
        seen = []

        def declining_filter(word):
            seen.append(word)
            return False

        report = solve_exhaustive(inst, SolverConfig(max_length=5), declining_filter)
        assert report.status == EXHAUSTED
        assert report.candidates_tested == 1 + 4 + 12 + 36 + 108 + 324
        assert len(seen) == matches
        assert len(calls) == 52 + 16

    def test_gtcp_instance_every_word_solves(self, monkeypatch):
        # A centralizer-ce3 instance on 6 strands whose five pairs every word
        # of the alphabet (the images of sigma_1 and sigma_2 under an inner
        # map) solves, all by supports: Delta^2, sigma_4 and sigma_5 by
        # their normal forms, and the two odd-power probes sigma_4^-1 and
        # sigma_5^-1 by their np-forms, so the setup conjugates nothing.
        # The last pair keys the table, so the search conjugates only its
        # form, and the filter alone decides; the report's digest is the
        # one from before pairs were dropped.
        spec = interval_generators(6, 1, 2)
        endos = (
            Endomorphism("inner", BraidWord(6, (1, 2))),
            Endomorphism("identity"),
            Endomorphism("identity"),
        )
        r = BraidWord(6, (1, -2, 1, 2, 2, 1))
        ps = (BraidWord(6, (2, 1, -2)), BraidWord(6, (1, 1)))
        samples = tuple(
            (rewrite(compose_all([apply_endo(endos[0], r), p, invert(r)])), p) for p in ps
        )
        inst = build_gtcp_instances(samples, endos, "centralizer-ce3", spec)
        assert [x == y for x, y in inst.forms] == [True] * 5
        assert [x.infimum for x, _ in inst.forms] == [2, 0, 0, -1, -1]
        conjugated = []

        def recording_conjugate(a, s):
            conjugated.append(a)
            return conjugate(a, s)

        monkeypatch.setattr(solvers, "conjugate", recording_conjugate)
        report = solve_gtcp(samples, endos, "centralizer-ce3", spec, SolverConfig(max_length=6))
        y3, y4 = inst.forms[3][1], inst.forms[4][1]
        assert y3 not in conjugated
        assert set(conjugated) == {y4}
        (solved,) = report.solver_reports
        assert solved.candidates_tested == 80
        assert solved.per_pair == (True,) * 5
        record = json.dumps(report.to_record(), sort_keys=True).encode()
        assert hashlib.sha256(record).hexdigest() == (
            "a174b01092e52683438d5aabc57552a1c48bbd5c605aca5c0b39c2ac229a25a8"
        )

    def test_other_pairs_are_checked_before_the_filter(self):
        # The identity solves the first pair but not the second, which
        # sigma_1 also solves: the table matches the identity on the first
        # pair, and the check of the second turns it down before the filter
        # is asked.
        alphabet = interval_generators(3, 1, 2)
        s1, s2 = generator(3, 1), generator(3, 2)
        inst = word_instance(
            ((s1, s1), (s2, compose_all([s1, s2, invert(s1)]))), alphabet
        )
        seen = []

        def recording_filter(word):
            seen.append(word)
            return True

        report = solve_exhaustive(inst, SolverConfig(max_length=3), recording_filter)
        assert report.solved
        assert report.solution == s1
        assert report.candidates_tested == 2
        assert report.per_pair == (True, True)
        assert seen == [s1]

    def test_reads_the_instance_forms(self, monkeypatch):
        # The pairs' normal forms come with the instance, so with no coset
        # factor the only word the solver normalises is the solution g, once,
        # in verify_solution.
        calls = []

        def counting_normal_form(w):
            calls.append(w)
            return normal_form(w)

        alphabet = interval_generators(5, 1, 2)
        probes = (generator(5, 4), generator(5, 1), BraidWord(5, (4, -3)))
        inst = conjugation_instance(BraidWord(5, (1, 2)), probes, alphabet)
        monkeypatch.setattr(solvers, "normal_form", counting_normal_form)
        report = solve_exhaustive(inst, SolverConfig(max_length=2))
        assert report.solved
        assert calls == [report.solution]

    def test_deterministic(self):
        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=9)
        inst = build_mscsp_dhdp(run.public, "a")
        r1 = solve_exhaustive(inst, SolverConfig(max_length=2))
        r2 = solve_exhaustive(inst, SolverConfig(max_length=2))
        assert r1 == r2


class TestSolvePower:
    def pow_instance(self, exponent: int, bound_alpha: int = 1) -> CspInstance:
        a = BraidWord(5, (1, 2))
        b = BraidWord(5, (3, 4))
        g = power(a, exponent)
        probe = power(b, bound_alpha)
        out = rewrite(compose_all([g, probe, invert(g)]))
        return word_instance(((probe, out),), SubgroupSpec("<a>", 5, (a,)))

    def test_finds_cube(self):
        report = solve_power(self.pow_instance(3), max_exponent=5)
        assert report.solved
        assert words_equal(report.solution, power(BraidWord(5, (1, 2)), 3))

    def test_exhausted_below_true_exponent(self):
        report = solve_power(self.pow_instance(3), max_exponent=2)
        assert report.status == EXHAUSTED

    def test_zero_exponent_first(self):
        inst = word_instance(
            ((generator(5, 4), generator(5, 4)),),
            SubgroupSpec("<a>", 5, (BraidWord(5, (1, 2)),)),
        )
        report = solve_power(inst, max_exponent=3)
        assert report.solved and report.candidates_tested == 1

    def test_negative_exponent(self):
        report = solve_power(self.pow_instance(-2), max_exponent=3)
        assert report.solved

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            solve_power(self.pow_instance(1), max_exponent=-1)

    def test_bound_is_capped_at_the_secret_length_cap(self):
        # One generator never needs a large table, so the length cap is
        # what bounds the search: at the cap it tests every power. No power
        # of sigma_1 conjugates sigma_2 to sigma_3, as their permutations show.
        alphabet = SubgroupSpec("<s1>", 4, (generator(4, 1),))
        inst = word_instance(((generator(4, 2), generator(4, 3)),), alphabet)
        report = solve_power(inst, max_exponent=MAX_SECRET_LENGTH)
        assert (report.status, report.candidates_tested) == (EXHAUSTED, 2 * MAX_SECRET_LENGTH + 1)
        with pytest.raises(ValueError, match="cap"):
            solve_power(self.pow_instance(1), max_exponent=MAX_SECRET_LENGTH + 1)
        with pytest.raises(ValueError, match="cap"):
            solve_exhaustive(self.pow_instance(1), SolverConfig(MAX_SECRET_LENGTH + 1))


def searching_run(seed: int):
    """A run of the descent workload's shape, klchkp on 9 strands with
    positive secrets of length 4, at a protocol seed whose instance for
    target a the identity raw word does not solve, as at seeds 1, 3, 4 and
    5: a descent on it has to move."""
    config = dataclasses.replace(
        make_preset("klchkp", strands=9, secret_length=4), positive_only=True
    )
    run = ka_run(config, seed=seed)
    inst = build_mscsp_dhdp(run.public, "a")
    assert not solve_exhaustive(inst, SolverConfig(max_length=0)).solved
    return run


def descent_steps(report: SolutionReport) -> int:
    """The steps of a descent that solved on one attempt, read off its trace."""
    (line,) = report.trace
    steps = re.fullmatch(r"success after (\d+) steps \(attempt \d+\)", line)
    assert steps, line
    return int(steps[1])


class TestSolveLengthDescent:
    def test_one_step_example(self):
        alphabet = interval_generators(6, 1, 5)
        g = generator(6, 3)
        inst = conjugation_instance(g, (generator(6, 2), generator(6, 4)), alphabet)
        report = solve_length_descent(inst, SolverConfig(max_length=1))
        assert report.solved
        assert all(verify_solution(inst, report.solution))

    def test_identity_instance(self):
        alphabet = interval_generators(4, 1, 3)
        inst = word_instance(((generator(4, 2), generator(4, 2)),), alphabet)
        report = solve_length_descent(inst, SolverConfig(max_length=1))
        assert report.solved

    def test_protocol_instance(self):
        config = dataclasses.replace(
            make_preset("klchkp", strands=8, secret_length=3), positive_only=True
        )
        run = ka_run(config, seed=11)
        inst = build_mscsp_dhdp(run.public, "a")
        report = solve_length_descent(
            inst,
            SolverConfig(max_length=3, restarts=6, length_functional="difference"),
        )
        assert report.solved
        assert all(verify_solution(inst, report.solution))

    @pytest.mark.parametrize("seed", [1, 3, 4, 5])
    def test_searching_protocol_instance(self, seed):
        inst = build_mscsp_dhdp(searching_run(seed).public, "a")
        report = solve_length_descent(inst, SolverConfig(max_length=4, restarts=6, seed=seed))
        assert report.solved
        assert all(verify_solution(inst, report.solution))
        assert descent_steps(report) >= 1

    def test_descent_workload_instance_takes_steps(self):
        # The descent workload's shape: klchkp on 9 strands, positive
        # secrets of length 4, preset seed 0. At protocol seed 12 the
        # identity raw word leaves the first pair unsolved, so the descent
        # has to move, and it recovers a1 itself.
        config = dataclasses.replace(
            make_preset("klchkp", strands=9, secret_length=4), positive_only=True
        )
        run = ka_run(config, seed=12)
        inst = build_mscsp_dhdp(run.public, "a")
        assert not all(verify_solution(inst, invert(inst.post_transform)))
        report = solve_length_descent(
            inst,
            SolverConfig(max_length=4, restarts=6, seed=12, length_functional="difference"),
        )
        assert report.solved and all(report.per_pair)
        (line,) = report.trace
        steps = re.fullmatch(r"success after (\d+) steps \(attempt 0\)", line)
        assert steps and int(steps[1]) >= 1
        assert report.raw_word == run.secret.a1

    def test_lookahead_repeats_a_symbol(self):
        # Neither s3s4 nor its inverse lowers the cost, and the first
        # two-move step that does is s3s4 twice; the lookahead counts each
        # pair of moves it tries, the undoing ones too, and stops there.
        alphabet = SubgroupSpec("s3s4", 5, (BraidWord(5, (3, 4)),))
        inst = conjugation_instance(BraidWord(5, (3, 4, 3, 4)), (generator(5, 2),), alphabet)
        report = solve_length_descent(inst, SolverConfig(max_length=0))
        assert report.solution == BraidWord(5, (3, 4, 3, 4))
        assert report.candidates_tested == 3

    def test_plateau_step(self):
        # At cost 4 no symbol and no two moves lower the cost (6 + 36
        # candidates), so the first step takes sigma_2, the first symbol
        # that keeps it, to a new state. From there the lookahead
        # sigma_1^-1 sigma_3^-1 (6 + 12 candidates) reaches cost 0.
        alphabet = interval_generators(4, 1, 3)
        inst = conjugation_instance(BraidWord(4, (2, -3, -1)), (BraidWord(4, (-2, -2)),), alphabet)
        report = solve_length_descent(inst, SolverConfig(max_length=3, restarts=0))
        path = (2, -1, -3)
        assert report.raw_word == BraidWord(4, path)
        assert report.trace == ("success after 2 steps (attempt 0)",)
        assert report.candidates_tested == 6 + 36 + 6 + 12
        ((x, y),) = inst.forms
        costs = [
            solvers._cost_term(conjugate(y, BraidWord(4, path[:i])), x, inverse(x))
            for i in range(4)
        ]
        assert costs == [4, 4, 4, 0]

    def test_trace_records_restarts(self):
        alphabet = SubgroupSpec("s1", 4, (generator(4, 1),))
        inst = word_instance(((generator(4, 2), generator(4, 3)),), alphabet)
        report = solve_length_descent(inst, SolverConfig(max_length=1, restarts=2))
        assert report.status == STALLED
        assert sum(t.startswith("stall") for t in report.trace) == 3
        assert any(t.startswith("restart") for t in report.trace)

    def test_deterministic(self):
        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=1)
        inst = build_mscsp_dhdp(run.public, "a")
        cfg = SolverConfig(max_length=2, restarts=3, seed=4)
        assert solve_length_descent(inst, cfg) == solve_length_descent(inst, cfg)

    def test_deterministic_on_a_searching_instance(self):
        inst = build_mscsp_dhdp(searching_run(3).public, "a")
        cfg = SolverConfig(max_length=4, restarts=3, seed=4)
        report = solve_length_descent(inst, cfg)
        assert report == solve_length_descent(inst, cfg)
        assert descent_steps(report) >= 1

    # Two descents on two pairs: the first solves on its first attempt
    # after a depth-2 lookahead, the second stalls twice, each time after a
    # failed lookahead, and solves after its second restart. The descent
    # without a memo made 96 and 342 conjugations on them.
    REPEATS = [
        pytest.param(4, (1, 2, 1, -2), ((-2, -2, -3), (-2, -1, 1)), 0, 57, id="lookahead"),
        pytest.param(5, (-4, 1, -3, 4), ((3, 1, 2), (-2, -3, 2)), 2, 155, id="restarts"),
    ]

    def repeat_instance(self, n, secret, probes):
        alphabet = interval_generators(n, 1, n - 1)
        return conjugation_instance(
            BraidWord(n, secret), tuple(BraidWord(n, p) for p in probes), alphabet
        )

    @pytest.mark.parametrize("n, secret, probes, restarts, conjugations", REPEATS)
    def test_no_repeated_work(self, monkeypatch, n, secret, probes, restarts, conjugations):
        # Within one solve no normal form is conjugated twice by a symbol,
        # no conjugate is conjugated back by the inverse symbol, and each
        # pair's gap product runs once per normal form of that pair, and
        # never at the pair's own x.
        inst = self.repeat_instance(n, secret, probes)
        symbols = canonical_symbols(inst.alphabet.generators)
        xs = {inverse(normal_form(x)): normal_form(x) for x, _ in inst.pairs}
        x_invs = list(xs)
        assert len(x_invs) == len(inst.pairs)
        conjugated, undone = [], set()
        gaps = {x_inv: [] for x_inv in x_invs}

        def counting_conjugate(a, s):
            k = symbols.index(s)
            assert (a, k) not in undone
            c = conjugate(a, s)
            conjugated.append((a, k))
            undone.add((c, k ^ 1))
            return c

        def counting_product(a, b):
            if b in gaps:
                assert a != xs[b]
                gaps[b].append(a)
            return product(a, b)

        monkeypatch.setattr(solvers, "conjugate", counting_conjugate)
        monkeypatch.setattr(solvers, "product", counting_product)
        config = SolverConfig(max_length=len(secret), restarts=restarts)
        report = solve_length_descent(inst, config)
        assert report.solved
        assert sum(t.startswith("restart") for t in report.trace) == restarts
        assert len(set(conjugated)) == len(conjugated) == conjugations
        for zs in gaps.values():
            assert zs and len(set(zs)) == len(zs)

    def test_matched_pair_costs_no_product(self, monkeypatch):
        # At z == x the quotient z.x^-1 is trivial, so the term is 0 without
        # forming it; elsewhere the product gives the term.
        x = normal_form(BraidWord(5, (1, -3, 2, 2, 4)))
        z = normal_form(BraidWord(5, (2, -4)))
        monkeypatch.setattr(solvers, "product", lambda a, b: pytest.fail("product formed"))
        assert solvers._cost_term(x, x, inverse(x)) == 0
        monkeypatch.setattr(solvers, "product", product)
        gap = len(product(z, inverse(x)).factors)
        assert gap > 0
        assert solvers._cost_term(z, x, inverse(x)) == gap

    @pytest.mark.parametrize("n, secret, probes, restarts, conjugations", REPEATS)
    def test_memo_is_per_solve(self, monkeypatch, n, secret, probes, restarts, conjugations):
        # A second solve of the same instance redoes all of the first's
        # conjugations: nothing carries over from one solve to the next.
        inst = self.repeat_instance(n, secret, probes)
        config = SolverConfig(max_length=len(secret), restarts=restarts)
        calls = []

        def counting_conjugate(a, s):
            calls.append(s)
            return conjugate(a, s)

        monkeypatch.setattr(solvers, "conjugate", counting_conjugate)
        first = solve_length_descent(inst, config)
        between = len(calls)
        second = solve_length_descent(inst, config)
        assert first == second
        assert between == len(calls) - between == conjugations

    def test_bound_is_capped_at_the_secret_length_cap(self):
        alphabet = interval_generators(4, 1, 3)
        inst = word_instance(((generator(4, 2), generator(4, 2)),), alphabet)
        report = solve_length_descent(inst, SolverConfig(MAX_SECRET_LENGTH))
        assert report.solved
        message = f"length bound {MAX_SECRET_LENGTH + 1} is above the cap of {MAX_SECRET_LENGTH}"
        with pytest.raises(ValueError, match=message):
            solve_length_descent(inst, SolverConfig(MAX_SECRET_LENGTH + 1))

    def test_difference_functional_accepted(self):
        alphabet = interval_generators(5, 1, 4)
        g = generator(5, 2)
        inst = conjugation_instance(g, (generator(5, 1), generator(5, 4)), alphabet)
        config = SolverConfig(max_length=1, length_functional="difference")
        assert config == SolverConfig(max_length=1)
        assert solve_length_descent(inst, config).solved


class TestSolverConfig:
    def test_unknown_length_functional(self):
        with pytest.raises(ValueError, match="length functional"):
            SolverConfig(max_length=1, length_functional="no-such")

    @pytest.mark.parametrize("functional", ["canonical", "letters"])
    def test_retired_length_functionals(self, functional):
        # The descent has one cost, the difference.
        with pytest.raises(ValueError, match=f"unknown length functional '{functional}'"):
            SolverConfig(max_length=1, length_functional=functional)

    @pytest.mark.parametrize("field", ["max_length", "budget", "restarts"])
    def test_negative_bound(self, field):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            SolverConfig(**{"max_length": 1, field: -1})


class TestReports:
    def test_record_shape(self):
        alphabet = interval_generators(4, 1, 3)
        inst = word_instance(((generator(4, 1), generator(4, 1)),), alphabet)
        record = solve_exhaustive(inst, SolverConfig(max_length=1)).to_record()
        assert set(record) == {
            "status",
            "solution",
            "raw_word",
            "candidates_tested",
            "per_pair",
            "trace",
        }
        assert record["status"] == SOLVED

    def test_identity_solution_is_recorded(self):
        # The identity word is the first candidate; its record is a word,
        # not null.
        alphabet = interval_generators(4, 1, 3)
        inst = word_instance(((generator(4, 1), generator(4, 1)),), alphabet)
        record = solve_exhaustive(inst, SolverConfig(max_length=1)).to_record()
        assert record["candidates_tested"] == 1
        assert record["solution"] == record["raw_word"] == {"n": 4, "word": []}
