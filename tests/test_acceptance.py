"""
Acceptance suite: eleven end-to-end criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced. Every criterion is seeded and deterministic.
"""

import dataclasses
import json
import random

import pytest

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
from braidwork.cli import main as cli_main
from braidwork.extractors import build_gtcp_instances, build_mscsp_dhdp
from braidwork.garside import is_trivial, nf_key, rewrite, words_equal
from braidwork.handle import is_trivial_handle_reduction
from braidwork.protocols import (
    KA_PRESETS,
    dehornoy_commit,
    dehornoy_keygen,
    dehornoy_respond,
    ka_run,
    make_preset,
)
from braidwork.solvers import SolverConfig, solve_length_descent, verify_solution
from braidwork.subgroups import SubgroupSpec, elements_commute, interval_generators
from braidwork.words import (
    SHIFT_ENDO,
    BraidWord,
    Endomorphism,
    apply_endo,
    compose,
    compose_all,
    generator,
    identity,
    invert,
    power,
    random_word,
    shifted_conjugate,
)


def report_line(number: int, name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number:02d} {name}")
    assert ok, f"criterion {number} ({name}) failed"


def rand_word(n: int, length: int, rng: random.Random) -> BraidWord:
    gens = [generator(n, i) for i in range(1, n)]
    return random_word(gens, length, rng)


class TestAcceptance:
    def test_01_braid_core_correctness(self):
        rng = random.Random(1)
        ok = True
        for n in range(2, 9):
            for i in range(1, n - 1):
                ok = ok and words_equal(
                    BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))
                )
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    ok = ok and words_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i)))
        words = []
        for _ in range(1000):
            n = rng.randrange(2, 9)
            w = rand_word(n, rng.randrange(0, 10), rng)
            words.append(w)
            ok = ok and words_equal(compose(w, invert(w)), identity(n))
        for k in range(1000):
            w = words[k]
            v = rand_word(w.strands, rng.randrange(0, 10), rng)
            diff = compose(w, invert(v))
            ok = ok and (words_equal(w, v) == is_trivial_handle_reduction(diff))
        report_line(1, "braid relations, group laws, handle agreement", ok)

    def test_02_protocol_agreement(self):
        ok = True
        for preset in KA_PRESETS:
            config = make_preset(preset, strands=8, secret_length=8)
            for seed in range(100):
                run = ka_run(config, seed=seed)
                s = run.secret
                key_a = compose_all([s.a1, run.public.token_b, s.a2])
                key_b = compose_all([s.b1, run.public.token_a, s.b2])
                ok = ok and words_equal(key_a, key_b) and words_equal(key_a, s.kappa)
        report_line(2, "five presets, 100 runs each, parties agree", ok)

    def test_03_extractor_exactness(self):
        ok = True
        targets = {
            "a": lambda s, z: compose(s.a1, z),
            "c": lambda s, z: compose(s.b1, z),
            "b": lambda s, z: compose(invert(s.a2), invert(z)),
            "d": lambda s, z: compose(invert(s.b2), invert(z)),
        }
        for seed in range(100):
            length = 1 + seed % 12
            run = ka_run(
                make_preset("generalized", strands=8, secret_length=length, seed=seed),
                seed=seed,
            )
            z = run.public.config.base
            for target, coset in targets.items():
                inst = build_mscsp_dhdp(run.public, target)
                g = coset(run.secret, z)
                g_inv = invert(g)
                for x, y in inst.pairs:
                    ok = ok and words_equal(compose_all([g, x, g_inv]), y)
        report_line(3, "extractor outputs exactly conjugate by coset targets", ok)

    def test_04_end_to_end_key_recovery(self):
        ok = True
        cases = 0
        for seed in range(50):
            preset = ("klchkp", "cklhc")[seed % 2]
            strands = (5, 6)[(seed // 2) % 2]
            length = 1 + seed % 3
            run = ka_run(
                make_preset(preset, strands=strands, secret_length=length), seed=seed
            )
            report = attack_decomposition(
                run.public, SolverConfig(max_length=3)
            ).with_verdict("key-candidate", run.secret.kappa)
            cases += 1
            ok = ok and report.success and report.harness_verdict is True
        assert cases == 50
        report_line(4, "decomposition key recovery 50/50 at n=5-6", ok)

    def test_05_length_descent_rate(self):
        wins = 0
        config = dataclasses.replace(
            make_preset("klchkp", strands=10, secret_length=5), positive_only=True
        )
        for seed in range(100):
            run = ka_run(config, seed=seed)
            inst = build_mscsp_dhdp(run.public, "a")
            rep = solve_length_descent(
                inst,
                SolverConfig(
                    max_length=5, restarts=6, seed=seed, length_functional="difference"
                ),
            )
            wins += rep.solved and all(verify_solution(inst, rep.solution))
        print(f"length-descent empirical success rate: {wins}/100")
        report_line(5, f"length descent rate {wins}% (floor 80%)", wins >= 80)

    def test_06_stickel_pipeline(self):
        ok = True
        config = make_preset("stickel", strands=8, exponent_bound=5)
        a, b = config.stickel_pair
        for seed in range(50):
            run = ka_run(config, seed=seed)
            report = attack_stickel(
                a,
                b,
                run.public.token_a,
                run.public.token_b,
                exponent_bound=8,
            ).with_verdict("key-candidate", run.secret.kappa)
            ok = ok and report.success and report.harness_verdict is True
        report_line(6, "commuting-powers key recovery 50/50", ok)

    def test_07_edl_decision(self):
        alphabet = interval_generators(6, 1, 2)
        config = SolverConfig(max_length=2, alphabet=alphabet)
        rng = random.Random(7)
        probe_gens = [generator(6, i) for i in (4, 5)]

        def xs(k):
            return tuple(random_word(probe_gens, 1 + rng.randrange(2), rng) for _ in range(k))

        ok = True
        for _ in range(50):
            u = random_word(alphabet.generators, 1 + rng.randrange(2), rng)
            v = random_word(alphabet.generators, 1 + rng.randrange(2), rng)
            tokens = tuple(
                (x, rewrite(compose_all([u, x, v]))) for x in xs(2)
            )
            (decision,) = decide_edl(tokens, config)
            ok = ok and decision.success
            if decision.success:
                found = decision.recovered_dict()
                u_c, v_c = found["u-candidate"], found["v-candidate"]
                ok = ok and all(
                    words_equal(compose_all([u_c, x, v_c]), y) for x, y in tokens
                )
        for _ in range(50):
            # Distinct per-token factor pairs drawn from a disjoint alphabet,
            # so no common pair over the search space exists.
            spoil = interval_generators(6, 3, 4)
            tokens = []
            for x in xs(2):
                ui = random_word(spoil.generators, 2, rng, use_inverses=False)
                vi = random_word(spoil.generators, 2, rng, use_inverses=False)
                tokens.append((x, rewrite(compose_all([ui, compose(x, power(ui, 2)), vi]))))
            (decision,) = decide_edl(tuple(tokens), config)
            ok = ok and not decision.success
        # Subset mode: plant a shared pair on indices (0, 1) only.
        u = BraidWord(6, (1, 2))
        v = invert(u)
        x0, x1, x2 = generator(6, 4), BraidWord(6, (4, 5)), generator(6, 5)
        tokens = (
            (x0, rewrite(compose_all([u, x0, v]))),
            (x1, rewrite(compose_all([u, x1, v]))),
            (x2, rewrite(compose_all([generator(6, 3), x2, generator(6, 3)]))),
        )
        decisions = decide_edl(tokens, config, subsets=((0, 1), (0, 2), (1, 2)))
        ok = ok and [d.success for d in decisions] == [True, False, False]
        report_line(7, "one-sided common-factor decision (positives, negatives, subsets)", ok)

    def test_08_shifted_conjugacy_attacks(self):
        rng = random.Random(8)
        ok = True
        for _ in range(1000):
            n = rng.randrange(2, 5)
            r = rand_word(n, rng.randrange(0, 4), rng)
            p = rand_word(n, rng.randrange(0, 4), rng)
            q = rand_word(n, rng.randrange(0, 4), rng)
            lhs = shifted_conjugate(r, shifted_conjugate(p, q))
            rhs = shifted_conjugate(
                shifted_conjugate(r, p), shifted_conjugate(r, q)
            )
            ok = ok and words_equal(lhs, rhs)

        gens4 = [generator(4, i) for i in range(1, 4)]
        alphabet = interval_generators(4, 1, 3)
        for seed in range(50):
            # base length 4: long enough that the public key pins the secret
            # uniquely, so exact (not just equivalent) recovery is well posed
            keys = dehornoy_keygen(strands=4, secret_length=3, base_length=4, seed=seed)
            nonce = random_word(gens4, 3, random.Random(f"nonce:{seed}"))
            x, x_prime = dehornoy_commit(keys, nonce)
            response = dehornoy_respond(keys, nonce, challenge=1)
            rep = attack_dehornoy_pair(
                x,
                x_prime,
                keys.base,
                keys.public_key,
                response,
                SolverConfig(max_length=3, alphabet=alphabet, budget=500_000),
            ).with_verdict("s-candidate", keys.secret)
            ok = ok and rep.success and rep.harness_verdict is True

        for seed in range(25):
            sub_rng = random.Random(f"centralizer:{seed}")
            gen_index = 1 + sub_rng.randrange(3)
            r_spec = SubgroupSpec(f"<sigma{gen_index}>", 4, (generator(4, gen_index),))
            base = rand_word(4, 2 + sub_rng.randrange(2), sub_rng)
            r = power(generator(4, gen_index), sub_rng.randrange(0, 3))
            commitment = rewrite(shifted_conjugate(r, base))
            rep = attack_dehornoy_centralizer(
                r_spec, base, commitment, SolverConfig(max_length=2)
            ).with_verdict("r-candidate", r)
            ok = ok and rep.success and rep.harness_verdict is True
        report_line(8, "self-distributivity, pair attack 50/50, centralizer attack 25/25", ok)

    def test_09_gtcp_recovery(self):
        spec = interval_generators(4, 1, 3)
        endo_menu = {
            "identity": Endomorphism("identity"),
            "shift": SHIFT_ENDO,
            "inner": Endomorphism("inner", BraidWord(4, (1, 2))),
        }
        combos = [
            (u, w)
            for u in ("identity", "shift", "inner")
            for w in ("identity", "shift", "inner")
        ]
        modes = ["pairwise-ce1", "pairwise-ce2", "centralizer-ce3", "centralizer-ce4"]
        rng = random.Random(9)
        ok = True
        runs = 0
        while runs < 50:
            u_name, w_name = combos[runs % len(combos)]
            mode = modes[runs % len(modes)]
            endos = (endo_menu[u_name], Endomorphism("identity"), endo_menu[w_name])
            u, v, w = endos
            r = rand_word(4, 1 + rng.randrange(3), rng)
            ps = (generator(4, 1), generator(4, 3), BraidWord(4, (2, 3)))
            samples = tuple(
                (
                    rewrite(
                        compose_all(
                            [
                                apply_endo(u, r),
                                apply_endo(v, p),
                                apply_endo(w, invert(r)),
                            ]
                        )
                    ),
                    p,
                )
                for p in ps
            )
            rep = solve_gtcp(samples, endos, mode, spec, SolverConfig(max_length=3))
            ok = ok and rep.success
            runs += 1
        # Identity specialization: the extracted instance is literally a plain
        # conjugacy-search instance over the secret subgroup itself.
        endos = (Endomorphism("identity"),) * 3
        r = generator(4, 2)
        ps = (generator(4, 1), generator(4, 3))
        samples = tuple(
            (rewrite(compose_all([r, p, invert(r)])), p) for p in ps
        )
        inst = build_gtcp_instances(samples, endos, "pairwise-ce1", spec)
        ok = ok and inst.alphabet.generators == spec.generators
        ok = ok and inst.post_transform is None
        g_inv = invert(r)
        for x, y in inst.pairs:
            ok = ok and words_equal(compose_all([r, x, g_inv]), y)
        report_line(9, "twisted-conjugacy recovery 50/50 and identity specialization", ok)

    def test_10_partial_factor(self):
        head_alphabet = interval_generators(8, 6, 7)
        config = SolverConfig(max_length=2, alphabet=head_alphabet)
        rng = random.Random(10)
        low_gens = [generator(8, i) for i in (1, 2, 3)]
        ok = True
        planted = 0
        for _ in range(25):
            h = random_word(head_alphabet.generators, 1 + rng.randrange(2), rng)
            z = random_word(low_gens, 1 + rng.randrange(3), rng)
            token = rewrite(compose(h, z))
            probe = generator(8, 5)  # commutes with all of z, not with the head
            results = partial_factor_attack(token, (probe,), config)
            for res in results:
                residual = res.recovered_dict().get("residual")
                if residual is not None:
                    planted += 1
                    head = res.solver_reports[0].solution
                    ok = ok and is_trivial_handle_reduction(
                        compose_all([head, residual, invert(token)])
                    )
        ok = ok and planted > 0
        # Full-z completion when the budget covers the complementary factor.
        h = generator(8, 7)
        z_bar = generator(8, 1)
        residual = generator(8, 2)
        token = rewrite(compose_all([h, z_bar, residual]))
        full = complete_base(
            token,
            residual,
            head_alphabet,
            interval_generators(8, 1, 2),
            head_max_length=1,
            tail_max_length=1,
        )
        ok = ok and full is not None and words_equal(full, compose(z_bar, residual))
        # Empirical peel rates for random, non-planted probes (reported only).
        certified = 0
        total = 0
        for seed in range(20):
            peel_rng = random.Random(f"peel:{seed}")
            token = rewrite(rand_word(8, 6, peel_rng))
            probe = generator(8, 1 + peel_rng.randrange(7))
            for res in partial_factor_attack(token, (probe,), config):
                total += 1
                certified += res.success
        print(f"random-probe peel rate: {certified}/{total} exact peels")
        report_line(10, "partial-factor certificates and full-base completion", ok)

    def test_11_determinism(self, tmp_path):
        ok = True
        for out in ("a1", "a2"):
            code = cli_main(
                [
                    "simulate", "--preset", "klchkp", "--n", "6", "--secret-len", "2",
                    "--seed", "5", "--out", str(tmp_path / out),
                ]
            )
            ok = ok and code == 0
            code = cli_main(
                [
                    "attack", "--max-len", "3",
                    "--in", str(tmp_path / out / "public.json"),
                    "--oracle", str(tmp_path / out / "secret.json"),
                    "--out", str(tmp_path / out),
                ]
            )
            ok = ok and code == 0
            code = cli_main(
                [
                    "sweep", "--preset", "klchkp", "--n", "6", "--secret-len", "2",
                    "--max-len", "3", "--reps", "3", "--out", str(tmp_path / out),
                ]
            )
            ok = ok and code == 0
        for name in ("public.json", "secret.json", "attack_report.json", "sweep_summary.json"):
            ok = ok and (
                (tmp_path / "a1" / name).read_bytes()
                == (tmp_path / "a2" / name).read_bytes()
            )
        report_line(11, "byte-identical report files on rerun", ok)
