import argparse
import json
import tracemalloc

import pytest

from braidwork import cli
from braidwork.attacks import AttackReport, NamedCheck
from braidwork.cli import build_parser, main, summarize
from braidwork.solvers import SolutionReport


def run_cli(*argv):
    return main(list(argv))


def report(success: bool, verdict=None, tested=10) -> AttackReport:
    return AttackReport(
        "decomposition",
        (),
        (NamedCheck("check", success),),
        (SolutionReport("solved" if success else "exhausted", None, None, tested),),
        verdict,
    )


class TestFlags:
    """Each subcommand takes exactly the flags its handler reads; a flag of
    another subcommand is a usage error (exit 2)."""

    EXPECTED = {
        "simulate": {"--preset", "--n", "--secret-len", "--seed", "--out"},
        "attack": {"--in", "--oracle", "--max-len", "--budget", "--out"},
        "solve": {"--in", "--max-len", "--budget", "--out"},
        "selftest": {"--seed"},
        "sweep": {
            "--preset", "--n", "--secret-len", "--max-len", "--budget", "--seed", "--reps", "--out",
        },
    }

    def test_each_subcommand_takes_its_own_flags(self):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: {
                option
                for action in parser._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            }
            for name, parser in subparsers.choices.items()
        }
        assert flags == self.EXPECTED

    @pytest.mark.parametrize("argv", [
        ("selftest", "--max-len", "3"),
        ("solve", "--preset", "klchkp"),
        ("simulate", "--budget", "5"),
        ("attack", "--reps", "2"),
        ("sweep", "--in", "x.json"),
    ])
    def test_foreign_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


class TestSimulate:
    def test_writes_transcript_files(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--preset", "klchkp", "--n", "6",
            "--secret-len", "2", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        public = json.loads((tmp_path / "public.json").read_text())
        secret = json.loads((tmp_path / "secret.json").read_text())
        assert set(public) == {"config", "K_A", "K_B"}
        assert public["config"]["preset"] == "klchkp"
        assert "a1" in secret

    def test_dehornoy_records(self, tmp_path):
        code = run_cli(
            "simulate", "--preset", "dehornoy", "--n", "4",
            "--secret-len", "3", "--out", str(tmp_path),
        )
        assert code == 0
        public = json.loads((tmp_path / "public.json").read_text())
        assert set(public) == {
            "scheme", "n", "p", "p_pub", "commitment", "challenge", "response"
        }
        assert public["scheme"] == "dehornoy"
        assert public["challenge"] == 1

    def test_dehornoy_strand_cap(self, tmp_path, capsys):
        """x' is on n + 2 strands, so dehornoy takes --n up to 62: attack
        reads every record that simulate writes."""
        code = run_cli("simulate", "--preset", "dehornoy", "--n", "63", "--out", str(tmp_path))
        assert code == 2
        assert "dehornoy needs --n from 2 to 62" in capsys.readouterr().err
        assert not (tmp_path / "public.json").exists()
        assert run_cli(
            "simulate", "--preset", "dehornoy", "--n", "62", "--secret-len", "1",
            "--out", str(tmp_path),
        ) == 0
        code = run_cli(
            "attack", "--max-len", "0", "--in", str(tmp_path / "public.json"),
            "--out", str(tmp_path),
        )
        assert code == 1
        record = json.loads((tmp_path / "attack_report.json").read_text())
        assert record["solver_reports"][0]["status"] == "exhausted"

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_dehornoy_strand_floor(self, tmp_path, capsys, n):
        """The keys are drawn from sigma_1 .. sigma_(n-1), so dehornoy needs
        --n of at least 2, and a smaller one is a configuration error."""
        code = run_cli("simulate", "--preset", "dehornoy", "--n", n, "--out", str(tmp_path))
        assert code == 2
        assert f"dehornoy needs --n from 2 to 62, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "public.json").exists()
        assert run_cli("sweep", "--preset", "dehornoy", "--n", n, "--out", str(tmp_path)) == 2

    def test_config_error_exit_code(self, tmp_path):
        assert run_cli("simulate", "--preset", "klchkp", "--n", "3",
                       "--out", str(tmp_path)) == 2


class TestAttack:
    def simulate(self, tmp_path, *extra):
        assert run_cli(
            "simulate", "--preset", "klchkp", "--n", "6",
            "--secret-len", "2", "--seed", "0", "--out", str(tmp_path), *extra
        ) == 0

    def test_success_roundtrip(self, tmp_path):
        self.simulate(tmp_path)
        code = run_cli(
            "attack", "--max-len", "3",
            "--in", str(tmp_path / "public.json"),
            "--oracle", str(tmp_path / "secret.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads((tmp_path / "attack_report.json").read_text())
        assert record["attack"] == "decomposition"
        assert all(c["pass"] for c in record["checks"])
        assert record["harness_verdict"] is True

    def test_incomplete_exit_code(self, tmp_path):
        assert run_cli(
            "simulate", "--preset", "klchkp", "--n", "6",
            "--secret-len", "4", "--seed", "1", "--out", str(tmp_path),
        ) == 0
        code = run_cli(
            "attack", "--max-len", "1",
            "--in", str(tmp_path / "public.json"), "--out", str(tmp_path),
        )
        assert code == 1

    def test_missing_input_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("attack", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_nonexistent_input_is_config_error(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            assert run_cli("attack", "--in", str(path), "--out", str(tmp_path)) == 2

    def test_non_object_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "public.json"
        path.write_text(json.dumps({"config": 5, "K_A": {}, "K_B": {}}))
        assert run_cli("attack", "--in", str(path), "--out", str(tmp_path)) == 2
        assert "config record must be a JSON object" in capsys.readouterr().err

    def tampered_config(self, tmp_path, edit, *extra):
        """Attack a simulated public.json after `edit` changed its config, or
        the whole record if it has none (dehornoy). `extra` flags override the
        simulated preset and sizes."""
        self.simulate(tmp_path, *extra)
        path = tmp_path / "public.json"
        public = json.loads(path.read_text())
        edit(public.get("config", public))
        path.write_text(json.dumps(public))
        return run_cli("attack", "--max-len", "3", "--in", str(path), "--out", str(tmp_path))

    STICKEL = ("--preset", "stickel")
    DEHORNOY = ("--preset", "dehornoy", "--n", "4", "--secret-len", "3")
    # case: (flags overriding the simulated preset, edit, what the message says)
    HOSTILE = {
        "unknown-preset": ((), lambda c: c.update(preset="nope"), "unknown preset 'nope'"),
        "n-below-minimum": (
            (), lambda c: c.update(n=3), "klchkp preset needs at least 5 strands"
        ),
        "n-off-the-specs": (
            (), lambda c: c.update(n=7), "left_a is on 6 strands, not the config's 7"
        ),
        "spec-off-n": ((), lambda c: c["right_b"].update(n=20), "right_b is on 20 strands"),
        "condition-mode": (
            (), lambda c: c.update(condition_mode="conditions-3"), "condition_mode"
        ),
        "conjugate-secrets-int": (
            (), lambda c: c.update(conjugate_secrets=1), "conjugate_secrets 1 contradicts"
        ),
        "conjugate-secrets-false": (
            (), lambda c: c.update(conjugate_secrets=False), "conjugate_secrets False"
        ),
        "negative-secret-length": (
            (), lambda c: c.update(secret_length=-4), "secret length -4 is negative"
        ),
        "one-word-stickel-pair": (
            STICKEL, lambda c: c["stickel_pair"].pop(), "stickel_pair must hold two words"
        ),
        "null-stickel-pair": (
            STICKEL, lambda c: c.update(stickel_pair=None), "needs its public word pair"
        ),
        "one-word-commitment": (
            DEHORNOY, lambda p: p["commitment"].pop(), "commitment must hold two words"
        ),
        "three-word-commitment": (
            DEHORNOY, lambda p: p["commitment"].append(p["p"]), "commitment must hold two"
        ),
        "challenge-7": (DEHORNOY, lambda p: p.update(challenge=7), "challenge must be 1"),
        "challenge-0": (DEHORNOY, lambda p: p.update(challenge=0), "challenge must be 1"),
        "challenge-true": (
            DEHORNOY, lambda p: p.update(challenge=True), "challenge must be int"
        ),
        "dehornoy-n-20": (
            DEHORNOY, lambda p: p.update(n=20), "commitment x is on 5 strands, not n + 1 = 21"
        ),
        "dehornoy-n-string": (DEHORNOY, lambda p: p.update(n="4"), "n must be int, got str"),
        "dehornoy-n-true": (DEHORNOY, lambda p: p.update(n=True), "n must be int, got bool"),
        "p-off-n": (DEHORNOY, lambda p: p["p"].update(n=8), "p is on 8 strands, not n = 4"),
        "p_pub-off-n": (
            DEHORNOY, lambda p: p["p_pub"].update(n=8), "p_pub is on 8 strands, not n + 1 = 5"
        ),
        "response-off-n": (
            DEHORNOY, lambda p: p["response"].update(n=8),
            "response is on 8 strands, not n + 1 = 5",
        ),
        "commitment-x-off-n": (
            DEHORNOY, lambda p: p["commitment"][0].update(n=8),
            "commitment x is on 8 strands, not n + 1 = 5",
        ),
        "commitment-x-prime-off-n": (
            DEHORNOY, lambda p: p["commitment"][1].update(n=8),
            "commitment x' is on 8 strands, not n + 2 = 6",
        ),
    }

    @pytest.mark.parametrize("extra, edit, message", HOSTILE.values(), ids=HOSTILE)
    def test_hostile_config_is_config_error(self, tmp_path, capsys, extra, edit, message):
        code = self.tampered_config(tmp_path, edit, *extra)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "attack_report.json").exists()

    def test_token_off_the_config_strands_is_config_error(self, tmp_path, capsys):
        self.simulate(tmp_path)
        path = tmp_path / "public.json"
        public = json.loads(path.read_text())
        public["K_A"]["n"] = 20
        path.write_text(json.dumps(public))
        code = run_cli("attack", "--max-len", "3", "--in", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "K_A is on 20 strands, not the config's 6" in capsys.readouterr().err

    def test_non_integer_secret_length_is_config_error(self, tmp_path, capsys):
        code = self.tampered_config(tmp_path, lambda c: c.update(secret_length="x"))
        assert code == 2
        assert "secret_length" in capsys.readouterr().err

    def test_non_string_subgroup_name_is_config_error(self, tmp_path, capsys):
        code = self.tampered_config(tmp_path, lambda c: c["left_a"].update(name=5))
        assert code == 2
        assert "subgroup name" in capsys.readouterr().err

    @pytest.mark.parametrize("exponents", [["x"], [1, 2, 3, 4, 5], [1, 2, 3, True], 7])
    def test_bad_oracle_exponents_are_config_error(self, tmp_path, capsys, exponents):
        self.simulate(tmp_path)
        path = tmp_path / "secret.json"
        secret = json.loads(path.read_text())
        secret["exponents"] = exponents
        path.write_text(json.dumps(secret))
        code = run_cli(
            "attack", "--max-len", "3", "--in", str(tmp_path / "public.json"),
            "--oracle", str(path), "--out", str(tmp_path),
        )
        assert code == 2
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("preset,n,field", [("klchkp", "6", "kappa"), ("dehornoy", "4", "s")])
    def test_malformed_oracle_stops_before_the_attack(
        self, tmp_path, capsys, monkeypatch, preset, n, field
    ):
        # The secret record is read before the attack runs on the public one.
        def no_attack(*args, **kwargs):
            raise AssertionError("the attack ran")

        for name in ("attack_decomposition", "attack_stickel", "attack_dehornoy_pair"):
            monkeypatch.setattr(cli, name, no_attack)
        assert run_cli("simulate", "--preset", preset, "--n", n, "--out", str(tmp_path)) == 0
        path = tmp_path / "secret.json"
        secret = json.loads(path.read_text())
        secret[field] = {"n": int(n), "word": [int(n)]}
        path.write_text(json.dumps(secret))
        out = tmp_path / "report"
        code = run_cli(
            "attack", "--in", str(tmp_path / "public.json"),
            "--oracle", str(path), "--out", str(out),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_stickel_route(self, tmp_path):
        assert run_cli(
            "simulate", "--preset", "stickel", "--n", "8",
            "--seed", "2", "--out", str(tmp_path),
        ) == 0
        code = run_cli(
            "attack", "--in", str(tmp_path / "public.json"),
            "--oracle", str(tmp_path / "secret.json"), "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads((tmp_path / "attack_report.json").read_text())
        assert record["attack"] == "stickel"

    def test_dehornoy_route(self, tmp_path):
        assert run_cli(
            "simulate", "--preset", "dehornoy", "--n", "4",
            "--secret-len", "3", "--seed", "0", "--out", str(tmp_path),
        ) == 0
        code = run_cli(
            "attack", "--max-len", "3",
            "--in", str(tmp_path / "public.json"),
            "--oracle", str(tmp_path / "secret.json"), "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads((tmp_path / "attack_report.json").read_text())
        assert record["attack"] == "dehornoy-pair"
        assert record["harness_verdict"] is True

    def test_byte_identical_reruns(self, tmp_path):
        self.simulate(tmp_path)
        for out in ("r1", "r2"):
            assert run_cli(
                "attack", "--max-len", "3",
                "--in", str(tmp_path / "public.json"),
                "--out", str(tmp_path / out),
            ) == 0
        assert (
            (tmp_path / "r1" / "attack_report.json").read_bytes()
            == (tmp_path / "r2" / "attack_report.json").read_bytes()
        )


class TestSolve:
    def test_solves_stored_instance(self, tmp_path):
        from braidwork.extractors import build_mscsp_dhdp
        from braidwork.protocols import ka_run, make_preset

        run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=0)
        inst = build_mscsp_dhdp(run.public, "a")
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(inst.to_record()))
        code = run_cli(
            "solve", "--max-len", "3", "--in", str(path), "--out", str(tmp_path)
        )
        assert code == 0
        record = json.loads((tmp_path / "solution.json").read_text())
        assert record["status"] == "solved"

    def test_missing_input(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_malformed_input(self, tmp_path):
        fractional_letter = {
            "pairs": [{"x": {"n": 4, "word": [1.5]}, "y": {"n": 4, "word": [1]}}],
            "alphabet": {"name": "s1", "n": 4, "generators": [{"n": 4, "word": [1]}]},
        }
        path = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]", json.dumps(fractional_letter)):
            path.write_text(text)
            assert run_cli("solve", "--in", str(path), "--out", str(tmp_path)) == 2


    ALPHABET = {"name": "s1", "n": 4, "generators": [{"n": 4, "word": [1]}]}

    def test_non_object_pair(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pairs": [1], "alphabet": self.ALPHABET}))
        assert run_cli("solve", "--in", str(path), "--out", str(tmp_path)) == 2
        assert "pair must be a JSON object" in capsys.readouterr().err

    def test_non_object_word(self, tmp_path, capsys):
        pair = {"x": [1, 2], "y": {"n": 4, "word": [1]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pairs": [pair], "alphabet": self.ALPHABET}))
        assert run_cli("solve", "--in", str(path), "--out", str(tmp_path)) == 2
        assert "braid word record must be a JSON object" in capsys.readouterr().err


class TestStrandCap:
    """Outside input names at most 64 strands; one more is a configuration
    error, whatever the search bound."""

    N = 65

    def test_instance_record(self, tmp_path, capsys):
        word = {"n": self.N, "word": [1]}
        alphabet = {"name": "s1", "n": self.N, "generators": [word]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"pairs": [{"x": word, "y": word}], "alphabet": alphabet}))
        code = run_cli(
            "solve", "--max-len", "0", "--in", str(path), "--out", str(tmp_path)
        )
        assert code == 2
        assert "64" in capsys.readouterr().err

    def test_config_record(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--n", "6", "--secret-len", "2", "--out", str(tmp_path)
        ) == 0
        path = tmp_path / "public.json"
        public = json.loads(path.read_text())
        public["config"]["n"] = self.N
        path.write_text(json.dumps(public))
        code = run_cli(
            "attack", "--max-len", "0", "--in", str(path), "--out", str(tmp_path)
        )
        assert code == 2
        assert "64" in capsys.readouterr().err

    def test_n_flag(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--n", str(self.N), "--secret-len", "1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "64" in capsys.readouterr().err


class TestSearchSize:
    """A search whose budget reaches a length needing a table above the
    solver's cap, a length bound above the secret-length cap, or a
    negative bound, is a configuration error found before any work."""

    def instance_path(self, tmp_path):
        word = {"n": 4, "word": [1]}
        generators = [{"n": 4, "word": [i]} for i in (1, 2, 3)]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "pairs": [{"x": word, "y": {"n": 4, "word": [2]}}],
            "alphabet": {"name": "s1..s3", "n": 4, "generators": generators},
        }))
        return path

    def test_hostile_search_exits_at_once(self, tmp_path, capsys):
        path = self.instance_path(tmp_path)
        tracemalloc.start()
        try:
            code = run_cli(
                "solve", "--max-len", "40", "--budget", str(10**15),
                "--in", str(path), "--out", str(tmp_path),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert peak < 2 * 2**20
        assert not (tmp_path / "solution.json").exists()

    def test_length_bound_above_the_cap(self, tmp_path, capsys):
        path = self.instance_path(tmp_path)
        code = run_cli("solve", "--max-len", "257", "--in", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "--max-len 257 is above the cap of 256" in capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    def test_exponent_bound_above_the_cap(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--preset", "stickel", "--n", "8", "--out", str(tmp_path)
        ) == 0
        path = tmp_path / "public.json"
        public = json.loads(path.read_text())
        public["config"]["exponent_bound"] = 257
        path.write_text(json.dumps(public))
        code = run_cli("attack", "--in", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "length bound 257 is above the cap of 256" in capsys.readouterr().err
        assert not (tmp_path / "attack_report.json").exists()

    @pytest.mark.parametrize("flag", ["--max-len", "--budget"])
    def test_negative_bound(self, tmp_path, capsys, flag):
        path = self.instance_path(tmp_path)
        code = run_cli("solve", flag, "-1", "--in", str(path), "--out", str(tmp_path))
        assert code == 2
        assert flag in capsys.readouterr().err


class TestSecretLengthCap:
    """Secret lengths below 0 or above 256, from the flag or a config
    record, are configuration errors."""

    def test_flag(self, tmp_path, capsys):
        code = run_cli("simulate", "--secret-len", "257", "--out", str(tmp_path))
        assert code == 2
        assert "256" in capsys.readouterr().err
        assert not (tmp_path / "public.json").exists()

    def test_negative_flag(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--preset", "stickel", "--n", "6", "--secret-len", "-3",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "secret length -3 is negative" in capsys.readouterr().err
        assert not (tmp_path / "public.json").exists()

    def test_config_record(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--n", "6", "--secret-len", "2", "--out", str(tmp_path)
        ) == 0
        path = tmp_path / "public.json"
        public = json.loads(path.read_text())
        public["config"]["secret_length"] = 257
        path.write_text(json.dumps(public))
        code = run_cli("attack", "--max-len", "0", "--in", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "256" in capsys.readouterr().err


class TestSelftest:
    def test_all_pass(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS ") for l in lines)


class TestSummarize:
    def test_all_success(self):
        summary = summarize([report(True, True), report(True, True)])
        assert summary["success_rate"] == 1.0
        assert summary["harness_verdicts_true"] == 2

    def test_mixed(self):
        reports = [report(True), report(True), report(True), report(False)]
        summary = summarize(reports)
        assert summary["success_rate"] == 0.75
        assert summary["harness_verdicts_total"] == 0

    def test_order_invariant(self):
        reports = [report(True, True, 5), report(False, False, 50), report(True, None, 9)]
        assert summarize(reports) == summarize(list(reversed(reports)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSweep:
    def test_summary_file(self, tmp_path):
        code = run_cli(
            "sweep", "--preset", "klchkp", "--n", "6", "--secret-len", "2",
            "--max-len", "3", "--seed", "0", "--reps", "3", "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["count"] == 3
        assert summary["seeds"] == [0, 1, 2]
        assert summary["preset"] == "klchkp"
        assert 0.0 <= summary["success_rate"] <= 1.0

    def test_bad_reps(self, tmp_path):
        assert run_cli("sweep", "--reps", "0", "--out", str(tmp_path)) == 2

    def test_byte_identical_reruns(self, tmp_path):
        for out in ("s1", "s2"):
            assert run_cli(
                "sweep", "--preset", "klchkp", "--n", "6", "--secret-len", "2",
                "--max-len", "3", "--reps", "2", "--out", str(tmp_path / out),
            ) == 0
        assert (
            (tmp_path / "s1" / "sweep_summary.json").read_bytes()
            == (tmp_path / "s2" / "sweep_summary.json").read_bytes()
        )
