"""
Command-line experiment driver.

Subcommands: simulate (write a protocol transcript), attack (run the
preset's attack pipeline on a public transcript), solve (run the
exhaustive solver on a stored conjugacy instance), selftest (run the
built-in invariant suite), sweep (aggregate attack success over seeds).
Each subcommand takes only the flags its handler reads (SUBCOMMAND_FLAGS);
a flag of another subcommand is a usage error. attack and solve take no
--preset or sizes: they read them from the input record.

All randomness is seeded, and report files are plain JSON with sorted
keys, so identical invocations produce byte-identical outputs. Exit
codes: 0 success, 1 attack or solve incomplete, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import random
import statistics
import sys

from .attacks import AttackReport, attack_decomposition, attack_dehornoy_pair, attack_stickel
from .extractors import CspInstance
from .garside import normal_form, words_equal
from .handle import is_trivial_handle_reduction
from .protocols import (
    KA_PRESETS,
    ProtocolError,
    PublicTranscript,
    SecretTranscript,
    dehornoy_commit,
    dehornoy_keygen,
    dehornoy_respond,
    dehornoy_verify,
    ka_run,
    make_preset,
)
from .solvers import SolverConfig, solve_exhaustive
from .subgroups import interval_generators
from .words import (
    MAX_SECRET_LENGTH,
    BraidWord,
    compose,
    compose_all,
    expect_list,
    expect_secret_length,
    expect_strands,
    expect_type,
    generator,
    invert,
    random_word,
    shifted_conjugate,
)

PRESETS = tuple(KA_PRESETS) + ("dehornoy",)

FLAGS = {
    "--preset": dict(choices=PRESETS, default="klchkp"),
    "--n": dict(type=int, default=8, help="strand count"),
    "--secret-len": dict(type=int, default=8),
    "--max-len": dict(type=int, default=4, help="solver word-length bound"),
    "--budget": dict(type=int, default=200_000, help="solver candidate budget"),
    "--seed": dict(type=int, default=0),
    "--reps": dict(type=int, default=1),
    "--in": dict(dest="in_path", default=None, help="input file"),
    "--oracle": dict(default=None, help="secret transcript for the harness verdict"),
    "--out": dict(default=".", help="output file or directory"),
}

# The flags each subcommand's handler reads, and no others.
SUBCOMMAND_FLAGS = {
    "simulate": "--preset --n --secret-len --seed --out",
    "attack": "--in --oracle --max-len --budget --out",
    "solve": "--in --max-len --budget --out",
    "selftest": "--seed",
    "sweep": "--preset --n --secret-len --max-len --budget --seed --reps --out",
}


def _dump(path: pathlib.Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _load(path: str) -> dict:
    record = json.loads(pathlib.Path(path).read_text())
    if not isinstance(record, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidwork", description="braid protocol simulation and cryptanalysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in SUBCOMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _simulate_records(args: argparse.Namespace) -> tuple[dict, dict]:
    """Public and secret records for one seeded protocol run."""
    if args.preset == "dehornoy":
        keys = dehornoy_keygen(
            strands=args.n,
            secret_length=min(args.secret_len, 3),
            base_length=args.secret_len,
            seed=args.seed,
        )
        rng = random.Random(f"nonce:{args.seed}")
        gens = [generator(args.n, i) for i in range(1, args.n)]
        nonce = random_word(gens, min(args.secret_len, 3), rng)
        x, x_prime = dehornoy_commit(keys, nonce)
        response = dehornoy_respond(keys, nonce, challenge=1)
        public = {
            **keys.public_record(),
            "scheme": "dehornoy",
            "commitment": [x.to_record(), x_prime.to_record()],
            "challenge": 1,
            "response": response.to_record(),
        }
        secret = {"s": keys.secret.to_record(), "r": nonce.to_record()}
        return public, secret
    config = make_preset(
        args.preset, strands=args.n, secret_length=args.secret_len, seed=args.seed
    )
    run = ka_run(config, seed=args.seed)
    return run.public.to_record(), run.secret.to_record()


def cmd_simulate(args: argparse.Namespace) -> int:
    public, secret = _simulate_records(args)
    out = pathlib.Path(args.out)
    _dump(out / "public.json", public)
    _dump(out / "secret.json", secret)
    print(f"wrote {out / 'public.json'} and {out / 'secret.json'}")
    return 0


def _attack_from_records(
    public: dict, secret: dict | None, args: argparse.Namespace
) -> AttackReport:
    config = SolverConfig(max_length=args.max_len, budget=args.budget)
    if public.get("scheme") == "dehornoy":
        commitment = expect_list(public["commitment"], "a commitment")
        if len(commitment) != 2:
            raise ValueError(f"commitment must hold two words (x, x'), got {len(commitment)}")
        if expect_type(public["challenge"], int, "challenge") != 1:
            raise ValueError(f"challenge must be 1, the only challenge the pair attack "
                             f"reads; got {public['challenge']}")
        x, x_prime = (BraidWord.from_record(w) for w in commitment)
        base = BraidWord.from_record(public["p"])
        p_pub = BraidWord.from_record(public["p_pub"])
        response = BraidWord.from_record(public["response"])
        n = base.strands
        return attack_dehornoy_pair(
            x, x_prime, base, p_pub, response,
            dataclasses.replace(config, alphabet=interval_generators(n, 1, n - 1)),
            oracle_s=BraidWord.from_record(secret["s"]) if secret else None,
        )
    transcript = PublicTranscript.from_record(public)
    oracle = SecretTranscript.from_record(secret) if secret else None
    if transcript.config.preset == "stickel":
        a, b = transcript.config.stickel_pair
        return attack_stickel(
            a,
            b,
            transcript.token_a,
            transcript.token_b,
            transcript.config.exponent_bound,
            oracle=oracle,
        )
    return attack_decomposition(transcript, config, oracle=oracle)


def cmd_attack(args: argparse.Namespace) -> int:
    if args.in_path is None:
        print("attack requires --in public.json", file=sys.stderr)
        return 2
    public = _load(args.in_path)
    secret = _load(args.oracle) if args.oracle else None
    report = _attack_from_records(public, secret, args)
    out = pathlib.Path(args.out)
    path = out / "attack_report.json" if out.is_dir() or not out.suffix else out
    _dump(path, report.to_record())
    print(f"attack {report.attack}: {'success' if report.success else 'incomplete'}"
          + (f" (harness verdict: {report.harness_verdict})" if report.harness_verdict is not None else ""))
    return 0 if report.success else 1


def cmd_solve(args: argparse.Namespace) -> int:
    if args.in_path is None:
        print("solve requires --in instance.json", file=sys.stderr)
        return 2
    instance = CspInstance.from_record(_load(args.in_path))
    config = SolverConfig(max_length=args.max_len, budget=args.budget)
    report = solve_exhaustive(instance, config)
    out = pathlib.Path(args.out)
    path = out / "solution.json" if out.is_dir() or not out.suffix else out
    _dump(path, report.to_record())
    print(f"solve: {report.status} ({report.candidates_tested} candidates)")
    return 0 if report.solved else 1


def _selftest_checks(seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    checks: list[tuple[str, bool]] = []

    n = 5
    gens = [generator(n, i) for i in range(1, n)]
    ok = True
    for i in range(1, n - 1):
        lhs = BraidWord(n, (i, i + 1, i))
        rhs = BraidWord(n, (i + 1, i, i + 1))
        ok = ok and words_equal(lhs, rhs)
    ok = ok and words_equal(BraidWord(n, (1, 3)), BraidWord(n, (3, 1)))
    checks.append(("braid-relations", ok))

    ok = True
    for _ in range(50):
        w = random_word(gens, rng.randrange(0, 12), rng)
        ok = ok and words_equal(normal_form(w).to_word(), w)
        cancel = compose(w, invert(w))
        ok = ok and is_trivial_handle_reduction(cancel)
    checks.append(("normal-form-roundtrip-and-handle", ok))

    ok = True
    for _ in range(20):
        r = random_word(gens, 3, rng)
        p = random_word(gens, 3, rng)
        q = random_word(gens, 3, rng)
        lhs = shifted_conjugate(r, shifted_conjugate(p, q))
        rhs = shifted_conjugate(shifted_conjugate(r, p), shifted_conjugate(r, q))
        ok = ok and words_equal(lhs, rhs)
    checks.append(("shifted-conjugacy-distributivity", ok))

    ok = True
    for preset in KA_PRESETS:
        config = make_preset(preset, strands=8, secret_length=4)
        for s in range(2):
            run = ka_run(config, seed=s)
            key_a = compose_all(
                [run.secret.a1, run.public.token_b, run.secret.a2]
            )
            ok = ok and words_equal(key_a, run.secret.kappa)
    checks.append(("protocol-agreement", ok))

    keys = dehornoy_keygen(strands=4, secret_length=2, base_length=2, seed=seed)
    nonce = random_word([generator(4, i) for i in range(1, 4)], 2, rng)
    commitment = dehornoy_commit(keys, nonce)
    ok = all(
        dehornoy_verify(
            keys.base, keys.public_key, commitment, c, dehornoy_respond(keys, nonce, c)
        )
        for c in (0, 1)
    )
    checks.append(("dehornoy-scheme-completeness", ok))
    return checks


def cmd_selftest(args: argparse.Namespace) -> int:
    checks = _selftest_checks(args.seed)
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


def summarize(reports: list[AttackReport]) -> dict:
    """Order-independent success and effort summary for a batch of reports."""
    if not reports:
        raise ValueError("cannot summarize an empty report list")
    successes = sum(r.success for r in reports)
    tested = sorted(
        sum(s.candidates_tested for s in r.solver_reports) for r in reports
    )
    verdicts = [r.harness_verdict for r in reports if r.harness_verdict is not None]
    return {
        "count": len(reports),
        "successes": successes,
        "success_rate": successes / len(reports),
        "candidates_tested": {
            "mean": statistics.fmean(tested),
            "median": statistics.median(tested),
        },
        "harness_verdicts_true": sum(bool(v) for v in verdicts),
        "harness_verdicts_total": len(verdicts),
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.reps < 1:
        print("sweep requires --reps >= 1", file=sys.stderr)
        return 2
    reports: list[AttackReport] = []
    for offset in range(args.reps):
        run_args = argparse.Namespace(**{**vars(args), "seed": args.seed + offset})
        public, secret = _simulate_records(run_args)
        reports.append(_attack_from_records(public, secret, run_args))
    summary = summarize(reports)
    summary["preset"] = args.preset
    summary["seeds"] = [args.seed + k for k in range(args.reps)]
    out = pathlib.Path(args.out)
    path = out / "sweep_summary.json" if out.is_dir() or not out.suffix else out
    _dump(path, summary)
    print(
        f"sweep {args.preset}: {summary['successes']}/{summary['count']} succeeded "
        f"(rate {summary['success_rate']:.2f})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "attack": cmd_attack,
        "solve": cmd_solve,
        "selftest": cmd_selftest,
        "sweep": cmd_sweep,
    }
    try:
        if "n" in args:
            expect_strands(args.n)
        if "secret_len" in args:
            expect_secret_length(args.secret_len)
        for flag, dest in (("--max-len", "max_len"), ("--budget", "budget")):
            value = getattr(args, dest, 0)
            if value < 0:
                raise ValueError(f"{flag} must be nonnegative, got {value}")
        if "max_len" in args and args.max_len > MAX_SECRET_LENGTH:
            raise ValueError(f"--max-len {args.max_len} is above the cap of {MAX_SECRET_LENGTH}")
        return handlers[args.command](args)
    except (ProtocolError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
