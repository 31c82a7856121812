"""
Command-line experiment driver.

Subcommands: simulate (write a protocol transcript), attack (run the
preset's attack pipeline on a public transcript), solve (run the
exhaustive solver on a stored conjugacy instance), selftest (run the
built-in invariant suite), sweep (aggregate attack success over seeds).
SUBCOMMANDS names each subcommand's handler and the flags it reads, and
no others; a flag of another subcommand is a usage error. attack and solve
take no --preset or sizes: they read them from the input record, which
--in must name.

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
    MAX_STRANDS,
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
    "--in": dict(dest="in_path", required=True, help="input file"),
    "--oracle": dict(default=None, help="secret transcript for the harness verdict"),
    "--out": dict(default=".", help="output file or directory"),
}


def _dump(path: pathlib.Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _load(path: str) -> dict:
    record = json.loads(pathlib.Path(path).read_text())
    if not isinstance(record, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return record


def _report_path(out: str, name: str) -> pathlib.Path:
    """Where a report goes: file `name` in `out` if `out` is a directory or
    has no suffix, else `out` itself."""
    path = pathlib.Path(out)
    return path / name if path.is_dir() or not path.suffix else path


def _word_on(record, what: str, n: int, extra: int) -> BraidWord:
    """The braid word in `record`, which must be on n + extra strands."""
    word = BraidWord.from_record(record)
    if word.strands != n + extra:
        expected = f"n + {extra} = {n + extra}" if extra else f"n = {n}"
        raise ValueError(f"{what} is on {word.strands} strands, not {expected}")
    return word


def _simulate_records(args: argparse.Namespace) -> tuple[dict, dict]:
    """Public and secret records for one seeded protocol run. For dehornoy,
    --secret-len is the base length and caps the secret and the nonce at 3;
    p is on n strands, p_pub, x and the response on n + 1, and x' on n + 2,
    so n runs from 2 to MAX_STRANDS - 2."""
    if args.preset == "dehornoy":
        if not 2 <= args.n <= MAX_STRANDS - 2:
            raise ValueError(f"dehornoy needs --n from 2 to {MAX_STRANDS - 2}, got {args.n}: "
                             f"its keys use sigma_1 .. sigma_(n-1), and its commitment x' "
                             f"is on n + 2 strands")
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
            "scheme": "dehornoy",
            "n": keys.strands,
            "p": keys.base.to_record(),
            "p_pub": keys.public_key.to_record(),
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
    """The preset's attack on the public record, then, with a secret record,
    its harness verdict: the key candidate against kappa, or the dehornoy
    s candidate against s. Both records are read before any search."""
    config = SolverConfig(max_length=args.max_len, budget=args.budget)
    if public.get("scheme") == "dehornoy":
        n = expect_type(public["n"], int, "n")
        commitment = expect_list(public["commitment"], "a commitment")
        if len(commitment) != 2:
            raise ValueError(f"commitment must hold two words (x, x'), got {len(commitment)}")
        if expect_type(public["challenge"], int, "challenge") != 1:
            raise ValueError(f"challenge must be 1, the only challenge the pair attack "
                             f"reads; got {public['challenge']}")
        words = (
            _word_on(commitment[0], "commitment x", n, 1),
            _word_on(commitment[1], "commitment x'", n, 2),
            _word_on(public["p"], "p", n, 0),
            _word_on(public["p_pub"], "p_pub", n, 1),
            _word_on(public["response"], "response", n, 1),
        )
        config = dataclasses.replace(config, alphabet=interval_generators(n, 1, n - 1))
        name = "s-candidate"
        truth = BraidWord.from_record(secret["s"]) if secret else None
        report = attack_dehornoy_pair(*words, config)
    else:
        transcript = PublicTranscript.from_record(public)
        name = "key-candidate"
        truth = SecretTranscript.from_record(secret).kappa if secret else None
        if transcript.config.preset == "stickel":
            a, b = transcript.config.stickel_pair
            report = attack_stickel(
                a, b, transcript.token_a, transcript.token_b, transcript.config.exponent_bound
            )
        else:
            report = attack_decomposition(transcript, config)
    return report.with_verdict(name, truth) if truth is not None else report


def cmd_attack(args: argparse.Namespace) -> int:
    public = _load(args.in_path)
    secret = _load(args.oracle) if args.oracle else None
    report = _attack_from_records(public, secret, args)
    _dump(_report_path(args.out, "attack_report.json"), report.to_record())
    print(f"attack {report.attack}: {'success' if report.success else 'incomplete'}"
          + (f" (harness verdict: {report.harness_verdict})" if report.harness_verdict is not None else ""))
    return 0 if report.success else 1


def cmd_solve(args: argparse.Namespace) -> int:
    instance = CspInstance.from_record(_load(args.in_path))
    config = SolverConfig(max_length=args.max_len, budget=args.budget)
    report = solve_exhaustive(instance, config)
    _dump(_report_path(args.out, "solution.json"), report.to_record())
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
    _dump(_report_path(args.out, "sweep_summary.json"), summary)
    print(
        f"sweep {args.preset}: {summary['successes']}/{summary['count']} succeeded "
        f"(rate {summary['success_rate']:.2f})"
    )
    return 0


# Each subcommand's handler and the flags it reads, and no others.
SUBCOMMANDS = {
    "simulate": (cmd_simulate, "--preset --n --secret-len --seed --out"),
    "attack": (cmd_attack, "--in --oracle --max-len --budget --out"),
    "solve": (cmd_solve, "--in --max-len --budget --out"),
    "selftest": (cmd_selftest, "--seed"),
    "sweep": (cmd_sweep, "--preset --n --secret-len --max-len --budget --seed --reps --out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidwork", description="braid protocol simulation and cryptanalysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
        return args.handler(args)
    except (ProtocolError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
