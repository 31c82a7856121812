"""
Benchmark of braidwork's attack pipelines.

Run from the repository root:

    python3 bench/run.py --workload descent --seed 1 --seconds 35 --trace 0

It imports braidwork from ./src and builds the workload's instances from the
seed (workloads.py). It then runs ops in a closed loop, single process and
single thread, for the given seconds: op i attacks instance i mod K, so a
run makes passes over the K instances. One op is one seeded transcript: the
honest round, then the attack on its public half. Every claimed break is
checked with handle reduction outside the timed part.

Times are CPU seconds of this process (time.process_time), scaled to a
reference speed. For this single-threaded, CPU-bound work without I/O, CPU
seconds equal wall seconds on an unshared machine, and on a shared virtual
machine they leave out time the host gives to other guests. But the host
also halves a guest's CPU speed for minutes at a time. So each op is
bracketed by a fixed piece of interpreter work (`calibrate`), and its times
are scaled by CAL_REFERENCE_S over that work's time: they read as seconds on
a machine where the calibration takes exactly CAL_REFERENCE_S. The window
is --seconds of scaled op time, cut short after WALL_FACTOR times that in
wall time. An instance's time is the median over its ops, and the
end-to-end timings are taken over instances. The raw CPU seconds are
printed beside them.

Each op starts with every cache of the library empty (`library_caches`), as
in a fresh `braidwork attack` process, so ops do not depend on the ones
before them.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it records
spans around each layer's public functions (spans.py) and prints per-layer
metrics instead, plus the Garside layer grid. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
1 when an op raised or the oracle rejected a claimed break, or when a run on
the same seed and code counted differently, and 2 when the library cannot be
imported. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep", "descent", "auth")
SETUP_REPEATS = 4  # before the window, and as many after
WALL_FACTOR = 1.5
# Ops every run completes, whatever --seconds says: their counts are the
# determinism record, and the traced run's overhead is measured on them.
PREFIX_OPS = {"sweep": 5, "descent": 16, "auth": 48}
GRID = [(n, length) for n in (8, 10, 16) for length in (40, 200, 400)]
GRID_WORDS = 3
GRID_CELL_S = 1.0
TAIL_BEYOND = 10
CAL_PERM = (3, 7, 1, 9, 0, 4, 8, 2, 6, 5)
CAL_ROUNDS = 1500
CAL_REFERENCE_S = 0.001
clock = time.process_time


def calibrate() -> float:
    """CPU seconds of a fixed piece of interpreter work: products of
    permutations held as tuples, the staple of the Garside layer. About
    CAL_REFERENCE_S when the host gives this guest its full speed."""
    t0 = clock()
    p = tuple(range(len(CAL_PERM)))
    for _ in range(CAL_ROUNDS):
        p = tuple(CAL_PERM[x] for x in p)
    return clock() - t0


def scaled(cpu_seconds: float, calibration_s: float) -> float:
    return cpu_seconds * CAL_REFERENCE_S / calibration_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run only set-up, or only the untraced prefix, in a child process.
    parser.add_argument("--probe", choices=("setup", "prefix"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library():
    src = ROOT / "src"
    if not (src / "braidwork" / "__init__.py").is_file():
        print(f"error: no braidwork sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import braidwork

    if Path(braidwork.__file__).resolve().parent != (src / "braidwork").resolve():
        print(f"error: imported braidwork from {braidwork.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def child(args, probe: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--probe", probe,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)


def library_caches() -> list:
    """Every memoised function (functools cache) that braidwork's modules hold."""
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if name == "braidwork" or name.startswith("braidwork."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def run_ops(workload, instances, seconds, min_ops, caches, normal_form, tracer=None):
    """The closed loop. Returns one record per attempted op. `caches` are
    emptied before each op; they must be taken before a tracer wraps them."""
    simulate, attack = workload.simulate, workload.attack
    if tracer is not None:
        simulate = tracer.span("bench.simulate", simulate)
        attack = tracer.span("bench.attack", attack)
    records = []
    spent = 0.0  # scaled seconds of the ops so far
    wall_deadline = time.perf_counter() + WALL_FACTOR * seconds
    i = 0
    while i < min_ops or (spent < seconds and time.perf_counter() < wall_deadline):
        k = i % len(instances)
        inp = instances[k]
        if tracer is not None:
            tracer.op = i
        for cache in caches:
            cache.cache_clear()
        record = {"instance": k, "outcome": None}
        try:
            before = calibrate()
            t0 = clock()
            state = simulate(inp)
            t1 = clock()
            result = attack(inp, state)
            t2 = clock()
            info = normal_form.cache_info()
            record.update(
                simulate_s=t1 - t0,
                attack_s=t2 - t1,
                calibration_s=(before + calibrate()) / 2,
                nf_calls=info.hits + info.misses,
                nf_misses=info.misses,
            )
            spent += scaled(t2 - t0, record["calibration_s"])
            with tracer.pause() if tracer is not None else contextlib.nullcontext():
                record["outcome"] = workload.check(inp, state, result)
        except Exception:
            print(f"op {i} ({inp!r}) raised:", file=sys.stderr)
            traceback.print_exc()
        records.append(record)
        i += 1
    return records


def timed(records) -> list[dict]:
    return [r for r in records if "attack_s" in r]


def op_seconds(records) -> float:
    """Scaled simulate plus attack seconds, summed over the ops."""
    return sum(scaled(r["simulate_s"] + r["attack_s"], r["calibration_s"]) for r in timed(records))


def per_instance(records) -> list[dict]:
    """Each measured instance's scaled simulate and attack time: the median
    over its ops."""
    ops: dict[int, list[dict]] = {}
    for r in timed(records):
        ops.setdefault(r["instance"], []).append(r)
    return [
        {
            key: statistics.median(scaled(r[key], r["calibration_s"]) for r in rs)
            for key in ("simulate_s", "attack_s")
        }
        | {"ops": len(rs)}
        for rs in ops.values()
    ]


def determinism_counts(records, n: int) -> dict:
    prefix = records[:n]
    done = [r for r in prefix if r["outcome"] is not None]
    return {
        "ops": len(prefix),
        "solvers.candidates": sum(r["outcome"].candidates for r in done),
        "successes": sum(r["outcome"].success for r in done),
        "normal_form.calls": sum(r["nf_calls"] for r in done),
        "normal_form.misses": sum(r["nf_misses"] for r in done),
    }


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidwork").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(args, inputs_digest, counts) -> tuple[bool, str]:
    """Compare with the record of an earlier run on the same seed and code."""
    record = {"inputs": inputs_digest, "counts": counts}
    path = OUT / "determinism" / f"{args.workload}-seed{args.seed}-{code_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            return False, f"MISMATCH with {path.name}: earlier {earlier}"
        return True, "matches the earlier run on this seed and code"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    return True, "recorded for later runs on this seed and code"


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    that is the (TAIL_BEYOND+1)-th largest value, and which one it is. With
    too few samples for that, the largest."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], f"the largest of only {len(ordered)}"
    rank = 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)
    return ordered[-TAIL_BEYOND - 1], f"p{rank:.1f}, the {TAIL_BEYOND + 1}th largest"


def end_to_end(records, instances, setup_times):
    measured = per_instance(records)
    attacks = [m["attack_s"] for m in measured]
    op_time = sum(m["simulate_s"] + m["attack_s"] for m in measured)
    raw = timed(records)
    outcomes = [r["outcome"] for r in records if r["outcome"] is not None]
    tail_value, tail_which = tail(attacks)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "attack_s.p50": (statistics.median(attacks), "s"),
        "attack_s.tail": (tail_value, "s"),
        "simulate_s.p50": (statistics.median(m["simulate_s"] for m in measured), "s"),
        "transcripts_per_s": (len(measured) / op_time, "1/s"),
        "success_rate": (sum(o.success for o in outcomes) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ops = sorted(m["ops"] for m in measured)
    per = f"over {len(measured)} of {len(instances)} instances, each the median of its {ops[0]} to {ops[-1]} ops"
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes: start, import and input generation",
        "attack_s.p50": f"median {per}; raw CPU median of all ops {statistics.median(r['attack_s'] for r in raw):.6g} s",
        "attack_s.tail": f"{tail_which} {per}",
        "simulate_s.p50": f"median {per}; raw CPU median of all ops {statistics.median(r['simulate_s'] for r in raw):.6g} s",
        "transcripts_per_s": f"{len(measured)} instances in {op_time:.2f} s; raw {len(raw)} ops in {sum(r['simulate_s'] + r['attack_s'] for r in raw):.2f} CPU s",
        "success_rate": f"over {len(records)} ops",
    }
    return metrics, notes


def per_preset(records) -> list[str]:
    by_label: dict[str, list] = {}
    for r in records:
        if r["outcome"] is not None and r["outcome"].label:
            by_label.setdefault(r["outcome"].label, []).append(r["outcome"])
    return [
        f"preset {label}: success_rate {sum(o.success for o in outs) / len(outs):.3f}, "
        f"first-candidate rate {sum(o.first_candidate for o in outs) / len(outs):.3f} "
        f"({len(outs)} ops)"
        for label, outs in by_label.items()
    ]


def per_layer(tracer, records, overhead):
    """Per-layer figures of the traced run, per op unless a ratio. Span times
    are scaled by the run's ratio of scaled to raw op time."""
    from braidwork.garside import nf_key
    from braidwork.words import BraidWord
    from spans import SOLVER_ENTRY

    ops = len(records)
    raw_op_time = sum(r["simulate_s"] + r["attack_s"] for r in timed(records))
    scale = op_seconds(records) / raw_op_time
    tot = tracer.layer_totals()

    def layer(prefix, key):
        total = sum(v[key] for name, v in tot.items() if name.startswith(prefix))
        return total * (scale if key == "self_s" else 1) / ops

    def func(name, key):
        return tot.get(name, {key: 0})[key] * (scale if key == "self_s" else 1) / ops

    key_of: dict[tuple, tuple] = {}
    distinct = 0
    for seen in tracer.yielded:
        keys = set()
        for word in seen:
            if word not in key_of:
                key_of[word] = nf_key(BraidWord(*word))
            keys.add(key_of[word])
        distinct += len(keys)

    solve_names = {i for i, n in enumerate(tracer.names) if n in SOLVER_ENTRY}
    solve_time = scale * sum(s[3] - s[2] for s in tracer.spans if s[1] in solve_names)
    nf_total = tracer.nf_hits + tracer.nf_misses
    solver_calls = max(tracer.solver_calls, 1)
    return {
        "garside.self_s": (layer("garside.", "self_s"), "s/op"),
        "garside.normal_form.calls": (func("garside.normal_form", "calls"), "1/op"),
        "garside.normal_form.self_s": (func("garside.normal_form", "self_s"), "s/op"),
        "garside.normal_form.hit_frac": (tracer.nf_hits / nf_total if nf_total else 0.0, "ratio"),
        "garside.normal_form.us_per_letter": (
            1e6 * scale * tracer.nf_miss_seconds / tracer.nf_miss_letters if tracer.nf_miss_letters else 0.0,
            "us/letter",
        ),
        "garside.rewrite.calls": (func("garside.rewrite", "calls"), "1/op"),
        "garside.words_equal.calls": (func("garside.words_equal", "calls"), "1/op"),
        "words.enumerate.yielded": (sum(len(s) for s in tracer.yielded) / ops, "1/op"),
        "words.enumerate.distinct": (distinct / ops, "1/op"),
        "words.enumerate.self_s": (func("words.enumerate_products", "self_s"), "s/op"),
        "solvers.calls": (tracer.solver_calls / ops, "1/op"),
        "solvers.self_s": (layer("solvers.", "self_s"), "s/op"),
        "solvers.candidates": (tracer.candidates / ops, "1/op"),
        "solvers.candidates_per_s": (tracer.candidates / solve_time if solve_time else 0.0, "1/s"),
        "solvers.solved_frac": (tracer.solved / solver_calls, "ratio"),
        "solvers.first_candidate_frac": (tracer.first_candidate / solver_calls, "ratio"),
        "extractors.calls": (layer("extractors.", "calls"), "1/op"),
        "extractors.self_s": (layer("extractors.", "self_s"), "s/op"),
        "extractors.pairs": (tracer.pairs / ops, "1/op"),
        "protocols.calls": (layer("protocols.", "calls"), "1/op"),
        "protocols.self_s": (layer("protocols.", "self_s"), "s/op"),
        "subgroups.calls": (layer("subgroups.", "calls"), "1/op"),
        "subgroups.self_s": (layer("subgroups.", "self_s"), "s/op"),
        "handle.calls": (layer("handle.", "calls"), "1/op"),
        "handle.self_s": (layer("handle.", "self_s"), "s/op"),
        "attacks.self_s": (layer("attacks.", "self_s"), "s/op"),
        "bench.self_s": (layer("bench.", "self_s"), "s/op"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.accounted_frac": (sum(s[6] for s in tracer.spans) / raw_op_time, "ratio"),
    }


def garside_grid(seed, caches, normal_form):
    """normal_form ms per word on seeded random words with inverses, scaled:
    the median over up to GRID_WORDS words, fewer once a cell has taken
    GRID_CELL_S."""
    from braidwork.words import BraidWord

    metrics = {}
    for n, length in GRID:
        rng = random.Random(f"grid:{seed}:{n}:{length}")
        times: list[float] = []
        while len(times) < GRID_WORDS and sum(times) < GRID_CELL_S:
            letters = tuple(rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(length))
            word = BraidWord(n, letters)
            for cache in caches:
                cache.cache_clear()
            before = calibrate()
            t0 = clock()
            normal_form(word)
            spent = clock() - t0
            times.append(scaled(spent, (before + calibrate()) / 2))
        metrics[f"garside.grid.n{n}_L{length}.ms_per_word"] = (1000 * statistics.median(times), "ms/word")
    return metrics


def emit(metrics, notes, correct, attempted, failed):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    from braidwork.garside import normal_form
    from spans import Tracer
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    caches = library_caches()
    instances = workload.inputs(args.seed)
    min_ops = PREFIX_OPS[args.workload]
    if args.probe == "setup":
        return 0
    if args.probe == "prefix":
        records = run_ops(workload, instances, 0.0, min_ops, caches, normal_form)
        print(json.dumps({
            "op_s": op_seconds(records),
            "counts": determinism_counts(records, min_ops),
        }))
        return 0

    setup_times = []

    def set_up_in_children():
        if args.trace:
            return
        for _ in range(SETUP_REPEATS):
            calibration = [calibrate() for _ in range(3)]
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            child(args, "setup")
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            calibration += [calibrate() for _ in range(3)]
            spent = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            setup_times.append(scaled(spent, statistics.median(calibration)))

    set_up_in_children()

    tracer = None
    if args.trace:
        untraced = json.loads(child(args, "prefix").stdout.splitlines()[-1])
        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    records = run_ops(workload, instances, args.seconds, min_ops, caches, normal_form, tracer)
    window = time.perf_counter() - started
    if tracer is not None:
        tracer.remove()
    set_up_in_children()  # before and after the window, as the host's speed drifts

    inputs_digest = digest(instances)
    counts = determinism_counts(records, min_ops)
    steady, verdict = check_determinism(args, inputs_digest, counts)
    if tracer is not None and untraced["counts"] != counts:
        steady, verdict = False, f"MISMATCH with the untraced prefix run: {untraced['counts']}"
    attempted = len(records)
    failed = sum(r["outcome"] is None or r["outcome"].failed for r in records)
    off_plan = sum(r["outcome"] is not None and r["outcome"].off_plan for r in records)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in {window:.1f} s wall")
    print(f"inputs digest {inputs_digest}; first {min_ops} ops: {json.dumps(counts, sort_keys=True)}")
    print(f"determinism: {verdict}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops raised or were rejected by the oracle)")
    calibration = [r["calibration_s"] for r in timed(records)]
    if calibration:
        print(
            f"host speed: calibration median {1000 * statistics.median(calibration):.3f} ms, "
            f"quartiles {', '.join(f'{1000 * q:.3f}' for q in statistics.quantiles(calibration, n=4))} ms "
            f"(reference {1000 * CAL_REFERENCE_S:.3f} ms)"
        )
    if off_plan:
        print(f"warning: {off_plan} transcripts did not carry the secret their input names")
    for line in per_preset(records):
        print(line)

    if tracer is None:
        metrics, notes = end_to_end(records, instances, setup_times)
    else:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tracer, records, op_seconds(records[:min_ops]) / untraced["op_s"] - 1)
        metrics.update(garside_grid(args.seed, caches, normal_form))
        notes = {
            "trace.overhead_frac": f"first {min_ops} ops traced, against the same ops in an untraced process",
            "trace.accounted_frac": "self time of all spans over the traced ops' time",
        }
        print("cli: not exercised; argument parsing and JSON output are I/O edges, unmeasured")
    correct = failed == 0 and steady
    emit(metrics, notes, correct, attempted, failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
