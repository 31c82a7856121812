"""Hostile input: a record with one field replaced by a wrong value, or
deleted, must end the CLI with exit 0, 1 or 2 and never a traceback.

Each record kind the CLI reads is mutated: the key-agreement public
records of every preset and the dehornoy public record (`attack --in`),
the klchkp and dehornoy secret records (`attack --oracle`) and a stored
conjugacy instance (`solve --in`). Every field down to depth 3 (object
keys and array indices) times every wrong value and a deletion gives 120
to 1,512 mutations per kind; a seeded sample of them runs here. The
hand-written cases that pin a message stay in test_cli.py.
"""

import copy
import json
import random

import pytest

from braidwork.cli import main
from braidwork.extractors import build_mscsp_dhdp
from braidwork.protocols import ka_run, make_preset

WRONG_VALUES = (None, True, False, -1, 0, 2**31, 1.5, "x", "", [], {})
DELETE = object()
SAMPLES_PER_KIND = 110


def field_paths(record, depth=3, prefix=()):
    """The path of every field of a JSON value, down to `depth` keys."""
    if len(prefix) == depth:
        return
    if isinstance(record, dict):
        items = record.items()
    elif isinstance(record, list):
        items = enumerate(record)
    else:
        return
    for key, value in items:
        path = prefix + (key,)
        yield path
        yield from field_paths(value, depth, path)


def mutated(record, path, value):
    record = copy.deepcopy(record)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


def mutations(record, seed):
    every = [(p, v) for p in field_paths(record) for v in WRONG_VALUES + (DELETE,)]
    return random.Random(seed).sample(every, min(SAMPLES_PER_KIND, len(every)))


# Each preset with the strand count its round is simulated on.
PRESETS = (
    ("klchkp", "6"), ("dehornoy", "4"), ("generalized", "8"), ("cklhc", "6"),
    ("stickel", "6"), ("shpilrain-central", "8"),
)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The records of one round of each preset, and one stored instance,
    each written by the library as the CLI would."""
    root = tmp_path_factory.mktemp("records")
    for preset, n in PRESETS:
        assert main([
            "simulate", "--preset", preset, "--n", n, "--secret-len", "2",
            "--seed", "0", "--out", str(root / preset),
        ]) == 0
    run = ka_run(make_preset("klchkp", strands=6, secret_length=2), seed=0)
    inst = build_mscsp_dhdp(run.public, "a")
    (root / "instance.json").write_text(json.dumps(inst.to_record()))
    return root


# (kind, file that is mutated, the CLI arguments with {} for the mutated file)
KINDS = [
    ("ka-public", "klchkp/public.json", ["attack", "--in", "{}"]),
    ("ka-oracle", "klchkp/secret.json",
     ["attack", "--in", "{root}/klchkp/public.json", "--oracle", "{}"]),
    ("dehornoy-public", "dehornoy/public.json", ["attack", "--in", "{}"]),
    ("dehornoy-oracle", "dehornoy/secret.json",
     ["attack", "--in", "{root}/dehornoy/public.json", "--oracle", "{}"]),
    ("instance", "instance.json", ["solve", "--in", "{}"]),
] + [
    (f"{preset}-public", f"{preset}/public.json", ["attack", "--in", "{}"])
    for preset, _ in PRESETS[2:]
]


@pytest.mark.parametrize("seed, kind", list(enumerate(KINDS)),
                         ids=[k[0] for k in KINDS])
def test_mutated_record_exits_cleanly(records, tmp_path, seed, kind):
    _, name, argv = kind
    record = json.loads((records / name).read_text())
    # Each run reads and writes files of its own: no file is overwritten,
    # which is slow on some file systems.
    for i, (field, value) in enumerate(mutations(record, seed)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(mutated(record, field, value)))
        args = [a.format(path, root=records) for a in argv]
        try:
            code = main(args + ["--max-len", "2", "--out", str(tmp_path / str(i))])
        except Exception as exc:
            edit = "deleted" if value is DELETE else f"= {value!r}"
            pytest.fail(f"{name} with {field} {edit}: {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2), (name, field, value, code)
