"""Every function the benchmark's span tracer wraps still exists.

`bench/spans.py` looks each name in its LAYERS table up in its braidwork
module when it installs, so a deleted or renamed function would otherwise
fail only when the benchmark runs with `--trace 1`.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = traced_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_resolve(layer):
    module = importlib.import_module(f"braidwork.{layer}")
    missing = [name for name in LAYERS[layer] if not callable(getattr(module, name, None))]
    assert missing == []
