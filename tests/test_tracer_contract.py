"""The benchmark's per-module tracer (perfbench/spans.py) wraps hwgnn
functions by name; every entry it lists must still resolve to a callable,
and its fixed-size layer probes must still run."""
import importlib
import importlib.util
import math
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname: str):
    """A module, or a class reached through its module ("pkg.mod.Class")."""
    try:
        return importlib.import_module(modname)
    except ModuleNotFoundError:
        parent, attr = modname.rsplit(".", 1)
        return getattr(importlib.import_module(parent), attr)


def test_every_traced_span_resolves_to_a_callable():
    spans = load_spans().SPANS
    assert spans
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _ in spans
        if not callable(getattr(resolve(modname), attr, None))
    ]
    assert missing == []


def test_layer_probes_run():
    # embed, classify, cross_entropy and backward on 18, 100 and 1000 nodes
    values = load_spans().probes(1)
    assert len(values) == 6
    assert all(math.isfinite(v) and v > 0.0 for v in values.values()), values


def test_graph_worker_resolves_to_a_callable():
    # Tracer.install patches the graph pool's task function by this name
    assert callable(getattr(importlib.import_module("hwgnn.cli"), "_graph_worker", None))
