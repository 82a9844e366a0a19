"""The benchmark's per-module tracer (perfbench/spans.py) wraps hwgnn
functions by name; every entry it lists must still resolve to a callable."""
import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolve(modname: str):
    """A module, or a class reached through its module ("pkg.mod.Class")."""
    try:
        return importlib.import_module(modname)
    except ModuleNotFoundError:
        parent, attr = modname.rsplit(".", 1)
        return getattr(importlib.import_module(parent), attr)


def test_every_traced_span_resolves_to_a_callable():
    spans = load_spans()
    assert spans
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _ in spans
        if not callable(getattr(resolve(modname), attr, None))
    ]
    assert missing == []
