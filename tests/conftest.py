"""Shared helpers: one-call graph builders, a finite-difference gradient
check, tiny corpus fixtures, and the benchmark's corpus generator."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hwgnn import synth
from hwgnn.hwgraph import ast_graph, dfg_graph, parse_verilog
from hwgnn.nncore import backward, zero_grads


def ast_of(text: str, name: str = "t"):
    return ast_graph(parse_verilog(text), design_name=name)


def dfg_of(text: str, top: str | None = None, name: str = "t"):
    return dfg_graph(parse_verilog(text), top=top, design_name=name)


def labels_of(g):
    return [n.label for n in g.nodes]


def named(g, label, name=None):
    """All node ids carrying the label (and name, when given)."""
    return [
        n.id
        for n in g.nodes
        if n.label == label and (name is None or n.name == name)
    ]


def assert_edges(A, want) -> None:
    """A is the m x 2 C-contiguous <i8 edge array holding exactly ``want``."""
    want = np.asarray(want, dtype="<i8").reshape(-1, 2)
    assert A.dtype == np.dtype("<i8") and A.flags.c_contiguous
    assert A.shape == want.shape
    assert np.array_equal(A, want)


def fd_gradcheck(build_loss, params, h=1e-5, tol=1e-4):
    """Analytic gradients vs central finite differences.

    ``build_loss`` must rebuild the tape from the live parameter data each
    call, so nudging a parameter entry changes the result.
    """
    zero_grads(params)
    backward(build_loss())
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            ref = max(1.0, abs(fd), abs(gflat[i]))
            assert abs(fd - gflat[i]) <= tol * ref, (
                f"param {p.name} entry {i}: analytic {gflat[i]}, fd {fd}"
            )


@pytest.fixture(scope="session")
def ht_corpus_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("ht_corpus")
    synth.ht_corpus(root, n_clean=5, n_trojan=5, seed=7)
    return root


@pytest.fixture(scope="session")
def ip_corpus_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("ip_corpus")
    synth.ip_corpus(root, n_variants=2, seed=11)
    return root


def load_gen():
    """perfbench/gen.py, loaded by path; it puts perfbench/ on sys.path to
    import its walker, which is undone here."""
    saved = list(sys.path)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module
