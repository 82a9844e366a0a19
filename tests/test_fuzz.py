"""Mutated input files: every reader either returns a result or raises an
HwgnnError subclass, never another exception.

Each example applies one to four byte edits (replace, insert, delete; any
byte value, so non-ASCII and non-UTF-8 bytes included) to a valid file.
The example counts are fixed and the runs derandomized, so the suite stays
fast and repeatable.
"""
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwgnn import graphdata, learnpipe
from hwgnn.errors import HwgnnError
from hwgnn.graph2vec import build_model
from hwgnn.hwgraph import AST, DFG, graph_from_json, graph_to_json, hw2graph, load_design_dir

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
DESIGNS = sorted(p for root in ("ht", "ip") for p in (CORPUS / root).iterdir() if p.is_dir())
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# (where as a fraction of the current length, operation, byte value)
edits = st.lists(
    st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from("rid"),
              st.integers(0, 255)),
    min_size=1, max_size=4,
)


def mutate(blob: bytes, plan) -> bytes:
    data = bytearray(blob)
    for where, op, byte in plan:
        i = int(where * len(data))
        if op == "i":
            data.insert(i, byte)
        elif data and op == "r":
            data[i] = byte
        elif data:
            del data[i]
    return bytes(data)


def typed_or_ok(call) -> None:
    try:
        call()
    except HwgnnError:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def samples(work):
    """One valid file of each kind that the readers take."""
    design = load_design_dir(DESIGNS[0])
    g = graphdata.normalize(hw2graph(design, DFG, design_name="d0"))
    vocab = graphdata.build_vocab([g])
    graphdata.save_vocab(vocab, work / "vocab.txt")
    key = graphdata.cache_key(DESIGNS[0], design, DFG, None, vocab)
    entry = graphdata.cache_put(work / "cache", key, graphdata.encode(g, vocab, label="Trojan"))
    model = build_model({"in_dim": len(vocab), "conv_dims": [3], "mlp_hidden": [2]}, seed=0)
    learnpipe.save_checkpoint(learnpipe.Checkpoint(model=model, best_metric=0.5),
                              work / "model.ckpt")
    return {
        "json": graph_to_json(g).encode("utf-8"),
        "vocab": (work / "vocab.txt").read_bytes(),
        "cache": (key, entry.read_bytes()),
        "ckpt": (work / "model.ckpt").read_bytes(),
    }


@FUZZ
@given(design=st.sampled_from(DESIGNS), plan=edits)
def test_mutated_design_extracts_or_fails_typed(work, design, plan):
    target = work / "design"
    target.mkdir(exist_ok=True)
    for old in target.iterdir():
        old.unlink()
    files = sorted(design.rglob("*.v"))
    for i, src in enumerate(files):
        blob = src.read_bytes()
        (target / src.name).write_bytes(mutate(blob, plan) if i == 0 else blob)
    for kind in (AST, DFG):
        typed_or_ok(lambda: hw2graph(load_design_dir(target), kind, design_name="m"))


@FUZZ
@given(plan=edits)
def test_mutated_graph_json_parses_or_fails_typed(samples, plan):
    typed_or_ok(lambda: graph_from_json(mutate(samples["json"], plan)))


@FUZZ
@given(plan=edits, resign=st.booleans())
def test_mutated_cache_entry_reads_or_fails_typed(work, samples, plan, resign):
    key, blob = samples["cache"]
    blob = mutate(blob, plan)
    if resign and len(blob) > 32:  # a valid checksum lets the edit reach the header
        blob = blob[:-32] + hashlib.sha256(blob[:-32]).digest()
    (work / "cache" / f"{key}.gt").write_bytes(blob)
    typed_or_ok(lambda: graphdata.cache_get(work / "cache", key))


@FUZZ
@given(plan=edits)
def test_mutated_checkpoint_loads_or_fails_typed(work, samples, plan):
    path = work / "fuzzed.ckpt"
    path.write_bytes(mutate(samples["ckpt"], plan))
    typed_or_ok(lambda: learnpipe.load_checkpoint(path))


@FUZZ
@given(plan=edits)
def test_mutated_vocab_loads_or_fails_typed(work, samples, plan):
    path = work / "fuzzed_vocab.txt"
    path.write_bytes(mutate(samples["vocab"], plan))
    typed_or_ok(lambda: graphdata.load_vocab(path))


def test_mutate_applies_each_operation():
    assert mutate(b"abc", [(0.0, "r", 0xFF)]) == b"\xffbc"
    assert mutate(b"abc", [(0.5, "i", 0x21)]) == b"a!bc"
    assert mutate(b"abc", [(0.99, "d", 0)]) == b"ab"
    assert mutate(b"", [(0.0, "d", 0), (0.0, "r", 1)]) == b""
    assert mutate(b"", [(0.3, "i", 7)]) == b"\x07"
