"""Extraction output is pinned per ``graphdata.EXTRACTOR_VERSION``.

The tensor cache is keyed on a design's sources plus that version, so a
change to what extraction gives for the same sources must bump the version:
bumping it is what makes every entry stored under the old value miss.  A
change that moves a digest below fails here until a new version entry
holding the new digests is added (and the constant raised to match).
"""
import hashlib
from pathlib import Path

import pytest

from conftest import load_gen
from hwgnn import graphdata
from hwgnn.hwgraph import AST, DFG, graph_to_json, hw2graph, load_design_dir

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

# version -> (design under corpus/, kind) -> sha256 of graph_to_json
PINNED = {
    1: {
        ("ht/clean_alu_00", AST): "ae0acf90510392260cd7b70fa59b5e17e0db8a41069755aec39afb5cf3a755ba",
        ("ht/clean_alu_00", DFG): "f567f3198214de35f5fe976f2a0c5ef48a98c09ab9c38ec922b4e02f6c5653cc",
        ("ht/troj_alu_30", AST): "b950d8e642e60e54cd3831c0de50c0b5f2b74a6033148cfdf758243a1da773c1",
        ("ht/troj_alu_30", DFG): "bb2dc923b27b40146879bd4708c90c79ea136840d612714bc3e75bcd05c2a7e2",
        ("ip/ip_adder_v0", AST): "e3cc5d58b0a7ba07600a42effff19e8a1d1f63670c1d82a151932575b5199a12",
        ("ip/ip_adder_v0", DFG): "3994bdf691cb14a612f17618fd2e30d159fb400b25dd7d6082d6289a1a4160e1",
        ("ip/ip_aoi_gln_v0", AST): "167c369b4649a817086d23e252f4828cf532861134b253c9441db287725399ec",
        ("ip/ip_aoi_gln_v0", DFG): "c84c07fcf4351b7850555bff6ca1e1210b55774f78a1ea8ead17a2f40b00aa70",
    },
}
CURRENT = PINNED.get(graphdata.EXTRACTOR_VERSION, {})

# version -> (corpus, kind) -> sha256 over graph_to_json of every design in
# name order; "extract" is perfbench/gen.py's extract corpus at seed 1
PINNED_CORPORA = {
    1: {
        ("ht", AST): "ff0614558f36e765e5e3f6e43f5ecff1d11c05f43205c7c0e9b7901292d82f55",
        ("ht", DFG): "be83843223ecf22ed9795f6d31afed388126cfad5c79b45afd0dc98ddf6f5f89",
        ("ip", AST): "dbba142fecb7e6aaa37533ac5e733f126714bf87bd8bd9b241c06564ecac11ef",
        ("ip", DFG): "2e5e76d6637408ac199aefa12699748a8b50a3d485d8b9044f84d914d05e1394",
        ("extract", AST): "aae7efdc723eb2c257b3328e7911548ad3935130a672e0b6ea0a6e15ea98d464",
        ("extract", DFG): "08529198af55199fca9f2cd8a8d525f5a206a273eb23fc9bea4b3bee443be7d5",
    },
}
CURRENT_CORPORA = PINNED_CORPORA.get(graphdata.EXTRACTOR_VERSION, {})


def test_current_version_is_pinned():
    assert graphdata.EXTRACTOR_VERSION in PINNED
    assert graphdata.EXTRACTOR_VERSION in PINNED_CORPORA


@pytest.mark.parametrize("design, kind", sorted(CURRENT))
def test_extraction_output_matches_the_pinned_digest(design, kind):
    path = CORPUS / design
    g = hw2graph(load_design_dir(path), kind, design_name=path.name)
    digest = hashlib.sha256(graph_to_json(g).encode("utf-8")).hexdigest()
    assert digest == CURRENT[(design, kind)], (
        "extraction output changed: raise graphdata.EXTRACTOR_VERSION and pin the "
        "new digests under it"
    )


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory):
    generated = tmp_path_factory.mktemp("extract")
    load_gen().generate("extract", 1, generated)
    return {"ht": CORPUS / "ht", "ip": CORPUS / "ip", "extract": generated / "designs"}


@pytest.mark.parametrize("corpus, kind", sorted(CURRENT_CORPORA))
def test_whole_corpus_extraction_matches_the_pinned_digest(corpus, kind, corpus_dirs):
    digest = hashlib.sha256()
    for path in sorted(p for p in corpus_dirs[corpus].iterdir() if p.is_dir()):
        g = hw2graph(load_design_dir(path), kind, design_name=path.name)
        digest.update(graph_to_json(g).encode("utf-8"))
    assert digest.hexdigest() == CURRENT_CORPORA[(corpus, kind)], (
        f"extraction output changed on {corpus}: raise graphdata.EXTRACTOR_VERSION and "
        "pin the new digests under it"
    )
