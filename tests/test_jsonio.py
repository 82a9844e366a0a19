"""Canonical JSON serialization and schema checking."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ast_of, dfg_of
from hwgnn.errors import SchemaViolationError, UndecodableFileError
from hwgnn.hwgraph import (
    HWGraph,
    GraphNode,
    graph_from_json,
    graph_to_json,
    read_graph,
    write_graph,
)

PORTED_AND = """
module m(input a, input b, output c);
  assign c = a & b;
endmodule
"""

# written by hand from the serialization rules: nodes sorted by id, edges
# sorted by (src, dst), 2-space indent, trailing newline
GOLDEN = """\
{
  "design": "t",
  "kind": "DFG",
  "nodes": [
    {
      "id": 0,
      "label": "output",
      "name": "c"
    },
    {
      "id": 1,
      "label": "And",
      "name": null
    },
    {
      "id": 2,
      "label": "input",
      "name": "a"
    },
    {
      "id": 3,
      "label": "input",
      "name": "b"
    }
  ],
  "edges": [
    {
      "src": 0,
      "dst": 1
    },
    {
      "src": 1,
      "dst": 2
    },
    {
      "src": 1,
      "dst": 3
    }
  ]
}
"""


def tiny_dfg():
    return dfg_of(PORTED_AND)


class TestCanonicalForm:
    def test_golden_document(self):
        assert graph_to_json(tiny_dfg()) == GOLDEN

    def test_trailing_newline_and_lf_only(self):
        text = graph_to_json(ast_of(PORTED_AND))
        assert text.endswith("}\n")
        assert "\r" not in text

    def test_nodes_and_edges_come_out_sorted(self):
        g = HWGraph(
            kind="DFG",
            nodes=[GraphNode(0, "signal", "x"), GraphNode(1, "const", "1'b0")],
            edges=[(1, 0), (0, 1)],
        )
        doc = json.loads(graph_to_json(g))
        assert [e["src"] for e in doc["edges"]] == [0, 1]

    def test_identical_source_gives_identical_bytes(self):
        assert graph_to_json(dfg_of(PORTED_AND)) == graph_to_json(dfg_of(PORTED_AND))

    def test_unicode_names_survive(self):
        g = HWGraph(kind="DFG", nodes=[GraphNode(0, "signal", "sén")], edges=[])
        assert graph_from_json(graph_to_json(g)).nodes[0].name == "sén"


class TestRoundTrip:
    def test_object_round_trip_dfg(self):
        g = tiny_dfg()
        assert graph_from_json(graph_to_json(g)) == g

    def test_object_round_trip_ast(self):
        g = ast_of(PORTED_AND)
        assert graph_from_json(graph_to_json(g)) == g

    def test_text_round_trip_is_byte_exact(self):
        text = graph_to_json(tiny_dfg())
        assert graph_to_json(graph_from_json(text)) == text

    def test_accepts_decoded_object(self):
        g = tiny_dfg()
        assert graph_from_json(json.loads(graph_to_json(g))) == g

    def test_noncanonical_edge_order_normalizes(self):
        doc = json.loads(graph_to_json(tiny_dfg()))
        doc["edges"].reverse()
        assert graph_to_json(graph_from_json(doc)) == GOLDEN

    def test_file_round_trip(self, tmp_path):
        g = tiny_dfg()
        path = tmp_path / "g.json"
        write_graph(g, path)
        assert read_graph(path) == g
        assert path.read_bytes().endswith(b"}\n")

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(graph_to_json(tiny_dfg()).encode("utf-8") + b"\xff")
        with pytest.raises(UndecodableFileError, match=r"g\.json: not UTF-8"):
            read_graph(path)


def dumps_reference(g) -> str:
    """The canonical text as the stdlib's indenting encoder writes it."""
    doc = {
        "design": g.design_name,
        "kind": g.kind,
        "nodes": [{"id": n.id, "label": n.label, "name": n.name}
                  for n in sorted(g.nodes, key=lambda n: n.id)],
        "edges": [{"src": s, "dst": d} for s, d in sorted(g.edges)],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# quote, backslash, control characters, non-ASCII and U+2028, plus any text
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "名", "\u2028", "\U0001f600"])
STRINGS = st.one_of(TRICKY, st.lists(TRICKY, min_size=2, max_size=4).map("".join), st.text())


@st.composite
def graphs(draw):
    """Graphs with nodes and edges in any order, possibly empty."""
    n = draw(st.integers(min_value=0, max_value=12))
    ids = draw(st.permutations(range(n)))
    nodes = [GraphNode(i, draw(STRINGS.filter(bool)), draw(st.none() | STRINGS)) for i in ids]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=20)) if n else []
    return HWGraph(kind=draw(st.sampled_from(["AST", "DFG"])), nodes=nodes, edges=edges,
                   design_name=draw(STRINGS))


class TestWriterMatchesJsonDumps:
    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_random_graphs(self, g):
        assert graph_to_json(g) == dumps_reference(g)

    @pytest.mark.parametrize("nodes, edges", [
        ([], []),
        ([GraphNode(0, "signal", None)], []),
        ([GraphNode(0, "signal", "a")], [(0, 0)]),
        ([GraphNode(1, "const", "x\u2028\"\\"), GraphNode(0, "And", None)], [(1, 0), (0, 1)]),
    ])
    def test_edge_cases(self, nodes, edges):
        g = HWGraph(kind="DFG", nodes=nodes, edges=edges, design_name="d\x01")
        assert graph_to_json(g) == dumps_reference(g)


def violation(doc):
    with pytest.raises(SchemaViolationError) as exc:
        graph_from_json(doc)
    return exc.value


class TestSchemaViolations:
    def base(self):
        return json.loads(graph_to_json(tiny_dfg()))

    def test_invalid_json_text(self):
        err = violation("{not json")
        assert "not valid JSON" in str(err)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{", b'{"design": "\xff"}'])
    def test_bytes_that_are_not_utf8(self, blob):
        assert "not valid JSON" in str(violation(blob))

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_both_readers_reject_other_encodings(self, tmp_path, encoding):
        blob = graph_to_json(tiny_dfg()).encode(encoding)
        assert "not valid JSON" in str(violation(blob))
        path = tmp_path / "g.json"
        path.write_bytes(blob)
        with pytest.raises((SchemaViolationError, UndecodableFileError)):
            read_graph(path)

    def test_top_level_must_be_object(self):
        assert violation([1, 2]).pointer == ""

    def test_missing_kind(self):
        doc = self.base()
        del doc["kind"]
        assert violation(doc).pointer == "/kind"

    def test_bad_kind_value(self):
        doc = self.base()
        doc["kind"] = "CFG"
        assert violation(doc).pointer == "/kind"

    def test_unknown_top_level_key(self):
        doc = self.base()
        doc["extra"] = 1
        assert violation(doc).pointer == "/extra"

    def test_design_must_be_string(self):
        doc = self.base()
        doc["design"] = 7
        assert violation(doc).pointer == "/design"

    def test_node_ids_must_be_dense_and_sorted(self):
        doc = self.base()
        doc["nodes"][1]["id"] = 5
        assert violation(doc).pointer == "/nodes/1/id"

    def test_node_unknown_key(self):
        doc = self.base()
        doc["nodes"][0]["weight"] = 1.0
        assert violation(doc).pointer == "/nodes/0"

    def test_node_name_required_even_when_null(self):
        doc = self.base()
        del doc["nodes"][0]["name"]
        assert violation(doc).pointer == "/nodes/0/name"

    def test_node_name_type(self):
        doc = self.base()
        doc["nodes"][0]["name"] = 3
        assert violation(doc).pointer == "/nodes/0/name"

    def test_node_label_nonempty(self):
        doc = self.base()
        doc["nodes"][0]["label"] = ""
        assert violation(doc).pointer == "/nodes/0/label"

    def test_bool_is_not_an_id(self):
        doc = self.base()
        doc["nodes"][0]["id"] = False
        assert violation(doc).pointer == "/nodes/0/id"

    def test_edge_endpoint_out_of_range(self):
        doc = self.base()
        doc["edges"][0]["dst"] = 99
        assert violation(doc).pointer == "/edges/0/dst"

    def test_edge_field_type(self):
        doc = self.base()
        doc["edges"][0]["src"] = "0"
        assert violation(doc).pointer == "/edges/0/src"

    def test_edge_unknown_key(self):
        doc = self.base()
        doc["edges"][0]["w"] = 1
        assert violation(doc).pointer == "/edges/0"

    def test_ast_documents_must_be_trees(self):
        doc = {
            "design": "t",
            "kind": "AST",
            "nodes": [
                {"id": 0, "label": "ModuleDef", "name": "m"},
                {"id": 1, "label": "Portlist", "name": None},
            ],
            "edges": [],
        }
        err = violation(doc)
        assert err.pointer == "/edges"
