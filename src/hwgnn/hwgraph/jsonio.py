"""Canonical JSON serialization of graphs.

Canonical form: nodes sorted by id, edges sorted by (src, dst), 2-space
indent, LF line endings, UTF-8, trailing newline.  Deserialization checks
the schema and reports violations by JSON-pointer path.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path

from ..errors import SchemaViolationError
from .graph import AST, DFG, GraphNode, HWGraph
from .source import read_text


_NODE = '    {\n      "id": %d,\n      "label": %s,\n      "name": %s\n    }'
_EDGE = '    {\n      "src": %d,\n      "dst": %d\n    }'


def _array(key: str, items: list[str]) -> str:
    if not items:
        return f'  "{key}": []'
    return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]"


def graph_to_json(g: HWGraph) -> str:
    """The canonical text: what ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` gives, written from fixed templates with each
    distinct string encoded once."""
    nodes = sorted(g.nodes, key=lambda n: n.id)
    text = {s: "null" if s is None else encode_basestring(s)
            for s in {n.label for n in nodes} | {n.name for n in nodes}}
    return "".join((
        '{\n  "design": ', encode_basestring(g.design_name),
        ',\n  "kind": ', encode_basestring(g.kind), ",\n",
        _array("nodes", [_NODE % (n.id, text[n.label], text[n.name]) for n in nodes]), ",\n",
        _array("edges", [_EDGE % (s, d) for s, d in sorted(g.edges)]), "\n}\n",
    ))


def _require(doc: dict, key: str, types, pointer: str):
    if key not in doc:
        raise SchemaViolationError(f"{pointer}/{key}", "missing required key")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaViolationError(f"{pointer}/{key}", f"wrong type {type(value).__name__}")
    return value


def graph_from_json(doc) -> HWGraph:
    """Parse a schema'd document (text, UTF-8 bytes without a BOM, or an
    already-decoded object); bytes in any other encoding are rejected, as
    ``read_graph`` rejects such a file."""
    if isinstance(doc, bytes):
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaViolationError(
                "", f"not valid JSON: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError("", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaViolationError("", "top level must be an object")
    extra = set(doc) - {"design", "kind", "nodes", "edges"}
    if extra:
        raise SchemaViolationError(f"/{sorted(extra)[0]}", "unknown key")

    design = _require(doc, "design", str, "")
    kind = _require(doc, "kind", str, "")
    if kind not in (AST, DFG):
        raise SchemaViolationError("/kind", f"must be 'AST' or 'DFG', got {kind!r}")
    raw_nodes = _require(doc, "nodes", list, "")
    raw_edges = _require(doc, "edges", list, "")

    nodes: list[GraphNode] = []
    for i, rec in enumerate(raw_nodes):
        ptr = f"/nodes/{i}"
        if not isinstance(rec, dict):
            raise SchemaViolationError(ptr, "node must be an object")
        if set(rec) - {"id", "label", "name"}:
            raise SchemaViolationError(ptr, "unknown key in node")
        nid = _require(rec, "id", int, ptr)
        label = _require(rec, "label", str, ptr)
        if nid != i:
            raise SchemaViolationError(f"{ptr}/id", f"ids must be dense and sorted; got {nid}")
        if not label:
            raise SchemaViolationError(f"{ptr}/label", "label must be nonempty")
        if "name" not in rec:
            raise SchemaViolationError(f"{ptr}/name", "missing required key")
        name = rec["name"]
        if name is not None and not isinstance(name, str):
            raise SchemaViolationError(f"{ptr}/name", "must be string or null")
        nodes.append(GraphNode(nid, label, name))

    edges: list[tuple[int, int]] = []
    for i, rec in enumerate(raw_edges):
        ptr = f"/edges/{i}"
        if not isinstance(rec, dict):
            raise SchemaViolationError(ptr, "edge must be an object")
        if set(rec) - {"src", "dst"}:
            raise SchemaViolationError(ptr, "unknown key in edge")
        src = _require(rec, "src", int, ptr)
        dst = _require(rec, "dst", int, ptr)
        for field, value in (("src", src), ("dst", dst)):
            if not 0 <= value < len(nodes):
                raise SchemaViolationError(f"{ptr}/{field}", f"node id {value} out of range")
        edges.append((src, dst))

    g = HWGraph(kind=kind, nodes=nodes, edges=edges, design_name=design)
    try:
        g.validate()
    except ValueError as exc:
        raise SchemaViolationError("/edges", str(exc)) from None
    return g


def write_graph(g: HWGraph, path: Path) -> None:
    path.write_text(graph_to_json(g), encoding="utf-8", newline="\n")


def read_graph(path: Path) -> HWGraph:
    return graph_from_json(read_text(path))
