"""Expected data-flow graph of a design, from its table of drivers.

This is the benchmark's own model of the DFG semantics that
``tests/test_dfg.py`` pins, written without any code of the program:

* every driven signal roots one fragment, the transitive closure of its
  driver expressions over the signals they read;
* inside a fragment each signal appears once, while every operation and
  constant occurrence is a node of its own, and an edge points from a
  value to what it depends on (parallel edges collapse);
* fragments merge by unifying signal nodes that share a hierarchical name;
  their operation and constant nodes stay distinct.

Input: ``{"kinds": {name: input|output|signal}, "drivers": {name: expr}}``
with ``expr`` one of ``["sig", name]``, ``["const", text]`` or
``[label, child, ...]``.
"""
from __future__ import annotations

from collections import Counter


def _reads(expr, out: set) -> set:
    if expr[0] == "sig":
        out.add(expr[1])
    elif expr[0] != "const":
        for child in expr[1:]:
            _reads(child, out)
    return out


def _expand(expr, labels: Counter) -> int:
    """Count the operation and constant nodes of one driver expression into
    ``labels``; return the number of edges leaving them."""
    if expr[0] == "sig":
        return 0
    if expr[0] == "const":
        labels["const"] += 1
        return 0
    labels[expr[0]] += 1
    children = expr[1:]
    sig_targets = {c[1] for c in children if c[0] == "sig"}
    edges = len(sig_targets) + sum(1 for c in children if c[0] != "sig")
    return edges + sum(_expand(c, labels) for c in children)


def expected_dfg(truth: dict) -> dict:
    """{"nodes": int, "edges": int, "labels": Counter} of the merged DFG."""
    kinds, drivers = truth["kinds"], truth["drivers"]
    reads = {s: _reads(e, set()) for s, e in drivers.items()}
    # per-signal contribution of one expansion: op/const labels and edges
    # out of them, plus the edge from the signal to its driver's root
    local = {}
    for s, e in drivers.items():
        labels: Counter = Counter()
        op_edges = _expand(e, labels)
        local[s] = (labels, op_edges + (0 if e[0] == "sig" else 1))
    labels: Counter = Counter()
    signals: set[str] = set()
    sig_edges: set[tuple[str, str]] = set()
    edges = 0
    for root in drivers:
        seen = {root}
        todo = [root]
        while todo:
            s = todo.pop()
            if s not in drivers:
                continue
            sub_labels, sub_edges = local[s]
            labels.update(sub_labels)
            edges += sub_edges
            if drivers[s][0] == "sig":
                sig_edges.add((s, drivers[s][1]))
            for t in reads[s]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        signals |= seen
    for s in signals:
        labels[kinds.get(s, "signal")] += 1
    return {"nodes": sum(labels.values()), "edges": edges + len(sig_edges), "labels": labels}
