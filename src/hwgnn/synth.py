"""Deterministic generators for small Verilog corpora and random graphs.

Three families: a Trojan-detection corpus (clean designs plus designs
carrying a comparator-trigger/leak pattern), an IP-piracy corpus (base
circuits with renamed/reordered variants), and random assign-only modules
that come with their own expression trees so tests can rebuild the expected
data flow without going through the parser.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphdata import GraphTensors
from .hwgraph import DFG, GraphNode, HWGraph

# --- random assign-only modules (with ground-truth expression trees) ---

# (verilog operator, dataflow label, arity)
_EXPR_OPS = [
    ("&", "And", 2),
    ("|", "Or", 2),
    ("^", "Xor", 2),
    ("+", "Plus", 2),
    ("~", "Unot", 1),
]


@dataclass
class SynthModule:
    """A generated module plus its machine-readable description.

    ``drivers`` maps each driven signal to an expression tuple:
    ("sig", name) | ("const", text) | (op_label, child tuples...).
    ``decl_order`` lists every signal in declaration order.
    """

    name: str
    text: str
    inputs: list[str]
    outputs: list[str]
    wires: list[str]
    drivers: dict[str, tuple] = field(default_factory=dict)
    decl_order: list[str] = field(default_factory=list)


def _render_expr(expr: tuple) -> str:
    kind = expr[0]
    if kind == "sig":
        return expr[1]
    if kind == "const":
        return expr[1]
    op = next(o for o in _EXPR_OPS if o[1] == kind)
    if op[2] == 1:
        return f"(~{_render_expr(expr[1])})"
    return f"({_render_expr(expr[1])} {op[0]} {_render_expr(expr[2])})"


def random_assign_module(rng: np.random.Generator, max_signals: int = 15, name: str = "rnd") -> SynthModule:
    # up to 4 inputs leave a budget of at least 2, so one output can be drawn
    if max_signals < 6:
        raise ValueError("max_signals must be at least 6")
    n_inputs = int(rng.integers(2, 5))
    budget = max_signals - n_inputs
    n_outputs = int(rng.integers(1, min(4, budget)))
    n_wires = int(rng.integers(0, budget - n_outputs + 1))
    inputs = [f"a{i}" for i in range(n_inputs)]
    wires = [f"w{i}" for i in range(n_wires)]
    outputs = [f"y{i}" for i in range(n_outputs)]

    available = list(inputs)

    def gen_expr(depth: int) -> tuple:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return ("const", "1'b0" if rng.random() < 0.5 else "1'b1")
            return ("sig", available[int(rng.integers(0, len(available)))])
        op, label, arity = _EXPR_OPS[int(rng.integers(0, len(_EXPR_OPS)))]
        if arity == 1:
            return (label, gen_expr(depth - 1))
        return (label, gen_expr(depth - 1), gen_expr(depth - 1))

    drivers: dict[str, tuple] = {}
    for w in wires:
        drivers[w] = gen_expr(int(rng.integers(1, 4)))
        available.append(w)
    for y in outputs:
        drivers[y] = gen_expr(int(rng.integers(1, 4)))

    lines = [f"module {name}("]
    ports = [f"  input {a}," for a in inputs] + [f"  output {y}," for y in outputs]
    ports[-1] = ports[-1].rstrip(",")
    lines.extend(ports)
    lines.append(");")
    for w in wires:
        lines.append(f"  wire {w};")
    for sig in wires + outputs:
        lines.append(f"  assign {sig} = {_render_expr(drivers[sig])};")
    lines.append("endmodule")
    return SynthModule(
        name=name,
        text="\n".join(lines) + "\n",
        inputs=inputs,
        outputs=outputs,
        wires=wires,
        drivers=drivers,
        decl_order=inputs + outputs + wires,
    )


# --- Trojan-detection corpus ---

_HT_FAMILIES = ("alu", "uart", "fifo", "crc", "pwm", "lfsr")
_MIX_OPS = ("^", "&", "|", "+")


def _ht_design(rng: np.random.Generator, name: str, trojaned: bool) -> str:
    n_wires = int(rng.integers(2, 6))
    ops = [_MIX_OPS[int(rng.integers(0, len(_MIX_OPS)))] for _ in range(n_wires + 2)]
    lines = [
        f"module {name}(",
        "  input clk,",
        "  input rst,",
        "  input [7:0] din,",
        "  output [7:0] dout",
        ");",
        "  reg [7:0] state;",
    ]
    for i in range(n_wires):
        lines.append(f"  wire [7:0] m{i};")
    prev = "din"
    for i in range(n_wires):
        other = "state" if rng.random() < 0.5 else f"8'h{int(rng.integers(0, 256)):02x}"
        lines.append(f"  assign m{i} = {prev} {ops[i]} {other};")
        prev = f"m{i}"
    lines += [
        "  always @(posedge clk) begin",
        "    if (rst)",
        "      state <= 8'h00;",
        "    else",
        f"      state <= {prev} {ops[n_wires]} 8'h{int(rng.integers(1, 256)):02x};",
        "  end",
    ]
    if trojaned:
        magic = int(rng.integers(0, 256))
        leak = int(rng.integers(1, 256))
        lines += [
            "  wire trig;",
            f"  assign trig = (din == 8'h{magic:02x});",
            f"  assign dout = trig ? (state ^ 8'h{leak:02x}) : state;",
        ]
    else:
        lines.append(f"  assign dout = state {ops[n_wires + 1]} {prev};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def ht_corpus(root: Path, n_clean: int = 30, n_trojan: int = 30, seed: int = 7) -> dict:
    """Write <root>/<design>/<design>.v plus labels.json; returns manifest."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest: dict[str, dict] = {}
    specs = [("clean", False, i) for i in range(n_clean)] + [
        ("troj", True, n_clean + i) for i in range(n_trojan)
    ]
    for tag, trojaned, i in specs:
        family = _HT_FAMILIES[i % len(_HT_FAMILIES)]
        name = f"{tag}_{family}_{i:02d}"
        text = _ht_design(rng, name, trojaned)
        d = root / name
        d.mkdir(exist_ok=True)
        (d / f"{name}.v").write_text(text, encoding="utf-8")
        manifest[name] = {
            "label": "Trojan" if trojaned else "Non_Trojan",
            "circuit": family,
        }
    (root / "labels.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


# --- IP-piracy corpus ---

def _base_adder(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input a", "input b", "input cin", "output sum", "output cout"]
    sigs = ["t0", "t1", "t2"]
    stmts = [
        "wire t0; wire t1; wire t2;",
        "assign t0 = a ^ b;",
        "assign sum = t0 ^ cin;",
        "assign t1 = a & b;",
        "assign t2 = t0 & cin;",
        "assign cout = t1 | t2;",
    ]
    return ports, stmts, sigs


def _base_parity(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = [f"input d{i}" for i in range(6)] + ["output p"]
    sigs = ["x0", "x1", "x2", "x3"]
    stmts = [
        "wire x0; wire x1; wire x2; wire x3;",
        "assign x0 = d0 ^ d1;",
        "assign x1 = d2 ^ d3;",
        "assign x2 = d4 ^ d5;",
        "assign x3 = x0 ^ x1;",
        "assign p = x3 ^ x2;",
    ]
    return ports, stmts, sigs


def _base_mux(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input [3:0] d", "input s0", "input s1", "output y"]
    sigs = ["lo", "hi"]
    stmts = [
        "wire lo; wire hi;",
        "assign lo = s0 ? d[1] : d[0];",
        "assign hi = s0 ? d[3] : d[2];",
        "assign y = s1 ? hi : lo;",
    ]
    return ports, stmts, sigs


def _base_counter(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input clk", "input rst", "input en", "output [3:0] q"]
    sigs = ["cnt", "nxt"]
    stmts = [
        "reg [3:0] cnt;",
        "wire [3:0] nxt;",
        "assign nxt = cnt + 4'd1;",
        "always @(posedge clk) begin\n"
        "    if (rst)\n      cnt <= 4'd0;\n"
        "    else if (en)\n      cnt <= nxt;\n  end",
        "assign q = cnt;",
    ]
    return ports, stmts, sigs


def _base_shifter(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input clk", "input sin", "output [3:0] q"]
    sigs = ["sr"]
    stmts = [
        "reg [3:0] sr;",
        "always @(posedge clk) begin\n    sr <= {sr[2:0], sin};\n  end",
        "assign q = sr;",
    ]
    return ports, stmts, sigs


def _base_majority(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input a", "input b", "input c", "output m"]
    sigs = ["ab", "bc", "ca"]
    stmts = [
        "wire ab; wire bc; wire ca;",
        "assign ab = a & b;",
        "assign bc = b & c;",
        "assign ca = c & a;",
        "assign m = (ab | bc) | ca;",
    ]
    return ports, stmts, sigs


def _base_aoi_gln(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input a", "input b", "input c", "input d", "output z"]
    sigs = ["n1", "n2", "n3"]
    stmts = [
        "wire n1; wire n2; wire n3;",
        "and g1(n1, a, b);",
        "and g2(n2, c, d);",
        "or  g3(n3, n1, n2);",
        "not g4(z, n3);",
    ]
    return ports, stmts, sigs


def _base_xnm_gln(n: int) -> tuple[list[str], list[str], list[str]]:
    ports = ["input p", "input q", "input r", "output u", "output v"]
    sigs = ["k1", "k2"]
    stmts = [
        "wire k1; wire k2;",
        "xor g1(k1, p, q);",
        "nand g2(k2, q, r);",
        "xnor g3(u, k1, k2);",
        "nor g4(v, k1, r);",
    ]
    return ports, stmts, sigs


_IP_BASES = {
    "adder": _base_adder,
    "parity": _base_parity,
    "muxtree": _base_mux,
    "counter": _base_counter,
    "shifter": _base_shifter,
    "majority": _base_majority,
    "aoi_gln": _base_aoi_gln,
    "mixer_gln": _base_xnm_gln,
}


def _rename(text: str, mapping: dict[str, str]) -> str:
    for old, new in mapping.items():
        text = re.sub(rf"\b{re.escape(old)}\b", new, text)
    return text


def ip_corpus(root: Path, n_variants: int = 5, seed: int = 11) -> dict:
    """Eight structurally distinct bases, each emitted as ``n_variants``
    signal-renamed and statement-reordered copies; labels.json maps each
    design to its base circuit."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest: dict[str, dict] = {}
    for base_name, builder in _IP_BASES.items():
        ports, stmts, sigs = builder(0)
        for v in range(n_variants):
            name = f"ip_{base_name}_v{v}"
            mapping = {s: f"s{v}_{i}" for i, s in enumerate(sigs)} if v else {}
            decls = [s for s in stmts if s.startswith(("wire", "reg"))]
            rest = [s for s in stmts if not s.startswith(("wire", "reg"))]
            if v:
                rest = [rest[i] for i in rng.permutation(len(rest))]
            body = decls + rest
            text_lines = [f"module {name}(", "  " + ",\n  ".join(ports), ");"]
            text_lines += [f"  {_rename(s, mapping)}" for s in body]
            text_lines.append("endmodule")
            d = root / name
            d.mkdir(exist_ok=True)
            (d / f"{name}.v").write_text("\n".join(text_lines) + "\n", encoding="utf-8")
            manifest[name] = {"category": base_name}
    (root / "labels.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


# --- random graphs (tensors and graph objects) ---

def random_graph_tensors(
    rng: np.random.Generator,
    n_nodes: int,
    n_labels: int,
    avg_degree: float = 3.0,
    jitter: float = 0.0,
    graph_id: str = "random",
) -> GraphTensors:
    """One-hot node features with optional jitter plus a random edge list."""
    X = np.zeros((n_nodes, n_labels))
    cols = rng.integers(0, n_labels, size=n_nodes)
    X[np.arange(n_nodes), cols] = 1.0
    if jitter:
        X = X + rng.uniform(0.0, jitter, size=X.shape)
    # cap at the number of distinct non-self directed pairs
    n_edges = min(int(avg_degree * n_nodes / 2), n_nodes * (n_nodes - 1))
    edges: set[tuple[int, int]] = set()
    while len(edges) < n_edges:
        s, d = int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes))
        if s != d:
            edges.add((s, d))
    return GraphTensors(X=X, A=sorted(edges), graph_id=graph_id)


def random_hwgraph(rng: np.random.Generator, n_nodes: int | None = None) -> HWGraph:
    """A structurally valid random data-flow graph for round-trip tests."""
    labels = ["signal", "input", "output", "const", "And", "Or", "Xor", "Branch"]
    n = int(rng.integers(2, 30)) if n_nodes is None else n_nodes
    nodes = []
    for i in range(n):
        label = labels[int(rng.integers(0, len(labels)))]
        name = f"n{i}" if label in ("signal", "input", "output") else None
        nodes.append(GraphNode(i, label, name))
    edges: set[tuple[int, int]] = set()
    # self-loops are legal here, so the ceiling is n*n distinct pairs
    n_edges = min(int(rng.integers(1, 3 * n)), n * n)
    while len(edges) < n_edges:
        edges.add((int(rng.integers(0, n)), int(rng.integers(0, n))))
    return HWGraph(kind=DFG, nodes=nodes, edges=sorted(edges), design_name=f"rnd{n}")
