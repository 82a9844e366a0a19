"""Seeded generator of Verilog design corpora with their expected data flow.

Every design is built from a small structural description (modules, ports,
assigns, always blocks, gate primitives, instances).  The generator renders
that description to Verilog and, separately, flattens it into a table of
drivers: for each hierarchical signal name, the expression that drives it,
written as nested lists ``["sig", name] | ["const", text] | [label, child...]``.
``walker.expected_dfg`` turns that table into the DFG the program should
extract.  The program itself only ever sees the ``.v`` files and
``labels.json``; the driver tables go to a separate ``truth`` directory.

Each base design gets a twin with every identifier renamed and the module
items reordered, which leaves its data flow isomorphic to the base.

Regenerate a corpus with::

    python3 perfbench/gen.py --corpus extract --seed 1 --out /tmp/extract
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from walker import expected_dfg  # noqa: E402

BIN_OPS = {
    "And": "&", "Or": "|", "Xor": "^", "Plus": "+", "Minus": "-", "Eq": "==",
    "NotEq": "!=", "LessThan": "<", "GreaterEq": ">=", "Xnor": "~^",
    "Sll": "<<", "Times": "*", "Land": "&&", "Lor": "||",
}
UN_OPS = {"Unot": "~", "Ulnot": "!", "Uxor": "^", "Uand": "&", "Uor": "|", "Uminus": "-"}
GATES = {"and": "And", "or": "Or", "nand": "Nand", "nor": "Nor", "xor": "Xor",
         "xnor": "Xnor", "not": "Not", "buf": "Buf"}

# Operation sets per corpus.  The screening corpus keeps to the labels a
# checkpoint trained on the bundled Trojan corpus has in its vocabulary:
# And Branch Eq Or Plus Xor const input output signal.
FULL = {
    "bin": sorted(BIN_OPS),
    "un": sorted(UN_OPS),
    "gates": sorted(GATES),
    "selects": True,
}
SCREEN = {
    "bin": ["And", "Or", "Plus", "Xor", "Eq"],
    "un": [],
    "gates": ["and", "or", "xor"],
    "selects": False,
}

# families, bases per family, and the DFG node range of the size ladder
CORPORA = {
    "extract": {"families": ("chain", "hier", "gln"), "bases": 4, "lo": 200, "hi": 10000, "ops": FULL},
    "screen": {"families": ("chain", "hier", "gln"), "bases": 2, "lo": 1000, "hi": 9000, "ops": SCREEN},
}


# --- structural description ---

@dataclass
class Module:
    name: str
    ports: list  # (direction, width, name)
    decls: list = field(default_factory=list)  # (kind, width, name)
    items: list = field(default_factory=list)


@dataclass
class Design:
    name: str
    modules: dict  # name -> Module; the top module is named like the design
    top: str


class Namer:
    """Identity for a base design, a consistent renaming for its twin."""

    def __init__(self, rng: random.Random | None):
        self.rng = rng
        self.map: dict[str, str] = {}

    def __call__(self, name: str) -> str:
        if self.rng is None:
            return name
        if name not in self.map:
            self.map[name] = f"q{len(self.map)}_{self.rng.randrange(1000):03d}"
        return self.map[name]


def render_expr(e, r) -> str:
    tag = e[0]
    if tag == "sig":
        return r(e[1])
    if tag == "const":
        return e[1]
    if tag == "Pointer":
        return f"{r(e[1][1])}[{e[2][1]}]"
    if tag == "Partselect":
        return f"{r(e[1][1])}[{e[2][1]}:{e[3][1]}]"
    if tag == "Concat":
        return "{" + ", ".join(render_expr(c, r) for c in e[1:]) + "}"
    if tag == "Branch":
        return f"({render_expr(e[1], r)} ? {render_expr(e[2], r)} : {render_expr(e[3], r)})"
    if tag in UN_OPS:
        return f"({UN_OPS[tag]}{render_expr(e[1], r)})"
    return f"({render_expr(e[1], r)} {BIN_OPS[tag]} {render_expr(e[2], r)})"


def render_stmt(s, reg: str, r, indent: str) -> list[str]:
    tag = s[0]
    if tag == "set":
        return [f"{indent}{r(reg)} <= {render_expr(s[1], r)};"]
    if tag == "if":
        out = [f"{indent}if ({render_expr(s[1], r)})"] + render_stmt(s[2], reg, r, indent + "  ")
        if s[3] is not None:
            out += [f"{indent}else"] + render_stmt(s[3], reg, r, indent + "  ")
        return out
    # case
    out = [f"{indent}case ({render_expr(s[1], r)})"]
    for value, body in s[2]:
        out += [f"{indent}  {value}:"] + render_stmt(body, reg, r, indent + "    ")
    if s[3] is not None:
        out += [f"{indent}  default:"] + render_stmt(s[3], reg, r, indent + "    ")
    return out + [f"{indent}endcase"]


def render_item(item, r) -> list[str]:
    tag = item[0]
    if tag == "assign":
        return [f"  assign {r(item[1])} = {render_expr(item[2], r)};"]
    if tag == "always":
        _, clk, reg, body = item
        return ([f"  always @(posedge {r(clk)}) begin"]
                + render_stmt(body, reg, r, "    ") + ["  end"])
    if tag == "gate":
        _, gtype, inst, outs, ins = item
        return [f"  {gtype} {r(inst)}({', '.join(r(t) for t in outs + ins)});"]
    _, mod, inst, named, conns = item
    if named:
        args = ", ".join(f".{r(f)}({render_expr(a, r)})" for f, a in conns)
    else:
        args = ", ".join(render_expr(a, r) for _, a in conns)
    return [f"  {r(mod)} {r(inst)}({args});"]


def render(design: Design, r, order_rng: random.Random | None) -> str:
    lines: list[str] = []
    for mod in design.modules.values():
        ports = ",\n".join(f"  {d} {w}{r(n)}" for d, w, n in mod.ports)
        lines.append(f"module {r(mod.name)}(\n{ports}\n);")
        decls = [f"  {k} {w}{r(n)};" for k, w, n in mod.decls]
        items = [render_item(it, r) for it in mod.items]
        if order_rng is not None:
            order_rng.shuffle(decls)
            order_rng.shuffle(items)
        lines += decls
        for chunk in items:
            lines += chunk
        lines.append("endmodule")
        lines.append("")
    return "\n".join(lines)


# --- flattening to the driver table ---

def _conv(e, prefix: str, r):
    if e[0] == "sig":
        return ["sig", prefix + r(e[1])]
    if e[0] == "const":
        return list(e)
    return [e[0]] + [_conv(c, prefix, r) for c in e[1:]]


def _lower(s, reg: str, prefix: str, r):
    tag = s[0]
    if tag == "set":
        return _conv(s[1], prefix, r)
    if tag == "if":
        other = (["sig", prefix + r(reg)] if s[3] is None else _lower(s[3], reg, prefix, r))
        return ["Branch", _conv(s[1], prefix, r), _lower(s[2], reg, prefix, r), other]
    # case: an if/else-if chain on equality with the selector
    chain = None if s[3] is None else _lower(s[3], reg, prefix, r)
    for value, body in reversed(s[2]):
        cond = ["Eq", _conv(s[1], prefix, r), ["const", value]]
        other = ["sig", prefix + r(reg)] if chain is None else chain
        chain = ["Branch", cond, _lower(body, reg, prefix, r), other]
    return chain


def flatten(design: Design, r) -> dict:
    """Hierarchical kinds and drivers of the whole design."""
    kinds: dict[str, str] = {}
    drivers: dict[str, list] = {}

    def elab(mod: Module, prefix: str, is_top: bool) -> None:
        for d, _, n in mod.ports:
            kinds[prefix + r(n)] = d if is_top else "signal"
        for _, _, n in mod.decls:
            kinds.setdefault(prefix + r(n), "signal")
        for item in mod.items:
            tag = item[0]
            if tag == "assign":
                drivers[prefix + r(item[1])] = _conv(item[2], prefix, r)
            elif tag == "always":
                drivers[prefix + r(item[2])] = _lower(item[3], item[2], prefix, r)
            elif tag == "gate":
                _, gtype, _, outs, ins = item
                for o in outs:
                    drivers[prefix + r(o)] = [GATES[gtype]] + [["sig", prefix + r(i)] for i in ins]
            else:
                _, modname, inst, _, conns = item
                child = design.modules[modname]
                cp = prefix + r(inst) + "."
                elab(child, cp, False)
                direction = {n: d for d, _, n in child.ports}
                for formal, actual in conns:
                    if direction[formal] == "input":
                        drivers[cp + r(formal)] = _conv(actual, prefix, r)
                    else:
                        drivers[prefix + r(actual[1])] = ["sig", cp + r(formal)]

    elab(design.modules[design.top], "", True)
    return {"kinds": kinds, "drivers": drivers}


# --- expression and design builders ---

class Exprs:
    def __init__(self, rng: random.Random, ops: dict):
        self.rng = rng
        self.ops = ops

    def const(self) -> list:
        return ["const", f"8'h{self.rng.randrange(256):02x}"]

    def leaf(self, sigs: list[str], vectors: list[str]) -> list:
        rng = self.rng
        x = rng.random()
        if x < 0.15:
            return self.const()
        if self.ops["selects"] and vectors and x < 0.25:
            v = rng.choice(vectors)
            if rng.random() < 0.5:
                return ["Pointer", ["sig", v], ["const", str(rng.randrange(8))]]
            return ["Partselect", ["sig", v], ["const", "7"], ["const", str(rng.randrange(4))]]
        return ["sig", rng.choice(sigs)]

    def expr(self, sigs: list[str], depth: int, vectors: list[str] = ()) -> list:
        rng = self.rng
        if depth <= 0:
            return self.leaf(sigs, list(vectors))
        x = rng.random()
        if self.ops["un"] and x < 0.1:
            return [rng.choice(self.ops["un"]), self.expr(sigs, depth - 1, vectors)]
        if x < 0.2:
            return ["Branch", self.expr(sigs, depth - 1, vectors),
                    self.expr(sigs, depth - 1, vectors), self.expr(sigs, depth - 1, vectors)]
        if self.ops["selects"] and x < 0.25:
            return ["Concat", self.expr(sigs, depth - 1, vectors), self.leaf(sigs, list(vectors))]
        return [rng.choice(self.ops["bin"]), self.expr(sigs, depth - 1, vectors),
                self.expr(sigs, depth - 1, vectors)]


def _always(ex: Exprs, reg: str, sigs: list[str], rng: random.Random):
    """One register: reset branch, then an enable, a case, or a plain update."""
    style = rng.randrange(3)
    if style == 0:
        body = ("set", ex.expr(sigs, 2))
    elif style == 1:
        body = ("if", ["sig", "en"], ("set", ex.expr(sigs, 2)), None)
    else:
        arms = [(f"2'd{v}", ("set", ex.expr(sigs, 1))) for v in range(rng.randrange(2, 4))]
        default = ("set", ex.expr(sigs, 1)) if rng.random() < 0.5 else None
        body = ("case", ["sig", "sel"], arms, default)
    return ("always", "clk", reg, ("if", ["sig", "rst"], ("set", ["const", "8'h00"]), body))


def chain_design(name: str, rng: random.Random, ops: dict, size: int) -> Design:
    """An HT-style datapath: a chain of ``size`` wires, each mixing the
    previous wire with a register, a key input, a constant, or an earlier
    wire; registers close the loop."""
    ex = Exprs(rng, ops)
    n_regs = rng.randrange(1, 4)
    regs = [f"st{i}" for i in range(n_regs)]
    wires = [f"m{i}" for i in range(size)]
    ports = [("input", "", "clk"), ("input", "", "rst"), ("input", "", "en"),
             ("input", "[1:0] ", "sel"), ("input", "[7:0] ", "din"),
             ("input", "[7:0] ", "key"), ("output", "[7:0] ", "dout")]
    mod = Module(name, ports)
    mod.decls = [("reg", "[7:0] ", g) for g in regs] + [("wire", "[7:0] ", w) for w in wires]
    prev = "din"
    vectors = ["din", "key"]
    for i, w in enumerate(wires):
        others = regs + ["key"] + wires[max(0, i - 6):max(0, i - 1)]
        rhs = [rng.choice(ops["bin"]), ["sig", prev], ex.expr(others, rng.randrange(0, 2), vectors)]
        mod.items.append(("assign", w, rhs))
        prev = w
    for g in regs:
        mod.items.append(_always(ex, g, [prev, "din", "key"] + regs, rng))
    if "Eq" in ops["bin"] and rng.random() < 0.5:
        # comparator trigger plus leak, as in the bundled Trojan designs
        mod.decls.append(("wire", "", "trig"))
        mod.items.append(("assign", "trig", ["Eq", ["sig", "din"], ex.const()]))
        out = ["Branch", ["sig", "trig"], ["Xor", ["sig", regs[0]], ex.const()], ["sig", regs[-1]]]
    else:
        out = [rng.choice(ops["bin"]), ["sig", regs[-1]], ["sig", prev]]
    mod.items.append(("assign", "dout", out))
    return Design(name, {name: mod}, name)


def hier_design(name: str, rng: random.Random, ops: dict, size: int) -> Design:
    """Three levels: ``size`` stages in a chain, each stage two or three
    cells; connections alternate between named and positional."""
    ex = Exprs(rng, ops)
    cell_name, stage_name = f"{name}_cell", f"{name}_stage"
    cell = Module(cell_name, [("input", "[7:0] ", "a"), ("input", "[7:0] ", "b"),
                              ("output", "[7:0] ", "y")])
    n_int = rng.randrange(2, 5)
    internal = [f"t{i}" for i in range(n_int)]
    cell.decls = [("wire", "[7:0] ", t) for t in internal]
    avail = ["a", "b"]
    for t in internal:
        cell.items.append(("assign", t, ex.expr(avail, rng.randrange(1, 3), ["a", "b"])))
        avail.append(t)
    cell.items.append(("assign", "y", [rng.choice(ops["bin"]), ["sig", internal[-1]],
                                       ["sig", rng.choice(avail[:-1])]]))

    n_cells = rng.randrange(2, 4)
    stage = Module(stage_name, [("input", "[7:0] ", "x"), ("input", "[7:0] ", "k"),
                                ("output", "[7:0] ", "z")])
    links = [f"l{i}" for i in range(n_cells - 1)]
    stage.decls = [("wire", "[7:0] ", w) for w in links]
    src = ["sig", "x"]
    for c in range(n_cells):
        dst = "z" if c == n_cells - 1 else links[c]
        b = ["sig", "k"] if rng.random() < 0.6 else [rng.choice(ops["bin"]), ["sig", "k"], ex.const()]
        stage.items.append(("inst", cell_name, f"c{c}", c % 2 == 0,
                            [("a", src), ("b", b), ("y", ["sig", dst])]))
        src = ["sig", dst]

    top = Module(name, [("input", "", "clk"), ("input", "", "rst"), ("input", "", "en"),
                        ("input", "[1:0] ", "sel"), ("input", "[7:0] ", "din"),
                        ("input", "[7:0] ", "key"), ("output", "[7:0] ", "dout")])
    outs = [f"o{i}" for i in range(size)]
    top.decls = [("wire", "[7:0] ", o) for o in outs] + [("reg", "[7:0] ", "acc")]
    src = ["sig", "din"]
    for s, o in enumerate(outs):
        k = ["sig", "key"] if s % 3 else ["sig", "acc"]
        top.items.append(("inst", stage_name, f"s{s}", s % 2 == 1,
                          [("x", src), ("k", k), ("z", ["sig", o])]))
        src = ["sig", o]
    top.items.append(_always(ex, "acc", [outs[-1], "din", "acc"], rng))
    top.items.append(("assign", "dout", ["Xor", ["sig", outs[-1]], ["sig", "acc"]]))
    return Design(name, {cell_name: cell, stage_name: stage, name: top}, name)


def gln_design(name: str, rng: random.Random, ops: dict, size: int) -> Design:
    """A gate-level netlist of ``size`` primitives in topological order, each
    reading nets from a window of recent ones."""
    n_in = rng.randrange(4, 9)
    inputs = [f"i{k}" for k in range(n_in)]
    nets = [f"n{k}" for k in range(size)]
    n_out = rng.randrange(1, 4)
    outputs = [f"y{k}" for k in range(n_out)]
    mod = Module(name, [("input", "", i) for i in inputs] + [("output", "", y) for y in outputs])
    mod.decls = [("wire", "", n) for n in nets]
    avail = list(inputs)
    for k, n in enumerate(nets):
        gtype = rng.choice(ops["gates"])
        window = avail[-10:]
        if gtype in ("not", "buf"):
            ins = [rng.choice(window)]
        else:
            ins = rng.sample(window, min(len(window), rng.randrange(2, 4)))
        mod.items.append(("gate", gtype, f"g{k}", [n], ins))
        avail.append(n)
    for k, y in enumerate(outputs):
        gtype = rng.choice([g for g in ops["gates"] if g not in ("not", "buf")])
        mod.items.append(("gate", gtype, f"go{k}", [y], [nets[-1 - k], rng.choice(nets)]))
    return Design(name, {name: mod}, name)


BUILDERS = {"chain": (chain_design, 20, 150), "hier": (hier_design, 3, 14),
            "gln": (gln_design, 30, 130)}


def _sized(family: str, name: str, seed_key: str, ops: dict, target: int) -> Design:
    """The design whose DFG node count is closest to ``target``, found by
    bisection on the builder's size parameter (structure fixed by the seed)."""
    build, smin, smax = BUILDERS[family]
    made: dict[int, tuple] = {}

    def attempt(size: int) -> int:
        if size not in made:
            design = build(name, random.Random(seed_key), ops, size)
            made[size] = (design, expected_dfg(flatten(design, Namer(None)))["nodes"])
        return made[size][1]

    lo, hi = 1, smin
    while attempt(hi) < target and hi < 8 * smax:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if attempt(mid) >= target:
            hi = mid
        else:
            lo = mid
    best = min((lo, hi), key=lambda z: abs(attempt(z) - target))
    return made[best][0]


def targets(corpus: str, seed: int) -> list[int]:
    """Node-count targets in design order: a fixed geometric ladder from lo
    to hi, each family taking every k-th rung, shuffled within the family by
    the seed.  Every seed thus asks for the same sizes of each family."""
    spec = CORPORA[corpus]
    k = len(spec["families"])
    n = k * spec["bases"]
    ladder = [round(spec["lo"] * (spec["hi"] / spec["lo"]) ** (i / (n - 1))) for i in range(n)]
    rng = random.Random(f"{corpus}/{seed}/targets")
    out: list[int] = []
    for f in range(k):
        rungs = ladder[f::k]
        rng.shuffle(rungs)
        out += rungs
    return out


def generate(corpus: str, seed: int, out: Path) -> dict:
    """Write ``out/designs/<name>/<name>.v``, ``out/designs/labels.json`` and
    ``out/truth/<name>.json``; returns {design name: truth document}."""
    spec = CORPORA[corpus]
    designs_dir, truth_dir = out / "designs", out / "truth"
    designs_dir.mkdir(parents=True, exist_ok=True)
    truth_dir.mkdir(parents=True, exist_ok=True)
    labels: dict[str, dict] = {}
    truths: dict[str, dict] = {}
    ladder = iter(targets(corpus, seed))
    for family in spec["families"]:
        for b in range(spec["bases"]):
            base = f"{family}{b:02d}"
            key = f"{corpus}/{seed}/{base}"
            design = _sized(family, base, key, spec["ops"], next(ladder))
            for twin in (0, 1):
                name = base if twin == 0 else f"{base}_twin"
                r = Namer(random.Random(key + "/rename") if twin else None)
                if twin:
                    r.map[base] = name  # the top module keeps the design's name
                text = render(design, r, random.Random(key + "/order") if twin else None)
                ddir = designs_dir / name
                ddir.mkdir(exist_ok=True)
                (ddir / f"{name}.v").write_text(text, encoding="utf-8")
                truth = flatten(design, r)
                truth.update({"design": name, "base": base, "family": family})
                truths[name] = truth
                (truth_dir / f"{name}.json").write_text(
                    json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
                labels[name] = {"category": base, "circuit": family}
    (designs_dir / "labels.json").write_text(
        json.dumps(labels, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return truths


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--corpus", choices=sorted(CORPORA), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    truths = generate(args.corpus, args.seed, args.out)
    for name, truth in truths.items():
        exp = expected_dfg(truth)
        print(f"{name}\t{exp['nodes']}\t{exp['edges']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
