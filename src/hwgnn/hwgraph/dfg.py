"""Data-flow graph construction.

The design is first elaborated: module instances are inlined with
hierarchical name prefixes, always blocks are lowered to one driving
expression per signal, and parameters become constant leaves.  Each driven
signal then gets a dependency fragment (edges point dependent -> dependency),
and the fragments are merged by unifying signal nodes that share a name.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import (
    ElaborationDepthError,
    EmptyGraphError,
    UnknownModuleError,
    UnknownSignalError,
    VerilogSyntaxError,
)
from .graph import DFG, GraphNode, HWGraph
from .parser import GATE_PRIMITIVES, TreeNode, deep_stack

# operation labels a DFG node may carry, beyond signal/const/input/output
DFG_OP_LABELS = frozenset(
    """
    And Or Xor Xnor Nand Nor Not Buf
    Plus Minus Times Divide Mod Power Sll Srl Sla Sra
    Eq NotEq Eql NotEql LessThan LessEq GreaterThan GreaterEq Land Lor
    Ulnot Unot Uminus Uplus Uand Unand Uor Unor Uxor Uxnor
    Concat Repeat Partselect Pointer Branch
    """.split()
)

DFG_LABELS = frozenset({"signal", "const", "input", "output"} | DFG_OP_LABELS)

_GATE_LABEL = {
    "and": "And",
    "or": "Or",
    "nand": "Nand",
    "nor": "Nor",
    "xor": "Xor",
    "xnor": "Xnor",
    "not": "Not",
    "buf": "Buf",
}

MAX_DEPTH = 32


@dataclass
class Elaborated:
    """Flattened single-scope view of the design."""

    kinds: dict[str, str] = field(default_factory=dict)  # name -> input|output|signal
    drivers: dict[str, TreeNode] = field(default_factory=dict)
    decl_order: list[str] = field(default_factory=list)

    def driven_order(self) -> list[str]:
        return [s for s in self.decl_order if s in self.drivers]


class _Scope:
    def __init__(self, prefix: str, params: set[str]):
        self.prefix = prefix
        self.params = params


class _Elaborator:
    def __init__(self, modules: dict[str, TreeNode]):
        self.modules = modules
        self.out = Elaborated()
        self.contribs: dict[str, list[TreeNode]] = {}

    # --- bookkeeping ---

    def declare(self, name: str, kind: str = "signal") -> None:
        if name not in self.out.kinds:
            self.out.kinds[name] = kind
            self.out.decl_order.append(name)
        elif kind != "signal" and self.out.kinds[name] == "signal":
            self.out.kinds[name] = kind

    def contribute(self, name: str, expr: TreeNode) -> None:
        self.declare(name)
        self.contribs.setdefault(name, []).append(expr)

    # --- expression scoping ---

    def convert(self, expr: TreeNode, scope: _Scope) -> TreeNode:
        if expr.label == "Identifier":
            assert expr.name is not None
            if expr.name in scope.params:
                return TreeNode("ParamRef", scope.prefix + expr.name)
            full = scope.prefix + expr.name
            self.declare(full)
            return TreeNode("Identifier", full)
        if expr.label in ("IntConst", "ParamRef"):
            return TreeNode(expr.label, expr.name)
        return TreeNode(expr.label, expr.name, [self.convert(c, scope) for c in expr.children])

    # --- assignment targets ---

    def assign_to(self, lvalue: TreeNode, rhs: TreeNode, scope: _Scope | None) -> None:
        """Record rhs as a driver contribution of the target signal(s).

        ``lvalue`` is scope-local when scope is given, already-converted
        otherwise.  A select with a non-constant index makes the index a
        dependency of the target as well.
        """
        conv = (lambda e: self.convert(e, scope)) if scope else (lambda e: e)
        if lvalue.label == "Identifier":
            assert lvalue.name is not None
            name = (scope.prefix + lvalue.name) if scope else lvalue.name
            self.declare(name)
            self.contribute(name, rhs)
            return
        if lvalue.label in ("Pointer", "Partselect"):
            indices = [conv(c) for c in lvalue.children[1:]]
            deps = [i for i in indices if i.label not in ("IntConst", "ParamRef")]
            self.assign_to(lvalue.children[0], TreeNode("Concat", None, [rhs] + deps) if deps else rhs, scope)
            return
        if lvalue.label == "Concat":
            for part in lvalue.children:
                self.assign_to(part, rhs, scope)
            return
        # instance actuals may be arbitrary expressions; only signal-shaped
        # targets can take a driver
        for child in lvalue.children:
            self.assign_to(child, rhs, scope)

    # --- always-block lowering ---

    def exec_stmt(self, stmt: TreeNode, env: dict[str, TreeNode], scope: _Scope) -> None:
        if stmt.label == "Block":
            for s in stmt.children:
                self.exec_stmt(s, env, scope)
        elif stmt.label in ("BlockingSubstitution", "NonblockingSubstitution"):
            lhs = stmt.children[0].children[0]
            rhs = stmt.children[1].children[0]
            self.env_assign(lhs, rhs, env)
        elif stmt.label == "IfStatement":
            self.exec_if(stmt.children[0], stmt.children[1],
                         stmt.children[2] if len(stmt.children) > 2 else None, env, scope)
        elif stmt.label in ("CaseStatement", "CasexStatement", "CasezStatement"):
            self.exec_stmt(self.desugar_case(stmt), env, scope)
        else:
            raise VerilogSyntaxError(f"statement {stmt.label} not lowerable to data flow")

    def env_assign(self, lvalue: TreeNode, rhs: TreeNode, env: dict[str, TreeNode]) -> None:
        if lvalue.label == "Identifier":
            assert lvalue.name is not None
            env[lvalue.name] = rhs
        elif lvalue.label in ("Pointer", "Partselect"):
            base = lvalue.children[0]
            indices = [c for c in lvalue.children[1:] if c.label != "IntConst"]
            value = TreeNode("Concat", None, [rhs] + indices) if indices else rhs
            # a partial update keeps the rest of the previous value live
            if base.label == "Identifier" and base.name in env:
                value = TreeNode("Concat", None, [env[base.name], value])
            self.env_assign(base, value, env)
        elif lvalue.label == "Concat":
            for part in lvalue.children:
                self.env_assign(part, rhs, env)

    def exec_if(
        self,
        cond: TreeNode,
        then_stmt: TreeNode,
        else_stmt: TreeNode | None,
        env: dict[str, TreeNode],
        scope: _Scope,
    ) -> None:
        then_env = dict(env)
        self.exec_stmt(then_stmt, then_env, scope)
        else_env = dict(env)
        if else_stmt is not None:
            self.exec_stmt(else_stmt, else_env, scope)
        changed = [
            k
            for k in list(then_env) + [k for k in else_env if k not in then_env]
            if then_env.get(k) is not env.get(k) or else_env.get(k) is not env.get(k)
        ]
        for k in changed:
            fallback = env.get(k, TreeNode("Identifier", k))
            tv = then_env.get(k, fallback)
            ev = else_env.get(k, fallback)
            env[k] = TreeNode("Cond", None, [cond, tv, ev])

    def desugar_case(self, stmt: TreeNode) -> TreeNode:
        comp = stmt.children[0]
        items = stmt.children[1:]
        default: TreeNode | None = None
        arms: list[tuple[TreeNode, TreeNode]] = []
        for item in items:
            *values, body = item.children
            if not values:
                default = body
                continue
            eqs = [TreeNode("Eq", None, [comp, v]) for v in values]
            cond = eqs[0]
            for e in eqs[1:]:
                cond = TreeNode("Lor", None, [cond, e])
            arms.append((cond, body))
        chain: TreeNode | None = default
        for cond, body in reversed(arms):
            kids = [cond, body] + ([chain] if chain is not None else [])
            chain = TreeNode("IfStatement", None, kids)
        return chain if chain is not None else TreeNode("Block", None, [])

    # --- module structure ---

    def module_ports(self, mod: TreeNode) -> list[tuple[str, str]]:
        """Formal port order with directions (input/output/inout)."""
        ports: list[tuple[str, str]] = []
        directions: dict[str, str] = {}
        for item in mod.children:
            if item.label == "Decl":
                for d in item.children:
                    if d.label in ("Input", "Output", "Inout"):
                        assert d.name is not None
                        directions[d.name] = d.label.lower()
        portlist = next(c for c in mod.children if c.label == "Portlist")
        for p in portlist.children:
            if p.label == "Ioport":
                head = p.children[0]
                assert head.name is not None
                ports.append((head.name, head.label.lower()))
            elif p.label == "Port":
                assert p.name is not None
                ports.append((p.name, directions.get(p.name, "inout")))
        return ports

    def elab_module(self, modname: str, prefix: str, depth: int, is_top: bool) -> None:
        if depth > MAX_DEPTH:
            raise ElaborationDepthError(
                f"instantiation nesting exceeds {MAX_DEPTH} at {prefix or modname}"
            )
        mod = self.modules.get(modname)
        if mod is None:
            raise UnknownModuleError(f"module {modname!r} is not defined in this design")

        params: set[str] = set()
        for item in mod.children:
            if item.label in ("Paramlist", "Decl"):
                for d in item.children:
                    if d.label == "Parameter":
                        assert d.name is not None
                        params.add(d.name)
        scope = _Scope(prefix, params)

        # declarations first, in port order then item order
        for pname, direction in self.module_ports(mod):
            if is_top:
                kind = {"input": "input", "output": "output", "inout": "signal"}[direction]
            else:
                kind = "signal"
            self.declare(prefix + pname, kind)
        for item in mod.children:
            if item.label == "Decl":
                for d in item.children:
                    if d.label in ("Wire", "Reg", "Input", "Output", "Inout"):
                        assert d.name is not None
                        if is_top and d.label in ("Input", "Output"):
                            self.declare(prefix + d.name, d.label.lower())
                        else:
                            self.declare(prefix + d.name)

        for item in mod.children:
            if item.label == "Assign":
                lhs = item.children[0].children[0]
                rhs = self.convert(item.children[1].children[0], scope)
                self.assign_to(lhs, rhs, scope)
            elif item.label == "Always":
                env: dict[str, TreeNode] = {}
                self.exec_stmt(item.children[1], env, scope)
                for target, expr in env.items():
                    self.assign_to(
                        TreeNode("Identifier", target), self.convert(expr, scope), scope
                    )
            elif item.label == "InstanceList":
                self.elab_instances(item, scope, depth)

    def elab_instances(self, item: TreeNode, scope: _Scope, depth: int) -> None:
        assert item.name is not None
        if item.name in GATE_PRIMITIVES:
            for inst in item.children:
                self.elab_gate(item.name, inst, scope)
            return
        for inst in item.children:
            assert inst.name is not None
            child_prefix = scope.prefix + inst.name + "."
            self.elab_module(item.name, child_prefix, depth + 1, is_top=False)
            self.bind_ports(item.name, inst, scope, child_prefix)

    def elab_gate(self, gate: str, inst: TreeNode, scope: _Scope) -> None:
        args = [a.children[0] for a in inst.children if a.children]
        if len(args) < 2:
            raise VerilogSyntaxError(f"gate {gate} needs at least 2 terminals")
        if gate in ("not", "buf"):
            outs, ins = args[:-1], args[-1:]
        else:
            outs, ins = args[:1], args[1:]
        for out in outs:
            expr = TreeNode(
                "_Gate", gate, [self.convert(i, scope) for i in ins]
            )
            self.assign_to(out, expr, scope)

    def bind_ports(self, modname: str, inst: TreeNode, scope: _Scope, child_prefix: str) -> None:
        formals = self.module_ports(self.modules[modname])
        args = inst.children
        named = any(a.name is not None for a in args)
        if named and not all(a.name is not None or not a.children for a in args):
            raise VerilogSyntaxError(
                f"instance {inst.name}: cannot mix positional and named connections"
            )
        bindings: list[tuple[str, str, TreeNode]] = []
        if named:
            dirmap = dict(formals)
            for a in args:
                if not a.children:
                    continue
                assert a.name is not None
                if a.name not in dirmap:
                    raise UnknownSignalError(
                        f"instance {inst.name}: module {modname} has no port {a.name!r}"
                    )
                bindings.append((a.name, dirmap[a.name], a.children[0]))
        else:
            if len(args) > len(formals):
                raise VerilogSyntaxError(
                    f"instance {inst.name}: {len(args)} connections for "
                    f"{len(formals)} ports of {modname}"
                )
            for (fname, direction), a in zip(formals, args):
                if a.children:
                    bindings.append((fname, direction, a.children[0]))
        for fname, direction, actual in bindings:
            formal_full = child_prefix + fname
            if direction in ("input", "inout"):
                self.contribute(formal_full, self.convert(actual, scope))
            if direction in ("output", "inout"):
                self.assign_to(actual, TreeNode("Identifier", formal_full), scope)

    def finish(self) -> Elaborated:
        for name, exprs in self.contribs.items():
            self.out.drivers[name] = (
                exprs[0] if len(exprs) == 1 else TreeNode("Concat", None, exprs)
            )
        return self.out


def collect_modules(tree: TreeNode) -> dict[str, TreeNode]:
    if tree.label == "ModuleDef":
        assert tree.name is not None
        return {tree.name: tree}
    return {m.name: m for m in tree.children if m.label == "ModuleDef" and m.name}


def elaborate(tree: TreeNode, top: str | None = None) -> Elaborated:
    """Inline the instance hierarchy under ``top`` and lower procedural
    blocks, leaving one driving expression per signal."""
    modules = collect_modules(tree)
    if top is None:
        if len(modules) != 1:
            raise UnknownModuleError("top module must be named for multi-module designs")
        top = next(iter(modules))
    if top not in modules:
        raise UnknownModuleError(f"module {top!r} is not defined in this design")
    elab = _Elaborator(modules)
    elab.elab_module(top, "", 0, is_top=True)
    return elab.finish()


def dfg_graph(tree: TreeNode, top: str | None = None, design_name: str = "") -> HWGraph:
    """Whole-design DFG: the union of one dependency fragment per driven
    signal, in declaration order.

    Each fragment is the closure of its signal's driver over the signals it
    reads; inside a fragment every signal appears once, while operation and
    constant nodes are fresh per occurrence.  Fragments share signal nodes
    by hierarchical name, and parallel edges collapse.  Node ids come out in
    DFS preorder from the fragment roots in order (successors in
    first-insertion order), edges sorted by (src, dst).
    """
    with deep_stack():
        elab = elaborate(tree, top)
    driven = elab.driven_order()
    if not driven:
        raise EmptyGraphError(
            f"design {design_name or top or '<unnamed>'} has no driven signals"
        )
    kinds, drivers = elab.kinds, elab.drivers
    labels: list[str] = []
    names: list[str | None] = []
    succ: list[list[int]] = []
    sig_ids: dict[str, int] = {}
    # edges into signal nodes; an edge into a fresh node cannot repeat
    sig_edges: set[tuple[int, int]] = set()

    def signal(name: str) -> int:
        nid = sig_ids.get(name)
        if nid is None:
            nid = sig_ids[name] = len(labels)
            labels.append(kinds.get(name, "signal"))
            names.append(name)
            succ.append([])
        return nid

    roots = [signal(s) for s in driven]
    for root, rid in zip(driven, roots):
        visited = {root: rid}
        stack: list[tuple[TreeNode, int]] = [(drivers[root], rid)]
        while stack:
            expr, dep = stack.pop()
            label = expr.label
            if label == "Identifier":
                nid = visited.get(expr.name)
                if nid is None:
                    nid = visited[expr.name] = signal(expr.name)
                    if expr.name in drivers:
                        stack.append((drivers[expr.name], nid))
                if (dep, nid) not in sig_edges:
                    sig_edges.add((dep, nid))
                    succ[dep].append(nid)
                continue
            nid = len(labels)
            if label in ("IntConst", "ParamRef"):
                labels.append("const")
                names.append(expr.name)
            else:
                if label == "_Gate":
                    label = _GATE_LABEL[expr.name]
                elif label == "Cond":
                    label = "Branch"
                if label not in DFG_OP_LABELS:
                    raise VerilogSyntaxError(f"expression {expr.label} has no dataflow lowering")
                labels.append(label)
                names.append(None)
                stack.extend([(c, nid) for c in reversed(expr.children)])
            succ.append([])
            succ[dep].append(nid)

    order: list[int] = []
    new_id = [-1] * len(labels)
    for rid in roots:
        pending = [rid]
        while pending:
            v = pending.pop()
            if new_id[v] < 0:
                new_id[v] = len(order)
                order.append(v)
                pending.extend(reversed(succ[v]))
    g = HWGraph(
        kind=DFG,
        nodes=list(map(GraphNode, range(len(order)), map(labels.__getitem__, order),
                       map(names.__getitem__, order))),
        edges=[(i, d) for i, v in enumerate(order) for d in sorted(map(new_id.__getitem__, succ[v]))],
        design_name=design_name,
    )
    g.validate()
    return g
