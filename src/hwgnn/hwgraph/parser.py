"""Recursive-descent parser producing a concrete syntax tree.

Tree nodes carry Verilog grammar token names as labels; identifier and
literal leaves carry the source text in ``name``.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import UnsupportedConstructError, VerilogSyntaxError
from .lexer import UNSUPPORTED_KEYWORDS, Token, tokenize


@contextmanager
def deep_stack(limit: int = 10000):
    """Temporarily raise the interpreter recursion limit.

    Recursive descent burns roughly 15 frames per expression nesting level,
    so generated netlists with deeply parenthesized expressions need more
    headroom than the default.  The ceiling stays below the point where
    CPython's C stack overflows before RecursionError can fire."""
    old = sys.getrecursionlimit()
    if limit > old:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)

_BINOP = {
    "**": "Power",
    "*": "Times",
    "/": "Divide",
    "%": "Mod",
    "+": "Plus",
    "-": "Minus",
    "<<<": "Sla",
    "<<": "Sll",
    ">>>": "Sra",
    ">>": "Srl",
    "<": "LessThan",
    "<=": "LessEq",
    ">": "GreaterThan",
    ">=": "GreaterEq",
    "==": "Eq",
    "!=": "NotEq",
    "===": "Eql",
    "!==": "NotEql",
    "&": "And",
    "^": "Xor",
    "~^": "Xnor",
    "^~": "Xnor",
    "|": "Or",
    "&&": "Land",
    "||": "Lor",
}

_UNOP = {
    "+": "Uplus",
    "-": "Uminus",
    "!": "Ulnot",
    "~": "Unot",
    "&": "Uand",
    "~&": "Unand",
    "|": "Uor",
    "~|": "Unor",
    "^": "Uxor",
    "~^": "Uxnor",
    "^~": "Uxnor",
}

# loosest-binding first; all left-associative except ** (handled below)
_PRECEDENCE: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^", "~^", "^~"),
    ("&",),
    ("==", "!=", "===", "!=="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", "<<<", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
    ("**",),
]

GATE_PRIMITIVES = ("and", "or", "nand", "nor", "xor", "xnor", "not", "buf")

_STRUCTURAL_LABELS = frozenset(
    """
    Source ModuleDef Paramlist Portlist Port Ioport Input Output Inout
    Decl Wire Reg Parameter Width Assign Lvalue Rvalue Always SensList Sens
    Initial Block IfStatement CaseStatement CasexStatement CasezStatement Case
    BlockingSubstitution NonblockingSubstitution InstanceList Instance PortArg
    Identifier IntConst Cond Concat Repeat Partselect Pointer
    """.split()
)

AST_LABELS = frozenset(_STRUCTURAL_LABELS | set(_BINOP.values()) | set(_UNOP.values()))


@dataclass
class TreeNode:
    label: str
    name: str | None = None
    children: list["TreeNode"] = field(default_factory=list)

    def __repr__(self) -> str:  # compact form keeps test diffs readable
        head = self.label if self.name is None else f"{self.label}:{self.name}"
        if not self.children:
            return head
        return f"{head}({', '.join(repr(c) for c in self.children)})"


_DIRECTIONS = ("input", "output", "inout")


def _io_nodes(head: tuple[str, bool, TreeNode | None], names: list[str]) -> list[TreeNode]:
    """Per declared port name, its direction node and, when the head says
    ``reg``, its ``Reg`` node.  The nodes of one declaration share its ``Width``."""
    direction, is_reg, width = head
    nodes: list[TreeNode] = []
    for name in names:
        nodes.append(TreeNode(direction.capitalize(), name, [width] if width else []))
        if is_reg:
            nodes.append(TreeNode("Reg", name, [width] if width else []))
    return nodes


def _assignment(label: str, lhs: TreeNode, rhs: TreeNode) -> TreeNode:
    return TreeNode(
        label, None, [TreeNode("Lvalue", None, [lhs]), TreeNode("Rvalue", None, [rhs])]
    )


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.gate_counter = 0

    # --- token stream helpers ---

    def peek(self) -> Token:
        # advance() never steps past the closing EOF token
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def at(self, type_: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (value is None or tok.value == value)

    def accept(self, type_: str, value: str | None = None) -> Token | None:
        if self.at(type_, value):
            return self.advance()
        return None

    def expect(self, type_: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(type_, value):
            want = value if value is not None else type_
            raise VerilogSyntaxError(
                f"expected {want!r}, found {tok.value or tok.type!r}", tok.line, tok.col
            )
        return self.advance()

    def fail(self, msg: str) -> VerilogSyntaxError:
        tok = self.peek()
        return VerilogSyntaxError(msg, tok.line, tok.col)

    def unsupported(self, construct: str) -> UnsupportedConstructError:
        tok = self.peek()
        return UnsupportedConstructError(construct, tok.line, tok.col)

    def check_unsupported(self) -> None:
        tok = self.peek()
        if tok.type == "ID" and tok.value in UNSUPPORTED_KEYWORDS:
            construct = UNSUPPORTED_KEYWORDS[tok.value]
            if tok.value not in construct:
                construct = f"{construct} ({tok.value})"
            raise self.unsupported(construct)
        if tok.type == "SYSID":
            raise self.unsupported(f"system task/function ({tok.value})")

    def listed(self, item, *args) -> list:
        """``item {, item}``: one item, then one more after each comma."""
        items = [item(*args)]
        while self.accept("OP", ","):
            items.append(item(*args))
        return items

    def parse_name(self) -> str:
        return self.expect("ID").value

    # --- top level ---

    def parse_source(self) -> TreeNode:
        modules: list[TreeNode] = []
        while not self.at("EOF"):
            self.check_unsupported()
            if self.at("KW", "module"):
                modules.append(self.parse_module())
            else:
                tok = self.peek()
                raise VerilogSyntaxError(
                    f"expected module declaration, found {tok.value!r}", tok.line, tok.col
                )
        if not modules:
            raise VerilogSyntaxError("no module declaration found", 1, 1)
        if len(modules) == 1:
            return modules[0]
        return TreeNode("Source", None, modules)

    def parse_module(self) -> TreeNode:
        self.expect("KW", "module")
        name = self.expect("ID").value
        children = [self.parse_param_header()] if self.accept("OP", "#") else []
        children.append(self.parse_portlist())
        self.expect("OP", ";")
        while not self.at("KW", "endmodule"):
            if self.at("EOF"):
                raise self.fail("missing endmodule")
            children.extend(self.parse_module_item())
        self.expect("KW", "endmodule")
        return TreeNode("ModuleDef", name, children)

    def parse_param_header(self) -> TreeNode:
        self.expect("OP", "(")
        self.expect("KW", "parameter")
        params = self.parse_parameters(grouped=True)
        # a comma before the next ``parameter`` keyword is optional
        while self.accept("KW", "parameter"):
            params += self.parse_parameters(grouped=True)
        self.expect("OP", ")")
        return TreeNode("Paramlist", None, params)

    def parse_parameters(self, grouped: bool) -> list[TreeNode]:
        """``[range] name = value {, name = value}``.  In a ``#(...)`` header
        (grouped) a comma followed by ``parameter`` ends the group."""
        width = self.parse_width_opt()
        params: list[TreeNode] = []
        while True:
            name = self.expect("ID").value
            self.expect("OP", "=")
            kids = [self.parse_expression()] + ([width] if width else [])
            params.append(TreeNode("Parameter", name, kids))
            if not self.accept("OP", ",") or grouped and self.at("KW", "parameter"):
                return params

    def parse_port_head(self) -> tuple[str, bool, TreeNode | None]:
        """``direction [wire|reg] [range]``."""
        direction = self.advance().value
        is_reg = not self.accept("KW", "wire") and self.accept("KW", "reg") is not None
        return direction, is_reg, self.parse_width_opt()

    def parse_portlist(self) -> TreeNode:
        ports: list[TreeNode] = []
        if self.accept("OP", "("):
            if not self.at("OP", ")"):
                head = None  # an ANSI head carries over to the bare names after it
                while True:
                    if self.peek().value in _DIRECTIONS:
                        head = self.parse_port_head()
                    elif not self.at("ID"):
                        self.check_unsupported()
                        raise self.fail("malformed port list")
                    name = self.expect("ID").value
                    if head:
                        ports.append(TreeNode("Ioport", None, _io_nodes(head, [name])))
                    else:
                        ports.append(TreeNode("Port", name))
                    if not self.accept("OP", ","):
                        break
            self.expect("OP", ")")
        return TreeNode("Portlist", None, ports)

    # --- module items ---

    def parse_module_item(self) -> list[TreeNode]:
        self.check_unsupported()
        tok = self.peek()
        if tok.type == "KW":
            kw = tok.value
            if kw == "always":
                return [self.parse_always()]
            if kw == "initial":
                self.advance()
                return [TreeNode("Initial", None, [self.parse_statement()])]
            if kw in _DIRECTIONS:
                head = self.parse_port_head()
                items = [TreeNode("Decl", None, _io_nodes(head, self.listed(self.parse_name)))]
            elif kw in ("wire", "reg", "supply0", "supply1"):
                items = self.parse_net_decl()
            elif kw in ("parameter", "localparam"):
                self.advance()
                items = [TreeNode("Decl", None, self.parse_parameters(grouped=False))]
            elif kw == "assign":
                self.advance()
                if self.at("OP", "#"):
                    raise self.unsupported("delay control")
                items = self.listed(self.parse_assign)
            elif kw in GATE_PRIMITIVES:
                items = [self.parse_instances(gate=True)]
            else:
                raise self.fail(f"unexpected keyword {kw!r} at module level")
        elif tok.type == "ID":
            items = [self.parse_instances(gate=False)]
        elif self.accept("OP", ";"):
            return []
        elif tok.value == "#":
            raise self.unsupported("delay control")
        else:
            raise self.fail(f"unexpected token {tok.value!r} at module level")
        self.expect("OP", ";")
        return items

    def parse_width(self) -> TreeNode:
        self.expect("OP", "[")
        msb = self.parse_expression()
        self.expect("OP", ":")
        lsb = self.parse_expression()
        self.expect("OP", "]")
        return TreeNode("Width", None, [msb, lsb])

    def parse_width_opt(self) -> TreeNode | None:
        return self.parse_width() if self.at("OP", "[") else None

    def parse_net_decl(self) -> list[TreeNode]:
        """A net or reg declaration, then an ``Assign`` per initialised net
        and, for a supply net, one tying each net to its constant level."""
        kw = self.advance().value
        label = "Reg" if kw == "reg" else "Wire"
        width = self.parse_width_opt()
        inits: list[TreeNode] = []
        decls = self.listed(self.parse_net, label, width, inits)
        if kw in ("supply0", "supply1"):
            for d in decls:
                level = TreeNode("IntConst", "1'b0" if kw == "supply0" else "1'b1")
                inits.append(_assignment("Assign", TreeNode("Identifier", d.name), level))
        return [TreeNode("Decl", None, decls)] + inits

    def parse_net(self, label: str, width: TreeNode | None, inits: list[TreeNode]) -> TreeNode:
        name = self.expect("ID").value
        if self.at("OP", "["):
            raise self.unsupported("memory declaration")
        if self.accept("OP", "="):
            if label == "Reg":
                raise self.unsupported("register initializer")
            rhs = self.parse_expression()
            inits.append(_assignment("Assign", TreeNode("Identifier", name), rhs))
        return TreeNode(label, name, [width] if width else [])

    def parse_assign(self) -> TreeNode:
        lhs = self.parse_lvalue()
        self.expect("OP", "=")
        return _assignment("Assign", lhs, self.parse_expression())

    def parse_always(self) -> TreeNode:
        self.expect("KW", "always")
        if not self.at("OP", "@"):
            raise self.unsupported("always without event control")
        self.expect("OP", "@")
        senslist = self.parse_senslist()
        stmt = self.parse_statement()
        return TreeNode("Always", None, [senslist, stmt])

    def parse_senslist(self) -> TreeNode:
        if self.accept("OP", "*"):
            return TreeNode("SensList", None, [TreeNode("Sens", "all")])
        self.expect("OP", "(")
        items: list[TreeNode] = []
        if self.accept("OP", "*"):
            items.append(TreeNode("Sens", "all"))
        else:
            while True:
                edge = self.accept("KW", "posedge") or self.accept("KW", "negedge")
                kind = edge.value if edge else "level"
                items.append(TreeNode("Sens", kind, [self.parse_expression()]))
                if not (self.accept("KW", "or") or self.accept("OP", ",")):
                    break
        self.expect("OP", ")")
        return TreeNode("SensList", None, items)

    # --- statements ---

    def parse_statement(self) -> TreeNode:
        self.check_unsupported()
        tok = self.peek()
        if tok.type == "KW":
            if tok.value == "begin":
                return self.parse_block()
            if tok.value == "if":
                return self.parse_if()
            if tok.value in ("case", "casex", "casez"):
                return self.parse_case()
            raise self.fail(f"unexpected keyword {tok.value!r} in statement")
        if tok.value == "#":
            raise self.unsupported("delay control")
        if tok.value == "@":
            raise self.unsupported("event control")
        if self.accept("OP", ";"):
            return TreeNode("Block", None, [])
        return self.parse_substitution()

    def parse_block(self) -> TreeNode:
        self.expect("KW", "begin")
        name = self.expect("ID").value if self.accept("OP", ":") else None
        stmts: list[TreeNode] = []
        while not self.at("KW", "end"):
            if self.at("EOF"):
                raise self.fail("missing end")
            stmts.append(self.parse_statement())
        self.expect("KW", "end")
        return TreeNode("Block", name, stmts)

    def parse_if(self) -> TreeNode:
        self.expect("KW", "if")
        self.expect("OP", "(")
        cond = self.parse_expression()
        self.expect("OP", ")")
        then = self.parse_statement()
        kids = [cond, then]
        if self.accept("KW", "else"):
            kids.append(self.parse_statement())
        return TreeNode("IfStatement", None, kids)

    def parse_case(self) -> TreeNode:
        label = self.advance().value.capitalize() + "Statement"
        self.expect("OP", "(")
        comp = self.parse_expression()
        self.expect("OP", ")")
        items: list[TreeNode] = []
        while not self.at("KW", "endcase"):
            if self.at("EOF"):
                raise self.fail("missing endcase")
            if self.accept("KW", "default"):
                self.accept("OP", ":")
                conds = []
            else:
                conds = self.listed(self.parse_expression)
                self.expect("OP", ":")
            items.append(TreeNode("Case", None, conds + [self.parse_statement()]))
        self.expect("KW", "endcase")
        return TreeNode(label, None, [comp] + items)

    def parse_substitution(self) -> TreeNode:
        lhs = self.parse_lvalue()
        if self.accept("OP", "="):
            label = "BlockingSubstitution"
        elif self.accept("OP", "<="):
            label = "NonblockingSubstitution"
        else:
            raise self.fail("expected '=' or '<=' in assignment")
        if self.at("OP", "#"):
            raise self.unsupported("delay control")
        rhs = self.parse_expression()
        self.expect("OP", ";")
        return _assignment(label, lhs, rhs)

    def parse_lvalue(self) -> TreeNode:
        self.check_unsupported()
        if self.accept("OP", "{"):
            parts = self.listed(self.parse_lvalue)
            self.expect("OP", "}")
            return TreeNode("Concat", None, parts)
        if self.at("ID"):
            return self.parse_postfix(TreeNode("Identifier", self.advance().value))
        raise self.fail("invalid assignment target")

    # --- expressions ---

    def parse_expression(self) -> TreeNode:
        cond = self.parse_binary(0)
        if self.accept("OP", "?"):
            then = self.parse_expression()
            self.expect("OP", ":")
            other = self.parse_expression()
            return TreeNode("Cond", None, [cond, then, other])
        return cond

    def parse_binary(self, level: int) -> TreeNode:
        if level >= len(_PRECEDENCE):
            return self.parse_unary()
        ops = _PRECEDENCE[level]
        left = self.parse_binary(level + 1)
        while self.peek().type == "OP" and self.peek().value in ops:
            op = self.advance().value
            # exponentiation associates right; everything else left
            right = self.parse_binary(level if op == "**" else level + 1)
            left = TreeNode(_BINOP[op], None, [left, right])
        return left

    def parse_unary(self) -> TreeNode:
        tok = self.peek()
        if tok.type == "OP" and tok.value in _UNOP:
            self.advance()
            operand = self.parse_unary()
            return TreeNode(_UNOP[tok.value], None, [operand])
        return self.parse_primary()

    def parse_primary(self) -> TreeNode:
        self.check_unsupported()
        tok = self.peek()
        if tok.type == "NUMBER":
            self.advance()
            return TreeNode("IntConst", tok.value)
        if tok.type == "ID":
            self.advance()
            return self.parse_postfix(TreeNode("Identifier", tok.value))
        if tok.type == "STRING":
            raise self.unsupported("string literal")
        if self.accept("OP", "("):
            inner = self.parse_expression()
            self.expect("OP", ")")
            return self.parse_postfix(inner)
        if self.at("OP", "{"):
            return self.parse_concat()
        raise self.fail(f"unexpected token {tok.value or tok.type!r} in expression")

    def parse_postfix(self, base: TreeNode) -> TreeNode:
        while self.at("OP", "["):
            self.advance()
            first = self.parse_expression()
            if self.accept("OP", ":"):
                second = self.parse_expression()
                base = TreeNode("Partselect", None, [base, first, second])
            else:
                base = TreeNode("Pointer", None, [base, first])
            self.expect("OP", "]")
        return base

    def parse_concat(self) -> TreeNode:
        self.expect("OP", "{")
        first = self.parse_expression()
        if self.accept("OP", "{"):
            # replication: {times {expr, ...}}
            parts = self.listed(self.parse_expression)
            node = TreeNode("Repeat", None, [first, TreeNode("Concat", None, parts)])
            self.expect("OP", "}")
        else:
            node = TreeNode("Concat", None, [first])
            while self.accept("OP", ","):
                node.children.append(self.parse_expression())
        self.expect("OP", "}")
        return node

    # --- instantiation ---

    def parse_instances(self, gate: bool) -> TreeNode:
        """The instance list of a gate primitive or of a module."""
        kind = self.advance().value
        if not gate and self.at("OP", "#"):
            if self.tokens[self.pos + 1].value == "(":  # '#' is never the last token
                raise self.unsupported("parameter value override")
            raise self.unsupported("delay control")
        return TreeNode("InstanceList", kind, self.listed(self.parse_instance, gate))

    def parse_instance(self, gate: bool) -> TreeNode:
        if gate and self.at("OP", "#"):
            raise self.unsupported("delay control")
        if gate and not self.at("ID"):
            name = f"_gate{self.gate_counter}"
            self.gate_counter += 1
        else:
            name = self.expect("ID").value
        if self.at("OP", "["):
            raise self.unsupported("instance array")
        self.expect("OP", "(")
        args = [] if self.at("OP", ")") else self.listed(self.parse_port_arg, not gate)
        self.expect("OP", ")")
        return TreeNode("Instance", name, args)

    def parse_port_arg(self, named: bool) -> TreeNode:
        """A gate terminal (an expression) or a module port connection,
        which may also be empty or ``.name([expression])``."""
        if named and self.accept("OP", "."):
            name = self.expect("ID").value
            self.expect("OP", "(")
            kids = [] if self.at("OP", ")") else [self.parse_expression()]
            self.expect("OP", ")")
            return TreeNode("PortArg", name, kids)
        if named and (self.at("OP", ",") or self.at("OP", ")")):
            return TreeNode("PortArg", None, [])
        return TreeNode("PortArg", None, [self.parse_expression()])


def parse_verilog(source) -> TreeNode:
    """Parse flattened Verilog text into a tree.

    Accepts a FlatDesign or a plain string.  A single-module design parses
    to a ModuleDef root; several modules are wrapped in a Source node.
    """
    text = getattr(source, "text", source)
    with deep_stack():
        try:
            return _Parser(tokenize(text)).parse_source()
        except RecursionError:
            raise VerilogSyntaxError("expression nesting too deep") from None
