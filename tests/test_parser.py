"""Parser: tree shapes, operator handling, and rejection of the excluded
language constructs."""
import pytest

from hwgnn.errors import UnsupportedConstructError, VerilogSyntaxError
from hwgnn.hwgraph import parse_verilog


def parse(text):
    return parse_verilog(text)


def module_items(text):
    tree = parse(text)
    assert tree.label == "ModuleDef"
    return tree.children


def first_rvalue(text):
    """Expression tree of the first assign's right-hand side."""
    for item in module_items(text):
        if item.label == "Assign":
            return item.children[1].children[0]
    raise AssertionError("no assign found")


def expr(src):
    return first_rvalue(f"module m(output y);\n  assign y = {src};\nendmodule")


def flat(node):
    out = [node.label + ("" if node.name is None else f":{node.name}")]
    for c in node.children:
        out.extend(flat(c))
    return out


class TestModuleShapes:
    def test_single_module_root(self):
        tree = parse("module m();\nendmodule")
        assert tree.label == "ModuleDef"
        assert tree.name == "m"

    def test_multi_module_source_root(self):
        tree = parse("module a();\nendmodule\nmodule b();\nendmodule")
        assert tree.label == "Source"
        assert [c.name for c in tree.children] == ["a", "b"]

    def test_ansi_ports(self):
        tree = parse("module m(input a, output reg [3:0] q);\nendmodule")
        ports = [c for c in tree.children if c.label == "Portlist"][0]
        assert [c.label for c in ports.children] == ["Ioport", "Ioport"]
        assert ports.children[0].children[0].label == "Input"
        out = ports.children[1]
        assert [c.label for c in out.children] == ["Output", "Reg"]

    def test_ansi_direction_inherited_across_commas(self):
        tree = parse("module m(input a, b, output y);\nendmodule")
        ports = [c for c in tree.children if c.label == "Portlist"][0]
        dirs = [p.children[0].label for p in ports.children]
        assert dirs == ["Input", "Input", "Output"]
        assert [p.children[0].name for p in ports.children] == ["a", "b", "y"]

    def test_non_ansi_ports(self):
        items = module_items(
            "module m(a, y);\n  input a;\n  output y;\n  assign y = a;\nendmodule"
        )
        ports = [c for c in items if c.label == "Portlist"][0]
        assert [c.label for c in ports.children] == ["Port", "Port"]
        decls = [c for c in items if c.label == "Decl"]
        assert decls[0].children[0].label == "Input"
        assert decls[1].children[0].label == "Output"

    def test_parameter_header(self):
        tree = parse("module m #(parameter W = 8, D = 2) (input a);\nendmodule")
        pl = tree.children[0]
        assert pl.label == "Paramlist"
        assert [(c.label, c.name) for c in pl.children] == [
            ("Parameter", "W"),
            ("Parameter", "D"),
        ]

    def test_body_params(self):
        items = module_items(
            "module m();\n  parameter W = 4;\n  localparam [1:0] S = 3;\nendmodule"
        )
        params = [c.children[0] for c in items if c.label == "Decl"]
        assert all(p.label == "Parameter" for p in params)
        # value first, then the optional range
        assert params[1].children[0].label == "IntConst"
        assert params[1].children[1].label == "Width"

    def test_wire_with_initializer_becomes_assign(self):
        items = module_items("module m(input a);\n  wire w = ~a;\nendmodule")
        labels = [c.label for c in items]
        assert labels.count("Decl") == 1
        assert labels.count("Assign") == 1

    def test_supply_nets_become_const_assigns(self):
        items = module_items("module m();\n  supply0 gnd;\n  supply1 vdd;\nendmodule")
        assigns = [c for c in items if c.label == "Assign"]
        consts = [a.children[1].children[0].name for a in assigns]
        assert consts == ["1'b0", "1'b1"]

    def test_multi_assign_statement(self):
        items = module_items(
            "module m(input a, output x, y);\n  assign x = a, y = ~a;\nendmodule"
        )
        assert [c.label for c in items].count("Assign") == 2


BINOPS = [
    ("+", "Plus"), ("-", "Minus"), ("*", "Times"), ("/", "Divide"),
    ("%", "Mod"), ("**", "Power"), ("<<", "Sll"), (">>", "Srl"),
    ("<<<", "Sla"), (">>>", "Sra"), ("==", "Eq"), ("!=", "NotEq"),
    ("===", "Eql"), ("!==", "NotEql"), ("<", "LessThan"), ("<=", "LessEq"),
    (">", "GreaterThan"), (">=", "GreaterEq"), ("&", "And"), ("|", "Or"),
    ("^", "Xor"), ("~^", "Xnor"), ("^~", "Xnor"), ("&&", "Land"), ("||", "Lor"),
]

UNOPS = [
    ("!", "Ulnot"), ("~", "Unot"), ("-", "Uminus"), ("+", "Uplus"),
    ("&", "Uand"), ("~&", "Unand"), ("|", "Uor"), ("~|", "Unor"),
    ("^", "Uxor"), ("~^", "Uxnor"),
]


class TestExpressions:
    @pytest.mark.parametrize("op,label", BINOPS)
    def test_binary_ops(self, op, label):
        node = expr(f"a {op} b")
        assert node.label == label
        assert [c.label for c in node.children] == ["Identifier", "Identifier"]

    @pytest.mark.parametrize("op,label", UNOPS)
    def test_unary_ops(self, op, label):
        node = expr(f"{op}a")
        assert node.label == label
        assert len(node.children) == 1

    def test_precedence_and_before_or(self):
        assert flat(expr("a | b & c")) == [
            "Or", "Identifier:a", "And", "Identifier:b", "Identifier:c",
        ]

    def test_left_associativity(self):
        assert flat(expr("a - b - c")) == [
            "Minus", "Minus", "Identifier:a", "Identifier:b", "Identifier:c",
        ]

    def test_power_right_associative(self):
        assert flat(expr("a ** b ** c")) == [
            "Power", "Identifier:a", "Power", "Identifier:b", "Identifier:c",
        ]

    def test_parens_override(self):
        assert flat(expr("(a | b) & c")) == [
            "And", "Or", "Identifier:a", "Identifier:b", "Identifier:c",
        ]

    def test_ternary(self):
        assert flat(expr("s ? a : b")) == [
            "Cond", "Identifier:s", "Identifier:a", "Identifier:b",
        ]

    def test_nested_ternary_right_assoc(self):
        assert flat(expr("s ? a : t ? b : c"))[0:2] == ["Cond", "Identifier:s"]
        assert flat(expr("s ? a : t ? b : c")).count("Cond") == 2

    def test_concat(self):
        assert flat(expr("{a, b, 1'b0}")) == [
            "Concat", "Identifier:a", "Identifier:b", "IntConst:1'b0",
        ]

    def test_replication(self):
        # the replicated body is itself a concatenation, as written
        node = expr("{4{a}}")
        assert node.label == "Repeat"
        assert [c.label for c in node.children] == ["IntConst", "Concat"]
        assert node.children[1].children[0].name == "a"

    def test_bit_select(self):
        assert flat(expr("a[3]")) == ["Pointer", "Identifier:a", "IntConst:3"]

    def test_part_select(self):
        assert flat(expr("a[3:1]")) == [
            "Partselect", "Identifier:a", "IntConst:3", "IntConst:1",
        ]

    def test_select_of_select(self):
        assert flat(expr("a[7:4][1]"))[0] == "Pointer"

    @pytest.mark.parametrize(
        "lit", ["12", "4'b1010", "8'hff", "8'hFF", "3'o7", "16'd100", "'d9", "4'bx01z"]
    )
    def test_literals(self, lit):
        node = expr(lit)
        assert node.label == "IntConst"
        assert node.name == lit

    def test_based_literal_without_size(self):
        assert expr("'d9").name == "'d9"


class TestStatements:
    def test_always_posedge(self):
        items = module_items(
            "module m(input c, input d, output reg q);\n"
            "  always @(posedge c) q <= d;\nendmodule"
        )
        alw = [c for c in items if c.label == "Always"][0]
        sens = alw.children[0]
        assert sens.label == "SensList"
        assert sens.children[0].label == "Sens"
        assert sens.children[0].name == "posedge"
        assert alw.children[1].label == "NonblockingSubstitution"

    def test_sens_star_and_levels(self):
        text = ("module m(input a, b, output reg x, y);\n"
                "  always @(*) x = a;\n"
                "  always @(a or b) y = b;\nendmodule")
        alws = [c for c in module_items(text) if c.label == "Always"]
        assert alws[0].children[0].children[0].name == "all"
        assert [s.name for s in alws[1].children[0].children] == ["level", "level"]

    def test_blocking_vs_nonblocking(self):
        text = ("module m(input a, output reg x, y);\n"
                "  always @(a) begin x = a; y <= a; end\nendmodule")
        block = [c for c in module_items(text) if c.label == "Always"][0].children[1]
        assert block.label == "Block"
        assert [c.label for c in block.children] == [
            "BlockingSubstitution", "NonblockingSubstitution",
        ]

    def test_if_without_else(self):
        text = ("module m(input a, output reg q);\n"
                "  always @(a) if (a) q = 1'b1;\nendmodule")
        node = [c for c in module_items(text) if c.label == "Always"][0].children[1]
        assert node.label == "IfStatement"
        assert len(node.children) == 2  # condition, then-branch only

    @pytest.mark.parametrize("kw,label", [
        ("case", "CaseStatement"),
        ("casex", "CasexStatement"),
        ("casez", "CasezStatement"),
    ])
    def test_case_variants(self, kw, label):
        text = (f"module m(input [1:0] s, output reg q);\n"
                f"  always @(s) {kw} (s)\n"
                f"    2'd0, 2'd1: q = 1'b0;\n"
                f"    default: q = 1'b1;\n"
                f"  endcase\nendmodule")
        node = [c for c in module_items(text) if c.label == "Always"][0].children[1]
        assert node.label == label
        # subject + two items
        assert node.children[0].label == "Identifier"
        items = node.children[1:]
        assert all(i.label == "Case" for i in items)
        # first item: two match values then the statement
        assert [c.label for c in items[0].children] == [
            "IntConst", "IntConst", "BlockingSubstitution",
        ]
        # default: statement only
        assert len(items[1].children) == 1

    def test_named_block(self):
        text = ("module m(input a, output reg q);\n"
                "  always @(a) begin : body q = a; end\nendmodule")
        node = [c for c in module_items(text) if c.label == "Always"][0].children[1]
        assert node.label == "Block"
        assert node.name == "body"

    def test_concat_lvalue(self):
        text = "module m(input [1:0] d, output x, y);\n  assign {x, y} = d;\nendmodule"
        assign = [c for c in module_items(text) if c.label == "Assign"][0]
        assert assign.children[0].children[0].label == "Concat"

    def test_initial_block_parses(self):
        items = module_items(
            "module m();\n  reg r;\n  initial r = 1'b0;\nendmodule"
        )
        assert "Initial" in [c.label for c in items]


class TestInstances:
    def test_named_ports(self):
        text = ("module m(input a, output y);\n"
                "  sub u0(.i(a), .o(y), .nc());\nendmodule")
        inst_list = [c for c in module_items(text) if c.label == "InstanceList"][0]
        assert inst_list.name == "sub"
        inst = inst_list.children[0]
        assert inst.name == "u0"
        args = inst.children
        assert [a.name for a in args] == ["i", "o", "nc"]
        assert args[2].children == []  # unconnected

    def test_positional_ports(self):
        text = "module m(input a, output y);\n  sub u1(y, a);\nendmodule"
        inst = [c for c in module_items(text) if c.label == "InstanceList"][0].children[0]
        assert [a.name for a in inst.children] == [None, None]

    def test_gate_primitives_autonamed(self):
        text = ("module m(input a, b, output x, y);\n"
                "  and (x, a, b);\n  nor n1(y, a, b);\nendmodule")
        gates = [c for c in module_items(text) if c.label == "InstanceList"]
        assert [g.name for g in gates] == ["and", "nor"]
        assert gates[0].children[0].name.startswith("_gate")
        assert gates[1].children[0].name == "n1"

    def test_multiple_instances_one_statement(self):
        text = ("module m(input a, output x, y);\n"
                "  buf b0(x, a), b1(y, a);\nendmodule")
        gates = [c for c in module_items(text) if c.label == "InstanceList"][0]
        assert [i.name for i in gates.children] == ["b0", "b1"]


# Trees recorded before the parser's shared grammar helpers were merged:
# every shape below is parsed by a helper that more than one construct uses.
SHAPE_SNAPSHOTS = [
    ("module m #(parameter A = 1, B = 2, parameter [1:0] C = 3) ();\nendmodule",
     "ModuleDef:m(Paramlist(Parameter:A(IntConst:1), Parameter:B(IntConst:2), "
     "Parameter:C(IntConst:3, Width(IntConst:1, IntConst:0))), Portlist)"),
    ("module m #(parameter A = 1 parameter B = 2) ();\nendmodule",
     "ModuleDef:m(Paramlist(Parameter:A(IntConst:1), Parameter:B(IntConst:2)), Portlist)"),
    ("module m(output reg [3:0] q, r, input a);\nendmodule",
     "ModuleDef:m(Portlist(Ioport(Output:q(Width(IntConst:3, IntConst:0)), "
     "Reg:q(Width(IntConst:3, IntConst:0))), Ioport(Output:r(Width(IntConst:3, IntConst:0)), "
     "Reg:r(Width(IntConst:3, IntConst:0))), Ioport(Input:a)))"),
    ("module m(inout wire x, y);\n  assign {a, b[0]} = c, d = e;\nendmodule",
     "ModuleDef:m(Portlist(Ioport(Inout:x), Ioport(Inout:y)), "
     "Assign(Lvalue(Concat(Identifier:a, Pointer(Identifier:b, IntConst:0))), "
     "Rvalue(Identifier:c)), Assign(Lvalue(Identifier:d), Rvalue(Identifier:e)))"),
    ("module m(a, b);\n  input [3:0] a, b;\nendmodule",
     "ModuleDef:m(Portlist(Port:a, Port:b), Decl(Input:a(Width(IntConst:3, IntConst:0)), "
     "Input:b(Width(IntConst:3, IntConst:0))))"),
    ("module m(q);\n  output reg [1:0] q, r;\n  localparam [1:0] P = 1, Q = 2;\nendmodule",
     "ModuleDef:m(Portlist(Port:q), Decl(Output:q(Width(IntConst:1, IntConst:0)), "
     "Reg:q(Width(IntConst:1, IntConst:0)), Output:r(Width(IntConst:1, IntConst:0)), "
     "Reg:r(Width(IntConst:1, IntConst:0))), Decl(Parameter:P(IntConst:1, "
     "Width(IntConst:1, IntConst:0)), Parameter:Q(IntConst:2, Width(IntConst:1, IntConst:0))))"),
    ("module m;\n  wire [1:0] a = x, b;\nendmodule",
     "ModuleDef:m(Portlist, Decl(Wire:a(Width(IntConst:1, IntConst:0)), "
     "Wire:b(Width(IntConst:1, IntConst:0))), Assign(Lvalue(Identifier:a), Rvalue(Identifier:x)))"),
    ("module m;\n  supply1 v, w;\nendmodule",
     "ModuleDef:m(Portlist, Decl(Wire:v, Wire:w), Assign(Lvalue(Identifier:v), "
     "Rvalue(IntConst:1'b1)), Assign(Lvalue(Identifier:w), Rvalue(IntConst:1'b1)))"),
    ("module m;\n  and (y, a, b), g1(z, a);\n  or g2(w, a), (v, b);\nendmodule",
     "ModuleDef:m(Portlist, InstanceList:and(Instance:_gate0(PortArg(Identifier:y), "
     "PortArg(Identifier:a), PortArg(Identifier:b)), Instance:g1(PortArg(Identifier:z), "
     "PortArg(Identifier:a))), InstanceList:or(Instance:g2(PortArg(Identifier:w), "
     "PortArg(Identifier:a)), Instance:_gate1(PortArg(Identifier:v), PortArg(Identifier:b))))"),
    ("module m;\n  sub u(a, , b);\nendmodule",
     "ModuleDef:m(Portlist, InstanceList:sub(Instance:u(PortArg(Identifier:a), PortArg, "
     "PortArg(Identifier:b))))"),
    ("module m;\n  sub u(.p(), .q(x));\nendmodule",
     "ModuleDef:m(Portlist, InstanceList:sub(Instance:u(PortArg:p, PortArg:q(Identifier:x))))"),
    ("module m;\n  assign y = {2{a, b}};\nendmodule",
     "ModuleDef:m(Portlist, Assign(Lvalue(Identifier:y), Rvalue(Repeat(IntConst:2, "
     "Concat(Identifier:a, Identifier:b)))))"),
    ("module m;\n  always @(*) case (s) 0, 1: y = a; 2: y = b; default y = c; endcase\nendmodule",
     "ModuleDef:m(Portlist, Always(SensList(Sens:all), CaseStatement(Identifier:s, "
     "Case(IntConst:0, IntConst:1, BlockingSubstitution(Lvalue(Identifier:y), "
     "Rvalue(Identifier:a))), Case(IntConst:2, BlockingSubstitution(Lvalue(Identifier:y), "
     "Rvalue(Identifier:b))), Case(BlockingSubstitution(Lvalue(Identifier:y), "
     "Rvalue(Identifier:c))))))"),
]


@pytest.mark.parametrize("text, tree", SHAPE_SNAPSHOTS)
def test_shared_shape_snapshot(text, tree):
    assert repr(parse(text)) == tree


class TestErrors:
    @pytest.mark.parametrize("src,construct", [
        ("module m();\n  generate\n  endgenerate\nendmodule", "generate"),
        ("module m();\n  function f;\n  endfunction\nendmodule", "function"),
        ("module m();\n  task t;\n  endtask\nendmodule", "task"),
        ("module m();\n  integer i;\nendmodule", "integer"),
        ("module m();\n  real r;\nendmodule", "real"),
        ("module m(input a, output reg q);\n  always @(a) q = #1 a;\nendmodule",
         "delay control"),
        ("module m();\n  reg [7:0] mem [0:3];\nendmodule", "memory"),
        ("module m();\n  reg r = 1'b0;\nendmodule", "register initializer"),
        ("module m();\n  sub #(4) u(a);\nendmodule", "parameter value override"),
        ("module m(input a, output y);\n  sub u[3:0](y, a);\nendmodule",
         "instance array"),
        ("module m();\n  initial $display(1);\nendmodule", "system task"),
        ("module m();\n  always_ff @(posedge c) q <= d;\nendmodule", "always_ff"),
        ("module m(input a, output reg q);\n  always @(a) for (;;) q = a;\nendmodule",
         "for"),
        ('module m();\n  initial x = "str";\nendmodule', "string literal"),
    ])
    def test_unsupported_constructs(self, src, construct):
        with pytest.raises(UnsupportedConstructError) as err:
            parse(src)
        assert construct.split()[0] in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(VerilogSyntaxError) as err:
            parse("module m(input a;\nendmodule")
        assert err.value.line == 1
        assert err.value.col is not None

    def test_truncated_module(self):
        with pytest.raises(VerilogSyntaxError):
            parse("module m(input a);\n  assign")

    def test_garbage_token(self):
        with pytest.raises(VerilogSyntaxError):
            parse("module m();\n  assign y = a @@ b;\nendmodule")

    def test_error_names_offender(self):
        with pytest.raises(VerilogSyntaxError, match="found 'end'"):
            parse("module m();\n  wire w end")
