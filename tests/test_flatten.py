"""Source preprocessing: comment stripping, includes, top-module choice."""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comment_reference import strip_comments_reference
from hwgnn.errors import (
    AmbiguousTopModuleError,
    DuplicateModuleError,
    EmptySourceError,
    NoTopModuleError,
    UndecodableFileError,
    UnresolvedIncludeError,
)
from hwgnn.hwgraph import SourceUnit, find_top_module, flatten, load_design_dir


def unit(*texts: str) -> SourceUnit:
    return SourceUnit(files=[(Path(f"f{i}.v"), t) for i, t in enumerate(texts)])


MOD = "module top(input a, output y);\n  assign y = a;\nendmodule\n"


class TestStripComments:
    def test_line_comment_removed(self):
        flat = flatten(unit("module top(); // trailing words\nendmodule"))
        assert "trailing" not in flat.text

    def test_block_comment_removed_lines_kept(self):
        text = "module top();\n/* one\ntwo\nthree */endmodule\n"
        flat = flatten(unit(text))
        # the comment body is gone but its newlines remain
        assert "two" not in flat.text
        assert flat.text.count("\n") == text.count("\n")

    def test_comment_chars_inside_strings_survive(self):
        # string literals are rejected later by the lexer, but the stripper
        # must not eat their contents
        from hwgnn.hwgraph.source import strip_comments

        s = 'x = "no // comment /* here */";'
        assert strip_comments(s) == s

    def test_unterminated_block_comment_drops_rest(self):
        from hwgnn.hwgraph.source import strip_comments

        assert strip_comments("a /* never closed").strip() == "a"

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(['"', "\\", "/", "*", "\n", "a", " ", "//", "/*", "*/"]))
           .map("".join))
    def test_matches_the_reference_loop(self, text):
        from hwgnn.hwgraph.source import strip_comments

        assert strip_comments(text) == strip_comments_reference(text)


class TestFlatten:
    def test_single_file(self):
        flat = flatten(unit(MOD), name="d")
        assert flat.module_counts == {"top": 1}
        assert flat.name == "d"
        assert flat.top_module is None

    def test_files_joined_in_order(self):
        a = "module a();\nendmodule"
        b = "module b();\nendmodule"
        flat = flatten(unit(a, b))
        assert flat.text.index("module a") < flat.text.index("module b")

    def test_no_files(self):
        with pytest.raises(EmptySourceError):
            flatten(SourceUnit(files=[]))

    def test_comment_only_file(self):
        with pytest.raises(EmptySourceError, match="empty after comment stripping"):
            flatten(unit(MOD, "// nothing here\n/* or here */"))

    def test_no_modules(self):
        with pytest.raises(EmptySourceError, match="contains no module"):
            flatten(unit("wire w;\n"))

    def test_duplicate_module(self):
        with pytest.raises(DuplicateModuleError, match="'a'"):
            flatten(unit("module a();\nendmodule", "module a();\nendmodule"))

    def test_directives_stripped(self):
        flat = flatten(unit("`timescale 1ns/1ps\n`define W 8\n" + MOD))
        assert "timescale" not in flat.text
        assert "define" not in flat.text

    def test_counts_are_identifier_tokens(self):
        # "topper" must not bump the count of "top"
        text = "module top(output y);\n  wire topper;\n  assign y = topper;\nendmodule"
        flat = flatten(unit(text))
        assert flat.module_counts == {"top": 1}

    def test_instantiation_counted(self):
        leaf = "module leaf(input i, output o);\n  assign o = i;\nendmodule"
        top = ("module top(input a, output y);\n"
               "  leaf u0(.i(a), .o(y));\nendmodule")
        flat = flatten(unit(leaf, top))
        assert flat.module_counts == {"leaf": 2, "top": 1}


class TestIncludes:
    def test_included_file_not_concatenated_twice(self):
        inc = "module helper(input i, output o);\n  assign o = i;\nendmodule"
        main = '`include "inc.v"\nmodule top();\n  helper h(.i(1\'b0), .o());\nendmodule'
        design = SourceUnit(files=[(Path("inc.v"), inc), (Path("main.v"), main)])
        flat = flatten(design)
        assert flat.text.count("module helper") == 1
        assert flat.module_counts["helper"] == 2

    def test_missing_include(self):
        with pytest.raises(UnresolvedIncludeError, match="ghost.v"):
            flatten(unit('`include "ghost.v"\nmodule top();\nendmodule'))

    def test_include_cycle_terminates(self):
        a = '`include "f1.v"\nmodule a();\nendmodule'
        b = '`include "f0.v"\nmodule b();\nendmodule'
        flat = flatten(unit(a, b))
        assert flat.text.count("module a") == 1
        assert flat.text.count("module b") == 1

    def test_include_path_resolved_by_basename(self):
        inc = "module helper();\nendmodule"
        main = '`include "lib/inc.v"\nmodule top();\nendmodule'
        design = SourceUnit(files=[(Path("inc.v"), inc), (Path("main.v"), main)])
        assert "module helper" in flatten(design).text


class TestFindTop:
    def test_single_module_is_top(self):
        assert find_top_module(flatten(unit(MOD))) == "top"

    def test_hierarchy_top(self):
        leaf = "module leaf(input i, output o);\n  assign o = i;\nendmodule"
        mid = ("module mid(input i, output o);\n"
               "  leaf u(.i(i), .o(o));\nendmodule")
        top = ("module root(input i, output o);\n"
               "  mid u(.i(i), .o(o));\nendmodule")
        assert find_top_module(flatten(unit(leaf, mid, top))) == "root"

    def test_no_top(self):
        # mutual instantiation: every name appears twice
        a = "module a();\n  b u();\nendmodule"
        b = "module b();\n  a u();\nendmodule"
        with pytest.raises(NoTopModuleError, match="counts"):
            find_top_module(flatten(unit(a, b)))

    def test_ambiguous_top(self):
        a = "module a();\nendmodule"
        b = "module b();\nendmodule"
        with pytest.raises(AmbiguousTopModuleError, match=r"\['a', 'b'\]"):
            find_top_module(flatten(unit(a, b)))


class TestLoadDesignDir:
    def test_reads_sorted(self, tmp_path):
        (tmp_path / "b.v").write_text("module b();\nendmodule\n")
        (tmp_path / "a.v").write_text("module a();\nendmodule\n")
        design = load_design_dir(tmp_path)
        assert [p.name for p, _ in design.files] == ["a.v", "b.v"]

    def test_missing_dir(self, tmp_path):
        with pytest.raises(EmptySourceError, match="not found"):
            load_design_dir(tmp_path / "nope")

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        (tmp_path / "a.v").write_bytes(MOD.encode("ascii") + b"\xff")
        with pytest.raises(UndecodableFileError, match=r"a\.v: not UTF-8"):
            load_design_dir(tmp_path)
