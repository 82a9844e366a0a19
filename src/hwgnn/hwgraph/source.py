"""Source preprocessing: flattening a design's files into one code string."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import (
    AmbiguousTopModuleError,
    DuplicateModuleError,
    EmptySourceError,
    NoTopModuleError,
    UndecodableFileError,
    UnresolvedIncludeError,
)

_INCLUDE_RE = re.compile(r'`include\s*"([^"]+)"')
# compiler directives we drop wholesale (to end of line)
_DIRECTIVE_RE = re.compile(
    r"`(?:timescale|define|undef|ifdef|ifndef|else|elsif|endif|default_nettype|"
    r"celldefine|endcelldefine|resetall|unconnected_drive|nounconnected_drive)\b[^\n]*"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


@dataclass
class SourceUnit:
    """One hardware design: an ordered set of Verilog files, behavioral or
    a gate-level netlist; both go through the same front end."""

    files: list[tuple[Path, str]]


@dataclass
class FlatDesign:
    """A design flattened to a single code string.

    ``module_counts`` maps each declared module name to the number of times
    that name appears as an identifier token in the flattened text; a module
    declared once and never instantiated has count 1; find_top_module reads
    the top module from these counts.
    """

    text: str
    module_counts: dict[str, int] = field(default_factory=dict)
    name: str = ""


# a string literal (an unclosed one runs to the end of the text), a line
# comment, a closed block comment (group 1) or an unclosed one
_COMMENT_RE = re.compile(r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)|//[^\n]*|(/\*.*?\*/)|/\*.*', re.S)


def _uncomment(m: re.Match[str]) -> str:
    if m.group(1):
        # keep newlines so diagnostics still point at real lines
        return "\n" * m.group(1).count("\n")
    return m.group() if m.group().startswith('"') else ""


def strip_comments(text: str) -> str:
    """Remove // line and /* block */ comments, preserving line numbers.

    Comment characters inside string literals are left alone.
    """
    return _COMMENT_RE.sub(_uncomment, text)


def _resolve_includes(
    text: str,
    by_name: dict[str, str],
    active: set[str],
    origin: str,
    covered: set[str],
) -> str:
    def sub(m: re.Match[str]) -> str:
        target = Path(m.group(1)).name
        if target not in by_name:
            raise UnresolvedIncludeError(
                f"`include \"{m.group(1)}\" in {origin}: no file named {target!r} in the design"
            )
        if target in active or target in covered:
            return ""  # in expansion already (cycle) or emitted earlier
        active.add(target)
        covered.add(target)
        expanded = _resolve_includes(by_name[target], by_name, active, target, covered)
        active.discard(target)
        return expanded

    return _INCLUDE_RE.sub(sub, text)


def _declared_modules(code: str) -> list[str]:
    return [m.group(1) for m in re.finditer(r"\bmodule\s+([A-Za-z_][A-Za-z0-9_$]*)", code)]


def flatten(design: SourceUnit, name: str = "") -> FlatDesign:
    """Join a design's files into one string: strip comments, resolve
    `include directives against the design's own file set, drop remaining
    compiler directives, and count module-name occurrences.

    Raises EmptySourceError when a file is empty after comment stripping or
    no module remains, DuplicateModuleError on a module declared twice,
    UnresolvedIncludeError when an include names a file outside the set.
    """
    if not design.files:
        raise EmptySourceError("design has no source files")

    stripped: dict[str, str] = {}
    order: list[str] = []
    for path, text in design.files:
        body = strip_comments(text)
        if not body.strip():
            raise EmptySourceError(f"{path}: empty after comment stripping")
        stripped[path.name] = body
        order.append(path.name)

    # each file's text lands in the output exactly once: either inlined at
    # its first `include site or, failing that, standalone in file order
    covered: set[str] = set()
    pieces: list[str] = []
    for fname in order:
        if fname in covered:
            continue
        covered.add(fname)
        pieces.append(_resolve_includes(stripped[fname], stripped, {fname}, fname, covered))
    code = "\n".join(pieces)
    code = _DIRECTIVE_RE.sub("", code)

    declared = _declared_modules(code)
    if not declared:
        raise EmptySourceError(f"design {name or '<unnamed>'} contains no module")
    seen: set[str] = set()
    for mod in declared:
        if mod in seen:
            raise DuplicateModuleError(f"module {mod!r} declared more than once")
        seen.add(mod)

    counts = {mod: 0 for mod in declared}
    for tok in _IDENT_RE.findall(code):
        if tok in counts:
            counts[tok] += 1

    return FlatDesign(text=code, module_counts=counts, name=name)


def find_top_module(flat: FlatDesign) -> str:
    """The module whose name appears exactly once: declared, never
    instantiated.  Raises when zero or several candidates qualify."""
    candidates = [m for m, c in flat.module_counts.items() if c == 1]
    if not candidates:
        raise NoTopModuleError(
            f"design {flat.name or '<unnamed>'}: every module is instantiated somewhere; "
            f"counts: {flat.module_counts}"
        )
    if len(candidates) > 1:
        raise AmbiguousTopModuleError(
            f"design {flat.name or '<unnamed>'}: multiple top candidates {sorted(candidates)}; "
            f"counts: {flat.module_counts}"
        )
    return candidates[0]


def read_text(path: Path) -> str:
    """The file's UTF-8 text; raises UndecodableFileError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_design_dir(root: Path) -> SourceUnit:
    """Read every .v file under ``root`` (sorted, recursive)."""
    root = Path(root)
    if not root.is_dir():
        raise EmptySourceError(f"design directory not found: {root}")
    files = [(p, read_text(p)) for p in sorted(root.rglob("*.v"))]
    return SourceUnit(files=files)
