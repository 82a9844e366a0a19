"""Command-line front end.

Subcommands cover the three workflows (design embedding, Trojan
classification, piracy comparison) plus plain graph extraction.  One YAML
configuration file can drive everything; command-line flags override file
values.  Run ``hwgnn --help`` for the config schema.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import yaml

from . import graphdata, learnpipe, settings
from .errors import BadLabelError, ConfigError, HwgnnError, UnknownCircuitError
from .hwgraph import hw2graph, load_design_dir, write_graph
from .learnpipe import TrainConfig


def _config_help() -> str:
    """The ``--help`` epilog: one line per declared setting, then the keys
    under ``train:``, which is the last top-level key."""
    lines = ["configuration file (YAML):"]
    rows = [("  ", s) for s in settings.TOP.values()]
    for indent, s in rows + [("    ", s) for s in settings.TRAIN.values()]:
        left = f"{indent}{s.name}: {s.rule.meta}"
        shown = s.default if isinstance(s.default, str) else json.dumps(s.default)
        default = "" if s.default in (None, {}) else f" (default {shown})"
        if len(left) > 22:  # too wide for the column: help goes on its own line
            lines, left = lines + [left], ""
        lines.append(f"{left:<22}  {s.help}{default}")
    lines += [
        "",
        'A manifest maps each design to "Trojan"/"Non_Trojan", to a category',
        "string, or to {label: ..., circuit: ..., category: ...}. Unknown keys and",
        "bad values are rejected before any design is read; null unsets a key with no",
        "fixed default. Flags (--kind, --top, --seed, --cache, --out, --leave-out)",
        "take precedence over file values.",
    ]
    return "\n".join(lines) + "\n"


CONFIG_HELP = _config_help()


def load_config(path: str | None) -> dict:
    """The config file's mapping, every key checked against its declaration
    in ``settings``; raises ConfigError naming the first bad one."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = yaml.safe_load(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        # YAML's own messages span several lines; keep the error to one
        raise ConfigError(f"{p}: unreadable config: {' '.join(str(exc).split())}") from None
    if doc is None:
        doc = {}
    try:
        settings.check(settings.TOP, doc, "config")
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from None
    try:
        settings.check(settings.TRAIN, doc.get("train", {}), "train")
    except ValueError as exc:
        raise ConfigError(f"{p}: bad train config: {exc}") from None
    return doc


class Run:
    """Config file values with the command-line flags over them, checked
    and defaulted before any command reads a design."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        # flags share their names with the top-level keys they override
        flags = {k: getattr(args, k, None) for k in settings.TOP}
        given = {**load_config(args.config), **{k: v for k, v in flags.items() if v is not None}}
        try:
            self.cfg = settings.check(settings.TOP, given, "config")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        c = self.cfg
        self.seed, self.ratio = c["seed"], c["ratio"]
        self.top, self.leave_out = c["top"], c["leave_out"]
        self.jobs = c["jobs"] or os.cpu_count() or 1
        self.kind = c["kind"].upper()  # "ast"/"dfg" in any case name the AST/DFG constants
        self.out = Path(c["out"])
        self.cache = None if c["cache"] is None else Path(c["cache"])
        for key, p in (("out", self.out), ("cache", self.cache)):
            if p is not None and any(q.exists() and not q.is_dir() for q in (p, *p.parents)):
                raise ConfigError(f"{key} must name a directory, not a file: {p}")
        self.train = TrainConfig(**c["train"], seed=self.seed)

    def _path(self, key: str, exists, problem: str) -> Path:
        if self.cfg[key] is None:
            raise ConfigError(f"config key {key!r} is required for this command")
        p = Path(self.cfg[key])
        if not exists(p):
            raise ConfigError(f"{problem}: {p}")
        return p

    @property
    def corpus(self) -> Path:
        return self._path("corpus", Path.is_dir, "corpus root is not a directory")

    @property
    def checkpoint(self) -> Path:
        return self._path("checkpoint", Path.is_file, "checkpoint not found")


def _design_dirs(root: Path) -> list[Path]:
    return sorted(p for p in root.iterdir() if p.is_dir())


def _labeled_designs(run: Run, key: str):
    """Corpus design dirs, the manifest, and each design's ``key`` field;
    every manifest problem is a ConfigError raised before a design is read."""
    designs = _design_dirs(run.corpus)
    path = run.corpus / "labels.json" if run.cfg["labels"] is None else Path(run.cfg["labels"])
    if not path.is_file():
        raise ConfigError(f"label manifest not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable manifest: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: manifest must map design names to labels")
    manifest: dict[str, dict] = {}
    for name, v in raw.items():
        if isinstance(v, str):
            # bare string doubles as class label and as pair category
            manifest[name] = {"label": v, "category": v}
        elif isinstance(v, dict):
            manifest[name] = v
        else:
            raise ConfigError(f"{path}: entry {name!r} must be a string or mapping")
    names = [p.name for p in designs]
    problems = [f"{what}: {', '.join(found)}" for what, found in (
        ("designs without manifest entry", sorted(set(names) - set(manifest))),
        ("manifest entries without design dir", sorted(set(manifest) - set(names))),
    ) if found]
    if problems:
        raise ConfigError("; ".join(problems))
    values = {}
    for name in names:
        if manifest[name].get(key) is None:
            raise ConfigError(f"manifest entry for {name!r} lacks a {key!r} field")
        values[name] = manifest[name][key]
    return designs, manifest, values


# --- graph extraction (one path for every command) ---

def _name(path: Path) -> str:
    """A design's name: its directory's own name, also when the path is
    ``.`` or ends in ``..``."""
    return Path(path).resolve().name


def _extract(path: Path, kind: str, top: str | None, design=None):
    """The design's graph, named after its directory; reads the design's
    files unless the caller has read them already."""
    if design is None:
        design = load_design_dir(path)
    return hw2graph(design, kind, top=top, design_name=_name(path))


def _graph_worker(task: tuple) -> tuple:
    path_str, kind, top, out_dir = task
    path = Path(path_str)
    started = time.perf_counter()
    try:
        g = _extract(path, kind, top)
        out = Path(out_dir) / f"{g.design_name}.{kind.lower()}.json"
        write_graph(g, out)
        return (g.design_name, g.num_nodes, g.num_edges, time.perf_counter() - started, None)
    except Exception as exc:  # worker boundary: report, do not crash the pool
        return (_name(path), 0, 0, time.perf_counter() - started, f"{type(exc).__name__}: {exc}")


def _tensors(run: Run, paths: list[Path], vocab=None, labels=None):
    """Each design's tensors, in ``paths`` order, and the vocabulary.

    Designs are read and extracted one at a time in ``paths`` order, so the
    first failure raised is the first failing design.  With no ``vocab``
    (training) every design is extracted and normalized, the vocabulary is
    built from the graphs and then each one is encoded, so a cache hit skips
    only the encoding.  With a ``vocab`` a hit on the design's sources skips
    extraction too.  A miss encodes and stores the result."""
    labels = labels or {}

    def graph(p: Path, design):
        return graphdata.normalize(_extract(p, run.kind, run.top, design))

    def encoded(p: Path, design, vocab, g=None):
        key = None
        if run.cache is not None:
            key = graphdata.cache_key(p, design, run.kind, run.top, vocab)
            hit = graphdata.cache_get(run.cache, key)
            if hit is not None:
                hit.label = labels.get(_name(p))  # the stored label is its writer's
                return hit
        tensors = graphdata.encode(graph(p, design) if g is None else g, vocab,
                                   label=labels.get(_name(p)))
        if key is not None:
            graphdata.cache_put(run.cache, key, tensors)
        return tensors

    # a generator, so each design is read just before it is extracted
    designs = ((p, load_design_dir(p)) for p in paths)
    if vocab is not None:
        return [encoded(p, design, vocab) for p, design in designs], vocab
    extracted = [(p, design, graph(p, design)) for p, design in designs]
    vocab = graphdata.build_vocab([g for _, _, g in extracted])
    return [encoded(p, design, vocab, g) for p, design, g in extracted], vocab


def _input_paths(run: Run) -> list[Path]:
    """The command-line design directories, else the corpus's; two designs
    with one name are a ConfigError, since their outputs would collide."""
    paths = [Path(p) for p in run.args.inputs]
    if not paths and run.cfg["corpus"]:
        paths = _design_dirs(run.corpus)
    if not paths:
        raise ConfigError("no input design directories (give paths or set 'corpus')")
    dups = sorted(name for name, n in Counter(_name(p) for p in paths).items() if n > 1)
    if dups:
        raise ConfigError(f"duplicate design names: {', '.join(dups)}")
    return paths


def cmd_graph(run: Run) -> int:
    inputs = _input_paths(run)
    out_dir = run.out
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(str(p), run.kind, run.top, str(out_dir)) for p in inputs]
    if len(tasks) == 1 or run.jobs == 1:
        rows = [_graph_worker(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(run.jobs, len(tasks))
        ) as pool:
            rows = list(pool.map(_graph_worker, tasks))
    name_w = max(6, *(len(r[0]) for r in rows))
    print(f"{'design':<{name_w}}  {'nodes':>7}  {'edges':>7}  {'seconds':>8}")
    failures = []
    for name, nodes, edges, secs, err in rows:
        if err is None:
            print(f"{name:<{name_w}}  {nodes:>7}  {edges:>7}  {secs:>8.3f}")
        else:
            failures.append((name, err))
            print(f"{name:<{name_w}}  {'-':>7}  {'-':>7}  {secs:>8.3f}  FAILED")
    for name, err in failures:
        print(f"error: {name}: {err}", file=sys.stderr)
    return 1 if failures else 0


# --- dataset assembly for the learning commands ---

def _split_ids(run: Run, ids: list[str], manifest: dict) -> graphdata.DatasetSplit:
    if run.leave_out is not None:
        circuit_of = {}
        for name in ids:
            c = manifest[name].get("circuit")
            if c is None:
                raise ConfigError(
                    f"--leave-out needs a 'circuit' field for every design; "
                    f"{name!r} has none"
                )
            circuit_of[name] = c
        try:
            return graphdata.leave_one_circuit_out(ids, circuit_of, run.leave_out)
        except UnknownCircuitError as exc:
            raise ConfigError(str(exc)) from None
    return graphdata.split(ids, run.ratio, run.seed)


def _save_artifacts(run: Run, ckpt, vocab, report) -> None:
    out = run.out
    out.mkdir(parents=True, exist_ok=True)
    learnpipe.save_checkpoint(ckpt, out / "model.ckpt")
    graphdata.save_vocab(vocab, out / "vocab.txt")
    (out / "report.json").write_text(
        learnpipe.report_to_json(report, ckpt.training()), encoding="utf-8"
    )
    print(f"checkpoint: {out / 'model.ckpt'}")
    print(f"vocabulary: {out / 'vocab.txt'}")
    print(f"report:     {out / 'report.json'}")


def cmd_train_ht(run: Run) -> int:
    designs, manifest, labels = _labeled_designs(run, "label")
    for name, label in labels.items():
        try:
            learnpipe.is_trojan(label)
        except BadLabelError as exc:
            raise ConfigError(f"manifest entry for {name!r}: {exc}") from None
    part = _split_ids(run, sorted(p.name for p in designs), manifest)
    encoded, vocab = _tensors(run, designs, labels=labels)
    tensors = dict(zip((p.name for p in designs), encoded))
    ckpt = learnpipe.train_graph_classifier(
        [tensors[i] for i in part.train],
        [tensors[i] for i in part.test],
        run.train,
        vocab_fingerprint=vocab.fingerprint,
    )
    report = learnpipe.evaluate_classifier(ckpt.model, [tensors[i] for i in part.test])
    _save_artifacts(run, ckpt, vocab, report)
    print(
        f"test: precision={report.precision:.4f} recall={report.recall:.4f} "
        f"f1={report.f1:.4f} accuracy={report.accuracy:.4f}"
    )
    return 0


def cmd_train_ip(run: Run) -> int:
    designs, manifest, category_of = _labeled_designs(run, "category")
    part = _split_ids(run, sorted(p.name for p in designs), manifest)
    encoded, vocab = _tensors(run, designs)
    tensors = dict(zip((p.name for p in designs), encoded))
    train_pairs = graphdata.make_pairs(part.train, category_of)
    test_pairs = graphdata.make_pairs(part.test, category_of)
    ckpt = learnpipe.train_pair_model(
        train_pairs, test_pairs, tensors, run.train, vocab_fingerprint=vocab.fingerprint
    )
    report = learnpipe.evaluate_pairs(ckpt.model, test_pairs, tensors, run.train.delta)
    _save_artifacts(run, ckpt, vocab, report)
    print(
        f"test: accuracy={report.accuracy:.4f} f1={report.f1:.4f} "
        f"({len(test_pairs)} pairs, delta={run.train.delta})"
    )
    return 0


# --- inference commands ---

def _load_model_and_vocab(run: Run):
    vocab_path = run.checkpoint.parent / "vocab.txt"
    if not vocab_path.is_file():
        raise ConfigError(f"vocabulary file not found next to checkpoint: {vocab_path}")
    vocab = graphdata.load_vocab(vocab_path)
    ckpt = learnpipe.load_checkpoint(run.checkpoint, vocab_fingerprint=vocab.fingerprint)
    return ckpt.model, vocab


def cmd_embed(run: Run) -> int:
    model, vocab = _load_model_and_vocab(run)
    paths = _input_paths(run)
    tensors, _ = _tensors(run, paths, vocab)
    run.out.mkdir(parents=True, exist_ok=True)
    out = run.out / "embeddings.tsv"
    learnpipe.export_embeddings(model, tensors, out)
    print(f"wrote {len(tensors)} embeddings to {out}")
    return 0


def cmd_infer_ht(run: Run) -> int:
    model, vocab = _load_model_and_vocab(run)
    paths = _input_paths(run)
    failures = 0
    for p in paths:
        try:
            [t], _ = _tensors(run, [p], vocab)
            print(f"{t.graph_id}\t{learnpipe.predict_ht(model, t)}")
        except HwgnnError as exc:
            failures += 1
            print(f"error: {_name(p)}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_infer_ip(run: Run) -> int:
    model, vocab = _load_model_and_vocab(run)
    a, b = Path(run.args.design_a), Path(run.args.design_b)
    (ta, tb), _ = _tensors(run, [a, b], vocab)
    sim = learnpipe.pair_similarity_value(model, ta, tb)
    verdict = learnpipe.piracy_verdict(sim, run.train.delta)
    print(f"{ta.graph_id}\t{tb.graph_id}\tsimilarity={sim:.6f}\tverdict={verdict}")
    return 0


# --- argument parsing ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwgnn",
        description="Graph extraction and graph-network analysis of Verilog designs.",
        epilog=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, inputs: str | None = "*") -> None:
        p.add_argument("--config", help="YAML configuration file")
        for key in ("kind", "top", "seed", "cache", "out", "leave_out"):
            s = settings.TOP[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, metavar=s.rule.meta,
                           type=int if key == "seed" else str, help=s.help)
        if inputs:
            p.add_argument("inputs", nargs=inputs, metavar="DESIGN_DIR",
                           help="design directories (default: corpus from config)")

    p = sub.add_parser("graph", help="extract graphs to canonical JSON")
    common(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("embed", help="write embedding vectors for designs")
    common(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("train-ht", help="train the Trojan classifier")
    common(p, inputs=None)
    p.set_defaults(fn=cmd_train_ht)

    p = sub.add_parser("infer-ht", help="classify designs as Trojan / Non_Trojan")
    common(p)
    p.set_defaults(fn=cmd_infer_ht)

    p = sub.add_parser("train-ip", help="train the piracy similarity model")
    common(p, inputs=None)
    p.set_defaults(fn=cmd_train_ip)

    p = sub.add_parser("infer-ip", help="compare two designs for piracy")
    common(p, inputs=None)
    p.add_argument("design_a", metavar="DESIGN_A")
    p.add_argument("design_b", metavar="DESIGN_B")
    p.set_defaults(fn=cmd_infer_ip)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(Run(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HwgnnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
