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
from pathlib import Path

import yaml

from . import graphdata, learnpipe
from .errors import ConfigError, HwgnnError, UnknownCircuitError
from .graph2vec import embed
from .hwgraph import AST, DFG, GLN, RTL, hw2graph, load_design_dir, write_graph
from .learnpipe import TrainConfig

CONFIG_HELP = """\
configuration file (YAML):
  corpus: DIR       corpus root laid out as <root>/<design>/*.v
  labels: FILE      label manifest (default <corpus>/labels.json); maps each
                    design to "Trojan"/"Non_Trojan", to a category string, or
                    to {label: ..., circuit: ..., category: ...}
  kind: ast|dfg     graph representation to extract (default dfg)
  abstraction: rtl|gln   source abstraction level (default rtl)
  top: NAME         top module override for single-design commands
  cache: DIR        encoded-tensor cache directory
  out: DIR          output directory (default .)
  checkpoint: FILE  model checkpoint to load (embed / infer commands)
  seed: N           RNG seed for splits and initialization (default 0)
  ratio: R          held-out test fraction for random splits (default 0.2)
  leave_out: NAME   hold out one base circuit instead of splitting randomly
  jobs: N           worker processes for `graph` (default: all cores)
  train:            training hyper-parameters
    epochs: N             passes over the training set (default 120)
    batch_size: N         graphs or pairs per step (default 8)
    lr: R                 learning rate (default 0.01)
    optimizer: adam|sgd   (default adam)
    pooling_ratio: R      top-k node fraction kept by pooling (default 0.5)
    margin: R             contrastive-loss margin (default 0.5)
    delta: R              similarity decision boundary (default 0.5)
    mini_test_interval: N validation cadence in steps (default 10)
    readout: sum|mean     graph-level reduction (default sum)
    conv_dims: [..]       convolution widths (default [64, 64])
    activation: relu|tanh|identity  (default relu)
    mlp_hidden: [..]      classifier hidden widths (default [32])
    directed_messages: true|false   (default false)

Unknown keys are rejected. Flags (--kind, --top, --seed, --cache, --out,
--leave-out) take precedence over file values.
"""

_TOP_KEYS = {
    "corpus", "labels", "kind", "abstraction", "top", "cache", "out",
    "checkpoint", "seed", "ratio", "leave_out", "jobs", "train",
}
_TRAIN_KEYS = {f.name for f in TrainConfig.__dataclass_fields__.values()}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    doc = yaml.safe_load(p.read_text(encoding="utf-8"))
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: config must be a mapping, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"{p}: unknown config keys: {', '.join(unknown)}")
    sub = doc.get("train", {})
    if not isinstance(sub, dict):
        raise ConfigError(f"{p}: 'train' must be a mapping")
    bad = sorted(set(sub) - _TRAIN_KEYS)
    if bad:
        raise ConfigError(f"{p}: unknown train keys: {', '.join(bad)}")
    return doc


def _integer(value, key: str, low: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


class Run:
    """Merged view of config file plus command-line overrides."""

    def __init__(self, args: argparse.Namespace):
        self.cfg = load_config(args.config)
        self.args = args
        # plain values are checked here, before any command reads a design
        self.seed = _integer(self._pick("seed", "seed", 0), "seed", 0)
        self.jobs = _integer(self.cfg.get("jobs", os.cpu_count() or 1), "jobs", 1)
        ratio = self.cfg.get("ratio", 0.2)
        if not isinstance(ratio, (int, float)) or isinstance(ratio, bool):
            raise ConfigError(f"ratio must be a number, got {ratio!r}")
        if not 0.0 < ratio < 1.0:
            raise ConfigError(f"ratio must be in (0, 1), got {ratio!r}")
        self.ratio = float(ratio)

    def _pick(self, flag: str, key: str, default):
        v = getattr(self.args, flag, None)
        if v is not None:
            return v
        return self.cfg.get(key, default)

    @property
    def kind(self) -> str:
        k = str(self._pick("kind", "kind", "dfg")).lower()
        if k not in ("ast", "dfg"):
            raise ConfigError(f"kind must be 'ast' or 'dfg', got {k!r}")
        return AST if k == "ast" else DFG

    @property
    def abstraction(self) -> str:
        a = str(self.cfg.get("abstraction", "rtl")).lower()
        if a not in ("rtl", "gln"):
            raise ConfigError(f"abstraction must be 'rtl' or 'gln', got {a!r}")
        return RTL if a == "rtl" else GLN

    @property
    def top(self) -> str | None:
        return self._pick("top", "top", None)

    @property
    def out(self) -> Path:
        return Path(self._pick("out", "out", "."))

    @property
    def cache(self) -> Path | None:
        c = self._pick("cache", "cache", None)
        return None if c is None else Path(c)

    @property
    def leave_out(self) -> str | None:
        return self._pick("leave_out", "leave_out", None)

    @property
    def corpus(self) -> Path:
        c = self.cfg.get("corpus")
        if c is None:
            raise ConfigError("config key 'corpus' is required for this command")
        p = Path(c)
        if not p.is_dir():
            raise ConfigError(f"corpus root is not a directory: {p}")
        return p

    @property
    def checkpoint(self) -> Path:
        c = self.cfg.get("checkpoint")
        if c is None:
            raise ConfigError("config key 'checkpoint' is required for this command")
        p = Path(c)
        if not p.is_file():
            raise ConfigError(f"checkpoint not found: {p}")
        return p

    def train_config(self) -> TrainConfig:
        sub = dict(self.cfg.get("train", {}))
        sub["seed"] = self.seed
        try:
            return TrainConfig(**sub)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad train config: {exc}") from None

    def manifest(self) -> dict[str, dict]:
        path = Path(self.cfg.get("labels", self.corpus / "labels.json"))
        if not path.is_file():
            raise ConfigError(f"label manifest not found: {path}")
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: manifest must map design names to labels")
        out: dict[str, dict] = {}
        for name, v in raw.items():
            if isinstance(v, str):
                # bare string doubles as class label and as pair category
                out[name] = {"label": v, "category": v}
            elif isinstance(v, dict):
                out[name] = v
            else:
                raise ConfigError(f"{path}: entry {name!r} must be a string or mapping")
        return out


def _design_dirs(root: Path) -> list[Path]:
    return sorted(p for p in root.iterdir() if p.is_dir())


def _labeled_designs(run: Run, key: str):
    """Corpus design dirs, the checked manifest, and each design's `key` field."""
    designs = _design_dirs(run.corpus)
    manifest = run.manifest()
    _check_manifest(manifest, [p.name for p in designs])
    values = {}
    for p in designs:
        if manifest[p.name].get(key) is None:
            raise ConfigError(f"manifest entry for {p.name!r} lacks a {key!r} field")
        values[p.name] = manifest[p.name][key]
    return designs, manifest, values


def _check_manifest(manifest: dict, designs: list[str]) -> None:
    """Every corpus design labeled, every label backed by a design."""
    missing = sorted(set(designs) - set(manifest))
    orphans = sorted(set(manifest) - set(designs))
    problems = []
    if missing:
        problems.append(f"designs without manifest entry: {', '.join(missing)}")
    if orphans:
        problems.append(f"manifest entries without design dir: {', '.join(orphans)}")
    if problems:
        raise ConfigError("; ".join(problems))


# --- graph extraction (shared by every command) ---

def _extract_one(path: Path, kind: str, abstraction: str, top: str | None):
    design = load_design_dir(path, abstraction)
    return hw2graph(design, kind, top=top, design_name=path.name)


def _graph_worker(task: tuple) -> tuple:
    path_str, kind, abstraction, top, out_dir = task
    path = Path(path_str)
    started = time.perf_counter()
    try:
        g = _extract_one(path, kind, abstraction, top)
        out = Path(out_dir) / f"{path.name}.{kind.lower()}.json"
        write_graph(g, out)
        return (path.name, g.num_nodes, g.num_edges, time.perf_counter() - started, None)
    except Exception as exc:  # worker boundary: report, do not crash the pool
        return (path.name, 0, 0, time.perf_counter() - started, f"{type(exc).__name__}: {exc}")


def _input_paths(run: Run) -> list[Path]:
    paths = [Path(p) for p in run.args.inputs]
    if not paths and run.cfg.get("corpus"):
        paths = _design_dirs(run.corpus)
    if not paths:
        raise ConfigError("no input design directories (give paths or set 'corpus')")
    return paths


def cmd_graph(run: Run) -> int:
    inputs = _input_paths(run)
    out_dir = run.out
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(str(p), run.kind, run.abstraction, run.top, str(out_dir)) for p in inputs]
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

def _encode(run: Run, g, vocab, label=None):
    if run.cache is not None:
        return graphdata.encode_cached(g, vocab, run.cache, label=label)
    return graphdata.encode(g, vocab, label=label)


def _normalized(run: Run, path: Path):
    return graphdata.normalize(_extract_one(path, run.kind, run.abstraction, run.top))


def _encode_corpus(run: Run, designs: list[Path], labels: dict | None = None):
    """Extract, normalize, and one-hot encode every design; returns
    (tensors by design name, vocab)."""
    graphs = {p.name: _normalized(run, p) for p in designs}
    vocab = graphdata.build_vocab(list(graphs.values()))
    tensors = {
        name: _encode(run, g, vocab, labels.get(name) if labels else None)
        for name, g in graphs.items()
    }
    return tensors, vocab


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
        learnpipe.report_to_json(report), encoding="utf-8"
    )
    print(f"checkpoint: {out / 'model.ckpt'}")
    print(f"vocabulary: {out / 'vocab.txt'}")
    print(f"report:     {out / 'report.json'}")


def cmd_train_ht(run: Run) -> int:
    cfg = run.train_config()
    designs, manifest, labels = _labeled_designs(run, "label")
    part = _split_ids(run, sorted(p.name for p in designs), manifest)
    tensors, vocab = _encode_corpus(run, designs, labels)
    ckpt = learnpipe.train_graph_classifier(
        [tensors[i] for i in part.train],
        [tensors[i] for i in part.test],
        cfg,
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
    cfg = run.train_config()
    designs, manifest, category_of = _labeled_designs(run, "category")
    part = _split_ids(run, sorted(p.name for p in designs), manifest)
    tensors, vocab = _encode_corpus(run, designs)
    train_pairs = graphdata.make_pairs(part.train, category_of)
    test_pairs = graphdata.make_pairs(part.test, category_of)
    ckpt = learnpipe.train_pair_model(
        train_pairs, test_pairs, tensors, cfg, vocab_fingerprint=vocab.fingerprint
    )
    report = learnpipe.evaluate_pairs(ckpt.model, test_pairs, tensors, cfg.delta)
    _save_artifacts(run, ckpt, vocab, report)
    print(
        f"test: accuracy={report.accuracy:.4f} f1={report.f1:.4f} "
        f"({len(test_pairs)} pairs, delta={cfg.delta})"
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


def _encode_inputs(run: Run, paths: list[Path], vocab):
    return [_encode(run, _normalized(run, p), vocab) for p in paths]


def cmd_embed(run: Run) -> int:
    model, vocab = _load_model_and_vocab(run)
    paths = _input_paths(run)
    tensors = _encode_inputs(run, paths, vocab)
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
            t = _encode_inputs(run, [p], vocab)[0]
            print(f"{p.name}\t{learnpipe.predict_ht(model, t)}")
        except HwgnnError as exc:
            failures += 1
            print(f"error: {p.name}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_infer_ip(run: Run) -> int:
    delta = run.train_config().delta
    model, vocab = _load_model_and_vocab(run)
    a, b = Path(run.args.design_a), Path(run.args.design_b)
    ta, tb = _encode_inputs(run, [a, b], vocab)
    sim = learnpipe.pair_similarity_value(model, ta, tb)
    verdict = learnpipe.PIRACY if sim > delta else learnpipe.NON_PIRACY
    print(f"{a.name}\t{b.name}\tsimilarity={sim:.6f}\tverdict={verdict}")
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
        p.add_argument("--kind", choices=["ast", "dfg"], help="graph representation")
        p.add_argument("--top", help="top module override")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--cache", help="encoded-tensor cache directory")
        p.add_argument("--out", help="output directory")
        p.add_argument("--leave-out", dest="leave_out", metavar="CIRCUIT",
                       help="hold out one base circuit (training commands)")
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
