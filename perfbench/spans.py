"""Per-module timing of the program, recorded from outside it.

``Tracer.install`` replaces each public function listed in ``SPANS`` by a
wrapper that adds the call's wall time to an in-memory total, in every
``hwgnn`` module that holds a reference to it; ``uninstall`` puts the
originals back.  Nothing is written until ``report``.

The ``graph`` command runs extraction in forked worker processes.  Its
worker function is wrapped too: a worker drops the totals it inherited at
fork time, records its own, and rewrites them to ``<dump_dir>/<pid>.json``
after every design, and ``report`` adds those files in.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name); two functions may share a span name
SPANS = [
    ("hwgnn.hwgraph.source", "flatten", "source.flatten"),
    ("hwgnn.hwgraph.parser", "parse_verilog", "parser.parse_verilog"),
    ("hwgnn.hwgraph.dfg", "elaborate", "dfg.elaborate"),
    ("hwgnn.hwgraph.dfg", "dfg_graph", "dfg.dfg_graph"),
    ("hwgnn.hwgraph.astgen", "ast_graph", "astgen.ast_graph"),
    ("hwgnn.hwgraph.jsonio", "graph_to_json", "jsonio.graph_to_json"),
    ("hwgnn.graphdata", "normalize", "graphdata.normalize"),
    ("hwgnn.graphdata", "encode", "graphdata.encode"),
    ("hwgnn.graphdata", "cache_key", "graphdata.cache_key"),
    ("hwgnn.graphdata", "cache_put", "graphdata.cache_put"),
    ("hwgnn.graphdata", "cache_get", "graphdata.cache_get"),
    ("hwgnn.graph2vec", "embed", "graph2vec.embed"),
    ("hwgnn.graph2vec", "build_adjacency", "graph2vec.build_adjacency"),
    ("hwgnn.graph2vec", "topk_filter", "graph2vec.topk_filter"),
    ("hwgnn.graph2vec", "pool_graph", "graph2vec.pool_graph"),
    ("hwgnn.graph2vec", "classify", "graph2vec.classify"),
    ("hwgnn.graph2vec", "pair_similarity", "graph2vec.pair_similarity"),
    ("hwgnn.nncore", "backward", "nncore.backward"),
    ("hwgnn.nncore.Adam", "step", "nncore.Adam.step"),
    ("hwgnn.learnpipe", "evaluate_classifier", "learnpipe.validate"),
    ("hwgnn.learnpipe", "evaluate_pairs", "learnpipe.validate"),
    ("hwgnn.learnpipe", "save_checkpoint", "learnpipe.save_checkpoint"),
    ("hwgnn.learnpipe", "load_checkpoint", "learnpipe.load_checkpoint"),
    ("hwgnn.cli", "cmd_graph", "cli.graph"),
    ("hwgnn.cli", "cmd_train_ht", "cli.train_ht"),
    ("hwgnn.cli", "cmd_train_ip", "cli.train_ip"),
    ("hwgnn.cli", "cmd_embed", "cli.embed"),
    ("hwgnn.cli", "cmd_infer_ht", "cli.infer_ht"),
]
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in SPANS))
# per-call values averaged over the calls of the span that records them
VALUES = ["jsonio.bytes", "dfg.nodes", "dfg.edges", "cli.graph.busy_s"]
COUNTS = ["graphdata.cache.hits", "graphdata.cache.misses"]
PROBE_SIZES = (18, 100, 1000)


def metric_names() -> list[str]:
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.ms", f"{span}.calls"]
    names += VALUES + COUNTS + ["cli.graph.wall_s", "graph2vec.embed.distinct_ratio"]
    for n in PROBE_SIZES:
        names += [f"graph2vec.embed.n{n}.ms", f"nncore.backward.n{n}.ms"]
    return names + ["trace.overhead_s"]


# The forked graph workers find the active tracer here: a pool pickles its
# task function by name, so the wrapper must be a module-level function.
_ACTIVE: dict = {}


def _traced_graph_worker(task):
    tracer = _ACTIVE["tracer"]
    if os.getpid() == _ACTIVE["parent"]:  # `graph` ran in-process: no pool
        return _ACTIVE["graph_worker"](task)
    if tracer.pid != os.getpid():
        tracer.clear()
        tracer.pid = os.getpid()
    result = _ACTIVE["graph_worker"](task)
    path = Path(_ACTIVE["dump_dir"]) / f"{os.getpid()}.json"
    path.write_text(json.dumps({"totals": tracer.totals, "values": tracer.values}))
    return result


class Tracer:
    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.pid = os.getpid()
        self.patched: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.totals: dict[str, list] = {}  # span -> [seconds, calls]
        self.values: dict[str, list] = {}  # value -> [sum, samples]
        self.counts: dict[str, int] = {}
        self.group: set = set()
        self.group_calls = 0
        self.distinct = 0
        self.embed_calls = 0

    # --- recording ---

    def add_value(self, name: str, value: float) -> None:
        acc = self.values.setdefault(name, [0.0, 0])
        acc[0] += value
        acc[1] += 1

    def close_group(self) -> None:
        """End one unit of embedding work (a step, a validation, a command)."""
        self.distinct += len(self.group)
        self.embed_calls += self.group_calls
        self.group, self.group_calls = set(), 0

    def _observe(self, span: str, args, result) -> None:
        if span == "graph2vec.embed":
            self.group.add(args[1].graph_id)
            self.group_calls += 1
        elif span == "jsonio.graph_to_json":
            self.add_value("jsonio.bytes", len(result.encode("utf-8")))
        elif span == "dfg.dfg_graph":
            self.add_value("dfg.nodes", result.num_nodes)
            self.add_value("dfg.edges", result.num_edges)
        elif span == "graphdata.cache_get":
            key = "graphdata.cache.misses" if result is None else "graphdata.cache.hits"
            self.counts[key] = self.counts.get(key, 0) + 1

    def _wrap(self, span: str, fn):
        closes = span in ("nncore.backward", "learnpipe.validate")

        def wrapper(*args, **kwargs):
            if closes:
                self.close_group()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            acc = self.totals.setdefault(span, [0.0, 0])
            acc[0] += elapsed
            acc[1] += 1
            self._observe(span, args, result)
            if span == "learnpipe.validate":
                self.close_group()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching ---

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "hwgnn" or n.startswith("hwgnn.")) and m is not None]
        for modname, attr, span in SPANS:
            if modname.endswith(".Adam"):
                owner = sys.modules[modname.rsplit(".", 1)[0]].Adam
                self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))
                continue
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)
        cli = sys.modules["hwgnn.cli"]
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        _ACTIVE.update(tracer=self, parent=os.getpid(), graph_worker=cli._graph_worker,
                       dump_dir=str(self.dump_dir))
        self._patch(cli, "_graph_worker", _traced_graph_worker)

    def _patch(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self.patched):
            setattr(owner, name, value)
        self.patched.clear()
        _ACTIVE.clear()

    # --- results ---

    def report(self) -> dict[str, float]:
        """Per-layer metrics; a layer the workload never called reads 0."""
        self.close_group()
        totals = {k: list(v) for k, v in self.totals.items()}
        values = {k: list(v) for k, v in self.values.items()}
        for path in sorted(self.dump_dir.glob("*.json")):
            child = json.loads(path.read_text())
            for src, dst in ((child["totals"], totals), (child["values"], values)):
                for k, (a, b) in src.items():
                    acc = dst.setdefault(k, [0.0, 0])
                    acc[0] += a
                    acc[1] += b
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            secs, calls = totals.get(span, (0.0, 0))
            out[f"{span}.ms"] = 1000.0 * secs / calls if calls else 0.0
            out[f"{span}.calls"] = calls
        for name in VALUES:
            total, samples = values.get(name, (0.0, 0))
            out[name] = total / samples if samples else 0.0
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        out["cli.graph.wall_s"] = out["cli.graph.ms"] / 1000.0
        out["graph2vec.embed.distinct_ratio"] = (
            self.distinct / self.embed_calls if self.embed_calls else 0.0)
        return out


# --- fixed-size layer probes ---

def _probe_graph(rng: np.random.Generator, n: int, labels: int):
    from hwgnn.graphdata import GraphTensors

    X = np.zeros((n, labels))
    X[np.arange(n), rng.integers(0, labels, n)] = 1.0
    # a random tree plus n/2 extra edges: connected, about 1.5 n edges
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < (n - 1) + n // 2:
        s, d = (int(x) for x in rng.integers(0, n, 2))
        if s != d:
            edges.add((s, d))
    return GraphTensors(X=X, A=sorted(edges), graph_id=f"probe{n}")


def probes(seed: int, reps: int = 7) -> dict[str, float]:
    """Median forward (embed) and backward ms of the default classifier on
    seeded synthetic graphs of 18, 100 and 1000 nodes."""
    from hwgnn import graph2vec, learnpipe, nncore

    rng = np.random.default_rng(seed)
    labels = 10
    model = graph2vec.build_model({"in_dim": labels}, seed=seed)
    target = np.array([[1.0, 0.0]])
    out = {}
    for n in PROBE_SIZES:
        t = _probe_graph(rng, n, labels)
        fwd, bwd = [], []
        for _ in range(reps):
            start = time.perf_counter()
            h = graph2vec.embed(model, t)
            fwd.append(time.perf_counter() - start)
            loss = learnpipe.cross_entropy(graph2vec.classify(model, h), target)
            nncore.zero_grads(model.params())
            start = time.perf_counter()
            nncore.backward(loss)
            bwd.append(time.perf_counter() - start)
        out[f"graph2vec.embed.n{n}.ms"] = 1000.0 * statistics.median(fwd)
        out[f"nncore.backward.n{n}.ms"] = 1000.0 * statistics.median(bwd)
    return out
