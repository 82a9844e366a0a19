#!/usr/bin/env python3
"""hwgnn benchmark: four workloads through the public command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each run sets up its inputs from the seed and starts the program
once in a fresh interpreter (five times, reporting the median set-up time),
then repeats whole rounds of its workload until another round would overrun
``--seconds`` of measured time, checks every round's outputs, and prints one
JSON object as its last line.  With
``--trace 1`` it instead runs a traced round between two untraced ones and
reports the per-module metrics of ``spans.py`` and the tracing overhead.

Workloads (see README.md for the reasons):
  ht-train  train-ht on the bundled corpus/ht, default configuration
  ip-train  train-ip on the bundled corpus/ip, 10 epochs
  extract   graph --kind dfg and --kind ast over a generated corpus
  screen    embed (empty cache) then infer-ht (warm cache) over a generated
            corpus, with a checkpoint trained during set-up
"""
from __future__ import annotations

import os

# One BLAS thread: the workloads' matrices are small, and a second thread
# would compete with the graph pool's two workers on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
JOBS = 2  # graph pool size: nproc of the reference machine
IP_EPOCHS = 10  # held-out accuracy reached 1.0 on seeds 0-11; 5 epochs fell to 0.89
SCREEN_EPOCHS = 5  # the screening checkpoint only has to exist and be trained
SCREEN_SAMPLE = 2  # designs checked against the dense reference forward pass

sys.path.insert(0, str(BENCH))


class RunError(RuntimeError):
    """The set-up or a command of the program failed: no result is printed."""


def _load_program():
    """Import hwgnn from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "hwgnn" / "cli.py").is_file():
        raise RunError(f"no hwgnn sources under {src}: run from a source checkout")
    sys.path.insert(0, str(src))
    import hwgnn.cli

    if Path(hwgnn.cli.__file__).resolve().parent != src / "hwgnn":
        raise RunError(f"hwgnn imported from {hwgnn.cli.__file__}, not from {src}")
    return hwgnn.cli


def _cold_start() -> None:
    """Start the command-line program once in a fresh interpreter: the
    start-up every separate ``hwgnn`` invocation pays, which the in-process
    rounds do not."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import hwgnn.cli"], cwd=ROOT, env=env, check=True)


def _write_config(path: Path, doc: dict) -> Path:
    # JSON is a subset of YAML, so the CLI's YAML loader reads this
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Workload:
    """Base: ``setup`` once per repeat, ``round`` per measured round,
    ``check`` after each round."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.tracer = None

    def run_cli(self, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.close_group()
        return rc, out.getvalue(), err.getvalue(), elapsed


class TrainWorkload(Workload):
    command = ""
    corpus = ""
    epochs: int | None = None

    def setup(self, attempt: int) -> None:
        base = self.work / f"setup{attempt}"
        corpus = base / "corpus"
        shutil.copytree(ROOT / "corpus" / self.corpus, corpus)
        self.manifest = json.loads((corpus / "labels.json").read_text(encoding="utf-8"))
        doc = {"corpus": str(corpus), "out": str(base / "run")}
        if self.epochs is not None:
            doc["train"] = {"epochs": self.epochs}
        self.config = _write_config(base / "config.yml", doc)
        self.out = base / "run"

    def round(self) -> dict:
        rc, _, err, elapsed = self.run_cli(
            [self.command, "--config", str(self.config), "--seed", str(self.seed)])
        if rc != 0:
            raise RunError(f"{self.command} exited {rc}: {err.strip()}")
        return {"attempted": 1, "failed": 0, "round_s": elapsed, "train_s": elapsed}

    def outputs(self) -> list[Path]:
        return [self.out / "report.json", self.out / "model.ckpt"]

    def report(self) -> dict:
        return json.loads((self.out / "report.json").read_text(encoding="utf-8"))


class HtTrain(TrainWorkload):
    command, corpus, epochs = "train-ht", "ht", None

    def check(self) -> None:
        import checks

        checks.check_ht_report(self.report(), self.manifest)


class IpTrain(TrainWorkload):
    command, corpus, epochs = "train-ip", "ip", IP_EPOCHS

    def check(self) -> None:
        import checks

        checks.check_ip_report(self.report(), self.manifest, delta=0.5)


class Extract(Workload):
    def setup(self, attempt: int) -> None:
        import gen

        base = self.work / f"setup{attempt}"
        self.truths = gen.generate("extract", self.seed, base)
        self.designs = base / "designs"
        self.graphs = base / "graphs"
        self.config = _write_config(base / "config.yml",
                                    {"corpus": str(self.designs), "jobs": JOBS})

    def prepare(self) -> None:
        import walker

        self.expected = {n: walker.expected_dfg(t) for n, t in self.truths.items()}
        self.twins = {n: t["base"] for n, t in self.truths.items() if n != t["base"]}

    def round(self) -> dict:
        shutil.rmtree(self.graphs, ignore_errors=True)
        total, failed = 0.0, 0
        for kind in ("dfg", "ast"):
            rc, out, err, elapsed = self.run_cli(
                ["graph", "--config", str(self.config), "--kind", kind,
                 "--out", str(self.graphs / kind)])
            rows = [line.split() for line in out.splitlines()[1:]]
            failed += sum(1 for r in rows if r[-1] == "FAILED")
            if rc != 0 and not failed:
                raise RunError(f"graph --kind {kind} exited {rc}: {err.strip()}")
            if self.tracer is not None:
                self.tracer.add_value("cli.graph.busy_s", sum(float(r[3]) for r in rows))
            total += elapsed
        written = len(list(self.graphs.glob("*/*.json")))
        return {"attempted": 2 * len(self.truths), "failed": failed, "round_s": total,
                "graphs_per_s": written / total}

    def outputs(self) -> list[Path]:
        return list(self.graphs.glob("*/*.json"))

    def check(self) -> None:
        import checks

        checks.check_extract(self.graphs / "dfg", self.graphs / "ast", self.expected, self.twins)


class Screen(Workload):
    def setup(self, attempt: int) -> None:
        import gen

        base = self.work / f"setup{attempt}"
        self.truths = gen.generate("screen", self.seed, base)
        self.designs = base / "designs"
        ckpt_dir = base / "checkpoint"
        train_cfg = _write_config(base / "train.yml", {
            "corpus": str(ROOT / "corpus" / "ht"), "out": str(ckpt_dir),
            "train": {"epochs": SCREEN_EPOCHS}})
        rc, _, err, _ = self.run_cli(["train-ht", "--config", str(train_cfg),
                                      "--seed", str(self.seed)])
        if rc != 0:
            raise RunError(f"train-ht for the screening checkpoint exited {rc}: {err.strip()}")
        self.ckpt_dir = ckpt_dir
        self.cache = base / "cache"
        self.emb_dir = base / "emb"
        self.verdicts = base / "verdicts.txt"  # infer-ht's standard output
        self.config = _write_config(base / "screen.yml", {
            "corpus": str(self.designs), "checkpoint": str(ckpt_dir / "model.ckpt"),
            "cache": str(self.cache), "out": str(self.emb_dir)})
        self.base = base

    def prepare(self) -> None:
        import checks
        import walker

        self.vocab = (self.ckpt_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
        expected = {n: walker.expected_dfg(t) for n, t in self.truths.items()}
        for name, exp in expected.items():
            extra = set(exp["labels"]) - set(self.vocab)
            if extra:
                raise RunError(f"{name}: labels {sorted(extra)} outside the checkpoint vocabulary")
        self.twins = {n: t["base"] for n, t in self.truths.items() if n != t["base"]}
        self.arch, self.params = checks.read_checkpoint(self.ckpt_dir / "model.ckpt")
        # the dense reference holds an n x n matrix: sample from the smaller half
        small = sorted(expected, key=lambda n: (expected[n]["nodes"], n))[:len(expected) // 2]
        sample = random.Random(self.seed).sample(small, SCREEN_SAMPLE)
        ref_dir = self.base / "reference"
        rc, _, err, _ = self.run_cli(["graph", "--kind", "dfg", "--out", str(ref_dir)]
                                     + [str(self.designs / n) for n in sample])
        if rc != 0:
            raise RunError(f"graph for the reference sample exited {rc}: {err.strip()}")
        self.sample_graphs = {
            n: json.loads((ref_dir / f"{n}.dfg.json").read_text(encoding="utf-8")) for n in sample}

    def round(self) -> dict:
        shutil.rmtree(self.cache, ignore_errors=True)
        n = len(self.truths)
        rc, _, err, t_embed = self.run_cli(["embed", "--config", str(self.config)])
        if rc != 0:
            raise RunError(f"embed exited {rc}: {err.strip()}")
        rc, out, err, t_infer = self.run_cli(["infer-ht", "--config", str(self.config)])
        self.verdicts.write_text(out, encoding="utf-8")
        failed = n - len([line for line in out.splitlines() if line.strip()])
        if rc != 0 and not failed:
            raise RunError(f"infer-ht exited {rc}: {err.strip()}")
        return {"attempted": 2 * n, "failed": failed, "round_s": t_embed + t_infer,
                "designs_per_s": n / t_embed, "cached_designs_per_s": n / t_infer}

    def outputs(self) -> list[Path]:
        return [self.emb_dir / "embeddings.tsv", self.verdicts]

    def check(self) -> None:
        import checks

        emb = checks.read_embeddings((self.emb_dir / "embeddings.tsv").read_text(encoding="utf-8"))
        verdicts = checks.read_verdicts(self.verdicts.read_text(encoding="utf-8"))
        checks.check_screen(emb, verdicts, sorted(self.truths),
                            self.twins, self.arch, self.params, self.vocab, self.sample_graphs)


WORKLOADS = {"ht-train": HtTrain, "ip-train": IpTrain, "extract": Extract, "screen": Screen}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (a
    graph pool worker, or the fresh-interpreter start-up), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Checked:
    """Checks a round's outputs: in full after the first round, and after
    later rounds by requiring the same bytes as the first round wrote."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.digest = None

    def __call__(self) -> None:
        import checks

        digest = _digest(self.wl.outputs())
        if self.digest is None:
            self.wl.check()
            self.digest = digest
        elif digest != self.digest:
            raise checks.CheckError("outputs differ from the first round's on the same inputs")


def measure(wl: Workload, seconds: float) -> tuple[list[dict], bool, str]:
    check = Checked(wl)
    rounds: list[dict] = []
    spent: list[float] = []
    while True:
        start = time.perf_counter()
        rounds.append(wl.round())
        spent.append(time.perf_counter() - start)
        try:
            check()
        except AssertionError as exc:
            return rounds, False, str(exc)
        if sum(spent) + statistics.median(spent) > seconds:
            return rounds, True, ""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hwgnn benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = _load_program()
    except (RunError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](cli, work, args.seed)
        setup_times = []
        for attempt in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(attempt)
            _cold_start()
            setup_times.append(time.perf_counter() - start)
        if hasattr(wl, "prepare"):
            wl.prepare()
        if args.trace:
            result = traced(wl, args)
        else:
            rounds, correct, why = measure(wl, args.seconds)
            values = {
                "setup_s": statistics.median(setup_times),
                "round_s": statistics.median(r["round_s"] for r in rounds),
                "peak_rss_mb": _peak_rss_mb(),
            }
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in _declared()["end_to_end"]}
            result = _result(rounds, correct, why, metrics)
            _save(f"run-{args.workload}-{args.seed}.json", {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "setup_s": setup_times, "rounds": rounds, "result": result})
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _save(name: str, doc: dict) -> None:
    """Keep a run's details, including each round's command timings, under
    results/ for later reading; the printed line carries only the metrics."""
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _result(rounds, correct, why, metrics) -> dict:
    if why:
        print(f"check failed: {why}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(wl: Workload, args) -> dict:
    """An untraced, a traced and another untraced round, all checked;
    per-layer metrics from the traced one, plus probes and the tracing
    overhead against the mean of the untraced two."""
    import spans

    check = Checked(wl)
    rounds, walls = [], []
    for with_trace in (False, True, False):
        if with_trace:
            tracer = spans.Tracer(wl.work / "spans")
            tracer.install()
            wl.tracer = tracer
        start = time.perf_counter()
        try:
            rounds.append(wl.round())
        finally:
            walls.append(time.perf_counter() - start)
            if with_trace:
                tracer.uninstall()
                wl.tracer = None
        try:
            check()
        except AssertionError as exc:
            return _result(rounds, False, str(exc), {})
    layer = tracer.report()
    layer.update(spans.probes(args.seed))
    layer["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
    _save(f"trace-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "metrics": layer,
        "round_wall_s": walls, "rounds": rounds})
    units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    return _result(rounds, True, "", {k: (v, units[k]) for k, v in layer.items()})


def _declared() -> dict:
    """BENCHMARK.json, the one place that names each metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
