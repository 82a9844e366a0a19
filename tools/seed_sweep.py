"""Seed sweep: train at many seeds with another checkout's sources and with
this one's, and compare what the two write.

    python3 tools/seed_sweep.py PARENT_DIR

Runs ``train-ip`` on corpus/ip with ``epochs: 10`` at seeds 0-24 and
``train-ht`` on corpus/ht at seeds 0-9, once with the sources under
PARENT_DIR/src and once with this checkout's, both on this checkout's
corpus.  Prints one line per run: whether ``model.ckpt`` and ``report.json``
have the same sha256 on both sides, and each side's held-out metric (F1 for
``train-ht``, accuracy for ``train-ip``).  Exits 1 if any artifact differs.

tools/byte_gate.py pins seeds 0 and 1 only.  A change that keeps every
floating-point sum in its order keeps the bytes at every seed, and this
sweep shows it on 35 of them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
ARTIFACTS = ("model.ckpt", "report.json")

# command, config, seeds, the report.json metric held out
SWEEPS = [
    ("train-ip", {"corpus": "ip", "train": {"epochs": 10}}, range(25), "accuracy"),
    ("train-ht", {"corpus": "ht"}, range(10), "f1"),
]


def train(src: Path, command: str, config: Path, seed: int, out: Path) -> dict:
    """Run ``command`` with the package under ``src``: each artifact's
    sha256, and the report's metrics."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "hwgnn.cli", command, "--config", str(config),
         "--out", str(out), "--seed", str(seed)],
        cwd=out.parent, env=env, capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {command} --seed {seed}: exit {proc.returncode}: "
                         f"{proc.stderr.decode().strip()}")
    hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    metrics = json.loads((out / "report.json").read_text(encoding="utf-8"))["metrics"]
    return {"sha256": hashes, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the other checkout (holds src/hwgnn)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve() / "src", "this": ROOT / "src"}
    for src in sides.values():
        if not (src / "hwgnn" / "cli.py").is_file():
            raise SystemExit(f"no hwgnn sources under {src}")
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for command, config, seeds, metric in SWEEPS:
            cfg = work / f"{command}.yml"
            doc = {**config, "corpus": str(CORPUS / config["corpus"])}
            cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
            for seed in seeds:
                runs = {side: train(src, command, cfg, seed, work / f"{command}-{seed}-{side}")
                        for side, src in sides.items()}
                same = [runs["parent"]["sha256"][a] == runs["this"]["sha256"][a]
                        for a in ARTIFACTS]
                differing += not all(same)
                print(f"{command} seed {seed:2d}  "
                      + "  ".join(f"{a} {'same' if s else 'DIFFERS'}"
                                  for a, s in zip(ARTIFACTS, same))
                      + f"  {metric} {runs['parent']['metrics'][metric]:.4f}"
                        f" / {runs['this']['metrics'][metric]:.4f}", flush=True)
    total = sum(len(seeds) for _, _, seeds, _ in SWEEPS)
    print(f"seed sweep: {total - differing} of {total} runs byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
