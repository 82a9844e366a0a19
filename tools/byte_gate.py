"""Byte gate: run the reference commands in a temporary directory and print
the sha256 of every artifact they write.

    python3 tools/byte_gate.py            print the hashes
    python3 tools/byte_gate.py --check    compare them with tools/byte_gate.json
    python3 tools/byte_gate.py --write    record them in tools/byte_gate.json

Training runs: ``train-ht`` on corpus/ht at seeds 0 and 1, ``train-ip`` on
corpus/ip with ``epochs: 10`` at seed 1, and ``train-ip`` with the default
config (acceptance criterion 6).  Forward-only runs read the fixed
checkpoints under tools/byte_gate/: ``embed`` and ``infer-ht`` over
corpus/ht, and ``infer-ip`` of one corpus/ip pair.

The hashes hold for one NumPy and OpenBLAS build.  The JSON records both
versions, and a check on other versions reports "not comparable" and passes.
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

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "byte_gate.json"
FIXED = ROOT / "tools" / "byte_gate"
CORPUS = ROOT / "corpus"
TRAINED = ("model.ckpt", "report.json", "vocab.txt")

# name, command, config, flags, artifacts ("stdout" is the command's output)
RUNS = [
    ("train-ht-seed0", "train-ht", {"corpus": "ht"}, ["--seed", "0"], TRAINED),
    ("train-ht-seed1", "train-ht", {"corpus": "ht"}, ["--seed", "1"], TRAINED),
    ("train-ip-epochs10-seed1", "train-ip", {"corpus": "ip", "train": {"epochs": 10}},
     ["--seed", "1"], TRAINED),
    ("criterion6", "train-ip", {"corpus": "ip"}, [], ("model.ckpt", "report.json")),
    ("embed", "embed", {"corpus": "ht", "checkpoint": "ht"}, [], ("embeddings.tsv",)),
    ("infer-ht", "infer-ht", {"corpus": "ht", "checkpoint": "ht"}, [], ("stdout",)),
    ("infer-ip", "infer-ip", {"checkpoint": "ip"},
     [str(CORPUS / "ip" / "ip_adder_v0"), str(CORPUS / "ip" / "ip_aoi_gln_v0")], ("stdout",)),
]


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": f"{blas['name']} {blas['version']}"}


def run_all(work: Path) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    hashes = {}
    for name, command, config, flags, artifacts in RUNS:
        out = work / name
        doc = {**config}
        if "corpus" in doc:
            doc["corpus"] = str(CORPUS / doc["corpus"])
        if "checkpoint" in doc:
            doc["checkpoint"] = str(FIXED / doc["checkpoint"] / "model.ckpt")
        cfg = work / f"{name}.yml"
        cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "hwgnn.cli", command, "--config", str(cfg),
             "--out", str(out), *flags],
            cwd=work, env=env, capture_output=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{name}: exit {proc.returncode}: {proc.stderr.decode().strip()}")
        for artifact in artifacts:
            data = proc.stdout if artifact == "stdout" else (out / artifact).read_bytes()
            hashes[f"{name}/{artifact}"] = hashlib.sha256(data).hexdigest()
    return hashes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the record")
    mode.add_argument("--write", action="store_true", help="replace the record")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_all(Path(tmp))
    for key, digest in hashes.items():
        print(f"{digest}  {key}")
    if args.write:
        doc = {**versions(), "sha256": hashes}
        RECORD.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"recorded in {RECORD}")
    if not args.check:
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    have = versions()
    if {k: record.get(k) for k in have} != have:
        print(f"not comparable: recorded on numpy {record.get('numpy')}, "
              f"{record.get('openblas')}; running numpy {have['numpy']}, {have['openblas']}")
        return 0
    diffs = [key for key in record["sha256"].keys() | hashes.keys()
             if record["sha256"].get(key) != hashes.get(key)]
    for key in sorted(diffs):
        print(f"differs: {key}")
    print("byte gate: " + ("FAILED" if diffs else "all artifacts match"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
