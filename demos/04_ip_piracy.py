"""Train the Siamese similarity model and compare design pairs.

Pairs of designs derived from the same base circuit should score near 1,
unrelated designs should fall below the decision boundary (0.5 by
default). Training pulls the two groups apart from whatever the random
initialization gives.
"""
import json
import time
from pathlib import Path

from hwgnn import (
    DFG,
    TrainConfig,
    build_vocab,
    encode,
    evaluate_pairs,
    hw2graph,
    load_design_dir,
    make_pairs,
    normalize,
    split,
    train_pair_model,
)
from hwgnn.learnpipe import pair_similarity_value, piracy_verdict

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "ip"


def main() -> None:
    manifest = json.loads((CORPUS / "labels.json").read_text(encoding="utf-8"))
    category_of = {name: v["category"] for name, v in manifest.items()}
    started = time.perf_counter()

    graphs = {}
    for name in sorted(manifest):
        g = hw2graph(load_design_dir(CORPUS / name), DFG, design_name=name)
        graphs[name] = normalize(g)
    vocab = build_vocab(list(graphs.values()))
    tensors = {name: encode(g, vocab, label=None) for name, g in graphs.items()}

    part = split(sorted(tensors), ratio=0.2, seed=0)
    train_pairs = make_pairs(part.train, category_of)
    test_pairs = make_pairs(part.test, category_of)
    print(f"{len(train_pairs)} training pairs, {len(test_pairs)} held-out pairs")

    cfg = TrainConfig(epochs=30, seed=0)
    ckpt = train_pair_model(train_pairs, test_pairs, tensors, cfg,
                            vocab_fingerprint=vocab.fingerprint)
    report = evaluate_pairs(ckpt.model, test_pairs, tensors, cfg.delta)
    print(f"held-out pair accuracy {report.accuracy:.3f}, F1 {report.f1:.3f}")

    a, b = "ip_shifter_v0", "ip_shifter_v4"
    c = "ip_majority_v2"
    for other, note in ((b, "variant of the same core"), (c, "unrelated cores")):
        sim = pair_similarity_value(ckpt.model, tensors[a], tensors[other])
        print(f"{a} vs {other}: {piracy_verdict(sim, cfg.delta)}  ({note})")
    print(f"total wall time {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
