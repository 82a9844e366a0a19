"""Lock-step gate for training on one tape per step.

The trainers embed each distinct graph of a step once, as one batch, and
take one batch loss.  That sums in another order than one tape per item, so
the artifacts' bytes move; this gate states what must not.  At every step
of a ``train-ht`` and a ``train-ip`` run, the step's loss and every
parameter's gradient must match the per-item oracle kept here: one tape and
one backward pass per item, the gradients accumulated and the losses
summed; a design is embedded alone through ``graph2vec.embed``, a pair's
two designs as one two-graph batch (one graph if their contents are equal,
as in the trainer, whose equal rows score exactly 1).  The oracle runs at the run's current parameters, re-synced every
step, so the gate compares steps, never free-running trajectories (those
drift apart by rounding: held-out similarities differ by about 1e-5 after
260 steps).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from hwgnn import learnpipe
from hwgnn import nncore as nc
from hwgnn.cli import main
from hwgnn.graph2vec import GraphBatch, classify, embed, embed_batch, pair_similarity

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
RTOL = 1e-9
# A step whose pairs all score exactly 1 or sit under the margin has a zero
# gradient, and both paths return the rounding noise of the cosine's
# gradient at u = v, about 1e-16; real gradients here are 1e-4 and up.
ATOL = 1e-12

# sha256 of the JSON list of every step's item names, recorded with one tape
# per item before training moved to one tape per step
DRAWS = {
    "ht": "57ba974d1f473ec27aeb29b66b8c4b6608614f106f7091bb816d18e7e56ba932",
    "ip": "e0bf5955e86d9f9a704fdafc275476f1d04c8d460dd00fce8da94320b142f431",
}


def item_loss(model, item, tensors_by_id, margin):
    """One item's loss on a tape of its own."""
    if tensors_by_id is None:
        return nc.cross_entropy(classify(model, embed(model, item)),
                                learnpipe._onehot(item.label))
    t1, t2 = tensors_by_id[item.first], tensors_by_id[item.second]
    members = [t1] if t1.content_key == t2.content_key else [t1, t2]
    H = embed_batch(model, GraphBatch.of(members, model.arch["directed_messages"]))
    sim = pair_similarity(model, H, np.array([0]), np.array([len(members) - 1]))
    return nc.contrastive_loss(sim, item.label, margin)


def gradients(model, make_losses):
    """The summed loss of ``make_losses()`` and each parameter's gradient,
    accumulated over one backward pass per loss."""
    params = model.params()
    nc.zero_grads(params)
    total = 0.0
    for loss in make_losses():
        nc.backward(loss)
        total += loss.item()
    grads = {p.name: p.grad.copy() for p in params}
    nc.zero_grads(params)
    return total, grads


def assert_same_step(got, want):
    """Loss and every gradient within RTOL, a gradient scaled by its
    parameter's largest oracle entry (entries that cancel to near zero
    carry no relative precision), plus ATOL."""
    (loss, grads), (want_loss, want_grads) = got, want
    assert loss == pytest.approx(want_loss, rel=RTOL, abs=1e-300)
    for name, w in want_grads.items():
        scale = np.abs(w).max()
        err = np.abs(grads[name] - w).max()
        assert err <= RTOL * scale + ATOL, f"{name}: gradient off by {err:.3g} of {scale:.3g}"


def lockstep_run(monkeypatch, tmp_path, command, config, seed, grad_scale=1.0):
    """Run ``command`` with every step checked against the oracle; returns
    the names of each step's items."""
    captured = {"tensors_by_id": None}
    steps = []
    real_fit, real_pairs = learnpipe._fit, learnpipe.train_pair_model

    def pair_model(train_pairs, val_pairs, tensors_by_id, cfg, **kwargs):
        captured["tensors_by_id"] = tensors_by_id
        return real_pairs(train_pairs, val_pairs, tensors_by_id, cfg, **kwargs)

    def fit(model, cfg, n_train, next_batch, batch_loss, **rest):
        tensors_by_id = captured["tensors_by_id"]

        def checked(batch):
            want = gradients(model, lambda: (item_loss(model, item, tensors_by_id, cfg.margin)
                                             for item in batch))
            loss, grads = gradients(model, lambda: [batch_loss(batch)])
            assert_same_step((loss, {k: g * grad_scale for k, g in grads.items()}), want)
            steps.append([getattr(item, "graph_id", None) or [item.first, item.second]
                          for item in batch])
            return batch_loss(batch)

        return real_fit(model, cfg, n_train, next_batch, checked, **rest)

    monkeypatch.setattr(learnpipe, "_fit", fit)
    monkeypatch.setattr(learnpipe, "train_pair_model", pair_model)
    cfg = tmp_path / "cfg.yml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--seed", str(seed),
                 "--out", str(tmp_path / "out")]) == 0
    return steps


def digest(steps) -> str:
    return hashlib.sha256(json.dumps(steps).encode()).hexdigest()


@pytest.fixture(scope="module")
def ht_steps(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return lockstep_run(mp, tmp_path_factory.mktemp("ht"), "train-ht",
                            {"corpus": str(CORPUS / "ht")}, seed=0)


@pytest.fixture(scope="module")
def ip_steps(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return lockstep_run(mp, tmp_path_factory.mktemp("ip"), "train-ip",
                            {"corpus": str(CORPUS / "ip"), "train": {"epochs": 10}}, seed=1)


def test_train_ht_steps_match_the_per_item_oracle(ht_steps):
    assert len(ht_steps) == 40  # seed 0 reaches F1 1.0 at step 40


def test_train_ip_steps_match_the_per_item_oracle(ip_steps):
    assert len(ip_steps) == 260


def test_sampler_draws_are_unchanged(ht_steps, ip_steps):
    assert digest(ht_steps) == DRAWS["ht"]
    assert digest(ip_steps) == DRAWS["ip"]


def test_gate_fails_on_a_gradient_off_by_one_part_in_a_million(monkeypatch, tmp_path):
    with pytest.raises(AssertionError, match="gradient off by"):
        lockstep_run(monkeypatch, tmp_path, "train-ht", {"corpus": str(CORPUS / "ht")},
                     seed=0, grad_scale=1.0 + 1e-6)
