"""Every configuration setting, declared once: section, name, default, rule
and one help line.

``cli`` checks config files and flags against these declarations and prints
them as its ``--help`` epilog; ``TrainConfig`` and ``graph2vec.check_arch``
take their defaults and checks from them.
"""
from __future__ import annotations

import copy
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


class Rule(NamedTuple):
    meta: str  # value placeholder in the help text
    what: str  # completes "<name> must be ..."
    ok: Callable[[Any], bool]


def _integral(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _finite(v) -> bool:
    # an int is always finite, and math.isfinite overflows on a huge one
    return _integral(v) or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                            and math.isfinite(v))


def integer(low: int) -> Rule:
    return Rule("N", f"an integer >= {low}", lambda v: _integral(v) and v >= low)


def real(span: str) -> Rule:
    """A finite number in an interval written like ``"(0, 1]"``."""
    low, high = (float(x) for x in span[1:-1].split(","))
    above = operator.le if span[0] == "[" else operator.lt
    below = operator.le if span[-1] == "]" else operator.lt
    return Rule("R", f"in {span}", lambda v: _finite(v) and above(low, v) and below(v, high))


def choice(*options: str, any_case: bool = False) -> Rule:
    def ok(v) -> bool:
        return isinstance(v, str) and (v.lower() if any_case else v) in options
    return Rule("|".join(options), f"one of {', '.join(options)}", ok)


def text(meta: str) -> Rule:
    return Rule(meta, "a string", lambda v: isinstance(v, str))


def dims(non_empty: bool) -> Rule:
    def ok(v) -> bool:
        return isinstance(v, (list, tuple)) and len(v) >= non_empty and all(
            _integral(d) and d > 0 for d in v)
    return Rule("[..]", f"a {'non-empty ' if non_empty else ''}list of positive integers", ok)


BOOL = Rule("true|false", "true or false", lambda v: isinstance(v, bool))
MAPPING = Rule("", "a mapping", lambda v: isinstance(v, dict))


@dataclass(frozen=True)
class Setting:
    section: str
    name: str
    default: Any  # None: unset unless given
    rule: Rule
    help: str

    def check(self, value):
        """``value`` itself when the rule allows it or it is a null where the
        default is null; otherwise ValueError naming this setting."""
        if (value is None and self.default is None) or self.rule.ok(value):
            return value
        raise ValueError(f"{self.name} must be {self.rule.what}, got {value!r}")


# Sections: "top" for top-level keys, "train" for keys under ``train:``,
# "model" for keys under ``train:`` that are also part of the architecture a
# checkpoint stores, and "arch" for architecture keys fixed per task.
SETTINGS = [
    Setting("top", "corpus", None, text("DIR"), "corpus root laid out as <root>/<design>/*.v"),
    Setting("top", "labels", None, text("FILE"), "label manifest (default <corpus>/labels.json)"),
    Setting("top", "kind", "dfg", choice("ast", "dfg", any_case=True),
            "graph representation to extract"),
    Setting("top", "top", None, text("NAME"), "top module override for single-design commands"),
    Setting("top", "cache", None, text("DIR"), "encoded-tensor cache keyed on design sources"),
    Setting("top", "out", ".", text("DIR"), "output directory"),
    Setting("top", "checkpoint", None, text("FILE"),
            "model checkpoint to load (embed / infer commands)"),
    Setting("top", "seed", 0, integer(0), "RNG seed for splits and initialization"),
    Setting("top", "ratio", 0.2, real("(0, 1)"), "held-out test fraction for random splits"),
    Setting("top", "leave_out", None, text("NAME"),
            "hold out one base circuit instead of splitting randomly"),
    Setting("top", "jobs", None, integer(1), "worker processes for `graph` (default: all cores)"),
    Setting("top", "train", {}, MAPPING, "training hyper-parameters"),
    Setting("train", "epochs", 120, integer(0),
            "most passes over the training set (stops once validation scores 1.0)"),
    Setting("train", "batch_size", 8, integer(1), "graphs or pairs per step"),
    Setting("train", "lr", 0.01, real("(0, inf)"), "learning rate"),
    Setting("train", "optimizer", "adam", choice("adam", "sgd"), "parameter update rule"),
    Setting("model", "pooling_ratio", 0.5, real("(0, 1]"), "top-k node fraction kept by pooling"),
    Setting("train", "margin", 0.5, real("[0, 1)"), "contrastive-loss margin"),
    Setting("train", "delta", 0.5, real("(-1, 1)"), "similarity decision boundary"),
    Setting("train", "mini_test_interval", 10, integer(1), "validation cadence in steps"),
    Setting("model", "readout", "sum", choice("sum", "mean"), "graph-level reduction"),
    Setting("model", "conv_dims", [64, 64], dims(non_empty=True), "convolution widths"),
    Setting("model", "activation", "relu", choice("relu", "tanh", "identity"),
            "convolution activation"),
    Setting("model", "mlp_hidden", [32], dims(non_empty=False), "classifier hidden widths"),
    Setting("model", "directed_messages", False, BOOL, "pass messages along edge direction only"),
    Setting("arch", "in_dim", None, integer(1), "vocabulary size"),
    Setting("arch", "head", "classifier", choice("classifier", "siamese"), "task head"),
]


def _section(*sections: str) -> dict[str, Setting]:
    return {s.name: s for s in SETTINGS if s.section in sections}


TOP = _section("top")
TRAIN = _section("train", "model")
MODEL = _section("model")
ARCH = _section("arch", "model")


def check(section: dict[str, Setting], values, label: str) -> dict:
    """``values`` over the defaults of ``section``, each checked by its
    setting; raises ValueError naming the first undeclared or bad key."""
    if not isinstance(values, dict):
        raise ValueError(f"{label} must be a mapping, got {type(values).__name__}")
    unknown = sorted(str(k) for k in values if k not in section)
    if unknown:
        raise ValueError(f"unknown {label} keys: {', '.join(unknown)}")
    return {
        name: copy.copy(s.check(values.get(name, s.default))) for name, s in section.items()
    }
