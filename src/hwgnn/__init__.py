"""Graph extraction and graph-network analysis for Verilog hardware designs.

The package turns register-transfer-level or gate-level Verilog into
abstract syntax trees or data-flow graphs, embeds them with a small
message-passing network built on an in-house autodiff core, and trains two
task heads: a Trojan/clean graph classifier and a Siamese cosine-similarity
model for IP-piracy detection.
"""
from . import errors, graph2vec, graphdata, hwgraph, learnpipe, nncore
from .errors import HwgnnError
from .graph2vec import DEFAULT_ARCH, GnnModel, build_model, classify, embed, pair_similarity
from .graphdata import (
    GraphPair,
    GraphTensors,
    NodeVocab,
    build_vocab,
    cache_get,
    cache_key,
    cache_put,
    encode,
    leave_one_circuit_out,
    make_pairs,
    normalize,
    split,
)
from .hwgraph import (
    AST,
    DFG,
    HWGraph,
    SourceUnit,
    graph_from_json,
    graph_to_json,
    hw2graph,
    load_design_dir,
    read_graph,
    write_graph,
)
from .learnpipe import (
    Checkpoint,
    EvalReport,
    TrainConfig,
    compute_metrics,
    evaluate_classifier,
    evaluate_pairs,
    export_embeddings,
    load_checkpoint,
    predict_ht,
    save_checkpoint,
    train_graph_classifier,
    train_pair_model,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "graph2vec",
    "graphdata",
    "hwgraph",
    "learnpipe",
    "nncore",
    "HwgnnError",
    "DEFAULT_ARCH",
    "GnnModel",
    "build_model",
    "classify",
    "embed",
    "pair_similarity",
    "GraphPair",
    "GraphTensors",
    "NodeVocab",
    "build_vocab",
    "cache_get",
    "cache_key",
    "cache_put",
    "encode",
    "leave_one_circuit_out",
    "make_pairs",
    "normalize",
    "split",
    "AST",
    "DFG",
    "HWGraph",
    "SourceUnit",
    "graph_from_json",
    "graph_to_json",
    "hw2graph",
    "load_design_dir",
    "read_graph",
    "write_graph",
    "Checkpoint",
    "EvalReport",
    "TrainConfig",
    "compute_metrics",
    "evaluate_classifier",
    "evaluate_pairs",
    "export_embeddings",
    "load_checkpoint",
    "predict_ht",
    "save_checkpoint",
    "train_graph_classifier",
    "train_pair_model",
]
