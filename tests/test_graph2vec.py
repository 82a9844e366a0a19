"""Graph embedding model: convolution, scoring, top-k pooling, readout,
heads, and the end-to-end gradient."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck
from hwgnn import nncore as nc
from hwgnn.errors import EmptyPoolError, ShapeMismatchError, WrongHeadError, ZeroVectorError
from hwgnn.graph2vec import (
    DEFAULT_ARCH,
    ConvLayer,
    GnnModel,
    GraphBatch,
    Mlp,
    build_adjacency,
    build_model,
    classify,
    embed,
    embed_batch,
    pair_similarity,
    pool_graph,
    topk_filter,
)
from hwgnn.graphdata import GraphTensors
from hwgnn.learnpipe import contrastive_loss, cross_entropy
from hwgnn.synth import random_graph_tensors

RNG = np.random.default_rng(33)
ONE = 20.0  # np.tanh(20.0) == 1.0 exactly: a pooling gate that passes rows unchanged


def kept(scores, pr, n):
    """topk_filter of one graph of n nodes: its kept node ids."""
    keep, segment = topk_filter(scores, pr, np.array([n]))
    assert segment.tolist() == [0] * keep.size
    return keep.tolist()


def pool_one(X, alpha, P, readout):
    """pool_graph of the rows P of one graph."""
    return pool_graph(X, alpha, P, readout, np.zeros(len(P), dtype=np.intp))


def similarity(model, u, v):
    """pair_similarity of the single-row embeddings u and v."""
    H = nc.constant(np.vstack((u.data, v.data)))
    return pair_similarity(model, H, np.array([0]), np.array([1]))


def pair_embedding(model, t1, t2):
    """The embeddings of t1 and t2 as rows 0 and 1 of one tape."""
    return embed_batch(model, GraphBatch.of([t1, t2], model.arch["directed_messages"]))


def identity_layer(dim, rng_seed=0):
    layer = ConvLayer(dim, dim, "identity", np.random.default_rng(rng_seed), "c")
    layer.W_self.data[...] = np.eye(dim)
    layer.W_neigh.data[...] = np.eye(dim)
    layer.bias.data[...] = 0.0
    return layer


def neighbor_mean(X, adj):
    """A conv layer reduced to its neighbour mean: no self term, no bias."""
    layer = identity_layer(X.cols)
    layer.W_self.data[...] = 0.0
    return layer.forward(X, adj)


def permuted(t: GraphTensors, perm) -> GraphTensors:
    """Relabel node v as perm[v]."""
    X = np.zeros_like(t.X)
    for v in range(t.X.shape[0]):
        X[perm[v]] = t.X[v]
    return GraphTensors(
        X=X, A=[(perm[s], perm[d]) for s, d in t.A], graph_id=t.graph_id
    )


def loop_adjacency(n, edges, directed):
    """The per-node-set build that build_adjacency vectorizes: the oracle."""
    neigh = [set() for _ in range(n)]
    for s, d in edges:
        neigh[s].add(d)
        if not directed:
            neigh[d].add(s)
    src, dst = [], []
    inv = np.zeros((n, 1))
    for v in range(n):
        others = sorted(neigh[v])
        src += others
        dst += [v] * len(others)
        if others:
            inv[v, 0] = 1.0 / len(others)
    return np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp), inv


@st.composite
def edge_lists(draw):
    """n >= 1 nodes (some isolated) and edges with duplicates and self-loops."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    return n, edges


class TestAdjacency:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists(), st.booleans())
    def test_matches_the_per_node_loop_exactly(self, graph, directed):
        n, edges = graph
        adj = build_adjacency(n, edges, directed)
        for got, want in zip((adj.msg_src, adj.msg_dst, adj.inv_deg),
                             loop_adjacency(n, edges, directed)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edge", [(0, 3), (3, 0), (0, -1), (-1, 0)])
    def test_endpoint_out_of_range_is_typed(self, edge):
        with pytest.raises(ShapeMismatchError, match="out of range for 3 nodes"):
            build_adjacency(3, [(0, 1), edge], False)

    def test_undirected_with_dedup_and_self_loop_once(self):
        adj = build_adjacency(3, [(0, 1), (1, 0), (2, 2), (2, 2)], False)
        pairs = sorted(zip(adj.msg_src.tolist(), adj.msg_dst.tolist()))
        assert pairs == [(0, 1), (1, 0), (2, 2)]
        assert adj.inv_deg.reshape(-1).tolist() == [1.0, 1.0, 1.0]

    def test_directed_keeps_edge_direction(self):
        adj = build_adjacency(2, [(0, 1)], directed=True)
        # only node 0 receives a message (edges point dependent -> dependency)
        assert list(zip(adj.msg_src, adj.msg_dst)) == [(1, 0)]
        assert adj.inv_deg.reshape(-1).tolist() == [1.0, 0.0]

    def test_isolated_nodes_have_zero_inverse_degree(self):
        adj = build_adjacency(3, [(0, 1)], False)
        assert adj.inv_deg.reshape(-1).tolist() == [1.0, 1.0, 0.0]

    def test_neighbor_mean_hand_math(self):
        X = nc.constant([[2.0, 0.0], [0.0, 4.0], [6.0, 6.0]])
        out = neighbor_mean(X, build_adjacency(3, [(0, 1), (0, 2)], False))
        # node 0 averages nodes 1 and 2; nodes 1 and 2 see only node 0
        assert out.data.tolist() == [[3.0, 5.0], [2.0, 0.0], [2.0, 0.0]]

    def test_neighbor_mean_empty_neighborhood_is_zero(self):
        X = nc.constant([[5.0, 5.0]])
        out = neighbor_mean(X, build_adjacency(1, [], False))
        assert out.data.tolist() == [[0.0, 0.0]]

    def test_row_count_checked(self):
        with pytest.raises(ShapeMismatchError):
            neighbor_mean(nc.constant(np.ones((2, 3))), build_adjacency(3, [], False))


class TestGraphConv:
    def test_edgeless_graph_ignores_neighbor_weights(self):
        rng = np.random.default_rng(4)
        layer = ConvLayer(3, 2, "relu", rng, "c")
        X = rng.normal(size=(4, 3))
        out = layer.forward(nc.constant(X), build_adjacency(4, [], False))
        expected = np.maximum(X @ layer.W_self.data + layer.bias.data, 0.0)
        assert np.array_equal(out.data, expected)

    def test_two_node_identity_exchange(self):
        layer = identity_layer(2)
        X = nc.constant([[1.0, 0.0], [0.0, 1.0]])
        out = layer.forward(X, build_adjacency(2, [(0, 1)], False))
        assert out.data.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_bad_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            ConvLayer(2, 2, "gelu", np.random.default_rng(0), "c")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        t = random_graph_tensors(rng, n_nodes=8, n_labels=4)
        layer = ConvLayer(4, 3, "tanh", np.random.default_rng(7), "c")
        perm = rng.permutation(8)
        p = permuted(t, perm)
        out = layer.forward(nc.constant(t.X), build_adjacency(8, t.A, False)).data
        out_p = layer.forward(nc.constant(p.X), build_adjacency(8, p.A, False)).data
        expected = np.zeros_like(out)
        for v in range(8):
            expected[perm[v]] = out[v]
        assert np.array_equal(out_p, expected)


class TestScoreNodes:
    def test_zero_weights_tie_all_scores(self):
        layer = ConvLayer(3, 1, "identity", np.random.default_rng(0), "s")
        layer.W_self.data[...] = 0.0
        layer.W_neigh.data[...] = 0.0
        t = random_graph_tensors(np.random.default_rng(1), n_nodes=5, n_labels=3)
        alpha = layer.forward(nc.constant(t.X), build_adjacency(5, t.A, False))
        assert alpha.data.reshape(-1).tolist() == [0.0] * 5

    def test_edgeless_scores_depend_on_own_features_only(self):
        rng = np.random.default_rng(2)
        layer = ConvLayer(3, 1, "identity", rng, "s")
        X = rng.normal(size=(4, 3))
        alpha = layer.forward(nc.constant(X), build_adjacency(4, [], False))
        expected = X @ layer.W_self.data + layer.bias.data
        assert np.array_equal(alpha.data, expected)

    def test_two_node_hand_score(self):
        layer = ConvLayer(2, 1, "identity", np.random.default_rng(0), "s")
        layer.W_self.data[...] = [[1.0], [0.0]]
        layer.W_neigh.data[...] = [[0.0], [2.0]]
        layer.bias.data[...] = 0.0
        alpha = layer.forward(nc.constant([[1.0, 0.0], [0.0, 1.0]]),
                              build_adjacency(2, [(0, 1)], False))
        # node 0: own [1,0]@[1,0] + neigh [0,1]@[0,2] = 1 + 2 = 3
        # node 1: own [0,1]@[1,0] + neigh [1,0]@[0,2] = 0
        assert alpha.data.reshape(-1).tolist() == [3.0, 0.0]


class TestTopK:
    def test_half_of_four(self):
        assert kept([0.9, 0.1, 0.5, 0.3], 0.5, 4) == [0, 2]

    def test_ratio_one_keeps_all(self):
        assert kept([0.3, 0.1, 0.2], 1.0, 3) == [0, 1, 2]

    def test_single_node_survives_any_ratio(self):
        assert kept([0.0], 0.01, 1) == [0]

    def test_k_is_ceiling(self):
        assert len(kept([5.0, 4.0, 3.0, 2.0, 1.0], 0.5, 5)) == 3

    def test_ties_break_toward_lower_id(self):
        assert kept([1.0, 1.0, 1.0, 1.0], 0.5, 4) == [0, 1]

    def test_result_sorted_ascending(self):
        assert kept([0.1, 0.9, 0.2, 0.8], 0.5, 4) == [1, 3]

    def test_accepts_tensor_scores(self):
        # the scorer's n x 1 column, as embed_batch passes it
        assert kept(nc.constant([[0.9], [0.1]]).data, 0.5, 2) == [0]

    def test_score_count_checked(self):
        with pytest.raises(ShapeMismatchError):
            kept([1.0, 2.0], 0.5, 3)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyPoolError):
            kept([], 0.5, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        pr=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_pool_size_formula(self, n, pr, seed):
        scores = np.random.default_rng(seed).normal(size=n)
        P = kept(scores, pr, n)
        assert len(P) == max(1, math.ceil(pr * n))
        assert 1 <= len(P) <= n
        assert P == sorted(P)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.25, 2.0]), min_size=1,
                        max_size=30),
        pr=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_matches_sorted_oracle(self, scores, pr):
        # few distinct values, so ties (including -0.0 against 0.0) are common
        n = len(scores)
        k = max(1, math.ceil(pr * n))
        oracle = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
        assert kept(scores, pr, n) == oracle


class TestPoolGraph:
    def test_zero_scores_zero_features(self):
        X = nc.constant(RNG.normal(size=(3, 2)))
        alpha = nc.constant(np.zeros((3, 1)))
        h = pool_one(X, alpha, [0, 1, 2], "sum")
        assert np.array_equal(h.data, np.zeros((1, 2)))

    def test_rows_scaled_by_tanh_alpha(self):
        X = nc.constant([[2.0, 4.0], [1.0, 1.0]])
        alpha = nc.constant([[0.5], [-1.0]])
        h = pool_one(X, alpha, [0, 1], "sum")
        expected = (np.array([[2.0, 4.0], [1.0, 1.0]]) * np.tanh([[0.5], [-1.0]])).sum(axis=0)
        assert np.allclose(h.data, expected.reshape(1, 2))


class TestReadout:
    """pool_graph's readout over the kept rows, with unit gates."""

    X = [[1.0, 2.0], [3.0, 4.0]]
    GATES = [[ONE], [ONE]]

    def test_sum(self):
        out = pool_one(nc.constant(self.X), nc.constant(self.GATES), [0, 1], "sum")
        assert out.data.tolist() == [[4.0, 6.0]]

    def test_mean(self):
        out = pool_one(nc.constant(self.X), nc.constant(self.GATES), [0, 1], "mean")
        assert out.data.tolist() == [[2.0, 3.0]]

    def test_single_row_same_under_both(self):
        args = nc.constant(self.X), nc.constant(self.GATES), [1]
        assert pool_one(*args, "sum").data.tolist() == pool_one(*args, "mean").data.tolist()

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            pool_one(nc.constant(self.X), nc.constant(self.GATES), [], "sum")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pool_one(nc.constant(self.X), nc.constant(self.GATES), [0], "max")


def tiny_model(**overrides):
    arch = {"in_dim": 4, "conv_dims": [5, 4], "activation": "tanh"}
    arch.update(overrides)
    return build_model(arch, seed=9)


def alpha_of(model, t):
    X = nc.constant(t.X)
    adj = build_adjacency(X.rows, t.A, model.arch["directed_messages"])
    for layer in model.conv_stack:
        X = layer.forward(X, adj)
    return model.scorer.forward(X, adj).data.reshape(-1)


class TestEmbed:
    def test_message_arrays_kept_per_direction_setting(self):
        t = GraphTensors(X=np.eye(3), A=[(0, 1), (1, 2)], graph_id="g")
        undirected = build_model({"in_dim": 3, "conv_dims": [2]}, seed=1)
        directed = build_model({"in_dim": 3, "conv_dims": [2], "directed_messages": True},
                               seed=1)
        first = embed(undirected, t).data
        assert list(t.adjacency) == [False]
        kept = t.adjacency[False]
        embed(directed, t)
        assert sorted(t.adjacency) == [False, True]
        assert t.adjacency[False] is kept
        assert t.adjacency[True].msg_src.size == 2
        assert kept.msg_src.size == 4
        assert np.array_equal(embed(undirected, t).data, first)
        # the kept arrays take no part in equality or repr
        kept_field = next(f for f in dataclasses.fields(t) if f.name == "adjacency")
        assert not kept_field.compare and "adjacency" not in repr(t)

    def test_deterministic(self):
        model = tiny_model()
        t = random_graph_tensors(np.random.default_rng(3), n_nodes=9, n_labels=4)
        assert np.array_equal(embed(model, t).data, embed(model, t).data)

    def test_fixed_length_output(self):
        model = tiny_model()
        for n in (2, 5, 17):
            t = random_graph_tensors(np.random.default_rng(n), n_nodes=n, n_labels=4)
            assert embed(model, t).shape == (1, 4)

    def test_two_node_hand_trace(self):
        model = build_model(
            {"in_dim": 2, "conv_dims": [2], "activation": "identity"}, seed=0
        )
        model.conv_stack[0].W_self.data[...] = np.eye(2)
        model.conv_stack[0].W_neigh.data[...] = np.eye(2)
        model.conv_stack[0].bias.data[...] = 0.0
        model.scorer.W_self.data[...] = [[1.0], [0.0]]
        model.scorer.W_neigh.data[...] = 0.0
        model.scorer.bias.data[...] = 0.0
        t = GraphTensors(X=np.eye(2), A=[(0, 1)], graph_id="hand")
        # conv: both rows become [1,1]; alpha = [1,1]; k=1 keeps node 0;
        # gated row = [1,1]*tanh(1); sum readout = that row
        h = embed(model, t)
        assert np.allclose(h.data, np.tanh(1.0) * np.ones((1, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_permutation_invariance_with_distinct_scores(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model()
        t = random_graph_tensors(rng, n_nodes=8, n_labels=4, jitter=0.2)
        scores = alpha_of(model, t)
        gaps = np.diff(np.sort(scores))
        assume(gaps.size == 0 or gaps.min() > 1e-9)
        perm = rng.permutation(8)
        h0 = embed(model, t).data
        h1 = embed(model, permuted(t, perm)).data
        assert np.allclose(h0, h1, rtol=0.0, atol=1e-6)


class TestHeads:
    def test_zero_weight_classifier_is_uniform(self):
        model = tiny_model()
        for p in model.mlp.params():
            p.data[...] = 0.0
        probs = classify(model, nc.constant([[1.0, 2.0, 3.0, 4.0]]))
        assert probs.data.tolist() == [[0.5, 0.5]]

    def test_probabilities_sum_to_one(self):
        model = tiny_model()
        probs = classify(model, nc.constant(RNG.normal(size=(1, 4)))).data
        assert np.all(probs >= 0.0)
        assert np.isclose(probs.sum(), 1.0)

    def test_single_layer_hand_mlp(self):
        model = build_model(
            {"in_dim": 2, "conv_dims": [2], "mlp_hidden": []}, seed=0
        )
        model.mlp.weights[0].data[...] = [[1.0, 0.0], [0.0, 1.0]]
        model.mlp.biases[0].data[...] = [[1.0, 0.0]]
        probs = classify(model, nc.constant([[1.0, 2.0]])).data
        logits = np.array([2.0, 2.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(probs, expected.reshape(1, 2))

    def test_classifier_output_dim_is_two(self):
        model = tiny_model()
        assert model.mlp.weights[-1].data.shape[1] == 2

    def test_classify_requires_classifier_head(self):
        model = tiny_model(head="siamese")
        with pytest.raises(WrongHeadError):
            classify(model, nc.constant([[1.0, 0.0, 0.0, 0.0]]))

    def test_pair_similarity_requires_siamese_head(self):
        model = tiny_model()
        h = nc.constant([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(WrongHeadError):
            similarity(model, h, h)

    def test_pair_similarity_extremes(self):
        model = tiny_model(head="siamese")
        h = nc.constant([[0.6, -0.8, 0.0, 0.0]])
        assert pair_similarity(model, h, np.array([0]), np.array([0])).item() == 1.0
        assert similarity(model, h, nc.constant(-h.data)).item() == -1.0
        ortho = nc.constant([[0.0, 0.0, 2.5, 0.0]])
        assert similarity(model, h, ortho).item() == 0.0

    def test_zero_embedding_rejected(self):
        model = tiny_model(head="siamese")
        zero = nc.constant([[0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ZeroVectorError):
            similarity(model, zero, zero)


class TestBuildModel:
    def test_default_architecture_pinned(self):
        assert DEFAULT_ARCH["conv_dims"] == [64, 64]
        assert DEFAULT_ARCH["activation"] == "relu"
        assert DEFAULT_ARCH["pooling_ratio"] == 0.5
        assert DEFAULT_ARCH["readout"] == "sum"
        assert DEFAULT_ARCH["head"] == "classifier"
        assert DEFAULT_ARCH["mlp_hidden"] == [32]
        assert DEFAULT_ARCH["directed_messages"] is False

    def test_dimension_chain(self):
        model = build_model({"in_dim": 7, "conv_dims": [10, 6]}, seed=0)
        shapes = [layer.W_self.data.shape for layer in model.conv_stack]
        assert shapes == [(7, 10), (10, 6)]
        assert model.scorer.W_self.data.shape == (6, 1)
        assert model.mlp.weights[0].data.shape == (6, 32)

    def test_siamese_model_has_no_mlp(self):
        assert tiny_model(head="siamese").mlp is None

    def test_parameter_names_unique(self):
        names = [p.name for p in tiny_model().params()]
        assert len(names) == len(set(names))

    def test_seed_controls_init(self):
        a = build_model({"in_dim": 4}, seed=1)
        b = build_model({"in_dim": 4}, seed=1)
        c = build_model({"in_dim": 4}, seed=2)
        assert np.array_equal(a.params()[0].data, b.params()[0].data)
        assert not np.array_equal(a.params()[0].data, c.params()[0].data)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_model({"in_dim": 4, "dropout": 0.5}, seed=0)

    def test_in_dim_required(self):
        with pytest.raises(ValueError, match="in_dim"):
            build_model({"conv_dims": [8]}, seed=0)

    def test_bad_readout_rejected(self):
        with pytest.raises(ValueError, match="readout"):
            build_model({"in_dim": 4, "readout": "max"}, seed=0)

    def test_bad_head_rejected(self):
        with pytest.raises(ValueError, match="head"):
            build_model({"in_dim": 4, "head": "regressor"}, seed=0)

    def test_bad_pooling_ratio_rejected(self):
        for pr in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="pooling_ratio"):
                build_model({"in_dim": 4, "pooling_ratio": pr}, seed=0)


class TestEndToEndGradient:
    def test_classifier_composite_matches_finite_differences(self):
        model = tiny_model()  # tanh activation keeps the composite smooth
        t = random_graph_tensors(np.random.default_rng(8), n_nodes=7, n_labels=4, jitter=0.2)
        scores = alpha_of(model, t)
        assert np.diff(np.sort(scores)).min() > 1e-4  # stable top-k under nudges

        def loss():
            return cross_entropy(classify(model, embed(model, t)), np.array([[1.0, 0.0]]))

        fd_gradcheck(loss, model.params())

    def test_siamese_composite_matches_finite_differences(self):
        model = tiny_model(head="siamese")
        rng = np.random.default_rng(14)
        t1 = random_graph_tensors(rng, n_nodes=6, n_labels=4, jitter=0.2)
        t2 = random_graph_tensors(rng, n_nodes=8, n_labels=4, jitter=0.2)
        for t in (t1, t2):
            scores = alpha_of(model, t)
            assert np.diff(np.sort(scores)).min() > 1e-4

        def loss():
            return pair_similarity(model, pair_embedding(model, t1, t2), np.array([0]),
                                   np.array([1]))

        fd_gradcheck(loss, model.params())


def tape_ops(loss) -> int:
    """Operation nodes (tensors with a backward) reachable from ``loss``."""
    seen, stack, ops = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            ops += t._backward_fn is not None
            stack.extend(t._parents)
    return ops


class TestTapeSize:
    """One tape node per layer: three convs (two plus the scorer), the
    pool, the head's layers and the loss."""

    def test_classified_graph(self):
        model = build_model({"in_dim": 4}, seed=0)
        t = random_graph_tensors(np.random.default_rng(5), n_nodes=12, n_labels=4)
        loss = cross_entropy(classify(model, embed(model, t)), np.array([[1.0, 0.0]]))
        assert tape_ops(loss) <= 10

    def test_siamese_pair(self):
        model = build_model({"in_dim": 4, "head": "siamese"}, seed=0)
        rng = np.random.default_rng(6)
        t1, t2 = (random_graph_tensors(rng, n_nodes=n, n_labels=4) for n in (9, 12))
        sim = pair_similarity(model, pair_embedding(model, t1, t2), np.array([0]), np.array([1]))
        loss = contrastive_loss(sim, -1, 0.5)
        assert tape_ops(loss) <= 12
