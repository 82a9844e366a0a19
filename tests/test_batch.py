"""The batched forward pass and its operations: a GraphBatch embeds every
graph as graph2vec.embed (a batch of one) does alone, per-graph top-k keeps
the same nodes,
and segment pooling, the pair cosine and the summed contrastive loss pass
finite-difference checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradcheck
from hwgnn import nncore as nc
from hwgnn.errors import EmptyPoolError, ShapeMismatchError
from hwgnn.graph2vec import GraphBatch, build_model, embed, embed_batch, topk_filter
from hwgnn.graphdata import GraphTensors

LABELS = 4


@st.composite
def graphs(draw):
    """1-8 nodes (1-node graphs and isolated nodes included), any edges."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, LABELS - 1), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=12))
    return GraphTensors(X=np.eye(LABELS)[labels], A=edges, graph_id="g")


@st.composite
def batches(draw):
    """Graphs with repeats: the same object twice, or an equal copy."""
    pool = draw(st.lists(graphs(), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=7))
    out = []
    for i in picks:
        t = pool[i]
        out.append(t if draw(st.booleans()) else GraphTensors(X=t.X.copy(), A=t.A.copy(),
                                                              graph_id="copy"))
    return out


ARCHES = [
    {"in_dim": LABELS, "conv_dims": [6, 5]},
    {"in_dim": LABELS, "conv_dims": [3], "readout": "mean", "activation": "tanh",
     "pooling_ratio": 0.3, "directed_messages": True, "head": "siamese"},
]


class TestBatchedForward:
    @settings(max_examples=60, deadline=None)
    @given(batch=batches(), arch=st.sampled_from(ARCHES), seed=st.integers(0, 50))
    def test_rows_equal_per_graph_embed(self, batch, arch, seed):
        model = build_model(arch, seed=seed)
        H = embed_batch(model, GraphBatch.of(batch, arch.get("directed_messages", False)))
        assert H.shape == (len(batch), arch["conv_dims"][-1])
        for row, t in zip(H.data, batch):
            np.testing.assert_allclose(row, embed(model, t).data[0], rtol=0, atol=1e-12)

    def test_one_graph_batch_matches_embed(self):
        t = GraphTensors(X=np.eye(LABELS)[[0, 1, 2, 3, 1]], A=[(0, 1), (1, 2), (3, 4)],
                         graph_id="g")
        model = build_model(ARCHES[0], seed=3)
        one = embed_batch(model, GraphBatch.of([t], False)).data
        np.testing.assert_array_equal(one, embed(model, t).data)

    def test_empty_batch_and_mixed_widths_are_refused(self):
        with pytest.raises(EmptyPoolError):
            GraphBatch.of([], False)
        a = GraphTensors(X=np.eye(3), A=[], graph_id="a")
        b = GraphTensors(X=np.eye(4), A=[], graph_id="b")
        with pytest.raises(ShapeMismatchError):
            GraphBatch.of([a, b], False)


class TestSegmentTopk:
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           pr=st.sampled_from([0.01, 0.3, 0.5, 0.77, 1.0]), data=st.data())
    def test_keeps_what_each_graph_keeps_alone(self, sizes, pr, data):
        # few distinct values, so ties are common
        values = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                             min_size=sum(sizes), max_size=sum(sizes))))
        keep, segment = topk_filter(values, pr, np.array(sizes))
        want, want_seg, offset = [], [], 0
        for g, n in enumerate(sizes):
            kept, _ = topk_filter(values[offset:offset + n], pr, np.array([n]))
            want += [offset + i for i in kept]
            want_seg += [g] * len(kept)
            offset += n
        assert keep.tolist() == want
        assert segment.tolist() == want_seg

    def test_empty_graph_refused(self):
        with pytest.raises(EmptyPoolError):
            topk_filter(np.array([1.0]), 0.5, np.array([1, 0]))


def param(data, name):
    return nc.Parameter(np.array(data, dtype=np.float64), name)


RNG = np.random.default_rng(24)


class TestGradients:
    @pytest.mark.parametrize("readout", ["sum", "mean"])
    def test_segment_pooling_and_readout(self, readout):
        X = param(RNG.normal(size=(7, 3)), "X")
        alpha = param(RNG.normal(size=(7, 1)), "alpha")
        keep = np.array([0, 2, 3, 4, 6])
        segment = np.array([0, 0, 1, 2, 2])
        w = RNG.normal(size=(3, 3))

        def loss():
            pooled = nc.gate_pool(X, alpha, keep, readout, segment)
            return nc.cross_entropy(nc.softmax_rows(nc.dense(pooled, nc.constant(w),
                                                             nc.constant(np.zeros((1, 3))))),
                                    np.eye(3))

        fd_gradcheck(loss, [X, alpha])

    def test_segment_pooling_sums_each_segment(self):
        X = nc.constant(np.arange(8.0).reshape(4, 2))
        alpha = nc.constant(np.full((4, 1), 20.0))  # tanh(20) == 1.0
        out = nc.gate_pool(X, alpha, np.array([0, 1, 3]), "sum", np.array([0, 0, 1]))
        assert out.data.tolist() == [[2.0, 4.0], [6.0, 7.0]]
        out = nc.gate_pool(X, alpha, np.array([0, 1, 3]), "mean", np.array([0, 0, 1]))
        assert out.data.tolist() == [[1.0, 2.0], [6.0, 7.0]]

    @pytest.mark.parametrize("segment", [[1, 1], [0, 2], [1, 0]])
    def test_segments_must_count_up_from_zero(self, segment):
        X = nc.constant(np.ones((2, 2)))
        with pytest.raises(ShapeMismatchError):
            nc.gate_pool(X, nc.constant(np.ones((2, 1))), np.array([0, 1]), "sum",
                         np.array(segment))

    def test_pair_cosine_and_contrastive_loss(self):
        H = param(RNG.normal(size=(4, 3)), "H")
        first, second = np.array([0, 1, 2, 0, 3]), np.array([1, 2, 3, 3, 3])
        labels = [1, -1, -1, 1, 1]

        def loss():
            return nc.contrastive_loss(nc.pair_cosine(H, first, second), labels, margin=-0.9)

        fd_gradcheck(loss, [H])

    def test_pair_cosine_matches_the_single_pair_cosine(self):
        H = RNG.normal(size=(3, 5))
        sims = nc.pair_cosine(nc.constant(H), np.array([0, 2]), np.array([1, 0])).data
        for s, (i, j) in zip(sims[:, 0], [(0, 1), (2, 0)]):
            want = np.dot(H[i], H[j]) / (np.linalg.norm(H[i]) * np.linalg.norm(H[j]))
            assert s == pytest.approx(want, abs=1e-15)

    def test_equal_rows_score_exactly_one(self):
        H = nc.constant(np.array([[0.1, 0.7, -0.3], [0.1, 0.7, -0.3], [1.0, 0.0, 0.0]]))
        sims = nc.pair_cosine(H, np.array([0, 0, 2]), np.array([1, 0, 2])).data
        assert sims[:, 0].tolist() == [1.0, 1.0, 1.0]

    def test_batched_loss_is_the_sum_of_single_losses(self):
        sims = [0.9, 0.2, 0.7, -0.4]
        labels = [1, 1, -1, -1]
        total = nc.contrastive_loss(nc.constant(np.array(sims)[:, None]), labels, 0.5).item()
        each = sum(nc.contrastive_loss(nc.constant([[s]]), y, 0.5).item()
                   for s, y in zip(sims, labels))
        assert total == pytest.approx(each, abs=1e-15)

    def test_labels_must_match_rows(self):
        with pytest.raises(ShapeMismatchError):
            nc.contrastive_loss(nc.constant([[0.5], [0.5]]), [1], 0.5)
