"""The neighbour sum of graph_conv: bit for bit the reference scatter of
``tests/aggregation_reference.py``, forward and transposed, on every kind of
message array, and never an m x d temporary."""
import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aggregation_reference import neighbour_sum, neighbour_sum_transposed
from hwgnn import nncore as nc
from hwgnn.graph2vec import GraphBatch, build_adjacency, build_model, embed
from hwgnn.graphdata import GraphTensors

HUB_DEGREE = 100  # in-degree of the hub that some examples carry


def _inv_deg(dst: np.ndarray, n: int) -> np.ndarray:
    deg = np.bincount(dst, minlength=n)[:, None].astype(np.float64)
    return np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)


def _edges(rng, n: int, m: int, hub: bool) -> np.ndarray:
    """m random edges among n nodes, plus, with ``hub``, an edge (0, j) to
    every other node (n > HUB_DEGREE then), in shuffled order."""
    edges = rng.integers(0, n, size=(m, 2))
    if hub:
        star = np.stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n)), axis=1)
        edges = rng.permutation(np.vstack((edges, star)))
    return edges


@st.composite
def adjacencies(draw):
    """Message arrays of four kinds: raw arrays (unsorted, repeated messages,
    possibly none), build_adjacency directed and undirected, and the
    adjacency of a GraphBatch of several graphs.  With ``hub``, node 0 gets
    at least HUB_DEGREE messages; trailing nodes that no edge touches stay
    isolated."""
    kind = draw(st.sampled_from(["raw", "directed", "undirected", "batch"]))
    hub = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    isolated = draw(st.integers(0, 3))

    def graph_edges():
        n = HUB_DEGREE + 1 + draw(st.integers(0, 20)) if hub else draw(st.integers(1, 25))
        return n, _edges(rng, n, draw(st.integers(0, 40)), hub)

    if kind == "raw":
        n, edges = graph_edges()
        if hub:  # repeat the hub's messages: raw arrays need not be deduplicated
            edges = rng.permutation(np.vstack((edges, edges[edges[:, 0] == 0])))
        n += isolated
        dst, src = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp)
        return SimpleNamespace(n=n, msg_src=src, msg_dst=dst, inv_deg=_inv_deg(dst, n))
    if kind != "batch":
        n, edges = graph_edges()
        return build_adjacency(n + isolated, edges, kind == "directed")
    graphs = []
    for _ in range(draw(st.integers(2, 4))):
        n, edges = graph_edges()
        graphs.append(GraphTensors(X=np.zeros((n + isolated, 1)), A=edges, graph_id="g"))
        hub = hub and draw(st.booleans())
    return GraphBatch.of(graphs, draw(st.booleans())).adj


def _values(rng, shape) -> np.ndarray:
    """Random magnitudes over twelve decades, a fifth of them -0.0 and a
    tenth +0.0, so that any change of summation order shows in the bits."""
    out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    u = rng.uniform(size=shape)
    out[u < 0.2] = -0.0
    out[(u >= 0.2) & (u < 0.3)] = 0.0
    return out


class TestPlannedSum:
    @settings(max_examples=200, deadline=None)
    @given(adj=adjacencies(), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_reference_bit_for_bit(self, adj, d, seed):
        X = _values(np.random.default_rng(seed), (adj.n, d))
        for transposed, reference in ((False, neighbour_sum), (True, neighbour_sum_transposed)):
            got = nc._planned_sum(X, nc._adj_plan(adj, transposed), adj.n)
            assert got.tobytes() == reference(X, adj).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(adj=adjacencies(), seed=st.integers(0, 2**32 - 1))
    def test_graph_conv_forward_and_backward_use_the_exact_sums(self, adj, seed):
        rng = np.random.default_rng(seed)
        X = nc.Tensor(_values(rng, (adj.n, 3)), requires_grad=True)
        W_self = nc.Parameter(rng.standard_normal((3, 2)), "W_self")
        W_neigh = nc.Parameter(rng.standard_normal((3, 2)), "W_neigh")
        bias = nc.Parameter(rng.standard_normal((1, 2)), "bias")
        out = nc.graph_conv(X, W_self, W_neigh, bias, adj, "identity")
        mean = neighbour_sum(X.data, adj) * adj.inv_deg
        pre = X.data @ W_self.data + mean @ W_neigh.data + bias.data
        assert out.data.tobytes() == pre.tobytes()
        g = rng.standard_normal(out.shape)
        out._backward_fn(g)
        want = np.zeros_like(X.data)
        want[...] += g @ W_self.data.T
        want += neighbour_sum_transposed((g @ W_neigh.data.T) * adj.inv_deg, adj)
        assert X.grad.tobytes() == want.tobytes()

    def test_plans_are_kept_on_the_adjacency(self):
        adj = build_adjacency(3, [(0, 1), (1, 2)], False)
        forward = nc._adj_plan(adj, False)
        assert nc._adj_plan(adj, False) is forward
        assert set(adj.plans) == {False}


class TestMemory:
    # 2,000 nodes and 39,890 messages: ten hubs joined to every node, so
    # m is 20 n; one m x d float64 array alone would be 20 n d 8 bytes
    N, HUBS, D = 2000, 10, 64
    # the conv layers' n x d arrays and the plan's few index arrays of m
    # ints (m 8 = 2.5 n d 8 bytes here) fit in C n d 8 bytes
    C = 10

    def test_no_tape_embed_allocates_no_message_by_feature_array(self):
        rng = np.random.default_rng(0)
        edges = [(h, j) for h in range(self.HUBS) for j in range(self.N) if j != h]
        X = np.eye(self.D)[rng.integers(0, self.D, size=self.N)]
        t = GraphTensors(X=X, A=np.array(edges, dtype="<i8"), graph_id="hubs")
        model = build_model({"in_dim": self.D, "conv_dims": [self.D, self.D]}, seed=0)
        with nc.no_tape():
            embed(model, t)  # builds the graph's message arrays, kept on t
            tracemalloc.start()
            try:
                embed(model, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        m = t.adjacency[False].msg_src.size
        assert m > 19 * self.N
        assert peak < self.C * self.N * self.D * 8, f"peak {peak} bytes"
