"""Reference neighbour sums: every message's row gathered into one m x d
array and scattered into n zero rows by one ``np.bincount``, in message
order.  It is the oracle that ``nncore.graph_conv``'s planned sum must
match bit for bit."""
import numpy as np


def scatter_rows(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """n zero rows with rows[i] added into row idx[i], in order of i."""
    d = rows.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


def neighbour_sum(X: np.ndarray, adj) -> np.ndarray:
    """Row v: the sum of X[msg_src[i]] over the messages i into v."""
    return scatter_rows(X[adj.msg_src], adj.msg_dst, adj.n)


def neighbour_sum_transposed(G: np.ndarray, adj) -> np.ndarray:
    """Row u: the sum of G[msg_dst[i]] over the messages i out of u."""
    return scatter_rows(G[adj.msg_dst], adj.msg_src, adj.n)
