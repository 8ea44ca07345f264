"""Undirected graphs in one canonical form, and the symmetric normalized
propagation operator as a plain SciPy CSR matrix.

``SparseGraph`` alone knows how an edge is encoded: every caller hands it
raw pairs and asks it about edges."""

from __future__ import annotations

import numpy as np
from scipy import sparse


class SparseGraph:
    """Undirected unweighted graph on nodes 0..n-1 in canonical form.

    Built from any (k, 2) integer pairs with endpoints in [0, n): each edge is
    kept once as i < j, and self-loops and duplicates are dropped.  ``edges``
    is the (m, 2) edge list sorted lexicographically, and ``keys`` the same
    edges encoded as i * n + j, sorted, which ``has_edges`` searches.
    Instances are immutable after construction.
    """

    def __init__(self, n: int, pairs: np.ndarray | list):
        if n < 1:
            raise ValueError("graph needs at least one node")
        self.n = n = int(n)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        # a sort and a neighbour compare: numpy's unique hashes integer
        # input, which is several times slower at these sizes
        keys = np.sort(lo * n + hi)
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        self.keys = keys[fresh]
        self.edges = np.column_stack([self.keys // n, self.keys % n])

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def has_edges(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each pair (i[k], j[k]) with i[k] < j[k] is an edge."""
        keys = np.asarray(i, dtype=np.int64) * self.n + j
        if self.keys.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return self.keys[pos] == keys


def normalize_adjacency(graph: SparseGraph) -> sparse.csr_array:
    """The symmetric degree-normalized adjacency with self-loops, in CSR form.

    Entry (i, j) is 1/sqrt((d_i + 1)(d_j + 1)) for every edge of the
    self-looped adjacency, d being the degree in the plain graph.  An
    isolated node keeps a unit self-loop.
    """
    n = graph.n
    deg_plus_1 = graph.degrees.astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg_plus_1)
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1], loops])
    cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0], loops])
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n))
