"""Undirected graphs as canonical edge lists, and the symmetric normalized
propagation operator as a plain SciPy CSR matrix."""

from __future__ import annotations

import logging

import numpy as np
from scipy import sparse

log = logging.getLogger(__name__)


def canonical_edges(pairs: np.ndarray, n: int) -> tuple[np.ndarray, int, int]:
    """Canonicalize an edge array: undirected, deduplicated, no self-loops.

    ``pairs`` is any (k, 2) integer array.  Returns (edges, n_duplicates,
    n_self_loops) where ``edges`` is (m, 2) with i < j, sorted
    lexicographically.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError(f"edge endpoint out of range [0, {n})")
    loops = pairs[:, 0] == pairs[:, 1]
    n_loops = int(loops.sum())
    pairs = pairs[~loops]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = lo * n + hi
    uniq = np.unique(keys)
    n_dup = keys.size - uniq.size
    edges = np.column_stack([uniq // n, uniq % n])
    return edges, n_dup, n_loops


class SparseGraph:
    """Undirected unweighted graph stored as its canonical edge list.

    ``edges`` is (m, 2) with i < j, no duplicates, no self-loops, sorted
    lexicographically.  Instances are immutable after construction.
    """

    def __init__(self, n: int, pairs: np.ndarray | list):
        if n < 1:
            raise ValueError("graph needs at least one node")
        self.n = int(n)
        edges, n_dup, n_loops = canonical_edges(
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2), self.n
        )
        if n_dup or n_loops:
            log.debug("dropped %d duplicate edges, %d self-loops", n_dup, n_loops)
        self.edges = edges

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def edge_keys(self) -> np.ndarray:
        """Edges encoded as i*n + j (i < j), for fast membership tests."""
        return self.edges[:, 0] * self.n + self.edges[:, 1]


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
