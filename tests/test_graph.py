import numpy as np
import pytest

from agst import SparseGraph, normalize_adjacency

from conftest import random_graph_edges


def dense_normalized(graph):
    """Independent dense oracle: D^-1/2 (A + I) D^-1/2 with degrees from A."""
    n = graph.n
    a = np.zeros((n, n))
    for i, j in graph.edges:
        a[i, j] = a[j, i] = 1.0
    a_tilde = a + np.eye(n)
    d = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    return d @ a_tilde @ d


class TestSparseGraph:
    def test_canonicalization_dedupes_and_drops_loops(self):
        g = SparseGraph(4, [[1, 0], [0, 1], [2, 2], [3, 1], [1, 3]])
        assert g.m == 2
        assert np.array_equal(g.edges, [[0, 1], [1, 3]])

    def test_csr_symmetry_and_counts(self):
        # every edge given in both directions: one canonical (i < j) row per
        # edge, sorted, and degrees equal to the dense adjacency's row sums
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            pairs = random_graph_edges(rng, n, 0.4)
            both = np.concatenate([pairs[:, ::-1], pairs])
            g = SparseGraph(n, both)
            dense = np.zeros((n, n))
            dense[both[:, 0], both[:, 1]] = 1.0
            assert np.array_equal(dense, dense.T)
            assert g.m == pairs.shape[0]
            assert np.array_equal(g.edges, np.argwhere(np.triu(dense)))
            assert np.array_equal(g.degrees, dense.sum(axis=1))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseGraph(3, [[0, 5]])

    def test_degrees(self, path3_graph):
        assert np.array_equal(path3_graph.degrees, [1, 2, 1])


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        op = normalize_adjacency(SparseGraph(1, []))
        assert np.allclose(op.toarray(), [[1.0]])

    def test_two_nodes_one_edge(self):
        # both degrees 1, so every entry is 1/sqrt(2*2) = 0.5
        op = normalize_adjacency(SparseGraph(2, [[0, 1]]))
        assert np.allclose(op.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_path_graph_values(self, path3_graph):
        s = normalize_adjacency(path3_graph).toarray()
        assert s[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert s[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-15)
        assert s[1, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert np.allclose(s, dense_normalized(path3_graph), atol=1e-15)

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            g = SparseGraph(n, random_graph_edges(rng, n, 0.3))
            assert np.max(np.abs(normalize_adjacency(g).toarray() - dense_normalized(g))) < 1e-12

    def test_spectral_contraction_on_random_vectors(self):
        rng = np.random.default_rng(11)
        g = SparseGraph(12, random_graph_edges(rng, 12, 0.3))
        op = normalize_adjacency(g)
        for _ in range(10):
            v = rng.normal(size=(12, 1))
            assert np.linalg.norm(op @ v) <= np.linalg.norm(v) + 1e-12


class TestSpmm:
    """The operator's sparse-dense product ``op @ dense``."""

    def test_identity_operator(self):
        op = normalize_adjacency(SparseGraph(3, []))  # isolated nodes: S = I
        m = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(op @ m, m)

    def test_two_node_product(self):
        op = normalize_adjacency(SparseGraph(2, [[0, 1]]))
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        # dense oracle: [[.5,.5],[.5,.5]] @ [[1,0],[0,0]]
        assert np.allclose(op @ m, [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)

    def test_zero_matrix_annihilated(self):
        op = normalize_adjacency(SparseGraph(4, [[0, 1], [2, 3]]))
        assert np.array_equal(op @ np.zeros((4, 3)), np.zeros((4, 3)))

    def test_matches_dense_product_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 16))
            g = SparseGraph(n, random_graph_edges(rng, n, 0.35))
            op = normalize_adjacency(g)
            m = rng.normal(size=(n, int(rng.integers(1, 5))))
            assert np.max(np.abs(op @ m - dense_normalized(g) @ m)) < 1e-12

    def test_shape_mismatch_rejected(self):
        op = normalize_adjacency(SparseGraph(3, [[0, 1]]))
        with pytest.raises(ValueError, match="mismatch"):
            op @ np.zeros((4, 2))
