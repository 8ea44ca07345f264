"""Property tests of the graph layer and the teacher: canonical edge lists,
the normalized operator, and the propagation iteration's rate of convergence.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from agst import LpConfig, SparseGraph, normalize_adjacency  # noqa: E402
from agst import propagate_labels  # noqa: E402
from agst.graph import canonical_edges  # noqa: E402
from agst.propagation import initial_label_matrix  # noqa: E402

from conftest import make_bundle, split_of  # noqa: E402
from reference import closed_form_oracle  # noqa: E402


@st.composite
def graphs(draw, max_n=30):
    """(n, pairs): any endpoints in range, duplicates, both directions and
    self-loops included."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_canonical_edges_is_idempotent(graph):
    n, pairs = graph
    edges, _, _ = canonical_edges(pairs, n)
    again, n_dup, n_loops = canonical_edges(edges, n)
    assert np.array_equal(again, edges)
    assert n_dup == 0 and n_loops == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_operator_is_symmetric_with_spectral_radius_at_most_one(graph):
    n, pairs = graph
    op = normalize_adjacency(SparseGraph(n, pairs))
    dense = op.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.max(np.abs(np.linalg.eigvalsh(dense))) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(), st.integers(1, 4), st.floats(0.05, 0.95), st.integers(1, 40), st.data())
def test_propagation_converges_at_rate_alpha(graph, c, alpha, steps, data):
    # Y(T) - Y* = (alpha S)^T (Y(0) - Y*) and the 2-norm of S is at most 1
    n, pairs = graph
    c = min(c, n)
    gold = np.array(data.draw(st.permutations(np.arange(n) % c)))
    labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
    bundle = make_bundle(n, pairs, gold, c)
    split = split_of(labeled)
    op = normalize_adjacency(bundle.graph)
    fixed = closed_form_oracle(op, bundle, split, alpha).matrix
    iterated = propagate_labels(op, bundle, split, LpConfig(alpha=alpha, steps=steps)).matrix
    start = np.linalg.norm(initial_label_matrix(bundle, split) - fixed)
    assert np.linalg.norm(iterated - fixed) <= alpha ** steps * start + 1e-12 * (1 + start)
