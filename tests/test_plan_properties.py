"""Property tests: the blocked rewiring plan equals the full-enumeration plan.

The reference ranks every candidate from ``reference.generate_candidates`` by
(-probability, i, j) with ``edge_probability`` and ``lexsort``; the blocked
plan must return the same pairs and bit-identical probabilities, and warn
about a quota shortfall with the same candidate count.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from agst import (  # noqa: E402
    AugmentConfig,
    SparseGraph,
    edge_probability,
    plan_augmentation,
    rewiring,
)
from reference import generate_candidates  # noqa: E402


def reference_plan(graph, p, cfg):
    """(added, added_prob, removed, removed_prob, candidate count)."""
    additions, removals = generate_candidates(np.argmax(p, axis=1), graph)
    add_probs = edge_probability(p, additions)
    order = np.lexsort((additions[:, 1], additions[:, 0], -add_probs))
    order = order[:int(cfg.beta_add * graph.m)]
    rem_probs = edge_probability(p, removals)
    keep = np.lexsort((removals[:, 1], removals[:, 0], rem_probs))
    keep = keep[:int(cfg.beta_remove * graph.m)]
    return (additions[order], add_probs[order], removals[keep], rem_probs[keep],
            additions.shape[0])


BETA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def plan_cases(draw):
    """(graph, p, cfg, block rows) covering the cases blocked planning must get
    right: exact score ties at the cut-off, one class, empty and singleton
    classes, quotas above the candidate count, m = 0, betas at 0 and 1, and
    classes spanning several row blocks."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(rewiring.BLOCK_ROWS - 2,
                                                       rewiring.BLOCK_ROWS + 40)))
    c = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9]))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    graph = SparseGraph(n, np.column_stack([iu[keep], ju[keep]]))
    distinct = draw(st.one_of(st.none(), st.integers(1, 3)))
    if distinct is None:
        raw = rng.random((n, c)) + 1e-6
    else:
        # rows from a small set: many pairs share one score exactly
        raw = (rng.random((distinct, c)) + 1e-6)[rng.integers(0, distinct, n)]
    p = raw / raw.sum(axis=1, keepdims=True)
    cfg = AugmentConfig(beta_add=draw(BETA), beta_remove=draw(BETA))
    block_rows = draw(st.sampled_from([2, 3, 7, rewiring.BLOCK_ROWS]))
    return graph, p, cfg, block_rows


@settings(max_examples=250, deadline=None, derandomize=True)
@given(plan_cases())
def test_blocked_plan_equals_reference(case):
    graph, p, cfg, block_rows = case
    added, added_prob, removed, removed_prob, count = reference_plan(graph, p, cfg)
    with mock.patch.object(rewiring, "BLOCK_ROWS", block_rows), \
            mock.patch.object(rewiring.log, "warning") as warning:
        plan = plan_augmentation(graph, p, cfg)
    assert np.array_equal(plan.added, added)
    assert np.array_equal(plan.added_prob, added_prob)
    assert np.array_equal(plan.removed, removed)
    assert np.array_equal(plan.removed_prob, removed_prob)
    quota = int(cfg.beta_add * graph.m)
    if 0 < quota and count < quota:
        warning.assert_called_once_with(
            "only %d addition candidates for a quota of %d", count, quota)
    else:
        warning.assert_not_called()


@pytest.mark.parametrize("sizes", [(1,), (600,), (0, 300, 1), (1, 1, 257)])
def test_class_sizes(sizes):
    """One class, singleton classes, a class absent from the predictions, and
    classes larger than one row block, at the real block size."""
    rng = np.random.default_rng(sum(sizes))
    c = len(sizes)
    hard = np.repeat(np.arange(c), sizes)
    raw = rng.random((hard.size, c)) + 1e-6
    raw[np.arange(hard.size), hard] += c          # argmax is the drawn class
    p = raw / raw.sum(axis=1, keepdims=True)
    n = hard.size
    graph = SparseGraph(n, rng.integers(0, n, size=(2 * n, 2)))
    cfg = AugmentConfig(beta_add=0.9, beta_remove=0.3)
    added, added_prob, removed, removed_prob, _ = reference_plan(graph, p, cfg)
    plan = plan_augmentation(graph, p, cfg)
    assert np.array_equal(plan.added, added)
    assert np.array_equal(plan.added_prob, added_prob)
    assert np.array_equal(plan.removed, removed)
    assert np.array_equal(plan.removed_prob, removed_prob)
