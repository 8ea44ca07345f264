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
ARMS = ("random", "near one-hot", "equal norms", "edges on top", "small class first")


def normalized(raw):
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def plan_cases(draw):
    """(graph, p, cfg, block rows) covering the cases blocked planning must get
    right: exact score ties at the cut-off, one class, empty and singleton
    classes, quotas above the candidate count, m = 0, betas at 0 and 1,
    classes spanning several row blocks, and each path of the search in
    confidence order (one arm each):

    - near one-hot rows fill the quota, so the search stops at the norm
      bound before it reaches the diffuse rows;
    - rows that permute one dyadic row have exactly equal norms, so the
      visit order rests on the stable sort;
    - the most confident pairs are edges, so a seed that ignored the
      same-label edges would cut too high;
    - a small class with the highest norm bound but low mutual dots is
      visited first, so the large class's first block is seeded while
      0 < held < quota, and the held pair lies below the seed.
    """
    arm = draw(st.sampled_from(ARMS))
    n = draw(st.one_of(st.integers(1, 40), st.integers(rewiring.BLOCK_ROWS - 2,
                                                       rewiring.BLOCK_ROWS + 40)))
    c = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9]))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    p = normalized(rng.random((n, c)) + 1e-6)
    if arm == "random":
        distinct = draw(st.one_of(st.none(), st.integers(1, 3)))
        if distinct is not None:
            # rows from a small set: many pairs share one score exactly
            p = normalized(rng.random((distinct, c)) + 1e-6)[rng.integers(0, distinct, n)]
    elif arm == "near one-hot":
        sure = rng.random(n) < 0.5
        eps = 10.0 ** -rng.integers(3, 13, size=(n, 1))
        one_hot = np.eye(c)[rng.integers(0, c, n)]
        p[sure] = ((1 - eps) * one_hot + eps * p)[sure]
    elif arm == "equal norms":
        # entries are multiples of 1/16, so squares and their sums are exact
        row = rng.multinomial(16, np.full(c, 1 / c)) / 16
        p = rng.permuted(np.tile(row, (n, 1)), axis=1)
    elif arm == "edges on top":
        if iu.size:
            dots = np.einsum("ij,ij->i", p[iu], p[ju])
            keep |= dots >= np.quantile(dots, draw(st.floats(0.3, 0.95)))
    else:
        # class 0: rows (0.9, 0.1, 0) and (0.9, 0, 0.1), norm bound 0.82 but a
        # mutual dot of 0.81; class 1: rows near (0.05, 0.9, 0.05), bound and
        # dots 0.815; edges join the two classes only, so no same-label edge
        # makes room in the seed
        small = draw(st.integers(2, 4))
        n = max(n, small + 2)
        c = max(c, 3)
        iu, ju = np.triu_indices(n, k=1)
        keep = (rng.random(iu.size) < density) & (iu < small) & (ju >= small)
        base = np.zeros((n, c))
        base[:small, 0] = 0.9
        base[np.arange(small), 1 + np.arange(small) % 2] = 0.1
        base[small:, :3] = [0.05, 0.9, 0.05]
        p = normalized(base + 1e-5 * rng.random((n, c)))
    graph = SparseGraph(n, np.column_stack([iu[keep], ju[keep]]))
    cfg = AugmentConfig(beta_add=draw(BETA), beta_remove=draw(BETA))
    block_rows = draw(st.sampled_from([2, 3, 7, rewiring.BLOCK_ROWS]))
    return graph, p, cfg, block_rows


@settings(max_examples=500, deadline=None, derandomize=True)
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
