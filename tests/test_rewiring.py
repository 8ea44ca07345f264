import math
from unittest import mock

import numpy as np
import pytest

from agst import (
    AugmentConfig,
    SparseGraph,
    apply_augmentation,
    edge_probability,
    plan_augmentation,
)
from agst.rewiring import sigmoid

from conftest import random_graph_edges
from reference import generate_candidates


def sigmoid_scalar(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestEdgeProbability:
    def test_matching_one_hot_rows(self):
        p = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert edge_probability(p, [[0, 1]])[0] == pytest.approx(sigmoid_scalar(1.0), abs=1e-12)

    def test_disjoint_one_hot_rows(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert edge_probability(p, [[0, 1]])[0] == pytest.approx(0.5, abs=1e-12)

    def test_uniform_rows_c4(self):
        p = np.full((2, 4), 0.25)
        assert edge_probability(p, [[0, 1]])[0] == pytest.approx(sigmoid_scalar(0.25), abs=1e-12)

    def test_pair_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            edge_probability(np.full((2, 2), 0.5), [[0, 5]])

    def test_bounds_for_probability_rows(self):
        rng = np.random.default_rng(0)
        raw = rng.random((30, 5)) + 1e-3
        p = raw / raw.sum(1, keepdims=True)
        iu, ju = np.triu_indices(30, k=1)
        probs = edge_probability(p, np.column_stack([iu, ju]))
        assert np.all(probs > 0.5)  # shared support keeps every dot positive
        assert np.all(probs <= sigmoid_scalar(1.0) + 1e-12)
        uniform = np.full((2, 5), 0.2)
        assert edge_probability(uniform, [[0, 1]])[0] >= sigmoid_scalar(1 / 5) - 1e-12


class TestGenerateCandidates:
    def test_same_class_empty_graph_is_complete(self):
        hard = np.zeros(4, dtype=int)
        additions, removals = generate_candidates(hard, SparseGraph(4, []))
        assert additions.shape == (6, 2)
        assert removals.shape == (0, 2)

    def test_all_distinct_classes(self):
        g = SparseGraph(3, [[0, 1], [1, 2]])
        additions, removals = generate_candidates(np.array([0, 1, 2]), g)
        assert additions.size == 0
        assert np.array_equal(removals, g.edges)

    def test_two_groups_binomial_count(self):
        hard = np.array([0, 0, 0, 1, 1])
        additions, _ = generate_candidates(hard, SparseGraph(5, []))
        assert additions.shape[0] == 3 + 1  # C(3,2) + C(2,2)

    def test_existing_edges_excluded_from_additions(self):
        hard = np.zeros(4, dtype=int)
        g = SparseGraph(4, [[0, 1], [2, 3]])
        additions, _ = generate_candidates(hard, g)
        assert additions.shape[0] == 4
        keys = {(i, j) for i, j in map(tuple, additions)}
        assert (0, 1) not in keys and (2, 3) not in keys


def random_predictions(rng, n, c):
    raw = rng.random((n, c)) + 1e-6
    return raw / raw.sum(1, keepdims=True)


def rewire(graph, p, cfg):
    """The plan for ``graph``, applied to it."""
    return apply_augmentation(graph, plan_augmentation(graph, p, cfg))


class TestAugmentTopology:
    def test_zero_quotas_are_identity(self):
        rng = np.random.default_rng(1)
        g = SparseGraph(8, random_graph_edges(rng, 8, 0.4))
        out = rewire(g, random_predictions(rng, 8, 3), AugmentConfig(0.0, 0.0))
        assert out is g

    def test_full_removal_with_distinct_labels(self):
        g = SparseGraph(4, [[0, 1], [1, 2], [2, 3]])
        p = np.eye(4)
        out = rewire(g, p, AugmentConfig(beta_add=0.0, beta_remove=1.0))
        assert out.m == 0

    def test_single_addition_matches_exhaustive_oracle(self):
        # m = 2, beta_add = 0.5 adds exactly floor(1) = 1 edge: the same-label
        # non-edge maximizing sigmoid(p_i . p_j) over all <= 6 pairs
        g = SparseGraph(4, [[0, 1], [2, 3]])
        rng = np.random.default_rng(2)
        p = random_predictions(rng, 4, 2)
        hard = np.argmax(p, axis=1)
        out = rewire(g, p, AugmentConfig(beta_add=0.5, beta_remove=0.0))
        added = {tuple(e) for e in out.edges} - {tuple(e) for e in g.edges}
        assert len(added) == 1
        best, best_prob = None, -1.0
        for i in range(4):
            for j in range(i + 1, 4):
                if (i, j) in {(0, 1), (2, 3)} or hard[i] != hard[j]:
                    continue
                prob = sigmoid_scalar(float(p[i] @ p[j]))
                if prob > best_prob:
                    best, best_prob = (i, j), prob
        assert added == {best}

    def test_edge_count_identity_and_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 25))
            g = SparseGraph(n, random_graph_edges(rng, n, 0.25))
            p = random_predictions(rng, n, int(rng.integers(2, 5)))
            cfg = AugmentConfig(beta_add=float(rng.random()), beta_remove=float(rng.random()))
            additions, _ = generate_candidates(np.argmax(p, axis=1), g)
            out = rewire(g, p, cfg)
            expected = (g.m
                        + min(int(cfg.beta_add * g.m), additions.shape[0])
                        - min(int(cfg.beta_remove * g.m), g.m))
            assert out.m == expected
            # canonical edge list implies symmetry and deduplication
            assert np.all(out.edges[:, 0] < out.edges[:, 1])
            assert np.unique(out.edges[:, 0] * n + out.edges[:, 1]).size == out.m

    def test_selection_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(6, 20))
            g = SparseGraph(n, random_graph_edges(rng, n, 0.3))
            if g.m == 0:
                continue
            p = random_predictions(rng, n, 3)
            cfg = AugmentConfig(beta_add=0.5, beta_remove=0.5)
            plan = plan_augmentation(g, p, cfg)
            additions, removals = generate_candidates(np.argmax(p, axis=1), g)
            if plan.added.size:
                rejected = np.array([r for r in map(tuple, additions)
                                     if r not in set(map(tuple, plan.added))])
                if rejected.size:
                    assert plan.added_prob.min() >= edge_probability(p, rejected).max() - 1e-12
            if plan.removed.size:
                retained = np.array([r for r in map(tuple, removals)
                                     if r not in set(map(tuple, plan.removed))])
                if retained.size:
                    assert plan.removed_prob.max() <= edge_probability(p, retained).min() + 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(5)
        g = SparseGraph(12, random_graph_edges(rng, 12, 0.3))
        p = random_predictions(rng, 12, 3)
        cfg = AugmentConfig(0.7, 0.3)
        a = rewire(g, p, cfg)
        b = rewire(g, p, cfg)
        assert np.array_equal(a.edges, b.edges)

    def test_probability_ties_break_lexicographically(self):
        # identical prediction rows make every candidate probability equal
        g = SparseGraph(5, [[3, 4]])
        p = np.tile([0.6, 0.4], (5, 1))
        out = rewire(g, p, AugmentConfig(beta_add=1.0, beta_remove=0.0))
        added = {tuple(e) for e in out.edges} - {(3, 4)}
        assert added == {(0, 1)}  # lexicographically first non-edge

    def test_quota_shortfall_adds_all_available(self, caplog):
        g = SparseGraph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]])
        p = np.tile([0.9, 0.1], (4, 1))  # one non-edge (2, 3) remains
        with caplog.at_level("WARNING", logger="agst.rewiring"):
            out = rewire(g, p, AugmentConfig(beta_add=1.0, beta_remove=0.0))
        assert out.m == 6
        assert any("quota" in r.message for r in caplog.records)

    def test_beta_range_validated(self):
        with pytest.raises(ValueError, match="beta"):
            AugmentConfig(beta_add=1.2)


class TestPlanInput:
    """``plan_augmentation`` refuses a ``p`` that does not fit the graph."""

    graph = SparseGraph(20, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])

    def test_more_rows_than_nodes(self):
        p = random_predictions(np.random.default_rng(6), 25, 3)
        with pytest.raises(ValueError, match=r"shape \(25, 3\); expected \(20, c\)"):
            plan_augmentation(self.graph, p, AugmentConfig())

    def test_fewer_rows_than_nodes(self):
        p = random_predictions(np.random.default_rng(7), 15, 3)
        with pytest.raises(ValueError, match=r"shape \(15, 3\); expected \(20, c\)"):
            plan_augmentation(self.graph, p, AugmentConfig())

    def test_nan_row(self):
        p = random_predictions(np.random.default_rng(8), 20, 3)
        p[11] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            plan_augmentation(self.graph, p, AugmentConfig())

    @pytest.mark.parametrize("row", [[-0.5, 1.0, 0.5], [1.5, 0.0, 0.0], [0.5, 0.2, 0.2],
                                     [2.0, 30.0, -1.0]],
                             ids=["negative", "above-one", "sum-below-one", "logits"])
    def test_not_probability_rows(self, row):
        # the pruning assumes dots in [0, 1]; on logit-like rows sigmoid
        # saturates and the plan leaves the (-probability, i, j) ranking
        p = random_predictions(np.random.default_rng(9), 20, 3)
        p[4] = row
        with pytest.raises(ValueError, match=r"shape \(20, 3\) is not rows of class probabil"):
            plan_augmentation(self.graph, p, AugmentConfig())


def test_search_stops_at_the_norm_bound():
    """On three confident classes of 600 the search looks up under 5% of the
    same-label pairs in the edge list; scoring every pair looks up 23%."""
    rng = np.random.default_rng(0)
    hard = np.repeat(np.arange(3), 600)
    n = hard.size
    raw = rng.random((n, 3))
    raw[np.arange(n), hard] += 12
    p = raw / raw.sum(axis=1, keepdims=True)
    graph = SparseGraph(n, rng.integers(0, n, size=(3 * n, 2)))
    with mock.patch.object(SparseGraph, "has_edges", autospec=True,
                           side_effect=SparseGraph.has_edges) as has_edges:
        plan = plan_augmentation(graph, p, AugmentConfig())
    assert plan.added.shape[0] == int(0.4 * graph.m)
    looked_up = sum(call.args[1].size for call in has_edges.call_args_list)
    assert looked_up <= 0.05 * 3 * (600 * 599 // 2)


class TestSigmoid:
    def test_extremes_are_stable(self):
        assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(sigmoid(np.array([-1e6, 0.0, 1e6]))))
