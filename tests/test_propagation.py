import math

import numpy as np
import pytest

from agst import (
    LpConfig,
    SoftLabels,
    normalize_adjacency,
    propagate_labels,
    to_distribution,
)
from agst.propagation import initial_label_matrix

from conftest import make_bundle, random_graph_edges, split_of
from reference import closed_form_oracle


def random_lp_problem(rng, n_max=50, c_max=4, p=0.2):
    n = int(rng.integers(4, n_max + 1))
    c = int(rng.integers(2, c_max + 1))
    gold = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    rng.shuffle(gold)
    bundle = make_bundle(n, random_graph_edges(rng, n, p), gold, c, rng=rng)
    labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
    return bundle, split_of(labeled)


class TestTwoNodeFixture:
    # Hand oracle: (1-a) inv(I - a*S) Y with S = [[.5,.5],[.5,.5]], a = 0.5:
    # inv([[.75,-.25],[-.25,.75]]) = [[1.5,.5],[.5,1.5]], times 0.5 and [1,0]
    # gives [0.75, 0.25].
    def test_closed_form(self, two_node_bundle):
        op = normalize_adjacency(two_node_bundle.graph)
        out = closed_form_oracle(op, two_node_bundle, split_of([0]), alpha=0.5)
        assert np.max(np.abs(out.matrix[:, 0] - [0.75, 0.25])) < 1e-12

    def test_iteration_converges_to_hand_value(self, two_node_bundle):
        op = normalize_adjacency(two_node_bundle.graph)
        out = propagate_labels(op, two_node_bundle, split_of([0]),
                               LpConfig(alpha=0.5, steps=200))
        assert out.normalized is False
        assert np.max(np.abs(out.matrix[:, 0] - [0.75, 0.25])) < 1e-9


class TestPropagateLabels:
    def test_single_step_unrolled(self):
        rng = np.random.default_rng(0)
        bundle, split = random_lp_problem(rng)
        op = normalize_adjacency(bundle.graph)
        y0 = initial_label_matrix(bundle, split)
        expected = 0.7 * (op @ y0) + (1 - 0.7) * y0
        out = propagate_labels(op, bundle, split, LpConfig(alpha=0.7, steps=1))
        assert np.array_equal(out.matrix, expected)

    def test_pure_teleport_limit(self):
        rng = np.random.default_rng(1)
        bundle, split = random_lp_problem(rng)
        op = normalize_adjacency(bundle.graph)
        y0 = initial_label_matrix(bundle, split)
        out = propagate_labels(op, bundle, split, LpConfig(alpha=1e-12, steps=20))
        assert np.max(np.abs(out.matrix - y0)) < 1e-10

    @pytest.mark.parametrize("alpha, steps, message", [
        (0.0, 10, "alpha"), (1.0, 10, "alpha"), (math.nan, 10, "alpha"), (0.9, 0, "steps")])
    def test_invalid_config_rejected(self, alpha, steps, message):
        with pytest.raises(ValueError, match=message):
            LpConfig(alpha=alpha, steps=steps)

    def test_labeled_node_without_gold_rejected(self):
        # its one-hot row would otherwise land in the last class
        gold = np.array([0, 1, -1, 0])
        bundle = make_bundle(4, [[0, 1], [1, 2], [2, 3]], gold, 2)
        with pytest.raises(ValueError, match="1 split node.s. have no gold label: 2$"):
            propagate_labels(normalize_adjacency(bundle.graph), bundle, split_of([0, 1, 2]),
                             LpConfig())

    def test_missing_class_rejected(self):
        bundle = make_bundle(4, [[0, 1]], np.array([0, 0, 1, 1]), 2)
        op = normalize_adjacency(bundle.graph)
        with pytest.raises(ValueError, match="absent"):
            propagate_labels(op, bundle, split_of([0, 1]), LpConfig())

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for alpha in (0.5, 0.9):
            for _ in range(10):
                bundle, split = random_lp_problem(rng)
                op = normalize_adjacency(bundle.graph)
                iterated = propagate_labels(op, bundle, split, LpConfig(alpha=alpha, steps=200))
                exact = closed_form_oracle(op, bundle, split, alpha)
                assert np.max(np.abs(iterated.matrix - exact.matrix)) < 1e-6

    def test_distance_to_fixed_point_contracts(self):
        rng = np.random.default_rng(3)
        bundle, split = random_lp_problem(rng, n_max=30)
        op = normalize_adjacency(bundle.graph)
        exact = closed_form_oracle(op, bundle, split, 0.9).matrix
        distances = []
        for steps in range(1, 40):
            out = propagate_labels(op, bundle, split, LpConfig(alpha=0.9, steps=steps))
            distances.append(np.max(np.abs(out.matrix - exact)))
        assert all(d2 <= d1 + 1e-15 for d1, d2 in zip(distances, distances[1:]))

    def test_labeled_rows_dominated_by_gold_at_small_alpha(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            bundle, split = random_lp_problem(rng)
            op = normalize_adjacency(bundle.graph)
            out = propagate_labels(op, bundle, split, LpConfig(alpha=0.1, steps=50))
            preds = np.argmax(out.matrix[split.labeled], axis=1)
            assert np.array_equal(preds, bundle.gold[split.labeled])

    def test_total_mass_within_teleport_bounds(self):
        rng = np.random.default_rng(5)
        bundle, split = random_lp_problem(rng)
        op = normalize_adjacency(bundle.graph)
        s0 = split.labeled.size  # sum of the one-hot seed matrix
        for alpha in (0.5, 0.9):
            for steps in (1, 5, 20, 100):
                out = propagate_labels(op, bundle, split, LpConfig(alpha=alpha, steps=steps))
                total = out.matrix.sum()
                assert (1 - alpha) * s0 - 1e-9 <= total <= s0 / (1 - alpha) + 1e-9


class TestClosedFormOracle:
    def test_identity_operator_returns_seed_matrix(self):
        # isolated nodes make S the identity: (1-a)/(1-a) = 1 per labeled row
        bundle = make_bundle(3, [], np.array([0, 1, -1]), 2)
        op = normalize_adjacency(bundle.graph)
        split = split_of([0, 1])
        out = closed_form_oracle(op, bundle, split, alpha=0.8)
        assert np.max(np.abs(out.matrix - initial_label_matrix(bundle, split))) < 1e-12

    def test_near_zero_alpha_returns_seed_matrix(self, two_node_bundle):
        op = normalize_adjacency(two_node_bundle.graph)
        split = split_of([0])
        out = closed_form_oracle(op, two_node_bundle, split, alpha=1e-12)
        assert np.max(np.abs(out.matrix - initial_label_matrix(two_node_bundle, split))) < 1e-10

    def test_alpha_bounds(self, two_node_bundle):
        op = normalize_adjacency(two_node_bundle.graph)
        with pytest.raises(ValueError, match="alpha"):
            closed_form_oracle(op, two_node_bundle, split_of([0]), alpha=1.0)


class TestToDistribution:
    def test_unit_sum_rows_unchanged(self):
        out = to_distribution(SoftLabels(np.array([[0.75, 0.25, 0.0]])))
        assert np.allclose(out.matrix, [[0.75, 0.25, 0.0]])
        assert out.normalized

    def test_scaling(self):
        out = to_distribution(SoftLabels(np.array([[2.0, 2.0]])))
        assert np.allclose(out.matrix, [[0.5, 0.5]])

    def test_zero_row_becomes_uniform(self):
        out = to_distribution(SoftLabels(np.array([[0.0, 0.0, 0.0, 0.0]])))
        assert np.allclose(out.matrix, [[0.25, 0.25, 0.25, 0.25]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SoftLabels(np.array([[0.5, -0.5]]))

    @pytest.mark.parametrize("matrix, normalized, message", [
        (np.full(3, 0.5), False, "2-D matrix"),
        (np.full((1, 2, 2), 0.5), True, "2-D matrix"),
        (np.array([[0.5, 0.5], [0.5, 0.25]]), True, "unit row sums"),
        (np.array([[1.0, 1e-8]]), True, "unit row sums"),
        (np.zeros((0, 3)), True, r"at least one row, got shape \(0, 3\)$"),
        (np.zeros((0, 3)), False, r"at least one row, got shape \(0, 3\)$"),
    ])
    def test_malformed_matrix_rejected(self, matrix, normalized, message):
        with pytest.raises(ValueError, match=message):
            SoftLabels(matrix, normalized=normalized)

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, normalized, bad):
        # NaN fails both the sign check and the row-sum check silently
        with pytest.raises(ValueError, match="finite"):
            SoftLabels(np.full((2, 2), bad), normalized=normalized)
