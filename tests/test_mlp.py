import math
import pickle
import tracemalloc

import numpy as np
import pytest

from agst import (
    SoftLabels,
    TrainConfig,
    class_members,
    compute_prototypes,
    filter_pseudo_labels,
    forward,
    grad_check,
    init_params,
    loss_contrastive,
    loss_cross_entropy,
    momentum_update,
    student_targets,
    train_student,
    two_cluster_bundle,
)
from agst.mlp import (
    ARRAY_NAMES,
    MOMENTUM_NAMES,
    PARAM_NAMES,
    STUDENT_DTYPE,
    Adam,
    EpochWorkspace,
    PseudoLabelSet,
    StudentParams,
    joint_objective,
    pseudo_targets,
    softmax,
)

import reference

# float32's machine epsilon, 2**-23: the student's tolerances are stated as
# multiples of it
EPS32 = float(np.finfo(np.float32).eps)


def zero_params(f=3, c=4, hidden=5):
    rng = np.random.default_rng(0)
    params = init_params(f, c, hidden, rng)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3", "mw1", "mb1", "mw2", "mb2"):
        getattr(params, name)[:] = 0.0
    return params


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        params = zero_params(c=4)
        p = forward(params, np.random.default_rng(1).normal(size=(6, 3)))
        assert np.allclose(p, 0.25)

    def test_crafted_head_logits(self):
        # logits [ln 3, 0] -> softmax [3/4, 1/4]
        params = zero_params(f=2, c=2)
        params.b3[:] = [math.log(3.0), 0.0]
        p = forward(params, np.zeros((1, 2)))
        assert np.allclose(p, [[0.75, 0.25]], atol=1e-12)

    def test_identical_inputs_identical_rows(self):
        rng = np.random.default_rng(2)
        params = init_params(4, 3, 8, rng)
        x = np.tile(rng.normal(size=(1, 4)), (2, 1))
        p = forward(params, x)
        assert np.array_equal(p[0], p[1])

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        params = init_params(5, 4, 8, rng)
        x = rng.normal(size=(20, 5)) * 10
        # in float64, as prediction reads the student
        p = forward(params.astype(np.float64), x)
        assert np.all(p > 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
        # in the student's float32: the c quotients, the divisor's c - 1
        # additions and the test's own c - 1 additions each round by at most
        # eps/2 of a value <= 1, so a row sum is within 2c eps of 1
        p = forward(params, x.astype(STUDENT_DTYPE))
        assert p.dtype == STUDENT_DTYPE
        assert np.all(p > 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 2 * 4 * EPS32

    def test_feature_dim_mismatch(self):
        params = zero_params(f=3)
        with pytest.raises(ValueError, match="feature dim"):
            forward(params, np.zeros((2, 7)))

    def test_dropout_only_when_training(self):
        # dropout applies only in the joint objective, and only given an RNG
        rng = np.random.default_rng(4)
        params = init_params(4, 2, 8, rng)
        x = rng.normal(size=(5, 4))
        gold, labeled, unlabeled = np.array([0, 1, 0, 1, 0]), np.array([0, 1]), np.arange(2, 5)
        soft = SoftLabels(np.full((5, 2), 0.5), normalized=True)
        cfg = TrainConfig(dropout=0.5, lambda2=0.0)
        targets = student_targets(soft.matrix, gold, labeled)
        p_eval = forward(params, x)
        ws = EpochWorkspace(params, x.shape[0])
        joint_objective(params, x, labeled, unlabeled, targets, cfg, None, None, workspace=ws)
        # without dropout the keep factor is the ReLU's 0 or 1
        assert np.array_equal(ws.keep, (ws.h1 > 0).astype(ws.keep.dtype))
        assert np.array_equal(ws.p, p_eval)
        joint_objective(params, x, labeled, unlabeled, targets, cfg, None, None,
                        rng=np.random.default_rng(0), workspace=ws)
        assert set(np.unique(ws.keep)) <= {0.0, 2.0}
        assert np.any(ws.keep == 2.0)
        assert not np.array_equal(ws.p, p_eval)


def embedding_path(x, keep, params, protos, tau, lambda2, d_out):
    """The head and its gradients through the embeddings z = h @ w2 + b2,
    formed explicitly, for the hidden layer h = ReLU(x @ w1 + b1) * keep and
    the gradient ``d_out`` of [logits | similarity logits]."""
    c = params.b3.size
    h = (x @ params.w1 + params.b1) * keep
    z = h @ params.w2 + params.b2
    d_logits, g_sim = d_out[:, :c], d_out[:, c:]
    d_z = d_logits @ params.w3.T + lambda2 * g_sim @ protos / tau
    d_h = d_z @ params.w2.T * keep
    return {"logits": z @ params.w3 + params.b3, "sim": z @ protos.T / tau,
            "w1": x.T @ d_h, "b1": d_h.sum(0), "w2": h.T @ d_z, "b2": d_z.sum(0),
            "w3": z.T @ d_logits, "b3": d_logits.sum(0)}


class TestClassSpaceHead:
    """The head as h @ (w2 @ K) + (b2 @ K + [b3 | 0]), K = [w3 | protos.T / tau],
    against the embeddings formed explicitly, in float64 on random weights and
    prototypes.  The error is measured against the embedding path evaluated
    on absolute values, which bounds the roundoff of either evaluation."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_embedding_path(self, seed, monkeypatch):
        import agst.mlp as mlp

        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(4, 40)), int(rng.integers(1, 9))
        c, hidden = int(rng.integers(2, 8)), int(rng.integers(2, 70))
        params = init_params(f, c, hidden, rng).astype(np.float64)
        params.live[:] = rng.normal(size=params.live.size)
        x = rng.normal(size=(n, f))
        gold = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
        unlabeled = np.setdiff1d(np.arange(n), labeled)
        raw = rng.random((n, c)) + 0.1
        targets = student_targets(raw / raw.sum(1, keepdims=True), gold, labeled, np.float64)
        protos = rng.normal(size=(c, hidden))
        pls = PseudoLabelSet(rng.integers(0, c, size=n), unlabeled[rng.random(unlabeled.size) < 0.7])
        cfg = TrainConfig(tau=float(rng.uniform(0.1, 2.0)), lambda2=float(rng.uniform(0.05, 1.0)),
                          dropout=0.5, hidden=hidden)
        logits = []

        def spy(a, out=None):
            logits.append(a.copy())
            return softmax(a, out=out)

        monkeypatch.setattr(mlp, "softmax", spy)
        ws = EpochWorkspace(params, n)
        _, _, grad = joint_objective(params, x, labeled, unlabeled, targets, cfg, protos, pls,
                                     rng=np.random.default_rng(seed), workspace=ws)
        # the forward pass's softmax reads the logits first
        ours = {"logits": logits[0], "sim": ws.sim, **params.views(grad)}
        theirs = embedding_path(x, ws.keep, params, protos, cfg.tau, cfg.lambda2, ws.d_out)
        magnitudes = StudentParams(np.abs(params.live), np.abs(params.momentum), params.dims)
        size = embedding_path(np.abs(x), ws.keep, magnitudes, np.abs(protos), cfg.tau,
                              cfg.lambda2, np.abs(ws.d_out))
        assert set(ours) == set(theirs)
        for name, value in ours.items():
            assert np.all(np.abs(value - theirs[name]) <= 1e-12 * size[name]), name


def labeled_loss(p, gold, nodes):
    """``loss_cross_entropy`` with ``nodes`` labeled and no unlabeled row:
    the labeled value and the nodes' gradient rows."""
    targets = student_targets(np.zeros_like(p), gold, nodes, p.dtype)
    value, _, grad = loss_cross_entropy(p, targets, nodes, np.empty(0, dtype=int), 1.0)
    return value, grad[nodes]


def unlabeled_loss(p, soft, nodes):
    """``loss_cross_entropy`` with ``nodes`` unlabeled against the rows of
    ``soft``, beside one labeled row: the unlabeled value and the nodes'
    gradient rows."""
    p = np.vstack([np.full((1, p.shape[1]), 0.5), p])
    targets = student_targets(np.vstack([soft[:1], soft]), np.zeros(len(p), dtype=int),
                              np.array([0]), p.dtype)
    _, value, grad = loss_cross_entropy(p, targets, np.array([0]), nodes + 1, 1.0)
    return value, grad[nodes + 1]


class TestLabeledCrossEntropy:
    def test_uniform_prediction_costs_log_c(self):
        p = np.full((1, 4), 0.25)
        value, _ = labeled_loss(p, np.array([2]), np.array([0]))
        assert value == pytest.approx(math.log(4), abs=1e-12)

    def test_perfect_prediction_costs_nothing(self):
        p = np.array([[1.0, 0.0]])
        value, _ = labeled_loss(p, np.array([0]), np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_nodes_average(self):
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        value, _ = labeled_loss(p, np.array([0, 1]), np.array([0, 1]))
        assert value == pytest.approx((math.log(2) - math.log(0.75)) / 2, abs=1e-12)

    def test_mean_reduction_divides(self):
        p = np.full((2, 2), 0.5)
        value, grad = labeled_loss(p, np.array([0, 1]), np.array([0, 1]))
        assert value == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(grad, [[-0.25, 0.25], [0.25, -0.25]])

    def test_gradient_is_softmax_minus_onehot(self):
        p = np.array([[0.7, 0.2, 0.1]])
        _, grad = labeled_loss(p, np.array([1]), np.array([0]))
        assert np.allclose(grad, [[0.7, -0.8, 0.1]])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loss_cross_entropy(np.ones((1, 2)), np.ones((1, 2)), np.array([], dtype=int),
                               np.array([0]), 1.0)


class TestUnlabeledCrossEntropy:
    def test_uniform_against_itself(self):
        soft = SoftLabels(np.full((1, 2), 0.5), normalized=True)
        value, _ = unlabeled_loss(np.full((1, 2), 0.5), soft.matrix, np.array([0]))
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_hard_target_scalar_log(self):
        soft = SoftLabels(np.array([[1.0, 0.0]]), normalized=True)
        value, _ = unlabeled_loss(np.array([[0.75, 0.25]]), soft.matrix, np.array([0]))
        assert value == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_mixed_target_arithmetic(self):
        soft = SoftLabels(np.array([[0.5, 0.5]]), normalized=True)
        value, _ = unlabeled_loss(np.array([[0.75, 0.25]]), soft.matrix, np.array([0]))
        assert value == pytest.approx(-0.5 * (math.log(0.75) + math.log(0.25)), abs=1e-12)

    def test_gradient_is_softmax_minus_target(self):
        soft = SoftLabels(np.array([[0.3, 0.7]]), normalized=True)
        _, grad = unlabeled_loss(np.array([[0.6, 0.4]]), soft.matrix, np.array([0]))
        assert np.allclose(grad, [[0.3, -0.3]])

    def test_unnormalized_targets_rejected(self):
        # the loss reads rows train_student took from normalized soft labels
        bundle, split, _ = toy_training_setup()
        soft = SoftLabels(np.full((bundle.n, 2), 2.0), normalized=False)
        with pytest.raises(ValueError, match="normalized"):
            fit(bundle, split, soft, TrainConfig())


class TestPrototypes:
    def test_single_member_class(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        protos = compute_prototypes(z, class_members(np.array([0, 1]), np.array([0, 1]), 2))
        assert np.array_equal(protos, z)

    def test_opposite_vectors_cancel(self):
        z = np.array([[1.0, -2.0], [-1.0, 2.0], [5.0, 5.0]])
        protos = compute_prototypes(z, class_members(np.array([0, 0, 1]), np.array([0, 1, 2]),
                                                     2))
        assert np.array_equal(protos[0], [0.0, 0.0])

    def test_mean_of_five_random_vectors(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 7))
        protos = compute_prototypes(z, class_members(np.zeros(5, dtype=int), np.arange(5), 1))
        assert np.max(np.abs(protos[0] - z.mean(axis=0))) < 1e-12

    def test_class_without_labeled_node_rejected(self):
        with pytest.raises(ValueError, match="class 1"):
            class_members(np.array([0, 0]), np.array([0, 1]), 2)


class TestRowMax:
    def test_equals_the_numpy_reduction_bit_for_bit(self):
        # the softmax's shift; a max is exact, so only the order of the
        # comparisons changes, and NaN and infinities carry through the same
        from agst.mlp import row_max

        rng = np.random.default_rng(16)
        special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0], dtype=STUDENT_DTYPE)
        for shape in [(5,), (1, 1), (40, 7), (3, 2, 4)]:
            a = rng.normal(size=shape).astype(STUDENT_DTYPE)
            spots = rng.random(shape) < 0.2
            a[spots] = rng.choice(special, size=int(spots.sum()))
            expected = a.max(axis=-1, keepdims=True)
            got = row_max(a)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.array_equal(got, expected, equal_nan=True)


class TestSimilarityDistribution:
    """The similarity distribution as ``loss_contrastive`` takes it: the
    ``softmax`` of the logits z @ protos.T / tau."""

    def test_identical_prototypes_give_uniform(self):
        protos = np.tile([1.0, 2.0], (3, 1))
        s = softmax(np.array([[0.5, -0.5]]) @ protos.T / 0.7)
        assert np.allclose(s, 1 / 3)

    def test_unit_logit_gap_scalar_identity(self):
        # z.c1 = 1, z.c2 = 0 at tau 1: [e/(e+1), 1/(e+1)]
        protos = np.array([[1.0, 0.0], [0.0, 0.0]])
        s = softmax(np.array([[1.0, 1.0]]) @ protos.T / 1.0)
        e = math.e
        assert np.allclose(s, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)

    def test_high_temperature_flattens(self):
        rng = np.random.default_rng(6)
        protos = rng.normal(size=(4, 3))
        s = softmax(rng.normal(size=(1, 3)) @ protos.T / 1e9)
        assert np.max(np.abs(s - 0.25)) < 1e-8

    def test_overflow_safe(self):
        protos = np.array([[1e4, 0.0], [0.0, 1e4]])
        s = softmax(np.array([[1.0, 0.0]]) @ protos.T / 1e-3)
        assert np.all(np.isfinite(s))
        assert s.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_positive_tau_rejected(self):
        # the filter divides by tau; refused whether or not a node is unlabeled
        soft = SoftLabels(np.full((2, 2), 0.5), normalized=True)
        for unlabeled in ([0], []):
            for tau in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="tau"):
                    filter_on_embeddings(soft, np.ones((2, 2)), np.ones((2, 2)), tau, unlabeled)


def filter_on_embeddings(soft, z, protos, tau, unlabeled):
    """``filter_pseudo_labels`` with the teacher's argmax classes and an
    identity head, so ``z`` are the embeddings themselves."""
    hidden = z.shape[1]
    return filter_pseudo_labels(np.argmax(soft.matrix, axis=1), z,
                                (np.eye(hidden), np.zeros(hidden)), protos, tau,
                                np.asarray(unlabeled))


class TestFilterPseudoLabels:
    def test_self_matching_embedding_kept(self):
        protos = np.array([[4.0, 0.0], [0.0, 4.0]])
        z = np.array([[0.0, 0.0], [4.0, 0.0]])  # node 1 sits on prototype 0
        soft = SoftLabels(np.array([[0.5, 0.5], [0.9, 0.1]]), normalized=True)
        pls = filter_on_embeddings(soft, z, protos, tau=0.1, unlabeled=np.array([1]))
        assert np.array_equal(pls.kept, [1])

    def test_identical_prototypes_keep_nothing(self):
        protos = np.ones((3, 2))
        z = np.random.default_rng(7).normal(size=(4, 2))
        soft = SoftLabels(np.full((4, 3), 1 / 3), normalized=True)
        pls = filter_on_embeddings(soft, z, protos, tau=0.5, unlabeled=np.arange(4))
        assert pls.kept.size == 0  # exactly 1/c is not strictly above

    def test_sigmoid_case_kept(self):
        # similarity 0.7311 > 0.5 for the two-class unit-gap construction
        protos = np.array([[1.0, 0.0], [0.0, 0.0]])
        z = np.array([[1.0, 1.0]])
        soft = SoftLabels(np.array([[0.8, 0.2]]), normalized=True)
        pls = filter_on_embeddings(soft, z, protos, tau=1.0, unlabeled=np.array([0]))
        assert np.array_equal(pls.kept, [0])

    def test_single_class_rejected(self):
        soft = SoftLabels(np.ones((2, 1)), normalized=True)
        with pytest.raises(ValueError, match="two classes"):
            filter_on_embeddings(soft, np.ones((2, 2)), np.ones((1, 2)), 0.5, np.array([0]))

    def test_argmax_ties_break_low(self, monkeypatch):
        # train_student takes the teacher's classes once per call; a tied
        # row goes to the lowest class
        import agst.mlp as mlp

        bundle, split, uniform = toy_training_setup()
        seen = []

        def spy(hard, *args):
            seen.append(hard.copy())
            return filter_pseudo_labels(hard, *args)

        monkeypatch.setattr(mlp, "filter_pseudo_labels", spy)
        fit(bundle, split, uniform, TrainConfig(max_epochs=2))
        assert len(seen) == 2 and all(np.array_equal(h, np.zeros(bundle.n)) for h in seen)

    def test_rule_matches_direct_recomputation(self):
        # the filter reads the hidden layer h and the head (w, b) and never
        # forms z = h @ w + b; the rule recomputed on z may disagree only
        # where the own similarity is within float64 roundoff of 1/c
        rng = np.random.default_rng(8)
        for _ in range(25):
            n, c, h = int(rng.integers(3, 12)), int(rng.integers(2, 5)), 4
            hidden = rng.normal(size=(n, h))
            w, b = rng.normal(size=(h, h)), rng.normal(size=h)
            z = hidden @ w + b
            protos = rng.normal(size=(c, h))
            raw = rng.random((n, c)) + 0.01
            soft = SoftLabels(raw / raw.sum(1, keepdims=True), normalized=True)
            unlabeled = np.flatnonzero(rng.random(n) < 0.7)
            tau = float(rng.uniform(0.1, 2.0))
            hard = np.argmax(soft.matrix, axis=1)
            pls = filter_pseudo_labels(hard, hidden, (w, b), protos, tau, unlabeled)
            assert pls.hard is hard
            for i in unlabeled:
                logits = z[i] @ protos.T / tau
                s = np.exp(logits - logits.max())
                s /= s.sum()
                assert (i in pls.kept) == (s[hard[i]] > 1.0 / c) or abs(s[hard[i]] - 1.0 / c) < 1e-12


def contrastive(z, protos, pls, tau):
    """``loss_contrastive`` on the similarity logits of embeddings ``z``."""
    return loss_contrastive(z @ protos.T / tau, pls)


class TestContrastiveLoss:
    def test_empty_kept_set_is_zero(self):
        # the gradient is w.r.t. the n x c similarity logits
        pls = PseudoLabelSet(np.zeros(2, dtype=int), np.array([], dtype=int))
        value, grad = loss_contrastive(np.ones((2, 4)), pls)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros((2, 4)))

    def test_single_node_unit_gap(self):
        # logits (1, 0) toward own prototype: -ln(e/(e+1)) = ln(1 + e^-1)
        protos = np.array([[1.0, 0.0], [0.0, 0.0]])
        z = np.array([[1.0, 1.0]])
        pls = PseudoLabelSet(np.array([0]), np.array([0]))
        value, _ = contrastive(z, protos, pls, 1.0)
        assert value == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)

    def test_equidistant_node_costs_log_c(self):
        protos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        z = np.zeros((1, 3))
        pls = PseudoLabelSet(np.array([1]), np.array([0]))
        value, _ = contrastive(z, protos, pls, 0.5)
        assert value == pytest.approx(math.log(3), abs=1e-12)

    def test_gradient_formula(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(3, 4))
        protos = rng.normal(size=(2, 4))
        pls = PseudoLabelSet(np.array([0, 1, 0]), np.array([0, 2]))
        tau = 0.7
        value, grad = contrastive(z, protos, pls, tau)
        assert grad.shape == (3, 2)
        # averaged over the two kept nodes
        for i in (0, 2):
            logits = z[i] @ protos.T / tau
            s = np.exp(logits - logits.max())
            s /= s.sum()
            assert np.max(np.abs(grad[i] - (s - np.eye(2)[pls.hard[i]]) / 2)) < 1e-15
        assert np.array_equal(grad[1], np.zeros(2))
        # mapped back to z it is the n x hidden gradient of the reference
        ref_value, ref_grad = reference.loss_contrastive(z, protos, pls, tau)
        assert value == pytest.approx(ref_value, abs=1e-12)
        assert np.max(np.abs(grad @ protos / tau - ref_grad)) < 1e-12

    def test_shift_invariance_of_internal_softmax(self):
        # appending a unit coordinate to z and kappa*tau to every prototype
        # shifts every logit by the same kappa; the loss must not move
        rng = np.random.default_rng(10)
        z = rng.normal(size=(4, 3))
        protos = rng.normal(size=(3, 3))
        pls = PseudoLabelSet(rng.integers(0, 3, size=4), np.arange(4))
        tau, kappa = 0.5, 37.0
        base, _ = contrastive(z, protos, pls, tau)
        z_aug = np.column_stack([z, np.ones(4)])
        protos_aug = np.column_stack([protos, np.full(3, kappa * tau)])
        shifted, _ = contrastive(z_aug, protos_aug, pls, tau)
        assert shifted == pytest.approx(base, abs=1e-9)


class TestMomentumUpdate:
    def test_zero_momentum_copies(self):
        rng = np.random.default_rng(11)
        params = init_params(3, 2, 4, rng)
        params.w1 += 1.0  # diverge from the momentum copy
        momentum_update(params, 0.0)
        assert np.array_equal(params.mw1, params.w1)

    def test_full_momentum_freezes(self):
        rng = np.random.default_rng(12)
        params = init_params(3, 2, 4, rng)
        frozen = params.mw1.copy()
        params.w1 += 1.0
        momentum_update(params, 1.0)
        assert np.array_equal(params.mw1, frozen)

    def test_midpoint(self):
        rng = np.random.default_rng(13)
        params = init_params(2, 2, 2, rng)
        params.mw1[:] = 2.0
        params.w1[:] = 0.0
        momentum_update(params, 0.5)
        assert np.allclose(params.mw1, 1.0)

    def test_geometric_series_closed_form(self):
        # theta held fixed: theta'_t = m^t theta'_0 + (1 - m^t) theta; the
        # update keeps the dtype it is given, and 1e-9 is a float64 bound
        rng = np.random.default_rng(14)
        params = init_params(3, 2, 4, rng).astype(np.float64)
        theta0 = params.mw1.copy()
        theta = params.w1.copy()
        m = 0.999
        for _ in range(1000):
            momentum_update(params, m)
        expected = m ** 1000 * theta0 + (1 - m ** 1000) * theta
        assert np.max(np.abs(params.mw1 - expected)) < 1e-9

    def test_geometric_series_closed_form_float32(self):
        # the student's float32 trail against the exact closed form of its
        # own float32 start.  Each step rounds m and 1 - m to float32, the
        # two products and the sum: five roundings of at most eps/2 of a
        # value bounded by B = max |theta|, so at most 2.5 eps B per step.
        # Earlier errors shrink by m per step, so after t steps the error is
        # below 2.5 eps B (1 - m^t) / (1 - m), about 1600 eps B here
        rng = np.random.default_rng(14)
        params = init_params(3, 2, 4, rng)
        assert params.w1.dtype == STUDENT_DTYPE
        theta0 = params.mw1.astype(np.float64)
        theta = params.w1.astype(np.float64)
        m = 0.999
        for _ in range(1000):
            momentum_update(params, m)
        assert params.mw1.dtype == STUDENT_DTYPE
        expected = m ** 1000 * theta0 + (1 - m ** 1000) * theta
        bound = 2.5 * EPS32 * np.max(np.abs(theta)) * (1 - m ** 1000) / (1 - m)
        assert np.max(np.abs(params.mw1 - expected)) < bound

    def test_scratch_gives_the_same_bits_and_allocates_nothing(self):
        # at cora-csbm's width (f=1433, hidden 64) a w1-sized temporary is
        # 0.37 MB; with scratch arrays no call after the first allocates one
        rng = np.random.default_rng(15)
        params = init_params(1433, 7, 64, rng)
        params.w1 += rng.normal(scale=0.1, size=params.w1.shape).astype(STUDENT_DTYPE)
        fresh = params.copy()
        scratch = np.empty_like(params.momentum)
        momentum_update(params, 0.9, scratch)
        momentum_update(fresh, 0.9)
        tracemalloc.start()
        try:
            momentum_update(params, 0.9, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        momentum_update(fresh, 0.9)
        assert peak < params.w1.nbytes
        for name in ARRAY_NAMES:
            assert getattr(params, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_momentum_range_checked(self):
        params = zero_params()
        with pytest.raises(ValueError, match="momentum"):
            momentum_update(params, 1.5)


class TestStudentParams:
    def test_arrays_are_views_of_the_two_vectors(self):
        params = init_params(5, 3, 4, np.random.default_rng(8))
        for name in PARAM_NAMES:
            assert np.shares_memory(getattr(params, name), params.live), name
        for name in ARRAY_NAMES[len(PARAM_NAMES):]:
            assert np.shares_memory(getattr(params, name), params.momentum), name
        assert params.live.size == sum(getattr(params, n).size for n in PARAM_NAMES)
        assert params.momentum.size == sum(getattr(params, n).size
                                           for n in ARRAY_NAMES[len(PARAM_NAMES):])

    @pytest.mark.parametrize("make", [lambda p: p.copy(),
                                      lambda p: p.astype(STUDENT_DTYPE),
                                      lambda p: p.astype(np.float64)],
                             ids=["copy", "astype-same", "astype-float64"])
    def test_copies_never_alias_the_training_vectors(self, make):
        params = init_params(5, 3, 4, np.random.default_rng(9))
        before = {name: getattr(params, name).copy() for name in ARRAY_NAMES}
        other = make(params)
        for vector in (other.live, other.momentum):
            assert not np.shares_memory(vector, params.live)
            assert not np.shares_memory(vector, params.momentum)
        for name in ARRAY_NAMES:
            assert np.array_equal(getattr(other, name), before[name]), name
        # the copy's arrays are views of the copy's own vectors
        other.live[:] = 7.0
        other.momentum[:] = 7.0
        for name in ARRAY_NAMES:
            assert np.all(getattr(other, name) == 7.0), name
            assert np.array_equal(getattr(params, name), before[name]), name

    def test_pickle_holds_the_two_vectors_once(self):
        params = init_params(1433, 7, 64, np.random.default_rng(10))
        payload = pickle.dumps(params)
        data = params.live.nbytes + params.momentum.nbytes
        assert data < len(payload) < data + 4096
        back = pickle.loads(payload)
        assert back.dims == params.dims
        assert back.live.tobytes() == params.live.tobytes()
        assert back.momentum.tobytes() == params.momentum.tobytes()
        for name in PARAM_NAMES:
            assert np.shares_memory(getattr(back, name), back.live), name
        for name in MOMENTUM_NAMES:
            assert np.shares_memory(getattr(back, name), back.momentum), name
        back.live[:] = 3.0
        back.momentum[:] = 4.0
        assert np.all(back.w1 == 3.0) and np.all(back.b3 == 3.0) and np.all(back.mb2 == 4.0)


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_steps_equal_the_allocating_reference_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(11)
        params = init_params(7, 3, 5, rng)
        ref_params = params.copy()
        ours = Adam(lr=0.05, weight_decay=weight_decay)
        ref = reference.Adam(lr=0.05, weight_decay=weight_decay)
        for _ in range(50):
            # one flat gradient in the parameters' dtype, as joint_objective
            # writes it; the reference reads it one parameter at a time
            grad = rng.normal(size=params.live.size).astype(STUDENT_DTYPE)
            kept = {name: g.copy() for name, g in params.views(grad).items()}
            before = grad.copy()
            ours.step(params, grad)
            ref.step(ref_params, kept)
            # the caller's gradient is read, never written
            assert np.array_equal(grad, before)
        for name in ARRAY_NAMES:
            assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes(), name

    def test_step_moves_against_the_gradient(self):
        params = zero_params()
        Adam(lr=0.1, weight_decay=0.0).step(params, np.ones_like(params.live))
        # the first bias-corrected step is lr * g / (|g| + eps) per entry
        assert np.allclose(params.w1, -0.1)
        assert np.array_equal(params.mw1, np.zeros_like(params.mw1))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("tau", math.nan), ("tau", 0.0),
        ("lambda1", math.nan), ("lambda2", math.nan), ("lambda2", -0.1), ("lambda1", math.inf),
        ("learning_rate", -0.5), ("learning_rate", math.nan), ("learning_rate", 0.0),
        ("learning_rate", math.inf),
        ("weight_decay", -1e-4), ("weight_decay", math.nan),
        ("momentum", math.nan), ("dropout", math.nan),
        ("patience", -1), ("max_epochs", 0), ("no_val_epochs", 0), ("hidden", 0),
    ])
    def test_invalid_value_rejected(self, field, value):
        message = "loss weights" if field.startswith("lambda") else field
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_defaults_and_zero_weights_accepted(self):
        TrainConfig()
        TrainConfig(lambda1=0.0, lambda2=0.0, weight_decay=0.0, dropout=0.0)


def toy_training_setup(seed=0, noise=0.0, val_per_class=4):
    from agst import make_split

    bundle = two_cluster_bundle(n=40, noise_fraction=noise, seed=seed)
    split = make_split(bundle, "balanced", seed=seed, k=3, val_per_class=val_per_class)
    uniform = SoftLabels(np.full((bundle.n, 2), 0.5), normalized=True)
    return bundle, split, uniform


def fit(bundle, split, soft, cfg, seed=0, x=None):
    """``train_student`` on ``x``, by default ``bundle.features`` as run_agst
    passes it, with a generator seeded by ``seed``."""
    x = bundle.features if x is None else x
    return train_student(bundle, split, soft, cfg, np.random.default_rng(seed), x)


class TestTrainStudent:
    def test_pure_labeled_descent(self):
        bundle, split, uniform = toy_training_setup()
        cfg = TrainConfig(lambda1=0.0, lambda2=0.0, dropout=0.0, patience=20)
        params, trace = fit(bundle, split, uniform, cfg, seed=1)
        labeled_losses = [r.loss_labeled for r in trace.records]
        assert labeled_losses[-1] < labeled_losses[0]
        assert all(r.loss_contrastive == 0.0 for r in trace.records)

    @pytest.mark.parametrize("n", [20, 40])
    def test_toy_problem_reaches_perfect_accuracy(self, n):
        from agst import LpConfig, make_split, normalize_adjacency, propagate_labels, to_distribution
        bundle = two_cluster_bundle(n=n, seed=3)
        split = make_split(bundle, "balanced", seed=3, k=3, val_per_class=4)
        op = normalize_adjacency(bundle.graph)
        soft = to_distribution(propagate_labels(op, bundle, split, LpConfig()))
        params, _ = fit(bundle, split, soft, TrainConfig(), seed=3)
        p = forward(params, bundle.features.astype(STUDENT_DTYPE))
        preds = np.argmax(p, axis=1)
        assert np.mean(preds[split.test] == bundle.gold[split.test]) == 1.0

    def test_patience_zero_stops_at_first_non_improvement(self):
        bundle, split, uniform = toy_training_setup(seed=5)
        cfg = TrainConfig(patience=0, dropout=0.0)
        _, trace = fit(bundle, split, uniform, cfg, seed=5)
        records = trace.records
        # every epoch but the last improved accuracy or loss on validation
        assert len(records) < cfg.max_epochs

    def test_no_validation_runs_fixed_budget(self):
        bundle, split, uniform = toy_training_setup()
        from agst import SplitSpec

        no_val = SplitSpec(split.labeled, np.empty(0, dtype=np.int64), split.test)
        cfg = TrainConfig(no_val_epochs=17, dropout=0.0)
        _, trace = fit(bundle, no_val, uniform, cfg, seed=2)
        assert len(trace.records) == 17
        assert trace.best_epoch is None
        assert all(r.val_acc is None for r in trace.records)

    def test_best_epoch_has_max_val_accuracy(self):
        bundle, split, uniform = toy_training_setup(seed=7, noise=0.1)
        _, trace = fit(bundle, split, uniform, TrainConfig(patience=10), seed=7)
        accs = [r.val_acc for r in trace.records]
        assert trace.best_epoch is not None
        assert accs[trace.best_epoch - 1] == max(accs)

    # (5, 0.2, 0) and (0, 0.3, 2) have epochs where accuracy rises while
    # loss makes no new low; (7, 0.1, 10) has accuracy ties
    @pytest.mark.parametrize("seed, noise, patience", [(7, 0.1, 10), (5, 0.2, 0), (0, 0.3, 2)])
    def test_early_stopping_replays_documented_rule(self, monkeypatch, seed, noise, patience):
        # forward runs only on the validation rows inside train_student, so
        # it hands over each epoch's validation probabilities
        import agst.mlp as mlp

        bundle, split, uniform = toy_training_setup(seed=seed, noise=noise)
        cfg = TrainConfig(patience=patience)
        real_forward = mlp.forward
        seen = []

        def capture(params, x, workspace=None):
            p = real_forward(params, x, workspace)
            seen.append(p.copy())
            return p

        monkeypatch.setattr(mlp, "forward", capture)
        params, trace = fit(bundle, split, uniform, cfg, seed=seed)

        gold = bundle.gold[split.validation]
        rows = np.arange(gold.size)
        best_epoch, best_acc, best_loss = None, -np.inf, np.inf
        top_acc, low_loss, bad, stopped = -np.inf, np.inf, 0, None
        for epoch, p in enumerate(seen, 1):
            acc = float(np.mean(np.argmax(p, axis=1) == gold))
            loss = -np.log(np.maximum(p[rows, gold], 1e-12)).sum(dtype=np.float64) / gold.size
            assert trace.records[epoch - 1].val_acc == acc
            # best: highest accuracy, ties to the lower loss
            if acc > best_acc or (acc == best_acc and loss < best_loss):
                best_epoch, best_acc, best_loss = epoch, acc, loss
            # patience resets when accuracy rises or loss falls
            bad = 0 if (acc > top_acc or loss < low_loss) else bad + 1
            top_acc, low_loss = max(top_acc, acc), min(low_loss, loss)
            if bad > patience:
                stopped = epoch
                break
        assert stopped is not None
        assert len(trace.records) == len(seen) == stopped
        assert trace.best_epoch == best_epoch
        x_val = bundle.features[split.validation].astype(STUDENT_DTYPE)
        assert np.array_equal(real_forward(params, x_val), seen[best_epoch - 1])

    def test_deterministic_given_rng_seed(self):
        bundle, split, uniform = toy_training_setup(seed=9)
        cfg = TrainConfig(patience=5)
        p1, t1 = fit(bundle, split, uniform, cfg, seed=9)
        p2, t2 = fit(bundle, split, uniform, cfg, seed=9)
        assert np.array_equal(p1.w1, p2.w1)
        assert [r.loss_labeled for r in t1.records] == [r.loss_labeled for r in t2.records]

    def test_parameters_stay_finite(self):
        bundle, split, uniform = toy_training_setup()
        params, _ = fit(bundle, split, uniform, TrainConfig(patience=5, learning_rate=0.5))
        assert params.all_finite()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_reports_epoch(self):
        bundle, split, uniform = toy_training_setup()
        bundle.features[0, 0] = np.inf
        with pytest.raises(ValueError, match="epoch 1"):
            fit(bundle, split, uniform, TrainConfig(dropout=0.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameter_reports_epoch(self):
        # a step past float32's range: the loss of epoch 1 was finite
        bundle, split, uniform = toy_training_setup()
        with pytest.raises(ValueError, match="non-finite parameter after epoch 1"):
            fit(bundle, split, uniform, TrainConfig(learning_rate=1e39, dropout=0.0))

    def test_empty_labeled_set_rejected(self):
        bundle, split, uniform = toy_training_setup()
        from agst import SplitSpec

        empty = SplitSpec(np.empty(0, dtype=np.int64), split.validation, split.test)
        with pytest.raises(ValueError, match="empty labeled"):
            fit(bundle, empty, uniform, TrainConfig())

    @pytest.mark.parametrize("rows, cols", [(-1, 0), (1, 0), (0, -1), (0, 1)])
    def test_wrong_shaped_features_rejected(self, rows, cols):
        # refused where x enters, not by an index or matmul error mid-epoch
        bundle, split, uniform = toy_training_setup()
        n, f = bundle.n + rows, bundle.num_features + cols
        expected = rf"shape \({n}, {f}\), expected \({bundle.n}, {bundle.num_features}\)"
        with pytest.raises(ValueError, match=expected):
            fit(bundle, split, uniform, TrainConfig(), x=np.ones((n, f)))

    @pytest.mark.parametrize("entry", ["train_student", "grad_check"])
    @pytest.mark.parametrize("rows, cols", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_soft_labels_of_another_shape_rejected(self, entry, rows, cols):
        # refused where the teacher's rows enter, not by a broadcast or index
        # error mid-computation
        bundle, split, _ = toy_training_setup()
        shape = (bundle.n + rows, bundle.num_classes + cols)
        soft = SoftLabels(np.full(shape, 1.0 / shape[1]), normalized=True)
        cfg = TrainConfig(hidden=8, max_epochs=1)
        expected = rf"shape \({shape[0]}, {shape[1]}\), expected \({bundle.n}, 2\)"
        with pytest.raises(ValueError, match=expected):
            if entry == "train_student":
                fit(bundle, split, soft, cfg)
            else:
                params = init_params(bundle.num_features, 2, 8, np.random.default_rng(0))
                grad_check(params, bundle, split, soft, cfg)

    def test_prepared_features_give_identical_parameters(self):
        # the bundle's float64 features and their cast to the student's dtype
        bundle, split, uniform = toy_training_setup(seed=3)
        cfg = TrainConfig(patience=5)
        x = bundle.features
        own, _ = fit(bundle, split, uniform, cfg, seed=3, x=x)
        given, _ = fit(bundle, split, uniform, cfg, seed=3, x=x.astype(STUDENT_DTYPE))
        for name in ("w1", "b1", "w2", "b2", "w3", "b3", "mw1", "mb1", "mw2", "mb2"):
            assert np.array_equal(getattr(own, name), getattr(given, name))

    def test_sparse_feature_path_matches_dense(self):
        # bag-of-words-scale inputs take the csr branch; numerics must agree
        # with the dense branch to rounding.  Both train in float32, where the
        # two branches sum the 900 rows of x.T @ d in different orders, and
        # Adam's per-entry normalization carries that roundoff into the
        # weights: after the 7 epochs this run takes, w1 differs by up to
        # 27 eps.  256 eps (3.1e-5) leaves about ten times that
        import scipy.sparse as sp

        from agst import make_split
        from conftest import make_bundle

        rng = np.random.default_rng(21)
        n, f = 900, 600
        features = (rng.random((n, f)) < 0.02).astype(np.float64)
        features[:450, :50] += (rng.random((450, 50)) < 0.2)
        features[450:, 50:100] += (rng.random((450, 50)) < 0.2)
        gold = np.repeat([0, 1], 450)
        bundle = make_bundle(n, [[0, 1]], gold, 2, features=np.minimum(features, 1.0))
        split = make_split(bundle, "balanced", seed=0, k=5, val_per_class=10)
        soft = SoftLabels(np.full((n, 2), 0.5), normalized=True)
        cfg = TrainConfig(dropout=0.0, patience=2, max_epochs=30)

        assert sp.issparse(bundle.features)
        p_sparse, t_sparse = fit(bundle, split, soft, cfg, seed=6)
        p_dense, t_dense = fit(bundle, split, soft, cfg, seed=6, x=bundle.features.toarray())

        assert len(t_sparse.records) == len(t_dense.records)
        assert p_sparse.w1.dtype == p_dense.w1.dtype == STUDENT_DTYPE
        tol = 256 * EPS32
        np.testing.assert_allclose(p_sparse.w1, p_dense.w1, rtol=tol, atol=tol)
        np.testing.assert_allclose(p_sparse.b3, p_dense.b3, rtol=tol, atol=tol)

    @pytest.mark.parametrize("as_csr", [False, True])
    def test_one_epoch_stays_in_student_dtype(self, monkeypatch, as_csr):
        # one float64 operand (a teacher row, a prototype) would silently
        # upcast a whole n x hidden pass, even where the result is written
        # back into a float32 buffer.  After one epoch on a dense or a
        # float64 CSR matrix, every float array the epoch's functions return,
        # every workspace array, Adam moment and parameter is float32
        import scipy.sparse as sp

        import agst.mlp as mlp

        bundle, split, uniform = toy_training_setup(seed=2)
        soft = SoftLabels(np.tile([0.8, 0.2], (bundle.n, 1)), normalized=True)
        workspaces, optimizers, returned = [], [], {}

        class Workspace(EpochWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                workspaces.append(self)

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        def floats(value):
            if isinstance(value, np.ndarray):
                return [value] if value.dtype.kind == "f" else []
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (tuple, list)):
                return [a for v in value for a in floats(v)]
            return []

        def recording(name):
            real = getattr(mlp, name)

            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                returned.setdefault(name, []).extend(floats(out))
                return out
            return call

        monkeypatch.setattr(mlp, "EpochWorkspace", Workspace)
        monkeypatch.setattr(mlp, "Adam", Recorded)
        epoch_functions = ("joint_objective", "pseudo_targets", "momentum_embed",
                           "compute_prototypes", "softmax",
                           "loss_cross_entropy", "loss_contrastive", "forward")
        for name in epoch_functions:
            monkeypatch.setattr(mlp, name, recording(name))
        features = sp.csr_array(bundle.features) if as_csr else bundle.features
        params, trace = fit(bundle, split, soft, TrainConfig(max_epochs=1), seed=2, x=features)

        assert len(trace.records) == 1 and trace.records[0].loss_contrastive > 0.0
        assert set(returned) == set(epoch_functions)
        arrays = [a for found in returned.values() for a in found]
        arrays += [getattr(params, name) for name in ARRAY_NAMES]
        for ws in workspaces:   # the epoch's and the validation forward's
            arrays += [a for a in vars(ws).values()
                       if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
        (optimizer,) = optimizers
        arrays += list(optimizer.state)
        assert len(workspaces) == 2
        assert [a.shape for a in optimizer.state] == [params.live.shape] * 4
        # the gradient, one vector laid out as params.live
        assert [a.shape for a in returned["joint_objective"]] == [params.live.shape]
        assert {a.dtype for a in arrays} == {np.dtype(STUDENT_DTYPE)}

    def test_labeled_loss_starts_near_log_c(self):
        bundle, split, uniform = toy_training_setup()
        cfg = TrainConfig(patience=3, dropout=0.0)
        params, trace = fit(bundle, split, uniform, cfg, seed=4)
        assert params.all_finite()
        # the mean over the 6 labeled nodes of about ln 2 at the uniform start
        assert trace.records[0].loss_labeled == pytest.approx(math.log(2), rel=0.5)


class TestEpochCost:
    """Guards on what one epoch costs with the momentum branch in class space."""

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_csr_epoch_multiplies_all_rows_twice(self, monkeypatch, epochs):
        # the forward x @ w1 and the backward x.T @ d; the momentum encoder's
        # pre-activation is folded from the forward product, not taken again.
        # One x @ mw1 per call starts the running state, and the validation
        # pass multiplies only its own rows
        import scipy.sparse as sp

        bundle, split, uniform = toy_training_setup(seed=1)
        x = sp.csr_array(bundle.features.astype(STUDENT_DTYPE))
        shapes = []
        for cls in (sp.csr_array, sp.csc_array):
            real = cls.__matmul__

            def counted(self, other, real=real):
                shapes.append(self.shape)
                return real(self, other)
            monkeypatch.setattr(cls, "__matmul__", counted)
        cfg = TrainConfig(max_epochs=epochs, patience=epochs)
        _, trace = fit(bundle, split, uniform, cfg, seed=1, x=x)

        n, f = x.shape
        assert len(trace.records) == epochs
        full = sum(shape in ((n, f), (f, n)) for shape in shapes)
        val = sum(shape == (split.validation.size, f) for shape in shapes)
        assert (full, val, len(shapes)) == (1 + 2 * epochs, epochs, 1 + 3 * epochs)

    def test_pseudo_targets_and_contrastive_allocate_nothing_n_by_hidden(self):
        # at cora-csbm's shape (n=2708, hidden 64, c=7) an n x hidden float32
        # array is 0.69 MB; the class-space momentum branch allocates only
        # n x c arrays and the labeled rows
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        n, f, c, hidden = 2708, 300, 7, 64
        x = sp.csr_array((rng.random((n, f)) < 0.02).astype(STUDENT_DTYPE))
        gold = rng.integers(0, c, size=n)
        labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
        members = class_members(gold, labeled, c)
        unlabeled = np.setdiff1d(np.arange(n), labeled)
        params = init_params(f, c, hidden, rng)
        cfg = TrainConfig(hidden=hidden)
        ws = EpochWorkspace(params, x.shape[0])
        ws.s = x @ params.mw1
        # pseudo-labels that agree with the prototypes keep almost every node
        protos, _ = pseudo_targets(params, ws.s, members, unlabeled, gold, cfg, ws)
        hard = np.argmax(reference.momentum_embed(params, x) @ protos.T, axis=1)
        protos, pls = pseudo_targets(params, ws.s, members, unlabeled, hard, cfg, ws)
        assert pls.kept.size > 0.9 * unlabeled.size
        n_by_hidden = n * hidden * np.dtype(STUDENT_DTYPE).itemsize
        # the similarity logits, into ws.sim
        targets = student_targets(np.full((n, c), 1.0 / c), gold, labeled)
        joint_objective(params, x, labeled, unlabeled, targets, cfg, protos, pls, workspace=ws)

        tracemalloc.start()
        try:
            pseudo_targets(params, ws.s, members, unlabeled, hard, cfg, ws)
            _, after_targets = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss_contrastive(ws.sim, pls, out=ws.g_sim)
            _, after_loss = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after_targets < n_by_hidden
        assert after_loss < n_by_hidden

    def test_workspace_holds_no_embeddings(self):
        # the head runs in class space: the n x hidden float arrays are the
        # hidden layer, its keep factor, d(loss)/d(hidden layer) (which the
        # momentum hidden layer and the fold's product share) and the carried
        # pre-activation s; the head's output and its gradient are n x 2c,
        # the probabilities n x c
        n, c, hidden = 9, 3, 5
        params = init_params(4, c, hidden, np.random.default_rng(4))
        ws = EpochWorkspace(params, n)
        ws.s = np.zeros((n, hidden), STUDENT_DTYPE)
        assert not hasattr(ws, "z") and not hasattr(ws, "d_z")
        wide = {name for name, a in vars(ws).items()
                if isinstance(a, np.ndarray) and a.dtype.kind == "f" and a.shape == (n, hidden)}
        assert wide == {"h1", "keep", "d_d1", "h_mom", "s"}
        assert ws.h_mom is ws.d_d1
        assert ws.head.shape == ws.d_out.shape == (n, 2 * c)
        assert ws.p.shape == (n, c)
        assert np.shares_memory(ws.sim, ws.head) and np.shares_memory(ws.g_sim, ws.d_out)

    @pytest.mark.parametrize("lambda2, dropout", [(0.1, 0.0), (0.0, 0.0), (0.1, 0.5)])
    def test_epoch_allocates_nothing_n_by_hidden(self, lambda2, dropout):
        # at cora-csbm's shape (n=2708, hidden 64, c=7) an n x hidden float32
        # array is 0.69 MB.  On dense x an epoch's n x hidden arrays are all
        # in its workspace: between the ends of epochs 1 and 2 the traced
        # peak (the n x c temporaries of the losses, the validation pass into
        # its own workspace, Adam's and the best-epoch copy's parameter-sized
        # vectors included) stays below half of one.  The dropout draw adds
        # its n * hidden / 2 raw 64-bit words, the bytes of one
        from conftest import make_bundle, split_of

        rng = np.random.default_rng(5)
        n, f, c, hidden = 2708, 40, 7, 64
        gold = rng.integers(0, c, size=n)
        bundle = make_bundle(n, [[0, 1]], gold, c, f=f, rng=rng)
        labeled = np.concatenate([np.flatnonzero(gold == cls)[:3] for cls in range(c)])
        split = split_of(labeled, np.setdiff1d(np.arange(80), labeled))
        raw = rng.random((n, c)) + 0.1
        soft = SoftLabels(raw / raw.sum(1, keepdims=True), normalized=True)
        cfg = TrainConfig(hidden=hidden, lambda2=lambda2, dropout=dropout, max_epochs=2)
        n_by_hidden = n * hidden * np.dtype(STUDENT_DTYPE).itemsize
        budget = n_by_hidden // 2 + (n_by_hidden if dropout else 0)
        x = bundle.features.astype(STUDENT_DTYPE)
        peaks = []

        def on_epoch(epoch, best_epoch, best):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
            tracemalloc.reset_peak()
            return False

        tracemalloc.start()
        try:
            _, trace = train_student(bundle, split, soft, cfg, np.random.default_rng(5), x,
                                     on_epoch)
        finally:
            tracemalloc.stop()
        assert len(trace.records) == len(peaks) == 2
        assert 0 < peaks[1] < budget
