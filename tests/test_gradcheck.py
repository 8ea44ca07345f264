import numpy as np
import pytest

from agst import (
    SoftLabels,
    TrainConfig,
    class_members,
    grad_check,
    init_params,
    joint_objective,
    pseudo_targets,
    run_gradcheck_suite,
    student_targets,
)
from agst import gradcheck
from agst.mlp import ARRAY_NAMES, PARAM_NAMES, STUDENT_DTYPE

from conftest import make_bundle, split_of


def tiny_problem(seed, n=8, f=4, c=3, hidden=6):
    rng = np.random.default_rng(seed)
    gold = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    rng.shuffle(gold)
    bundle = make_bundle(n, [], gold, c, features=rng.normal(size=(n, f)))
    labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
    split = split_of(labeled)
    raw = rng.random((n, c)) + 0.1
    soft = SoftLabels(raw / raw.sum(1, keepdims=True), normalized=True)
    params = init_params(f, c, hidden, rng)
    return bundle, split, soft, params


class TestGradCheck:
    def test_classification_only_matches_tightly(self):
        bundle, split, soft, params = tiny_problem(0)
        cfg = TrainConfig(lambda2=0.0, dropout=0.0, hidden=6)
        assert grad_check(params, bundle, split, soft, cfg) < 1e-5

    def test_full_joint_loss_matches(self):
        bundle, split, soft, params = tiny_problem(1)
        cfg = TrainConfig(lambda2=0.1, dropout=0.0, hidden=6)
        assert grad_check(params, bundle, split, soft, cfg) < 1e-4

    def test_float32_weights_are_checked_on_a_float64_copy(self, monkeypatch):
        # init_params gives the student's float32 weights; the check perturbs
        # a float64 copy and leaves the caller's arrays as they were
        bundle, split, soft, params = tiny_problem(1)
        assert params.w1.dtype == STUDENT_DTYPE
        before = {name: getattr(params, name).tobytes() for name in ARRAY_NAMES}
        dtypes = set()
        real = gradcheck.joint_objective

        def spy(checked, x, *args):
            dtypes.update(getattr(checked, name).dtype for name in ARRAY_NAMES)
            dtypes.add(x.dtype)
            return real(checked, x, *args)

        monkeypatch.setattr(gradcheck, "joint_objective", spy)
        cfg = TrainConfig(lambda2=0.1, dropout=0.0, hidden=6)
        assert grad_check(params, bundle, split, soft, cfg) < 1e-4
        assert dtypes == {np.dtype(np.float64)}
        for name in ARRAY_NAMES:
            assert getattr(params, name).dtype == STUDENT_DTYPE
            assert getattr(params, name).tobytes() == before[name], name

    def test_symmetric_stationary_point(self):
        # zero parameters + zero features + class-balanced targets: every
        # gradient vanishes, analytically and numerically
        bundle, split, soft, params = tiny_problem(3, n=4, c=2)
        bundle.features[:] = 0.0
        bundle.gold[:] = [0, 1, 0, 1]
        split = split_of([0, 1])
        soft = SoftLabels(np.full((4, 2), 0.5), normalized=True)
        for name in ("w1", "b1", "w2", "b2", "w3", "b3", "mw1", "mb1", "mw2", "mb2"):
            getattr(params, name)[:] = 0.0
        cfg = TrainConfig(lambda2=0.1, dropout=0.0, hidden=6)
        x = bundle.features
        unlabeled = np.setdiff1d(np.arange(bundle.n), split.labeled)
        targets = student_targets(soft.matrix, bundle.gold, split.labeled)
        _, _, grad = joint_objective(params, x, split.labeled, unlabeled, targets, cfg,
                                     None, None)
        assert grad.shape == params.live.shape
        assert np.max(np.abs(grad)) < 1e-8
        assert grad_check(params, bundle, split, soft, cfg) < 1e-8

    def test_exactly_zero_gradient_passes(self):
        # zero features and negative first-layer biases kill every hidden
        # unit, so predictions are uniform; with class-balanced targets every
        # analytic gradient is exactly 0 and the central difference is pure
        # roundoff, which the check must not count as a relative error
        bundle, split, soft, params = tiny_problem(5, n=4, c=2)
        bundle.features[:] = 0.0
        bundle.gold[:] = [0, 1, 0, 1]
        split = split_of([0, 1])
        soft = SoftLabels(np.full((4, 2), 0.5), normalized=True)
        params.b1[:] = -0.5
        params.mb1[:] = -0.5
        cfg = TrainConfig(lambda2=0.1, dropout=0.0, hidden=6)
        unlabeled = np.setdiff1d(np.arange(bundle.n), split.labeled)
        targets = student_targets(soft.matrix, bundle.gold, split.labeled)
        _, _, grad = joint_objective(params, bundle.features, split.labeled, unlabeled,
                                     targets, cfg, None, None)
        assert not np.any(grad)
        assert grad_check(params, bundle, split, soft, cfg) < 1e-4

    def test_individual_losses_each_match(self):
        for lam1, lam2 in ((1.0, 0.0), (0.0, 0.0), (0.0, 0.5)):
            bundle, split, soft, params = tiny_problem(4)
            cfg = TrainConfig(lambda1=lam1, lambda2=lam2, dropout=0.0, hidden=6)
            assert grad_check(params, bundle, split, soft, cfg) < 1e-4

    def test_each_entry_is_stepped_by_the_constant(self, monkeypatch):
        # the analytic evaluation, then each entry of params.live in turn
        # at +STEP and at -STEP, every other entry as it was
        bundle, split, soft, params = tiny_problem(0)
        start = params.live.astype(np.float64)
        steps = []
        real = gradcheck.joint_objective

        def spy(checked, *args):
            steps.append(checked.live - start)
            return real(checked, *args)

        monkeypatch.setattr(gradcheck, "joint_objective", spy)
        assert grad_check(params, bundle, split, soft, TrainConfig(dropout=0.0, hidden=6)) < 1e-4
        size = start.size
        expected = np.zeros((1 + 2 * size, size))
        expected[1::2][np.arange(size), np.arange(size)] = gradcheck.STEP
        expected[2::2][np.arange(size), np.arange(size)] = -gradcheck.STEP
        assert np.allclose(np.array(steps), expected, rtol=0.0, atol=1e-15)

    def test_labeled_node_without_gold_rejected(self):
        # its target would otherwise be the last class
        bundle, split, soft, params = tiny_problem(0)
        node = split.labeled[0]
        bundle.gold[node] = -1
        with pytest.raises(ValueError, match=rf"no gold label: {node}$"):
            grad_check(params, bundle, split, soft, TrainConfig(dropout=0.0, hidden=6))


def scaled(grad, args):
    return 1.001 * grad


def sign_flipped(grad, args):
    return -grad


def first_entry_off(grad, args):
    # w1[0, 0], the head of params.live
    return np.concatenate([[grad[0] + 1.0], grad[1:]])


def last_entry_off(grad, args):
    # b3[-1], the tail of params.live
    return np.concatenate([grad[:-1], [grad[-1] + 1.0]])


def without_contrastive(grad, args):
    # the gradient of the same objective with the contrastive term left out
    return joint_objective(*args[:6], None, None)[2]


class TestGradCheckRejects:
    @pytest.mark.parametrize("corrupt", [sign_flipped, without_contrastive, scaled,
                                         first_entry_off, last_entry_off])
    def test_wrong_gradient_fails(self, monkeypatch, corrupt):
        bundle, split, soft, params = tiny_problem(1)
        cfg = TrainConfig(lambda2=1.0, dropout=0.0, hidden=6)
        unlabeled = np.setdiff1d(np.arange(bundle.n), split.labeled)
        members = class_members(bundle.gold, split.labeled, bundle.num_classes)
        _, pls = pseudo_targets(params, bundle.features @ params.mw1, members, unlabeled,
                                np.argmax(soft.matrix, axis=1), cfg)
        assert pls.kept.size > 0
        assert grad_check(params, bundle, split, soft, cfg) < 1e-4

        def corrupted(*args, **kwargs):
            joint, parts, grad = joint_objective(*args, **kwargs)
            return joint, parts, corrupt(grad, args)

        monkeypatch.setattr(gradcheck, "joint_objective", corrupted)
        assert grad_check(params, bundle, split, soft, cfg) > 1e-4


    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_one_wrong_entry_in_any_array_fails(self, monkeypatch, name):
        # the middle entry of each array laid out in params.live
        bundle, split, soft, params = tiny_problem(1)
        cfg = TrainConfig(lambda2=1.0, dropout=0.0, hidden=6)

        def corrupted(checked, *args):
            joint, parts, grad = joint_objective(checked, *args)
            grad = grad.copy()
            view = checked.views(grad)[name]
            view.flat[view.size // 2] += 1.0
            return joint, parts, grad

        monkeypatch.setattr(gradcheck, "joint_objective", corrupted)
        assert grad_check(params, bundle, split, soft, cfg) > 1e-4


class TestGradCheckSuite:
    def test_random_instances_pass(self):
        report = run_gradcheck_suite(instances=5, seed=0)
        assert report.max_rel_error < 1e-4
        assert report.instances == 5

    def test_every_instance_is_checked(self, monkeypatch):
        checked = []
        check = gradcheck.grad_check

        def recording_check(*args):
            checked.append(args[0].dims)
            return check(*args)

        monkeypatch.setattr(gradcheck, "grad_check", recording_check)
        report = run_gradcheck_suite(instances=3, seed=0)
        assert len(checked) == report.instances == 3
        assert report.max_rel_error < gradcheck.PASS_BAR

    def test_suite_is_deterministic(self):
        a = run_gradcheck_suite(instances=3, seed=7)
        b = run_gradcheck_suite(instances=3, seed=7)
        assert a.max_rel_error == b.max_rel_error
