import numpy as np
import pytest

from agst import (
    AgstConfig,
    AugmentConfig,
    LpConfig,
    SoftLabels,
    SplitSpec,
    TrainConfig,
    forward,
    grad_check,
    init_params,
    make_split,
    normalize_adjacency,
    propagate_labels,
    run_agst,
    to_distribution,
    train_student,
    two_cluster_bundle,
)
from agst.mlp import feature_matrix
from agst.selftrain import annotate, student_rng

from conftest import make_bundle


def toy_setup(seed=0, noise=0.0):
    bundle = two_cluster_bundle(n=40, noise_fraction=noise, seed=seed)
    split = make_split(bundle, "balanced", seed=seed, k=3, val_per_class=4)
    return bundle, split


def hard_labels(params, x):
    """Prediction as run_agst makes it: argmax of a float64 forward, on
    ``feature_matrix`` when it is to equal run_agst's."""
    return np.argmax(forward(params.astype(np.float64), x)[1], axis=1)


def quick_cfg(**overrides):
    train = TrainConfig(patience=20, **overrides.pop("train", {}))
    return AgstConfig(train=train, **overrides)


class TestRunAgst:
    def test_single_iteration_equals_decoupled_baseline(self):
        # beta = 0 and lambda2 = 0 collapses the loop to teacher-then-student
        bundle, split = toy_setup(seed=1)
        cfg = AgstConfig(
            lp=LpConfig(),
            train=TrainConfig(lambda2=0.0, patience=20),
            augment=AugmentConfig(0.0, 0.0),
            iterations=1,
            seed=11,
        )
        result = run_agst(bundle, split, cfg)

        op = normalize_adjacency(bundle.graph)
        soft = to_distribution(propagate_labels(op, bundle, split, cfg.lp))
        x = feature_matrix(bundle.features, cfg.train.normalize_features)
        params, _ = train_student(bundle, split, soft, cfg.train, student_rng(cfg.seed, 1), x)
        assert np.array_equal(result.final_params.w1, params.w1)
        assert np.array_equal(result.final_params.w3, params.w3)
        assert np.array_equal(result.predictions, hard_labels(params, x))

    def test_clean_toy_is_perfect_every_iteration(self):
        bundle, split = toy_setup(seed=2)
        cfg = AgstConfig(iterations=3, seed=2)  # stock defaults
        result = run_agst(bundle, split, cfg)
        assert len(result.per_iteration) == 3
        for stats in result.per_iteration:
            assert stats.test_acc == 1.0

    def test_bitwise_determinism(self):
        bundle, split = toy_setup(seed=3, noise=0.1)
        cfg = quick_cfg(iterations=2, seed=3)
        a = run_agst(bundle, split, cfg)
        b = run_agst(bundle, split, cfg)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.final_params.w1, b.final_params.w1)
        for sa, sb in zip(a.per_iteration, b.per_iteration):
            assert sa.val_acc == sb.val_acc
            assert sa.test_acc == sb.test_acc
            assert np.array_equal(sa.added_edges, sb.added_edges)
            assert np.array_equal(sa.removed_edges, sb.removed_edges)

    def test_rebasing_never_compounds_augmentations(self):
        # adjacency entering round i+1 = original +/- round-i decisions only
        bundle, split = toy_setup(seed=4, noise=0.15)
        cfg = quick_cfg(iterations=3, seed=4)
        result = run_agst(bundle, split, cfg)
        original = set(map(tuple, bundle.graph.edges))
        for stats in result.per_iteration:
            added = set(map(tuple, stats.added_edges))
            removed = set(map(tuple, stats.removed_edges))
            assert added.isdisjoint(original)
            assert removed <= original
            assert added.isdisjoint(removed)
            # the diff against the original graph is exactly this plan
            expected_next = (original - removed) | added
            assert len(expected_next) == len(original) - len(removed) + len(added)

    def test_second_iteration_runs_on_rewired_original(self):
        # replay round 2 by hand on original +/- the round-1 plan; the
        # resulting student must match the pipeline's round-2 student exactly
        from agst import DatasetBundle
        from agst.rewiring import AugmentationPlan, apply_augmentation

        bundle, split = toy_setup(seed=12, noise=0.15)
        cfg = quick_cfg(iterations=2, seed=12)
        result = run_agst(bundle, split, cfg)
        plan1 = AugmentationPlan(
            result.per_iteration[0].added_edges, np.empty(0),
            result.per_iteration[0].removed_edges, np.empty(0))
        rewired = apply_augmentation(bundle.graph, plan1)
        bundle2 = DatasetBundle(rewired, bundle.features, bundle.gold,
                                bundle.num_classes)
        op = normalize_adjacency(rewired)
        soft = to_distribution(propagate_labels(op, bundle2, split, cfg.lp))
        x = feature_matrix(bundle.features, cfg.train.normalize_features)
        params, _ = train_student(bundle2, split, soft, cfg.train, student_rng(cfg.seed, 2), x)
        assert np.array_equal(result.final_params.w1, params.w1)
        assert np.array_equal(result.final_params.b3, params.b3)

    def test_last_plan_reported_not_applied(self, monkeypatch):
        from agst import selftrain

        applied = []
        original = selftrain.apply_augmentation
        monkeypatch.setattr(selftrain, "apply_augmentation",
                            lambda graph, plan: applied.append(plan) or original(graph, plan))
        bundle, split = toy_setup(seed=12, noise=0.15)
        result = run_agst(bundle, split, quick_cfg(iterations=2, seed=12))
        assert len(applied) == 1
        assert np.array_equal(applied[0].added, result.per_iteration[0].added_edges)
        last = result.per_iteration[-1]
        assert last.to_dict()["edges_added"] == last.added_edges.shape[0] > 0
        assert last.to_dict()["edges_removed"] == last.removed_edges.shape[0]

    def test_iteration_count_respected(self):
        bundle, split = toy_setup(seed=5)
        result = run_agst(bundle, split, quick_cfg(iterations=1, seed=5))
        assert len(result.per_iteration) == 1
        assert result.predictions.shape == (bundle.n,)

    def test_errors_annotated_with_iteration(self):
        bundle, split = toy_setup(seed=6)
        bad = make_bundle(bundle.n, bundle.graph.edges, bundle.gold, 3,
                          features=bundle.features)  # class 2 never labeled
        with pytest.raises(ValueError, match="iteration 1"):
            run_agst(bad, split, quick_cfg(seed=6))

    def test_error_not_built_from_one_message_is_annotated_as_runtime_error(self):
        class Coded(Exception):
            def __init__(self, code, detail):
                super().__init__(f"code {code}: {detail}")

        err = annotate(Coded(3, "lost"), "self-training iteration 2")
        assert type(err) is RuntimeError
        assert str(err) == "code 3: lost [self-training iteration 2]"

    @pytest.mark.parametrize("best", [False, True])
    def test_normalized_features_predictions_match_forward(self, best):
        bundle, split = toy_setup(seed=7, noise=0.2)
        # rows scaled by 1e-6..1: normalization undoes it, while forward on
        # the raw rows predicts the bias's class for the smallest ones
        scale = 10.0 ** np.random.default_rng(7).uniform(-6, 0, size=(bundle.n, 1))
        bundle = make_bundle(bundle.n, bundle.graph.edges, bundle.gold, 2,
                             features=bundle.features * scale)
        cfg = quick_cfg(iterations=2, seed=7, report_best_iteration=best,
                        train={"normalize_features": True})
        result = run_agst(bundle, split, cfg)
        x = feature_matrix(bundle.features, True)
        assert np.array_equal(result.predictions, hard_labels(result.final_params, x))

    def test_best_iteration_selection(self):
        bundle, split = toy_setup(seed=7, noise=0.2)
        cfg = quick_cfg(iterations=2, seed=7, report_best_iteration=True)
        result = run_agst(bundle, split, cfg)
        best = max(s.val_acc for s in result.per_iteration)
        acc = np.mean(result.predictions[split.validation]
                      == bundle.gold[split.validation])
        assert acc == pytest.approx(best)

    def test_warm_start_runs(self):
        bundle, split = toy_setup(seed=8)
        cfg = quick_cfg(iterations=2, seed=8, warm_start=True)
        result = run_agst(bundle, split, cfg)
        assert result.per_iteration[-1].test_acc >= 0.9

    def test_split_without_test_nodes_has_no_test_accuracy(self):
        bundle, split = toy_setup(seed=8)
        held = SplitSpec(split.labeled, split.validation, [])
        result = run_agst(bundle, held, quick_cfg(iterations=2, seed=8))
        assert [s.test_acc for s in result.per_iteration] == [None, None]
        assert all(s.val_acc is not None for s in result.per_iteration)

    def test_invalid_iteration_count(self):
        with pytest.raises(ValueError, match="iteration"):
            AgstConfig(iterations=0)

    def test_result_serializes_to_json(self):
        import json

        bundle, split = toy_setup(seed=9)
        result = run_agst(bundle, split, quick_cfg(iterations=2, seed=9))
        payload = [s.to_dict() for s in result.per_iteration]
        back = json.loads(json.dumps(payload))
        assert back == payload
        assert len(back) == 2
        assert {"iteration", "val_acc", "test_acc", "edges_added",
                "edges_removed", "epochs", "best_epoch", "wall_ms"} <= set(back[0])


class TestSplitWithoutGold:
    """A split node whose gold label is UNLABELED (-1) is refused where the
    run takes the split; its label would otherwise be read as class c - 1."""

    @pytest.mark.parametrize("part", ["labeled", "validation", "test"])
    def test_run_and_student_name_the_node(self, part):
        bundle, split = toy_setup(seed=2)
        # the teacher refuses such a split too, so it labels the intact one
        soft = to_distribution(propagate_labels(normalize_adjacency(bundle.graph), bundle,
                                                split, LpConfig()))
        node = getattr(split, part)[0]
        bundle.gold[node] = -1
        with pytest.raises(ValueError, match=rf"no gold label: {node}$"):
            run_agst(bundle, split, quick_cfg(iterations=1))
        with pytest.raises(ValueError, match=rf"no gold label: {node}$"):
            train_student(bundle, split, soft, TrainConfig(max_epochs=1),
                          np.random.default_rng(0), bundle.features)


class TestSplitNodeIds:
    """A split node id outside [0, n) is refused wherever a split enters,
    before any gold label is read."""

    def test_negative_id_is_not_read_as_the_last_node(self):
        # -1 would index node 19, a test node: trained on as labeled, then scored
        bundle = two_cluster_bundle(n=20, seed=0)
        split = SplitSpec([0, -1], [], [19, 1, 2])
        with pytest.raises(ValueError, match=r"1 split node\(s\) lie outside \[0, 20\): -1$"):
            run_agst(bundle, split, quick_cfg(iterations=1))

    @pytest.mark.parametrize("test, shown", [
        ([25, 1], "1 split node\\(s\\) lie outside \\[0, 20\\): 25$"),
        ([1, *range(20, 32)], "12 split node\\(s\\) lie outside \\[0, 20\\): 20, 21, 22, 23, 24, "
                              "25, 26, 27, 28, 29, ...$"),
    ])
    @pytest.mark.parametrize("entry", ["run_agst", "train_student", "grad_check",
                                       "propagate_labels"])
    def test_id_past_the_last_node_is_refused_at_every_entry(self, entry, test, shown):
        bundle = two_cluster_bundle(n=20, seed=0)
        split = SplitSpec([0, 10], [], test)
        soft = SoftLabels(np.full((20, 2), 0.5), normalized=True)
        cfg = TrainConfig(hidden=8, max_epochs=1)
        params = init_params(bundle.num_features, 2, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match=shown):
            if entry == "run_agst":
                run_agst(bundle, split, quick_cfg(iterations=1))
            elif entry == "train_student":
                train_student(bundle, split, soft, cfg, np.random.default_rng(0),
                              feature_matrix(bundle.features, False))
            elif entry == "grad_check":
                grad_check(params, bundle, split, soft, cfg)
            else:
                propagate_labels(normalize_adjacency(bundle.graph), bundle, split, LpConfig())


class TestPredict:
    def test_constant_logits_predict_constant_class(self):
        from agst import init_params

        bundle, _ = toy_setup()
        bundle = make_bundle(bundle.n, bundle.graph.edges, np.zeros(bundle.n, dtype=int),
                             3, features=bundle.features)
        params = init_params(bundle.num_features, 3, 8, np.random.default_rng(0))
        for name in ("w1", "b1", "w2", "b2", "w3"):
            getattr(params, name)[:] = 0.0
        params.b3[:] = [0.0, 0.0, 5.0]
        assert np.all(hard_labels(params, feature_matrix(bundle.features, False)) == 2)

    def test_rowwise_independence_under_permutation(self):
        from agst import init_params

        bundle, _ = toy_setup(seed=10)
        params = init_params(bundle.num_features, 2, 8, np.random.default_rng(1))
        preds = hard_labels(params, feature_matrix(bundle.features, False))
        perm = np.random.default_rng(2).permutation(bundle.n)
        permuted = feature_matrix(bundle.features[perm], False)
        assert np.array_equal(hard_labels(params, permuted), preds[perm])

    def test_toy_pipeline_agrees_with_gold(self):
        bundle, split = toy_setup(seed=11)
        result = run_agst(bundle, split, quick_cfg(iterations=2, seed=11))
        assert np.mean(result.predictions == bundle.gold) == 1.0
