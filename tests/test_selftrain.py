import itertools
import json
import logging
import multiprocessing
import multiprocessing.connection
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from agst import (
    AgstConfig,
    AugmentConfig,
    DatasetBundle,
    ExperimentSpec,
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
    run_experiment,
    to_distribution,
    train_student,
    two_cluster_bundle,
)
from agst import experiments
from agst.experiments import METHODS, method_config
from agst import selftrain
from agst.selftrain import annotate, student_rng

from conftest import _blas_thread_calls, make_bundle


def toy_setup(seed=0, noise=0.0):
    bundle = two_cluster_bundle(n=40, noise_fraction=noise, seed=seed)
    split = make_split(bundle, "balanced", seed=seed, k=3, val_per_class=4)
    return bundle, split


def hard_labels(params, x):
    """Prediction as run_agst makes it: argmax of a float64 forward, on
    ``bundle.features`` when it is to equal run_agst's."""
    return np.argmax(forward(params.astype(np.float64), x), axis=1)


def quick_cfg(**overrides):
    train = TrainConfig(**{"patience": 20, **overrides.pop("train", {})})
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
        x = bundle.features
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
        x = bundle.features
        params, _ = train_student(bundle2, split, soft, cfg.train, student_rng(cfg.seed, 2), x)
        assert np.array_equal(result.final_params.w1, params.w1)
        assert np.array_equal(result.final_params.b3, params.b3)

    def test_last_plan_reported_not_applied(self, monkeypatch):
        # the sequential loop, where every round's apply runs in this process
        monkeypatch.setattr(selftrain, "_can_pipeline", lambda: False)
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

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_predictions_match_forward_of_final_params(self, monkeypatch, pipelined):
        monkeypatch.setattr(selftrain, "_can_pipeline", lambda: pipelined)
        bundle, split = toy_setup(seed=7, noise=0.2)
        result = run_agst(bundle, split, quick_cfg(iterations=2, seed=7))
        x = bundle.features
        assert np.array_equal(result.predictions, hard_labels(result.final_params, x))

    def test_last_round_is_reported(self):
        # a hard toy whose last round scores lower on validation than the
        # first: the report is still the last round's
        bundle = two_cluster_bundle(n=200, separation=1.0, noise_fraction=0.2, seed=3)
        split = make_split(bundle, "balanced", seed=3, k=5)
        result = run_agst(bundle, split, quick_cfg(iterations=3, seed=3))
        first, last = result.per_iteration[0], result.per_iteration[-1]
        assert last.val_acc < first.val_acc
        for nodes, acc in ((split.validation, last.val_acc), (split.test, last.test_acc)):
            assert np.mean(result.predictions[nodes] == bundle.gold[nodes]) == pytest.approx(acc)

    def test_no_option_chooses_the_reported_round(self):
        with pytest.raises(TypeError, match="report_best_iteration"):
            AgstConfig(report_best_iteration=True)

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
                              bundle.features)
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
        assert np.all(hard_labels(params, bundle.features) == 2)

    def test_rowwise_independence_under_permutation(self):
        from agst import init_params

        bundle, _ = toy_setup(seed=10)
        params = init_params(bundle.num_features, 2, 8, np.random.default_rng(1))
        preds = hard_labels(params, bundle.features)
        perm = np.random.default_rng(2).permutation(bundle.n)
        permuted = bundle.features[perm]
        assert np.array_equal(hard_labels(params, permuted), preds[perm])

    def test_toy_pipeline_agrees_with_gold(self):
        bundle, split = toy_setup(seed=11)
        result = run_agst(bundle, split, quick_cfg(iterations=2, seed=11))
        assert np.mean(result.predictions == bundle.gold) == 1.0


class TestTestLabelBlindness:
    """No test label feeds a decision: with ``gold`` permuted on the test
    nodes, a run reports the same predictions, weights and rounds, test
    accuracy aside; with ``gold`` permuted on nodes in no part of the split,
    it reports the same test accuracy as well."""

    SPLITS = {"balanced": {"k": 5}, "imbalanced": {"rate": 0.05}, "standard20": {}}
    STUDENT_METHODS = [m for m in METHODS if m != "lp-only"]

    @staticmethod
    def shuffled(bundle, nodes):
        """``bundle`` with ``gold`` permuted on ``nodes``."""
        gold = bundle.gold.copy()
        gold[nodes] = np.random.default_rng(5).permutation(gold[nodes])
        assert (gold != bundle.gold).any()
        return DatasetBundle(bundle.graph, bundle.features, gold, 2)

    @staticmethod
    def toy():
        # a hard toy, so that rounds disagree
        return two_cluster_bundle(n=200, separation=1.0, noise_fraction=0.2, seed=3)

    @classmethod
    def permuted(cls, protocol):
        bundle = cls.toy()
        split = make_split(bundle, protocol, seed=4, **cls.SPLITS[protocol])
        return bundle, cls.shuffled(bundle, split.test), split

    @classmethod
    def permuted_outside(cls, val_per_class):
        """A split that leaves every other node the balanced protocol would
        test in no part, with ``gold`` permuted on those nodes."""
        bundle = cls.toy()
        drawn = make_split(bundle, "balanced", seed=4, k=5, val_per_class=val_per_class)
        split = SplitSpec(drawn.labeled, drawn.validation, drawn.test[::2])
        return bundle, cls.shuffled(bundle, drawn.test[1::2]), split

    @staticmethod
    def assert_same_runs(a, b, ignored):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.final_params.live.tobytes() == b.final_params.live.tobytes()
        assert a.final_params.momentum.tobytes() == b.final_params.momentum.tobytes()

        def rounds(result):
            return [{key: value for key, value in stats.to_dict().items() if key not in ignored}
                    for stats in result.per_iteration]

        assert rounds(a) == rounds(b)

    @staticmethod
    def config(method):
        base = AgstConfig(train=TrainConfig(max_epochs=60, no_val_epochs=20), seed=6)
        return method_config(method, base)

    @pytest.mark.parametrize("method", STUDENT_METHODS)
    @pytest.mark.parametrize("protocol", sorted(SPLITS))
    def test_student_runs_ignore_test_gold(self, protocol, method):
        bundle, shuffled, split = self.permuted(protocol)
        cfg = self.config(method)
        a, b = run_agst(bundle, split, cfg), run_agst(shuffled, split, cfg)
        self.assert_same_runs(a, b, ("test_acc", "wall_ms"))

    @pytest.mark.parametrize("val_per_class", [0, 10])
    @pytest.mark.parametrize("method", STUDENT_METHODS)
    def test_student_runs_ignore_gold_outside_the_split(self, method, val_per_class):
        bundle, shuffled, split = self.permuted_outside(val_per_class)
        cfg = self.config(method)
        a, b = run_agst(bundle, split, cfg), run_agst(shuffled, split, cfg)
        self.assert_same_runs(a, b, ("wall_ms",))
        assert all(stats.test_acc is not None for stats in a.per_iteration)

    # the runs above fork their patience tails where they may: a validation
    # set and more than one round; these take the sequential loop instead
    FORKING_METHODS = [m for m in STUDENT_METHODS if m != "mlp-only"]

    @pytest.mark.parametrize("method", FORKING_METHODS)
    @pytest.mark.parametrize("protocol", ["balanced", "standard20"])
    def test_sequential_runs_ignore_test_gold(self, monkeypatch, protocol, method):
        monkeypatch.setattr(selftrain, "_can_pipeline", lambda: False)
        bundle, shuffled, split = self.permuted(protocol)
        assert split.validation.size
        cfg = self.config(method)
        a, b = run_agst(bundle, split, cfg), run_agst(shuffled, split, cfg)
        self.assert_same_runs(a, b, ("test_acc", "wall_ms"))

    @pytest.mark.parametrize("method", FORKING_METHODS)
    def test_sequential_runs_ignore_gold_outside_the_split(self, monkeypatch, method):
        monkeypatch.setattr(selftrain, "_can_pipeline", lambda: False)
        bundle, shuffled, split = self.permuted_outside(10)
        cfg = self.config(method)
        a, b = run_agst(bundle, split, cfg), run_agst(shuffled, split, cfg)
        self.assert_same_runs(a, b, ("wall_ms",))

    @pytest.mark.parametrize("protocol", sorted(SPLITS))
    def test_label_propagation_ignores_test_gold(self, protocol):
        bundle, shuffled, split = self.permuted(protocol)
        op = normalize_adjacency(bundle.graph)
        a = propagate_labels(op, bundle, split, LpConfig()).matrix
        b = propagate_labels(op, shuffled, split, LpConfig()).matrix
        # equal matrices, so equal lp-only predictions (their argmax)
        assert a.tobytes() == b.tobytes()

    def test_label_propagation_ignores_gold_outside_the_split(self):
        bundle, shuffled, split = self.permuted_outside(10)
        op = normalize_adjacency(bundle.graph)
        a = propagate_labels(op, bundle, split, LpConfig()).matrix
        b = propagate_labels(op, shuffled, split, LpConfig()).matrix
        assert a.tobytes() == b.tobytes()


def final_bytes(result):
    params = result.final_params
    return params.live.tobytes() + params.momentum.tobytes()


def rounds_without_wall(result):
    return [{k: v for k, v in stats.to_dict().items() if k != "wall_ms"}
            for stats in result.per_iteration]


def running(pid):
    """Whether ``pid`` runs, or is a zombie this process has yet to reap."""
    try:
        state, ppid = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[:2]
    except FileNotFoundError:
        return False
    return state != "Z" or int(ppid) == os.getpid()


def assert_ended(pids, seconds=10):
    """Every process of ``pids`` ends within ``seconds``: a child whose parent
    is gone is ended by the kernel and reaped by another process."""
    deadline = time.monotonic() + seconds
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left


def round_of(rng, cfg):
    """The round whose student draws from ``rng``, before it draws."""
    return next(r for r in range(1, cfg.iterations + 1)
                if rng.bit_generator.state == student_rng(cfg.seed, r).bit_generator.state)


class TestPipelinedRounds:
    """Rounds that fork give the sequential loop's outputs, each round owned
    by the process that trained it through its patience, and leave no
    process behind."""

    @staticmethod
    def run(monkeypatch, pipelined, bundle, split, cfg):
        monkeypatch.setattr(selftrain, "_can_pipeline", lambda: pipelined)
        return run_agst(bundle, split, cfg)

    @staticmethod
    def tail_pids(monkeypatch, tmp_path):
        """Record the pid of every process the next pipelined run forks,
        children of children included: the parent records its child right
        after the fork, and the child itself."""
        real = selftrain._Tail.__call__
        tmp_path.mkdir(exist_ok=True)

        def recording(tail, *args):
            forked = tail.pid is not None
            cut = real(tail, *args)
            if cut or tail.pid and not forked:
                (tmp_path / str(tail.pid or os.getpid())).touch()
            return cut

        monkeypatch.setattr(selftrain._Tail, "__call__", recording)
        return lambda: [int(path.name) for path in tmp_path.iterdir()]

    @staticmethod
    def trained(monkeypatch, tmp_path, cfg):
        """Record, a file a process, the round of every ``train_student``
        call; returns the rounds by pid."""
        real = selftrain.train_student
        tmp_path.mkdir()

        def recording(bundle, split, soft, tcfg, rng, *args):
            with (tmp_path / str(os.getpid())).open("a") as log:
                log.write(f"{round_of(rng, cfg)}\n")
            return real(bundle, split, soft, tcfg, rng, *args)

        monkeypatch.setattr(selftrain, "train_student", recording)
        return lambda: {int(path.name): [int(r) for r in path.read_text().split()]
                        for path in tmp_path.iterdir()}

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ProcessLookupError):   # no zombie either
                os.kill(pid, 0)

    @staticmethod
    def fallbacks(caplog):
        """The run's debug lines, in this process, for forked rounds that did
        not hand their later rounds over, each with its round and cause."""
        return [r.getMessage() for r in caplog.records
                if r.getMessage().endswith(": running the later rounds here")]

    @staticmethod
    def fallback(iteration, cause):
        return [f"round {iteration} did not hand over ({cause}): running the later rounds here"]

    @staticmethod
    def moved(iteration, stats):
        return TestPipelinedRounds.fallback(
            iteration, f"best epoch 1 at the fork, {stats.trace.best_epoch} at the end")

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a.predictions, b.predictions)
        assert final_bytes(a) == final_bytes(b)
        assert rounds_without_wall(a) == rounds_without_wall(b)

    @pytest.mark.parametrize("train, forks", [
        ({}, 2),
        # rounds with no contrastive term, so no pseudo-targets
        ({"lambda2": 0.0}, 2),
        # rounds that end before their best epoch has held SETTLE_EPOCHS
        ({"patience": 0}, 0), ({"max_epochs": 2}, 0),
        # nothing to overlap: no validation set settles a best epoch, and
        # the last round is never hooked
        pytest.param({"val_per_class": 0}, 0, id="no-validation"),
        pytest.param({"iterations": 1}, 0, id="one-round")])
    def test_same_bytes_as_the_sequential_loop(self, monkeypatch, tmp_path, train, forks):
        train = dict(train)
        bundle = two_cluster_bundle(n=40, noise_fraction=0.15, seed=4)
        split = make_split(bundle, "balanced", seed=4, k=3,
                           val_per_class=train.pop("val_per_class", 4))
        cfg = quick_cfg(iterations=train.pop("iterations", 3), seed=4, train=train)
        pids = self.tail_pids(monkeypatch, tmp_path)
        a = self.run(monkeypatch, True, bundle, split, cfg)
        assert len(pids()) == forks
        self.assert_reaped(pids())
        self.assert_same(a, self.run(monkeypatch, False, bundle, split, cfg))

    def test_a_moved_best_costs_only_the_later_rounds(self, monkeypatch, caplog, tmp_path):
        # every round forks after its first epoch, before its best settles;
        # the caller trains round 1 once, and runs rounds 2 and 3 itself
        monkeypatch.setattr(selftrain, "SETTLE_EPOCHS", 0)
        bundle, split = toy_setup(seed=7, noise=0.2)
        cfg = quick_cfg(iterations=3, seed=7)
        b = self.run(monkeypatch, False, bundle, split, cfg)
        assert b.per_iteration[0].trace.best_epoch > 1 and b.per_iteration[1].trace.best_epoch > 1
        trained = self.trained(monkeypatch, tmp_path / "trained", cfg)
        pids = self.tail_pids(monkeypatch, tmp_path / "pids")
        with caplog.at_level(logging.DEBUG, logger="agst.selftrain"):
            a = self.run(monkeypatch, True, bundle, split, cfg)
        assert trained()[os.getpid()] == [1, 2, 3]
        assert self.fallbacks(caplog) == self.moved(1, b.per_iteration[0]) + self.moved(
            2, b.per_iteration[1])
        assert_ended(pids())
        self.assert_same(a, b)

    def test_a_best_moved_in_round_two_costs_round_three_alone(self, monkeypatch, tmp_path):
        # round 1 forks once its best has held, and its child's rounds
        # stand; round 2 forks in that child at its first epoch with a best,
        # before that best settles, so the child runs round 3 itself
        bundle, split = toy_setup(seed=7, noise=0.2)
        cfg = quick_cfg(iterations=3, seed=7)
        b = self.run(monkeypatch, False, bundle, split, cfg)
        assert b.per_iteration[1].trace.best_epoch > 1
        trained = self.trained(monkeypatch, tmp_path / "trained", cfg)
        recording = selftrain.train_student

        def early_in_round_two(bundle, split, soft, tcfg, rng, x, on_epoch=None):
            if on_epoch is not None and round_of(rng, cfg) == 2:
                hook = on_epoch

                def on_epoch(epoch, best_epoch):
                    return hook(epoch + selftrain.SETTLE_EPOCHS, best_epoch)
            return recording(bundle, split, soft, tcfg, rng, x, on_epoch)

        monkeypatch.setattr(selftrain, "train_student", early_in_round_two)
        pids = self.tail_pids(monkeypatch, tmp_path / "pids")
        a = self.run(monkeypatch, True, bundle, split, cfg)
        # a child records the rounds it starts: round 1's child starts round
        # 2 and then round 3 itself; round 2's child, killed once round 2's
        # best moved, may have started round 3 before that
        seen = trained()
        assert seen.pop(os.getpid()) == [1] and len(pids()) == 2
        assert sorted(seen.values(), key=len)[-1] == [2, 3]
        assert sorted(seen.values(), key=len)[:-1] in ([], [[3]])
        assert_ended(pids())
        self.assert_same(a, b)

    def test_the_process_that_trains_a_round_whole_owns_it(self, monkeypatch, tmp_path):
        # the caller trains, predicts and plans round 1; its child cuts round
        # 1, owns round 2 and sends rounds 2 and 3 up; the child's child cuts
        # round 2, owns round 3 and sends it up
        bundle, split = toy_setup(seed=4, noise=0.15)
        cfg = quick_cfg(iterations=3, seed=4)
        b = self.run(monkeypatch, False, bundle, split, cfg)
        calls = tmp_path / "calls"
        calls.mkdir()

        def record(name):
            with (calls / str(os.getpid())).open("a") as log:
                log.write(f"{name}\n")

        def spy(name, real):
            def call(*args):
                record(name)
                return real(*args)
            return call

        for name in ("forward", "plan_augmentation"):
            monkeypatch.setattr(selftrain, name, spy(name, getattr(selftrain, name)))
        real_train = selftrain.train_student
        monkeypatch.setattr(selftrain, "train_student", lambda *args: record(
            f"train-{round_of(args[4], cfg)}") or real_train(*args))
        send = multiprocessing.connection.Connection.send
        monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                            lambda pipe, obj: record(f"send-{len(obj)}") or send(pipe, obj))
        pids = self.tail_pids(monkeypatch, tmp_path / "pids")
        a = self.run(monkeypatch, True, bundle, split, cfg)
        self.assert_reaped(pids())
        self.assert_same(a, b)
        seen = {int(path.name): path.read_text().split() for path in calls.iterdir()}
        assert seen.pop(os.getpid()) == ["train-1", "forward", "plan_augmentation"]
        assert sorted(seen) == sorted(pids())
        # a child goes on with the call it was forked in
        assert sorted(seen.values()) == [
            ["forward", "plan_augmentation", "train-2", "forward", "plan_augmentation", "send-2"],
            ["forward", "plan_augmentation", "train-3", "forward", "plan_augmentation", "send-1"]]

    def test_an_error_on_a_stale_input_is_dropped_with_the_rerun(self, monkeypatch, caplog,
                                                                 tmp_path):
        # round 1's child starts round 2 on round 1's first epoch and fails
        # on it; round 1's best then moves, and the caller runs round 2 on the
        # settled one, where it does not fail
        monkeypatch.setattr(selftrain, "SETTLE_EPOCHS", 0)
        bundle, split = toy_setup(seed=7, noise=0.2)
        cfg = quick_cfg(iterations=3, seed=7)
        real = selftrain.train_student
        settled = []

        def recording(bundle, split, soft, tcfg, rng, *args):
            if round_of(rng, cfg) == 2:
                settled.append(soft.matrix.copy())
            return real(bundle, split, soft, tcfg, rng, *args)

        monkeypatch.setattr(selftrain, "train_student", recording)
        b = self.run(monkeypatch, False, bundle, split, cfg)

        def fails_when_stale(bundle, split, soft, tcfg, rng, *args):
            if round_of(rng, cfg) == 2 and not np.array_equal(soft.matrix, settled[0]):
                (tmp_path / "stale" / str(os.getpid())).touch()
                raise FloatingPointError("stale input")
            return real(bundle, split, soft, tcfg, rng, *args)

        monkeypatch.setattr(selftrain, "train_student", fails_when_stale)
        (tmp_path / "stale").mkdir()
        pids = self.tail_pids(monkeypatch, tmp_path / "pids")
        recording, caller = selftrain._Tail.__call__, os.getpid()

        def awaiting_the_error(tail, *args):
            # the caller's round 1 goes on once its child has failed
            cut = recording(tail, *args)
            deadline = time.monotonic() + 10
            while os.getpid() == caller and tail.pid and not any((tmp_path / "stale").iterdir()):
                assert time.monotonic() < deadline, "the child did not fail"
                time.sleep(0.005)
            return cut

        monkeypatch.setattr(selftrain._Tail, "__call__", awaiting_the_error)
        with caplog.at_level(logging.DEBUG, logger="agst.selftrain"):
            a = self.run(monkeypatch, True, bundle, split, cfg)
        stale = [int(path.name) for path in (tmp_path / "stale").iterdir()]
        assert len(stale) == 1 and stale[0] in pids()
        assert self.fallbacks(caplog) == self.moved(1, b.per_iteration[0]) + self.moved(
            2, b.per_iteration[1])
        assert_ended(pids())
        self.assert_same(a, b)

    def test_tails_reaped_after_an_interrupt(self, monkeypatch, tmp_path):
        # the caller is interrupted in round 1's patience, once its child and
        # the child's child have forked
        bundle, split = toy_setup(seed=4, noise=0.15)
        cfg = quick_cfg(iterations=3, seed=4)
        pids = self.tail_pids(monkeypatch, tmp_path)
        recording, caller = selftrain._Tail.__call__, os.getpid()

        def interrupting(tail, *args):
            cut = recording(tail, *args)
            if os.getpid() == caller and tail.pid:
                deadline = time.monotonic() + 10
                while len(pids()) < 2:
                    assert time.monotonic() < deadline, "the chain did not form"
                    time.sleep(0.005)
                raise KeyboardInterrupt
            return cut

        monkeypatch.setattr(selftrain._Tail, "__call__", interrupting)
        with pytest.raises(KeyboardInterrupt):
            self.run(monkeypatch, True, bundle, split, cfg)
        assert len(pids()) == 2
        assert_ended(pids())

    def test_a_tail_ignores_an_interrupt(self, monkeypatch, tmp_path):
        # the caller interrupts round 1's child, which runs on and hands over
        def ignores_interrupts(pid):
            status = Path(f"/proc/{pid}/status").read_text()
            return int(re.search(r"^SigIgn:\s*(\w+)", status, re.M).group(1), 16) \
                >> (signal.SIGINT - 1) & 1

        bundle, split = toy_setup(seed=4, noise=0.15)
        cfg = quick_cfg(iterations=3, seed=4)
        b = self.run(monkeypatch, False, bundle, split, cfg)
        pids = self.tail_pids(monkeypatch, tmp_path)
        recording, caller, sent = selftrain._Tail.__call__, os.getpid(), []

        def interrupting(tail, *args):
            cut = recording(tail, *args)
            if os.getpid() == caller and tail.pid and not sent:
                deadline = time.monotonic() + 10
                while not ignores_interrupts(tail.pid):
                    assert time.monotonic() < deadline, "the child does not ignore SIGINT"
                    time.sleep(0.005)
                os.kill(tail.pid, signal.SIGINT)
                sent.append(tail.pid)
            return cut

        monkeypatch.setattr(selftrain._Tail, "__call__", interrupting)
        self.assert_same(self.run(monkeypatch, True, bundle, split, cfg), b)
        assert len(sent) == 1 and sent[0] in pids()
        self.assert_reaped(pids())

    def test_an_error_before_any_fork_trains_the_round_once(self, monkeypatch, caplog):
        # round 1 fails at its first epoch, before its best can settle: no
        # child has forked, so nothing runs again
        bundle, split = toy_setup(seed=6)
        real, hooks = selftrain.train_student, []

        def failing_first_epoch(bundle, split, soft, tcfg, rng, x, on_epoch=None):
            hooks.append(on_epoch)

            def on_epoch(epoch, best_epoch):
                raise FloatingPointError("diverged")
            return real(bundle, split, soft, tcfg, rng, x, on_epoch)

        monkeypatch.setattr(selftrain, "train_student", failing_first_epoch)
        with caplog.at_level(logging.DEBUG, logger="agst.selftrain"):
            with pytest.raises(FloatingPointError,
                               match=r"^diverged \[self-training iteration 1\]$"):
                self.run(monkeypatch, True, bundle, split, quick_cfg(iterations=3, seed=6))
        assert len(hooks) == 1 and isinstance(hooks[0], selftrain._Tail)
        assert self.fallbacks(caplog) == []

    def test_tails_reaped_after_an_error_in_round_one(self, monkeypatch, tmp_path):
        bundle, split = toy_setup(seed=6)
        bad = make_bundle(bundle.n, bundle.graph.edges, bundle.gold, 3,
                          features=bundle.features)  # class 2 never labeled
        pids = self.tail_pids(monkeypatch, tmp_path)
        with pytest.raises(ValueError, match=r"\[self-training iteration 1\]"):
            self.run(monkeypatch, True, bad, split, quick_cfg(iterations=3, seed=6))
        assert_ended(pids())

    @pytest.mark.parametrize("failing", [2, 3])
    def test_an_error_in_a_later_round_is_raised_as_in_the_loop(self, monkeypatch, tmp_path,
                                                                failing):
        # the child that meets it first sends nothing, and each process up
        # the chain runs the round itself, the caller last
        bundle, split = toy_setup(seed=6)
        cfg = quick_cfg(iterations=3, seed=6)
        real = selftrain.train_student

        def failing_round(bundle, split, soft, tcfg, rng, *args):
            if round_of(rng, cfg) == failing:
                raise FloatingPointError("diverged")
            return real(bundle, split, soft, tcfg, rng, *args)

        monkeypatch.setattr(selftrain, "train_student", failing_round)
        pids = self.tail_pids(monkeypatch, tmp_path)
        raised = []
        for pipelined in (True, False):
            with pytest.raises(FloatingPointError) as err:
                self.run(monkeypatch, pipelined, bundle, split, cfg)
            raised.append(str(err.value))
        assert raised == [f"diverged [self-training iteration {failing}]"] * 2
        assert len(pids()) >= failing - 1
        assert_ended(pids())

    def test_an_error_in_the_patience_is_raised_by_the_caller(self, monkeypatch, caplog,
                                                              tmp_path):
        # round 1 fails after its best has settled, which in a pipelined run
        # is after its fork, and round 2 fails too; the caller raises round
        # 1's error, of a type that would not survive a pickle round trip,
        # and round 2's, met in the child alone, is never raised
        class Local(Exception):
            pass

        bundle, split = toy_setup(seed=6)
        cfg = quick_cfg(iterations=3, seed=6)
        real = selftrain.train_student

        def failing_round(bundle, split, soft, tcfg, rng, x, on_epoch=None):
            if round_of(rng, cfg) == 2:
                (tmp_path / "round-2" / str(os.getpid())).touch()
                raise FloatingPointError("diverged")
            if round_of(rng, cfg) == 1:
                hook = on_epoch

                def on_epoch(epoch, best_epoch):
                    if best_epoch is not None and epoch - best_epoch > selftrain.SETTLE_EPOCHS:
                        raise Local("lost")
                    return hook is not None and hook(epoch, best_epoch)
            return real(bundle, split, soft, tcfg, rng, x, on_epoch)

        monkeypatch.setattr(selftrain, "train_student", failing_round)
        (tmp_path / "round-2").mkdir()
        pids = self.tail_pids(monkeypatch, tmp_path / "pids")
        for pipelined in (True, False):
            with caplog.at_level(logging.DEBUG, logger="agst.selftrain"):
                with pytest.raises(Local, match=r"^lost \[self-training iteration 1\]$"):
                    self.run(monkeypatch, pipelined, bundle, split, cfg)
        assert len(pids()) == 1 and self.fallbacks(caplog) == []
        assert_ended(pids())
        # the child met round 2's error, unless the caller's killed it first
        assert [int(path.name) for path in (tmp_path / "round-2").iterdir()] in ([], pids())

    def test_a_killed_tail_runs_again_in_the_caller(self, monkeypatch, caplog, tmp_path):
        bundle, split = toy_setup(seed=4, noise=0.15)
        cfg = quick_cfg(iterations=3, seed=4)
        b = self.run(monkeypatch, False, bundle, split, cfg)
        pids = self.tail_pids(monkeypatch, tmp_path)
        recording, caller, killed = selftrain._Tail.__call__, os.getpid(), []

        def killing(tail, *args):
            cut = recording(tail, *args)
            if os.getpid() == caller and tail.pid and not killed:
                os.kill(tail.pid, signal.SIGKILL)
                killed.append(tail.pid)
            return cut

        monkeypatch.setattr(selftrain._Tail, "__call__", killing)
        with caplog.at_level(logging.DEBUG, logger="agst.selftrain"):
            a = self.run(monkeypatch, True, bundle, split, cfg)
        assert killed and self.fallbacks(caplog) == self.fallback(1, "its child sent nothing")
        assert_ended(pids() + killed)
        self.assert_same(a, b)

    @pytest.mark.parametrize("where", ["every process", "caller", "tail"])
    def test_an_error_after_the_fork_is_raised_as_in_the_loop(self, monkeypatch, caplog, tmp_path,
                                                              where):
        # round 1's rewiring plan fails after its round forked: where it
        # fails in the caller, the loop's error is raised, and where it
        # fails in the child alone, the run gives the loop's bytes and its
        # debug line says the child sent nothing
        class Broken(Exception):
            pass

        bundle, split = toy_setup(seed=4, noise=0.15)
        cfg = quick_cfg(iterations=3, seed=4)
        b = self.run(monkeypatch, False, bundle, split, cfg)
        real, caller, planned = selftrain.plan_augmentation, os.getpid(), []

        def failing_plan(*args):
            planned.append(os.getpid())
            if (where == "every process" or len(planned) == 1
                    and (os.getpid() == caller) == (where == "caller")):
                raise Broken("no plan")
            return real(*args)

        monkeypatch.setattr(selftrain, "plan_augmentation", failing_plan)
        pids = self.tail_pids(monkeypatch, tmp_path)
        if where == "tail":
            with caplog.at_level(logging.DEBUG, logger="agst.selftrain"):
                self.assert_same(self.run(monkeypatch, True, bundle, split, cfg), b)
            assert len(pids()) >= 1
            assert self.fallbacks(caplog) == self.fallback(1, "its child sent nothing")
        else:
            for pipelined in (True, False):
                planned.clear()
                with pytest.raises(Broken, match=r"^no plan \[self-training iteration 1\]$"):
                    self.run(monkeypatch, pipelined, bundle, split, cfg)
            assert len(pids()) == 1
        assert_ended(pids())


ORPHANED = """
import os, sys, time
from pathlib import Path
from agst import AgstConfig, TrainConfig, make_split, run_agst, selftrain, two_cluster_bundle
selftrain._can_pipeline = lambda: True
out = Path(sys.argv[1])
real_call, real_later = selftrain._Tail.__call__, selftrain._Tail.later
real_round = selftrain._round
def recording(tail, *args):
    cut = real_call(tail, *args)
    if cut:
        (out / f"forked-{os.getpid()}").touch()
    return cut
def waiting(tail, iteration, best_epoch):
    if tail.pid and best_epoch == tail.cut:
        (out / f"waiting-{os.getpid()}").touch()
    return real_later(tail, iteration, best_epoch)
def stuck(bundle, split, cfg, iteration, *args):
    if iteration == cfg.iterations:
        (out / f"stuck-{os.getpid()}").touch()
        time.sleep(600)
    return real_round(bundle, split, cfg, iteration, *args)
selftrain._Tail.__call__, selftrain._Tail.later, selftrain._round = recording, waiting, stuck
bundle = two_cluster_bundle(n=400, feature_dim=32, noise_fraction=0.2, seed=1)
split = make_split(bundle, "balanced", seed=1, k=3, val_per_class=20)
# no best moves after its fork on this seed, and the last round never ends,
# so every other process of the chain ends up waiting on its child's rounds
run_agst(bundle, split, AgstConfig(seed=1, iterations=4, train=TrainConfig(patience=20)))
"""


def test_tails_end_when_the_caller_is_killed(tmp_path):
    # every process of the chain ends with the process that forked it, also
    # while it waits on its own child: the caller's child once the caller is
    # killed, then that child's child, and so on
    def pids(kind):
        return {int(path.name.split("-")[1]) for path in tmp_path.glob(f"{kind}-*")}

    caller = subprocess.Popen([sys.executable, "-c", ORPHANED, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                  [str(Path(selftrain.__file__).resolve().parents[1]),
                                   os.environ.get("PYTHONPATH", "")])))
    try:
        deadline = time.monotonic() + 60
        # until the last round is stuck and every other live process of the
        # chain waits on its child
        while caller.poll() is None and not (pids("stuck") and {
                caller.pid, *filter(running, pids("forked"))} - pids("stuck") <= pids("waiting")):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert caller.poll() is None, "the run ended before it could be killed"
    finally:
        caller.kill()
        caller.wait()
    assert len(pids("forked")) == 3
    assert pids("waiting") == {caller.pid, *pids("forked")} - pids("stuck")
    assert_ended(pids("forked"))


@pytest.fixture
def pipeline_ready():
    """Two CPUs: the state in which ``_can_pipeline`` says yes to a lone
    process that is not a pool worker."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the rounds never overlap")


class TestPipelineEligibility:
    def test_a_lone_process_pipelines(self, pipeline_ready):
        assert selftrain._can_pipeline()

    def test_one_cpu(self, pipeline_ready, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not selftrain._can_pipeline()

    def test_another_thread_running(self, pipeline_ready):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert not selftrain._can_pipeline()
        finally:
            release.set()
            other.join()

    def test_pool_worker(self, pipeline_ready):
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(selftrain._can_pipeline).result(timeout=60) is False

    def test_pool_of_two_equals_one_worker_with_validation(self, pipeline_ready):
        bundle = two_cluster_bundle(n=40, noise_fraction=0.1, seed=7)
        spec = ExperimentSpec(protocol="balanced", k=3, runs=2, val_per_class=4, seed=50,
                              config=quick_cfg())
        assert selftrain._can_pipeline()
        one, two = (run_experiment(replace(spec, workers=w), bundle).to_dict()
                    for w in (1, 2))
        for report in (one, two):
            report.pop("wall_ms")
            for run in report["runs"]:
                run.pop("wall_ms")
                for stats in run["iterations"]:
                    stats.pop("wall_ms")
        assert one == two


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads, as a caller may leave it, and
    back at its own count after the test."""
    calls = _blas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS thread-count calls in this process")
    before = {lib: get() for lib, (get, _) in calls.items()}
    for _, set_threads in calls.values():
        set_threads(2)
    yield calls
    for lib, (_, set_threads) in calls.items():
        set_threads(before[lib])


def _experiment(workers):
    def run(bundle, split, cfg):
        spec = ExperimentSpec(protocol="balanced", k=3, runs=2, val_per_class=4, seed=cfg.seed,
                              config=cfg, workers=workers)
        return run_experiment(spec, bundle)
    return run


class TestOneBlasThread:
    """``run_agst`` runs every round at one OpenBLAS thread, whoever calls
    it and in whichever process, and puts the caller's count back after a
    return, an error or an interrupt."""

    CALLERS = {"run_agst": run_agst, "workers=1": _experiment(1), "workers=2": _experiment(2)}

    @pytest.mark.parametrize("caller, raised", [
        *((caller, raised) for caller in sorted(CALLERS) for raised in (None, FloatingPointError)),
        ("run_agst", KeyboardInterrupt),
    ])
    def test_rounds_run_on_one_thread(self, two_blas_threads, monkeypatch, tmp_path, caller,
                                      raised):
        calls = two_blas_threads
        bundle, split = toy_setup(seed=2)
        cfg = quick_cfg(iterations=3, seed=2)
        real, calls_made = selftrain.train_student, itertools.count()
        # round 2 of either run: run_experiment's run r has seed cfg.seed + r
        second = [student_rng(seed, 2).bit_generator.state for seed in (cfg.seed, cfg.seed + 1)]

        def recording(*args):
            # a file a call, so that pool workers report too
            counts = {lib: get() for lib, (get, _) in _blas_thread_calls().items()}
            (tmp_path / f"{os.getpid()}-{next(calls_made)}").write_text(json.dumps(counts))
            if raised is not None and args[4].bit_generator.state in second:
                raise raised("diverged")
            return real(*args)

        monkeypatch.setattr(selftrain, "train_student", recording)
        if raised is None:
            self.CALLERS[caller](bundle, split, cfg)
        else:
            with pytest.raises(raised):
                self.CALLERS[caller](bundle, split, cfg)
        seen = [json.loads(path.read_text()) for path in tmp_path.iterdir()]
        assert len(seen) >= (2 if raised else 3)
        assert all(counts == {lib: 1 for lib in calls} for counts in seen)
        assert {lib: get() for lib, (get, _) in calls.items()} == {lib: 2 for lib in calls}

    @pytest.mark.parametrize("found", [True, False], ids=["openblas", "no-openblas"])
    def test_tails_fork_only_where_the_count_is_set(self, pipeline_ready, monkeypatch, tmp_path,
                                                    found):
        # a run that cannot set the count leaves the tails in the caller,
        # where OpenBLAS threads would spin against them
        if found and not _blas_thread_calls():
            pytest.skip("no OpenBLAS thread-count calls in this process")
        if not found:
            monkeypatch.setattr(selftrain, "_openblas_libraries", lambda: {})
        pids = TestPipelinedRounds.tail_pids(monkeypatch, tmp_path)
        bundle, split = toy_setup(seed=2)
        run_agst(bundle, split, quick_cfg(iterations=3, seed=2))
        assert bool(pids()) == found


REPLAY = """
import hashlib, json
from agst import (AgstConfig, ExperimentSpec, TrainConfig, experiments, make_split, run_agst,
                  run_experiment, selftrain, two_cluster_bundle)
forks, params = [], []
real_rounds, real_run = selftrain._rounds, selftrain.run_agst
def rounds(bundle, split, cfg, fork, *later):
    forks.append(fork)
    return real_rounds(bundle, split, cfg, fork, *later)
def run(bundle, split, cfg):
    result = real_run(bundle, split, cfg)
    final = result.final_params
    params.append(hashlib.sha256(final.live.tobytes() + final.momentum.tobytes()).hexdigest())
    return result
selftrain._rounds = rounds
experiments.run_agst = run
bundle = two_cluster_bundle(n=2000, feature_dim=64, noise_fraction=0.2, seed=5)
split = make_split(bundle, "balanced", seed=5, k=3, val_per_class=20)
cfg = AgstConfig(train=TrainConfig(patience=15), seed=5)
run(bundle, split, cfg)
report = run_experiment(ExperimentSpec(protocol="balanced", k=3, val_per_class=20, runs=2,
                                       seed=5, config=cfg), bundle).to_dict()
del report["wall_ms"]
for record in report["runs"]:
    del record["wall_ms"]
    for stats in record["iterations"]:
        del stats["wall_ms"]
print(json.dumps({"forks": forks, "params": params, "report": report}))
"""


def test_replay_is_exact_at_each_blas_thread_count(pipeline_ready, monkeypatch):
    """ROADMAP item 9's replay, in fresh interpreters at one and two
    OpenBLAS threads, of a ``run_agst`` and a ``run_experiment(workers=1)``:
    both counts fork the patience tails and give the same ``final_params``
    bytes and report, ``wall_ms`` aside, as the in-process sequential loop
    at this process's count."""
    if not _blas_thread_calls():
        pytest.skip("no OpenBLAS thread-count calls in this process")
    src = str(Path(selftrain.__file__).resolve().parents[1])
    replays = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", REPLAY], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        replays.append(json.loads(done.stdout))
    assert replays[0] == replays[1]
    assert replays[0]["forks"] == [True] * 3
    # the script replaces these two; monkeypatch puts them back afterwards
    monkeypatch.setattr(selftrain, "_rounds", selftrain._rounds)
    monkeypatch.setattr(experiments, "run_agst", experiments.run_agst)
    monkeypatch.setattr(selftrain, "_can_pipeline", lambda: False)
    namespace = {}
    exec(REPLAY.replace("print(", "out = ("), namespace)
    sequential = json.loads(namespace["out"])
    assert sequential.pop("forks") == [False] * 3
    assert sequential == {key: replays[0][key] for key in ("params", "report")}
