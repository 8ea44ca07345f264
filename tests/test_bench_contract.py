"""What the benchmark reads of agst is still there.

``bench/workload.py`` calls agst the way this test does and reads the
attributes asserted below; ``bench/checks.py`` recomputes the student's
probabilities from the six trained weight arrays.  A name removed from the
program would crash the benchmark's run or its checks, so the test calls the
same functions with the same keywords, on a tiny bundle.  The checks hold
the predictions to the argmax of their float64 recomputation, so the float32
student's predictions must come from float64 probabilities too.
"""

from dataclasses import replace

import numpy as np
import pytest

from agst import data, experiments, graph, propagation, selftrain
from agst.mlp import TrainConfig

WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")


@pytest.fixture(scope="module")
def bundle():
    return data.two_cluster_bundle(n=60, noise_fraction=0.1, seed=4)


def job(bundle, protocol, seed, no_val_epochs):
    """Split and config as ``Job.setup`` and ``Job.__init__`` build them."""
    split = data.make_split(bundle, protocol, seed=seed, k=3, rate=0.1, val_per_class=4)
    cfg = selftrain.AgstConfig(seed=seed, train=TrainConfig(no_val_epochs=no_val_epochs))
    return split, replace(cfg, iterations=2)


def probabilities(features, params):
    """bench/checks.probabilities: the student's softmax from the raw float64
    features, whatever the weights' dtype."""
    z = np.maximum(features @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2
    logits = z @ params.w3 + params.b3
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_result(bundle, result, cfg):
    """The attributes ``Job.summary`` and ``run_checks`` read of a run."""
    params = result.final_params
    for name in WEIGHTS:
        assert isinstance(getattr(params, name), np.ndarray)
    assert probabilities(bundle.features, params).shape == (bundle.n, bundle.num_classes)
    assert result.predictions.shape == (bundle.n,)
    last = result.per_iteration[-1]
    assert last.added_edges.ndim == last.removed_edges.ndim == 2
    assert sum(len(s.trace.records) for s in result.per_iteration) > 0
    for value in (cfg.lp.alpha, cfg.lp.steps, cfg.augment.beta_add, cfg.augment.beta_remove):
        assert isinstance(value, (int, float))


def test_run_agst_as_the_benchmark_calls_it(bundle):
    split, cfg = job(bundle, "balanced", seed=3, no_val_epochs=300)
    result = selftrain.run_agst(bundle, split, cfg)
    check_result(bundle, result, cfg)
    # the warm-up pass and the teacher check
    selftrain.run_agst(bundle, split, replace(cfg, iterations=1))
    soft = propagation.to_distribution(propagation.propagate_labels(
        graph.normalize_adjacency(bundle.graph), bundle, split, cfg.lp))
    assert soft.matrix.shape == (bundle.n, bundle.num_classes)


def test_run_experiment_as_the_benchmark_calls_it(bundle):
    split, cfg = job(bundle, "imbalanced", seed=5, no_val_epochs=10)
    spec = experiments.ExperimentSpec(
        protocol="imbalanced", k=3, rate=0.1, runs=2, method="agst", config=cfg,
        seed=5, workers=1, val_per_class=4)
    report = experiments.run_experiment(spec, bundle)
    assert len(report.records) == 2
    assert isinstance(report.mean, float)
    for record in report.records:
        assert isinstance(record.accuracy, float)
        assert all(isinstance(it["epochs"], int) for it in record.iterations)
    # repetition 0 again through run_agst, as the pool check does
    result = selftrain.run_agst(bundle, split, cfg)
    check_result(bundle, result, cfg)
    acc = float(np.mean(result.predictions[split.test] == bundle.gold[split.test]))
    assert acc == report.records[0].accuracy


def test_predictions_are_the_argmax_the_benchmark_recomputes(bundle, monkeypatch):
    # bench/checks.check_predictions: the run's predictions are the argmax of
    # the float64 recomputation, apart from top-two ties within 1e-12; and
    # the rewiring plan is scored on float64 probabilities
    planned = []
    real_plan = selftrain.plan_augmentation

    def plan(graph, probs, cfg):
        planned.append(probs)
        return real_plan(graph, probs, cfg)

    monkeypatch.setattr(selftrain, "plan_augmentation", plan)
    # the sequential loop, where every round's plan is made in this process
    monkeypatch.setattr(selftrain, "_can_pipeline", lambda split, cfg: False)
    split, cfg = job(bundle, "balanced", seed=3, no_val_epochs=300)
    result = selftrain.run_agst(bundle, split, cfg)

    p = probabilities(bundle.features, result.final_params)
    assert p.dtype == np.float64
    top2 = np.sort(p, axis=1)[:, -2:]
    differ = (np.argmax(p, axis=1) != result.predictions) & (top2[:, 1] - top2[:, 0] > 1e-12)
    assert not differ.any()
    assert len(planned) == cfg.iterations
    assert all(probs.dtype == np.float64 for probs in planned)
    # the last round's plan read the probabilities the checks recompute
    assert np.max(np.abs(planned[-1] - p)) < 1e-12
