import math
import os
import re
from functools import reduce

import numpy as np
import pytest

from agst import experiments
from agst import (
    AgstConfig,
    AugmentConfig,
    DatasetBundle,
    ExperimentSpec,
    LpConfig,
    TrainConfig,
    confidence_halfwidth,
    method_config,
    run_experiment,
    run_gradcheck_suite,
    run_single,
    run_sweep,
    two_cluster_bundle,
    write_sweep_csv,
)


@pytest.fixture(scope="module")
def noisy_bundle():
    return two_cluster_bundle(n=40, noise_fraction=0.1, seed=7)


def toy_spec(**overrides):
    defaults = dict(protocol="balanced", k=3, runs=3, method="agst",
                    val_per_class=4, seed=50)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.mark.parametrize("settings, name, value", [
    (TrainConfig, "hidden", 2.5),
    (TrainConfig, "max_epochs", 2.5),
    (TrainConfig, "no_val_epochs", 30.0),
    (TrainConfig, "patience", 10.0),
    (TrainConfig, "hidden", True),
    (LpConfig, "steps", 2.5),
    (AgstConfig, "iterations", 2.0),
    (AgstConfig, "seed", 1.0),
    (ExperimentSpec, "runs", 2.0),
    (ExperimentSpec, "k", 2.0),
    (ExperimentSpec, "k", "2"),
    (ExperimentSpec, "val_per_class", 4.0),
    (ExperimentSpec, "workers", 1.0),
    (ExperimentSpec, "seed", 0.5),
    (run_gradcheck_suite, "instances", 2.0),
])
def test_integer_setting_refuses_other_values(settings, name, value):
    # a value such as 2.0 would pass the range checks and fail mid-run
    message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        settings(**{name: value})
    assert getattr(settings(**{name: np.int64(2)}), name) == 2


@pytest.mark.parametrize("settings", [AgstConfig, ExperimentSpec])
def test_negative_seed_refused_when_built(settings):
    # numpy's SeedSequence refuses it too, but only once a run draws a split
    # or a student
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        settings(seed=-1)
    assert settings(seed=0).seed == 0


@pytest.mark.parametrize("protocol", ["balanced", "imbalanced"])
def test_negative_validation_size_refused_when_built(protocol):
    # the imbalanced protocol draws no validation set, but the value is
    # still written into the report's config
    with pytest.raises(ValueError, match=r"^val_per_class must be >= 0, got -1$"):
        ExperimentSpec(val_per_class=-1, protocol=protocol)
    assert ExperimentSpec(val_per_class=0, protocol=protocol).val_per_class == 0


class TestMethodConfig:
    def test_agst_unchanged(self):
        base = AgstConfig()
        assert method_config("agst", base) == base

    def test_base_disables_contrast_and_rewiring(self):
        cfg = method_config("agst-base", AgstConfig())
        assert cfg.train.lambda2 == 0.0
        assert cfg.augment == AugmentConfig(0.0, 0.0)
        assert cfg.train.lambda1 == 1.0

    def test_mlp_only_is_supervised_single_round(self):
        cfg = method_config("mlp-only", AgstConfig())
        assert cfg.train.lambda1 == 0.0
        assert cfg.train.lambda2 == 0.0
        assert cfg.iterations == 1
        assert cfg.augment == AugmentConfig(0.0, 0.0)

    def test_single_ablations(self):
        no_c = method_config("no-contrast", AgstConfig())
        assert no_c.train.lambda2 == 0.0 and no_c.augment.beta_add > 0
        no_a = method_config("no-augment", AgstConfig())
        assert no_a.augment == AugmentConfig(0.0, 0.0) and no_a.train.lambda2 > 0


class TestReportStatistics:
    def test_single_run_has_zero_halfwidth(self, noisy_bundle):
        report = run_experiment(toy_spec(runs=1), noisy_bundle)
        assert report.ci95 == 0.0
        assert len(report.records) == 1

    def test_mean_and_ci_match_direct_formula(self, noisy_bundle):
        report = run_experiment(toy_spec(runs=5, method="lp-only"), noisy_bundle)
        accs = report.accuracies
        assert abs(report.mean - accs.mean()) < 1e-12
        expected = 1.96 * np.std(accs, ddof=1) / np.sqrt(len(accs))
        assert abs(report.ci95 - expected) < 1e-12
        assert 0.0 <= report.mean <= 1.0

    def test_halfwidth_helper(self):
        assert confidence_halfwidth(np.array([0.5])) == 0.0
        accs = np.array([0.2, 0.4, 0.9])
        assert confidence_halfwidth(accs) == pytest.approx(
            1.96 * np.std(accs, ddof=1) / np.sqrt(3))

    def test_report_schema(self, noisy_bundle):
        report = run_experiment(toy_spec(runs=2, method="mlp-only"), noisy_bundle)
        payload = report.to_dict()
        assert set(payload) >= {"config", "runs", "mean", "ci95", "wall_ms"}
        assert len(payload["runs"]) == 2
        for record in payload["runs"]:
            assert {"seed", "accuracy", "iterations"} <= set(record)


class TestSeedDiscipline:
    def test_alias_consistency_base_equals_overridden_agst(self, noisy_bundle):
        base_report = run_experiment(toy_spec(method="agst-base"), noisy_bundle)
        overridden = toy_spec(method="agst",
                              config=AgstConfig(train=TrainConfig(lambda2=0.0),
                                                augment=AugmentConfig(0.0, 0.0)))
        agst_report = run_experiment(overridden, noisy_bundle)
        assert base_report.accuracies.tolist() == agst_report.accuracies.tolist()

    def test_recorded_seed_replays_exactly(self, noisy_bundle):
        spec = toy_spec(runs=3)
        report = run_experiment(spec, noisy_bundle)
        record = report.records[1]
        again = run_single(noisy_bundle, spec, record.seed)
        assert again.accuracy == record.accuracy

    def test_runs_use_distinct_seeds(self, noisy_bundle):
        report = run_experiment(toy_spec(runs=4), noisy_bundle)
        seeds = [r.seed for r in report.records]
        assert seeds == [50, 51, 52, 53]

    def test_worker_pool_matches_sequential(self, noisy_bundle):
        seq = run_experiment(toy_spec(runs=4, method="agst-base"), noisy_bundle)
        par = run_experiment(toy_spec(runs=4, method="agst-base", workers=2), noisy_bundle)
        assert seq.accuracies.tolist() == par.accuracies.tolist()
        assert seq.mean == par.mean

    @pytest.mark.parametrize("runs, workers, started", [(1, 4, 0), (2, 4, 2), (3, 2, 2)])
    def test_pool_starts_no_idle_worker(self, noisy_bundle, monkeypatch, tmp_path,
                                        runs, workers, started):
        # each worker process runs the initializer once, as it starts; a
        # forked pool starts all of its workers at the first submit
        real = experiments._init_worker

        def recording(*args):
            (tmp_path / str(os.getpid())).touch()
            real(*args)

        monkeypatch.setattr(experiments, "_init_worker", recording)
        spec = toy_spec(runs=runs, method="mlp-only", workers=workers)
        report = run_experiment(spec, noisy_bundle)
        assert len(report.records) == runs
        assert len(list(tmp_path.iterdir())) == started


class TestTestLabelBlindness:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_ignore_test_gold(self, monkeypatch, workers):
        """With each run's split fixed, as drawn from the true gold, and gold
        permuted on the nodes every run tests, the report is the same apart
        from the test accuracy (with its mean and ci95) and ``wall_ms``, in
        this process and in a pool."""
        bundle = two_cluster_bundle(n=200, separation=1.0, noise_fraction=0.2, seed=3)
        spec = toy_spec(k=5, runs=2, val_per_class=5, seed=6, workers=workers,
                        config=AgstConfig(train=TrainConfig(max_epochs=60, no_val_epochs=20)))
        real = experiments.make_split
        monkeypatch.setattr(experiments, "make_split",
                            lambda _, *args, **kwargs: real(bundle, *args, **kwargs))
        tested = reduce(np.intersect1d, [
            real(bundle, spec.protocol, seed=spec.seed + r, k=spec.k,
                 val_per_class=spec.val_per_class).test for r in range(spec.runs)])
        gold = bundle.gold.copy()
        gold[tested] = np.random.default_rng(5).permutation(gold[tested])
        assert (gold != bundle.gold).any()
        shuffled = DatasetBundle(bundle.graph, bundle.features, gold, bundle.num_classes)

        def blind(report):
            out = {key: value for key, value in report.to_dict().items()
                   if key not in ("mean", "ci95", "wall_ms")}
            for run in out["runs"]:
                del run["accuracy"], run["wall_ms"]
                for stats in run["iterations"]:
                    del stats["test_acc"], stats["wall_ms"]
            return out

        assert blind(run_experiment(spec, bundle)) == blind(run_experiment(spec, shuffled))


class TestMethods:
    def test_every_method_runs(self, noisy_bundle):
        for method in ("agst", "agst-base", "lp-only", "mlp-only",
                       "no-contrast", "no-augment"):
            report = run_experiment(toy_spec(runs=2, method=method), noisy_bundle)
            assert 0.0 <= report.mean <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            toy_spec(method="gcn")

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            toy_spec(runs=0)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol 'stratified'"):
            toy_spec(protocol="stratified")

    def test_best_iteration_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="best_iteration"):
            experiments.with_parameters(toy_spec(), {"best_iteration": True})

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            toy_spec(workers=0)

    def test_failing_run_reports_its_seed(self, noisy_bundle):
        # k larger than any class can supply fails inside the split draw
        with pytest.raises(ValueError, match=r"run seed 50"):
            run_experiment(toy_spec(runs=2, k=19), noisy_bundle)

    @pytest.mark.parametrize("method", ["agst", "lp-only"])
    @pytest.mark.parametrize("protocol, sizes", [("balanced", dict(k=2, val_per_class=2)),
                                                 ("imbalanced", dict(rate=0.99))])
    def test_split_without_test_nodes_rejected(self, method, protocol, sizes):
        # every gold-labeled node of the 8 is labeled or validation, so the
        # accuracy would be a mean over no node
        spec = ExperimentSpec(protocol=protocol, method=method, runs=2, seed=3, **sizes)
        with pytest.raises(ValueError,
                           match=rf"^the {protocol} split leaves no test node \[run seed 3\]$"):
            run_experiment(spec, two_cluster_bundle(n=8, seed=0))

    def test_full_method_not_worse_than_backbone(self, noisy_bundle):
        agst = run_experiment(toy_spec(runs=10, method="agst"), noisy_bundle)
        base = run_experiment(toy_spec(runs=10, method="agst-base"), noisy_bundle)
        assert agst.mean >= base.mean

    def test_imbalanced_protocol_trains_fixed_budget(self):
        bundle = two_cluster_bundle(n=120, noise_fraction=0.1, seed=4)
        cfg = AgstConfig(train=TrainConfig(no_val_epochs=40), iterations=2)
        spec = ExperimentSpec(protocol="imbalanced", rate=0.05, runs=2,
                              method="agst", config=cfg, seed=20)
        report = run_experiment(spec, bundle)
        assert 0.0 <= report.mean <= 1.0
        for record in report.records:
            assert record.iterations[0]["best_epoch"] is None
            assert record.iterations[0]["epochs"] == 40


class TestSweep:
    def test_single_value_sweep_equals_run_experiment(self, noisy_bundle):
        spec = toy_spec(runs=3, method="agst-base")
        rows = run_sweep(spec, "lambda1", [1.0], noisy_bundle)
        direct = run_experiment(spec, noisy_bundle)
        assert len(rows) == 1
        assert rows[0].mean == direct.mean
        assert rows[0].ci95 == direct.ci95

    def test_axis_values_applied(self, noisy_bundle):
        spec = toy_spec(runs=2, method="agst-base")
        rows = run_sweep(spec, "lambda2", [0.0, 0.5], noisy_bundle)
        assert [r.value for r in rows] == [0.0, 0.5]
        assert all(r.axis == "lambda2" for r in rows)

    def test_unknown_axis_rejected(self, noisy_bundle):
        with pytest.raises(ValueError, match="axis"):
            run_sweep(toy_spec(), "gamma", [1.0], noisy_bundle)

    @pytest.mark.parametrize("axis, value", [("k", 2.5), ("steps", 2.5), ("k", math.inf),
                                             ("steps", math.nan)])
    def test_non_integral_value_of_integer_axis_rejected(self, noisy_bundle, monkeypatch,
                                                         axis, value):
        ran = []
        monkeypatch.setattr(experiments, "run_experiment", lambda *a: ran.append(a))
        with pytest.raises(ValueError, match=f"^sweep axis {axis} takes integer values"):
            run_sweep(toy_spec(), axis, [10, value], noisy_bundle)
        assert not ran  # refused before any value runs

    def test_empty_values_rejected(self, noisy_bundle):
        with pytest.raises(ValueError, match="at least one"):
            run_sweep(toy_spec(), "lambda1", [], noisy_bundle)

    def test_propagation_depth_sweep_monotone_on_ring(self):
        # label signal must travel along the rings, so teacher accuracy is
        # non-decreasing in the propagation depth up to full coverage
        bundle = two_cluster_bundle(n=40, feature_dim=4, separation=0.3, intra_degree=0,
                                    seed=0)
        spec = ExperimentSpec(protocol="balanced", k=3, runs=10, method="lp-only",
                              val_per_class=4, seed=9)
        rows = run_sweep(spec, "steps", [1, 2, 5, 10], bundle)
        means = [r.mean for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]

    def test_sweep_csv_format(self, tmp_path, noisy_bundle):
        rows = run_sweep(toy_spec(runs=2, method="lp-only"), "steps", [2, 10], noisy_bundle)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis,value,mean,ci95"
        assert len(lines) == 3
        assert lines[1].startswith("steps,2")


class TestDatasetLoading:
    def test_missing_dataset_and_bundle_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            run_experiment(toy_spec(dataset=None))

    def test_sweep_without_dataset_or_bundle_rejected(self):
        with pytest.raises(ValueError, match="dataset path or an in-memory bundle"):
            run_sweep(toy_spec(dataset=None), "lambda1", [1.0])

    def test_loads_from_directory(self, tmp_path, noisy_bundle):
        from agst import save_dataset

        save_dataset(noisy_bundle, tmp_path / "toy")
        spec = toy_spec(dataset=str(tmp_path / "toy"), runs=2, method="lp-only")
        report = run_experiment(spec)
        assert len(report.records) == 2
