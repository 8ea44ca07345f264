"""Repeated-split evaluation: methods, ablations, sweeps, and reports.

Every run draws its own split and model initialization from a per-run seed
(base seed + run index), so any single run can be replayed exactly from the
seed recorded in the report.  Independent runs may execute in a process
pool; aggregation does not depend on completion order.
"""

from __future__ import annotations

import csv
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce

import numpy as np

from .data import DatasetBundle, load_dataset, make_split, require_integers
from .graph import normalize_adjacency
from .propagation import propagate_labels
from .selftrain import AgstConfig, annotate, run_agst

log = logging.getLogger(__name__)

METHODS = ("agst", "agst-base", "lp-only", "mlp-only", "no-contrast", "no-augment")
PROTOCOLS = ("balanced", "imbalanced", "standard20")
SWEEP_AXES = ("lambda1", "lambda2", "beta_add", "beta_remove", "steps", "k")

# Where each hyperparameter lives in an ExperimentSpec.  One name serves as
# the command-line flag (with - for _) and the sweep axis; any other such
# name is an ExperimentSpec field of that name.
PARAMETERS = {
    **{name: f"config.lp.{name}" for name in ("alpha", "steps")},
    **{name: f"config.train.{name}" for name in (
        "tau", "momentum", "lambda1", "lambda2", "weight_decay", "dropout", "patience",
        "max_epochs", "no_val_epochs", "hidden")},
    "lr": "config.train.learning_rate",
    **{name: f"config.augment.{name}" for name in ("beta_add", "beta_remove")},
    "iterations": "config.iterations",
}


@dataclass
class ExperimentSpec:
    dataset: str | None = None
    protocol: str = "balanced"
    k: int = 5
    rate: float = 0.01
    runs: int = 20
    method: str = "agst"
    config: AgstConfig = field(default_factory=AgstConfig)
    seed: int = 0
    workers: int = 1
    val_per_class: int = 30

    def __post_init__(self):
        require_integers(self, "k", "runs", "seed", "workers", "val_per_class")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.val_per_class < 0:
            raise ValueError(f"val_per_class must be >= 0, got {self.val_per_class}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def with_parameters(spec: ExperimentSpec, values: dict) -> ExperimentSpec:
    """``spec`` with each named parameter, a ``PARAMETERS`` key or an
    ExperimentSpec field, set to its value, one after the other."""
    for name, value in values.items():
        spec = _with_path(spec, PARAMETERS.get(name, name).split("."), value)
    return spec


def _with_path(obj, path: list[str], value):
    head, *rest = path
    return replace(obj, **{head: _with_path(getattr(obj, head), rest, value) if rest else value})


def method_config(method: str, base: AgstConfig) -> AgstConfig:
    """Ablation overrides: each variant switches parts of the full method off."""
    train, augment, iterations = base.train, base.augment, base.iterations
    if method in ("agst-base", "no-contrast", "mlp-only"):
        train = replace(train, lambda2=0.0)
    if method in ("agst-base", "no-augment", "mlp-only"):
        augment = replace(augment, beta_add=0.0, beta_remove=0.0)
    if method == "mlp-only":
        train = replace(train, lambda1=0.0)
        iterations = 1
    return replace(base, train=train, augment=augment, iterations=iterations)


@dataclass
class RunRecord:
    seed: int
    accuracy: float
    iterations: list[dict]
    wall_ms: float


@dataclass
class Report:
    method: str
    protocol: str
    records: list[RunRecord]
    mean: float
    ci95: float
    wall_ms: float
    config: dict

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.records])

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "runs": [asdict(r) for r in self.records],
            "mean": self.mean,
            "ci95": self.ci95,
            "wall_ms": self.wall_ms,
        }


def confidence_halfwidth(accuracies: np.ndarray) -> float:
    """Normal-approximation 95% half-width, 1.96 * sigma / sqrt(runs)."""
    if accuracies.size < 2:
        return 0.0
    return float(1.96 * np.std(accuracies, ddof=1) / np.sqrt(accuracies.size))


def run_single(bundle: DatasetBundle, spec: ExperimentSpec, run_seed: int) -> RunRecord:
    """One independent repetition: fresh split and fresh model, both seeded."""
    started = time.perf_counter()
    try:
        split = make_split(bundle, spec.protocol, seed=run_seed, k=spec.k,
                           rate=spec.rate, val_per_class=spec.val_per_class)
        if not split.test.size:   # the run's accuracy would be the mean of nothing
            raise ValueError(f"the {spec.protocol} split leaves no test node")
        if spec.method == "lp-only":
            op = normalize_adjacency(bundle.graph)
            soft = propagate_labels(op, bundle, split, spec.config.lp)
            preds = np.argmax(soft.matrix, axis=1)
            accuracy = float(np.mean(preds[split.test] == bundle.gold[split.test]))
            iterations = []
        else:
            cfg = replace(method_config(spec.method, spec.config), seed=run_seed)
            result = run_agst(bundle, split, cfg)
            accuracy = float(np.mean(result.predictions[split.test]
                                     == bundle.gold[split.test]))
            iterations = [s.to_dict() for s in result.per_iteration]
    except Exception as err:
        raise annotate(err, f"run seed {run_seed}") from err
    return RunRecord(seed=run_seed, accuracy=accuracy, iterations=iterations,
                     wall_ms=(time.perf_counter() - started) * 1000.0)


_WORKER: dict = {}

def _init_worker(bundle: DatasetBundle, spec: ExperimentSpec) -> None:
    _WORKER["bundle"] = bundle
    _WORKER["spec"] = spec


def _worker_run(run_seed: int) -> RunRecord:
    return run_single(_WORKER["bundle"], _WORKER["spec"], run_seed)


def _dataset(spec: ExperimentSpec, bundle: DatasetBundle | None) -> DatasetBundle:
    """The in-memory bundle when one is given, else the one at ``spec.dataset``."""
    if bundle is None and spec.dataset is None:
        raise ValueError("spec needs a dataset path or an in-memory bundle")
    return load_dataset(spec.dataset) if bundle is None else bundle


def run_experiment(spec: ExperimentSpec, bundle: DatasetBundle | None = None) -> Report:
    """Evaluate ``spec.method`` on ``spec.runs`` independent repetitions.

    Repetition r draws its split and its model from the seed ``spec.seed +
    r``. ``bundle``, when given, is used in place of loading
    ``spec.dataset``. When ``min(workers, runs)`` is above 1 the repetitions
    run in a pool of that many processes, otherwise in this one; either way
    each ``run_agst`` runs at one BLAS thread (see there), so the report is
    the same, ``wall_ms`` aside, at any thread count and any ``workers``.

    Returns a Report with one RunRecord per repetition in seed order, their
    mean test accuracy and 95% half-width, the wall time of the
    repetitions, and the configuration as a dict.
    """
    bundle = _dataset(spec, bundle)
    seeds = [spec.seed + r for r in range(spec.runs)]
    started = time.perf_counter()
    # a forked pool starts all its workers at the first submit; one run a
    # worker at most, and no pool for one
    workers = min(spec.workers, spec.runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(bundle, spec)) as pool:
            records = list(pool.map(_worker_run, seeds))
    else:
        records = [run_single(bundle, spec, s) for s in seeds]
    wall_ms = (time.perf_counter() - started) * 1000.0
    accuracies = np.array([r.accuracy for r in records])
    config = asdict(spec.config)
    config.update(method=spec.method, protocol=spec.protocol, k=spec.k,
                  rate=spec.rate, runs=spec.runs, seed=spec.seed,
                  val_per_class=spec.val_per_class, dataset=spec.dataset)
    return Report(
        method=spec.method,
        protocol=spec.protocol,
        records=records,
        mean=float(accuracies.mean()),
        ci95=confidence_halfwidth(accuracies),
        wall_ms=wall_ms,
        config=config,
    )


def apply_axis(spec: ExperimentSpec, axis: str, value: float) -> ExperimentSpec:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    *parents, leaf = PARAMETERS.get(axis, axis).split(".")
    owner = reduce(getattr, parents, spec)
    if {f.name: f.type for f in fields(owner)}[leaf] in (int, "int"):
        if not float(value).is_integer():
            raise ValueError(f"sweep axis {axis} takes integer values, got {value:g}")
        value = int(value)
    return with_parameters(spec, {axis: value})


@dataclass
class SweepRow:
    axis: str
    value: float
    mean: float
    ci95: float


def run_sweep(
    spec: ExperimentSpec,
    axis: str,
    values: list[float],
    bundle: DatasetBundle | None = None,
) -> list[SweepRow]:
    """One report row per axis value, everything else held fixed."""
    if not values:
        raise ValueError("sweep needs at least one axis value")
    bundle = _dataset(spec, bundle)
    points = [apply_axis(spec, axis, value) for value in values]   # refuse bad values first
    rows = []
    for value, point in zip(values, points):
        report = run_experiment(point, bundle)
        rows.append(SweepRow(axis=axis, value=value, mean=report.mean, ci95=report.ci95))
        log.info("sweep %s=%g: mean=%.4f ci95=%.4f", axis, value, report.mean, report.ci95)
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "mean", "ci95"])
        for row in rows:
            writer.writerow([row.axis, row.value, row.mean, row.ci95])
