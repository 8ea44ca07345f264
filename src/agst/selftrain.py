"""Iterative teacher/student loop with per-iteration topology refinement.

Each round propagates gold labels over the current graph, trains a fresh
student on the resulting soft targets, then uses the student's predictions
to rewire the PRISTINE input graph for the next round, so augmentations
never compound.  The run builds one ``feature_matrix``: each round's student
trains on it in float32, and the round's probabilities (the predictions and
the rewiring plan's scores) come from one float64 ``forward`` on it.  The run
is deterministic given its seed; each round draws from ``student_rng``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetBundle, SplitSpec, require_gold, require_integers
from .graph import normalize_adjacency
from .mlp import StudentParams, TrainConfig, TrainTrace, feature_matrix, forward, train_student
from .propagation import LpConfig, propagate_labels, to_distribution
from .rewiring import AugmentConfig, apply_augmentation, plan_augmentation

log = logging.getLogger(__name__)


@dataclass
class AgstConfig:
    lp: LpConfig = field(default_factory=LpConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    iterations: int = 3
    seed: int = 0
    report_best_iteration: bool = False

    def __post_init__(self):
        require_integers(self, "iterations", "seed")
        if self.iterations < 1:
            raise ValueError("need at least one self-training iteration")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class IterationStats:
    iteration: int
    val_acc: float | None
    test_acc: float | None
    trace: TrainTrace
    added_edges: np.ndarray
    removed_edges: np.ndarray
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "val_acc": self.val_acc,
            "test_acc": self.test_acc,
            "edges_added": len(self.added_edges),
            "edges_removed": len(self.removed_edges),
            "epochs": len(self.trace.records),
            "best_epoch": self.trace.best_epoch,
            "wall_ms": self.wall_ms,
        }


@dataclass
class RunResult:
    final_params: StudentParams
    per_iteration: list[IterationStats]
    predictions: np.ndarray


def student_rng(seed: int, iteration: int) -> np.random.Generator:
    """Independent init/dropout stream for a given self-training round."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(iteration)[-1])


def annotate(err: Exception, context: str) -> Exception:
    """``err`` with its message extended by ``[context]``: the same exception
    type when that type can be built from one message, a RuntimeError otherwise."""
    message = f"{err} [{context}]"
    try:
        return type(err)(message)
    except TypeError:
        return RuntimeError(message)


def run_agst(bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig) -> RunResult:
    """Run ``cfg.iterations`` teacher/student rounds on ``split``.

    Round r trains a fresh student with ``student_rng(cfg.seed, r)`` on the
    teacher's propagation over the graph rewired by round r - 1's plan (the
    input graph in round 1). Every round plans a rewiring of the input graph,
    but the last round's plan is only reported, in its ``IterationStats``
    edge counts; no round trains on it.

    Returns the per-round stats and the last round's parameters and
    predictions, or, with ``cfg.report_best_iteration`` and a validation
    set, those of the first round with the best validation accuracy. A
    replay of the same inputs is byte-exact only at a fixed BLAS thread count.
    """
    require_gold(bundle, split)
    original = bundle.graph
    current = original
    stats: list[IterationStats] = []
    best_params: StudentParams | None = None
    best_preds: np.ndarray | None = None
    best_val = -np.inf
    test_gold = bundle.gold[split.test] if split.test.size else None
    x = feature_matrix(bundle.features)

    for iteration in range(1, cfg.iterations + 1):
        started = time.perf_counter()
        try:
            op = normalize_adjacency(current)
            soft = to_distribution(propagate_labels(op, bundle, split, cfg.lp))
            rng = student_rng(cfg.seed, iteration)
            params, trace = train_student(bundle, split, soft, cfg.train, rng, x)
            _, probs = forward(params.astype(np.float64), x)
            preds = np.argmax(probs, axis=1)
            plan = plan_augmentation(original, probs, cfg.augment)
            # the last round's plan is only reported; no round trains on it
            if iteration < cfg.iterations:
                current = apply_augmentation(original, plan)
        except Exception as err:
            raise annotate(err, f"self-training iteration {iteration}") from err

        val_acc = None
        if split.validation.size:
            val_acc = float(np.mean(preds[split.validation] == bundle.gold[split.validation]))
            if val_acc > best_val:
                best_val = val_acc
                best_params, best_preds = params, preds
        test_acc = None
        if test_gold is not None:
            test_acc = float(np.mean(preds[split.test] == test_gold))
        stats.append(IterationStats(
            iteration=iteration,
            val_acc=val_acc,
            test_acc=test_acc,
            trace=trace,
            added_edges=plan.added,
            removed_edges=plan.removed,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        ))
        log.debug("iteration %d: val=%s test=%s +%d/-%d edges",
                  iteration, val_acc, test_acc, plan.added.shape[0], plan.removed.shape[0])

    final, final_preds = params, preds
    if cfg.report_best_iteration and best_params is not None:
        final, final_preds = best_params, best_preds
    return RunResult(final_params=final, per_iteration=stats, predictions=final_preds)

