"""Iterative teacher/student loop with per-iteration topology refinement.

Each round propagates gold labels over the current graph, trains a fresh
student on the resulting soft targets, then uses the student's predictions
to rewire the PRISTINE input graph for the next round, so augmentations
never compound.  Each round's student trains on ``bundle.features`` in
float32, and the round's probabilities (the predictions and the rewiring
plan's scores) come from one float64 ``forward`` on it.  The run
is deterministic given its seed; each round draws from ``student_rng``.

Round r + 1 reads round r only through the parameters of round r's best
validation epoch, which early stopping settles long before its patience
runs out.  Where ``_can_pipeline`` allows, every round but the last forks
its patience tail (``_Tail``): once the best epoch has held
``SETTLE_EPOCHS`` epochs, the round ends in the caller on that best and the
next round starts on it, while a child process trains on through the
patience and sends back its ``TrainTrace``.  The fork only speculates: the
rounds stand if every child confirms the best epoch its round was cut at,
and each round's trace is then the child's.  After a child that sent
nothing, a best that moved, or an error in the forked run, every round runs
again in the plain loop.  Each round does the same arithmetic on the same
input as in the sequential loop, so the outputs are the same bytes, and an
error is raised as in the loop.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DatasetBundle, SplitSpec, require_gold, require_integers
from .graph import normalize_adjacency
from .mlp import StudentParams, TrainConfig, TrainTrace, forward, train_student
from .propagation import LpConfig, propagate_labels, to_distribution
from .rewiring import AugmentationPlan, AugmentConfig, apply_augmentation, plan_augmentation

log = logging.getLogger(__name__)

# epochs a round's best epoch must hold before the round forks its tail: on
# cora-csbm seeds 201-210 (best epochs 5-10) no best moved after the fork
# at 3, one round of 20 at 1, and every forked round at 0; 3 leaves room
# for a best that creeps up
SETTLE_EPOCHS = 3


@dataclass
class AgstConfig:
    lp: LpConfig = field(default_factory=LpConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    iterations: int = 3
    seed: int = 0

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
    edge counts; no round trains on it.  The rounds run with every loaded
    OpenBLAS at one thread, a setting of the whole process that is undone on
    return, so a replay is byte-exact at any caller's thread count.  With a
    validation set, more than one round and two CPUs, each round's patience
    tail runs in a forked child (see the module docstring) with the same
    outputs; a round's ``wall_ms`` is then the caller's own, without the
    tail.

    Returns the per-round stats and the last round's parameters and
    predictions.
    """
    require_gold(bundle, split)
    with _one_blas_thread() as pinned:
        rounds = _rounds(bundle, split, cfg, pinned and _can_pipeline(split, cfg))
    for _, _, stats in rounds:
        log.debug("iteration %d: val=%s test=%s +%d/-%d edges", stats.iteration, stats.val_acc,
                  stats.test_acc, stats.added_edges.shape[0], stats.removed_edges.shape[0])
    final, final_preds, _ = rounds[-1]
    return RunResult(final_params=final, per_iteration=[out[2] for out in rounds],
                     predictions=final_preds)


def _round(bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig, iteration: int,
           previous: AugmentationPlan | None, tail: _Tail | None):
    """Round ``iteration`` on the input graph rewired by ``previous``, the
    last round's plan (None in round 1): (params, predictions, stats, plan).
    ``tail``, if any, is the student's epoch hook; in its forked child the
    round ends with the student's trace alone."""
    started = time.perf_counter()
    try:
        graph = bundle.graph if previous is None else apply_augmentation(bundle.graph, previous)
        soft = to_distribution(propagate_labels(normalize_adjacency(graph), bundle, split, cfg.lp))
        params, trace = train_student(bundle, split, soft, cfg.train,
                                      student_rng(cfg.seed, iteration), bundle.features, tail)
        if tail is not None and tail.pid == 0:
            return trace
        probs = forward(params.astype(np.float64), bundle.features)
        preds, plan = np.argmax(probs, axis=1), plan_augmentation(bundle.graph, probs, cfg.augment)
    except Exception as err:
        raise annotate(err, f"self-training iteration {iteration}") from err

    def accuracy(nodes):
        return float(np.mean(preds[nodes] == bundle.gold[nodes])) if nodes.size else None

    stats = IterationStats(iteration=iteration, val_acc=accuracy(split.validation),
                           test_acc=accuracy(split.test), trace=trace, added_edges=plan.added,
                           removed_edges=plan.removed,
                           wall_ms=(time.perf_counter() - started) * 1000.0)
    return params, preds, stats, plan


# thread-count setters of OpenBLAS builds, each with a _get_ twin: numpy's
# and scipy's wheels prefix them with scipy_, 64-bit-integer builds add 64_
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS mapped into this process, by library path; empty where
    the process's memory map cannot be read (outside Linux)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    # fields: address perms offset dev inode pathname (which may hold spaces)
    paths = {fields[5] for fields in (line.split(maxsplit=5) for line in maps.splitlines())
             if len(fields) == 6 and "openblas" in fields[5].lower()}
    libraries = {}
    for path in sorted(paths):
        try:
            libraries[path] = ctypes.CDLL(path)
        except OSError:
            continue
    return libraries


@contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS at one thread for the block (on these small
    matrices a second only spins), each put back at its own count on exit,
    an error or interrupt included; yields whether one library at least was
    found and all were set.  The count is process-wide: another thread that
    uses BLAS meanwhile runs on one too."""
    handles, restore = list(_openblas_libraries().values()), []
    try:
        for handle in handles:
            for name in _OPENBLAS_SETTERS:
                get = getattr(handle, name.replace("_set_", "_get_"), None)
                setter = getattr(handle, name, None)
                if get is not None and setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    restore.append((setter, get()))
                    setter(1)
                    break
        yield bool(handles) and len(restore) == len(handles)
    finally:
        for setter, count in reversed(restore):
            setter(count)


def _can_pipeline(split: SplitSpec, cfg: AgstConfig) -> bool:
    """Whether the rounds may fork their patience tails: there is a
    validation set to settle a best epoch, more than one round, at least two
    CPUs, no other thread (a fork copies none), and this process is not a
    multiprocessing child such as a pool worker.  ``run_agst`` asks only
    under ``_one_blas_thread``, so no OpenBLAS thread spins against a tail."""
    return bool(split.validation.size and cfg.iterations > 1
                and multiprocessing.parent_process() is None and threading.active_count() == 1
                and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _rounds(bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig, fork: bool) -> list:
    """The rounds in order, (params, predictions, stats) each.  With
    ``fork``, every round but the last forks its patience tail; unless every
    child confirms its round, every child is reaped and the rounds run again
    unforked."""
    rounds, tails = [], []      # rounds: (params, predictions, stats, plan)
    try:
        for iteration in range(1, cfg.iterations + 1):
            tail, out = _Tail(tails), None
            tails.append(tail)
            try:
                out = _round(bundle, split, cfg, iteration, rounds[-1][3] if rounds else None,
                             tail if fork and iteration < cfg.iterations else None)
            finally:
                if tail.pid == 0:
                    tail.leave(out)
            rounds.append(out)
        stand = all(tail.confirms(out[2]) for tail, out in zip(tails, rounds))
    except Exception:
        if not fork:
            raise
        stand = False
    finally:
        for tail in tails:
            tail.reap()
    if not stand:
        log.debug("a forked round did not stand: running the rounds again in order")
        return _rounds(bundle, split, cfg, False)
    return [out[:3] for out in rounds]


class _Tail:
    """``train_student``'s epoch hook that forks a round's patience tail.

    Once the best epoch has held ``SETTLE_EPOCHS`` epochs, the caller forks
    and returns True, so that its round ends there, on that best.  The child
    (``pid`` 0) returns False on every epoch, so that it trains on, and exits
    once the process it was forked from is gone; ``leave`` sends its round's
    trace, if the training finished, through the pipe to ``reader``, and
    ``confirms`` reads it in the caller.  ``tails`` are the run's tails, one
    a round, whose pipe ends a child closes."""

    def __init__(self, tails: list):
        self.tails, self.parent, self.pid, self.reader = tails, os.getpid(), None, None

    def __call__(self, epoch: int, best_epoch: int | None, best: StudentParams | None) -> bool:
        if self.pid == 0:
            if os.getppid() != self.parent:
                os._exit(0)
            return False
        if best is None or epoch - best_epoch < SETTLE_EPOCHS:
            return False
        self.reader, self.writer = multiprocessing.Pipe(duplex=False)
        self.pid = os.fork()
        if self.pid:
            self.writer.close()
            return True
        # an interrupt is the caller's to handle; it reaps its children itself
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for tail in self.tails:
            if tail.reader is not None:
                tail.reader.close()
        return False

    def leave(self, trace: TrainTrace | None) -> None:
        """In the child: send ``trace`` if the training finished, nothing if
        an error or anything else ended it, and exit without unwinding into
        the caller's frames."""
        try:
            if isinstance(trace, TrainTrace):
                self.writer.send(trace)
        finally:
            os._exit(0)

    def confirms(self, stats: IterationStats) -> bool:
        """In the caller: whether the round of ``stats`` stands, that is it
        forked no child, or its child sent a trace whose best epoch is the
        one the round was cut at, which then replaces the round's trace.  A
        child that sent nothing raises EOFError here."""
        if self.pid:
            trace = self.reader.recv()
            if trace.best_epoch != stats.trace.best_epoch:
                return False
            stats.trace = trace
        return True

    def reap(self) -> None:
        """End and wait for the child, if it has not been reaped yet."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.reader.close()
            self.pid = None
