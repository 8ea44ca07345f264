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
runs out.  Where ``_can_pipeline`` allows, rounds 2..R run in R - 1 helper
processes forked at ``run_agst``'s entry: a round sends its best
parameters downstream once their epoch has held ``SETTLE_EPOCHS`` epochs,
and again whenever a later epoch beats them; the next round starts on each
job it receives, dropping the one before (and cancelling its own
downstream), and its result counts once its input is final.  Each round
does the same arithmetic on the same input as in the sequential loop, so
the outputs are the same bytes.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

from .data import DatasetBundle, SplitSpec, require_gold, require_integers
from .graph import normalize_adjacency
from .mlp import StudentParams, TrainConfig, TrainTrace, forward, train_student
from .propagation import LpConfig, propagate_labels, to_distribution
from .rewiring import AugmentationPlan, AugmentConfig, apply_augmentation, plan_augmentation

log = logging.getLogger(__name__)

# epochs a round's best epoch must hold before its parameters go downstream:
# on cora-csbm (seeds 201-205) 1, 3 and 6 never restarted a round and ran
# alike, 0 restarted 10 times a run; 3 leaves room for a best that creeps up
SETTLE_EPOCHS = 3


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
    edge counts; no round trains on it.  With a validation set, more than
    one round, two CPUs and one OpenBLAS thread, the rounds overlap in
    helper processes (see the module docstring) with the same outputs; each
    round's ``wall_ms`` then overlaps the others.

    Returns the per-round stats and the last round's parameters and
    predictions, or, with ``cfg.report_best_iteration`` and a validation
    set, those of the first round with the best validation accuracy. A
    replay of the same inputs is byte-exact only at a fixed BLAS thread count.
    """
    require_gold(bundle, split)
    run = _pipelined if _can_pipeline(split, cfg) else _sequential
    rounds = run(bundle, split, cfg)
    best = max(rounds, key=lambda out: out[2].val_acc) if split.validation.size else None
    for _, _, stats in rounds:
        log.debug("iteration %d: val=%s test=%s +%d/-%d edges", stats.iteration, stats.val_acc,
                  stats.test_acc, stats.added_edges.shape[0], stats.removed_edges.shape[0])
    final, final_preds, _ = best if cfg.report_best_iteration and best else rounds[-1]
    return RunResult(final_params=final, per_iteration=[out[2] for out in rounds],
                     predictions=final_preds)


def _outputs(params: StudentParams, bundle: DatasetBundle,
             cfg: AgstConfig) -> tuple[np.ndarray, AugmentationPlan]:
    """The predictions and the rewiring plan of ``params``, both from one
    float64 forward pass."""
    _, probs = forward(params.astype(np.float64), bundle.features)
    return np.argmax(probs, axis=1), plan_augmentation(bundle.graph, probs, cfg.augment)


def _round(bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig, iteration: int,
           previous: AugmentationPlan | None, relay: _Relay | None = None):
    """Round ``iteration`` on the input graph rewired by ``previous``, the
    last round's plan (None in round 1): (params, predictions, stats, plan),
    or None when ``relay`` stopped the student."""
    started = time.perf_counter()
    try:
        graph = bundle.graph if previous is None else apply_augmentation(bundle.graph, previous)
        soft = to_distribution(propagate_labels(normalize_adjacency(graph), bundle, split, cfg.lp))
        params, trace = train_student(bundle, split, soft, cfg.train,
                                      student_rng(cfg.seed, iteration), bundle.features, relay)
        if relay is not None and relay.stopped:
            return None
        preds, plan = _outputs(params, bundle, cfg)
    except Exception as err:
        raise annotate(err, f"self-training iteration {iteration}") from err

    def accuracy(nodes):
        return float(np.mean(preds[nodes] == bundle.gold[nodes])) if nodes.size else None

    stats = IterationStats(iteration=iteration, val_acc=accuracy(split.validation),
                           test_acc=accuracy(split.test), trace=trace, added_edges=plan.added,
                           removed_edges=plan.removed,
                           wall_ms=(time.perf_counter() - started) * 1000.0)
    return params, preds, stats, plan


def _sequential(bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig) -> list:
    """The rounds one after another: (params, predictions, stats) each."""
    rounds, plan = [], None
    for iteration in range(1, cfg.iterations + 1):
        *out, plan = _round(bundle, split, cfg, iteration, plan)
        rounds.append(out)
    return rounds


# thread-count setters of OpenBLAS builds: numpy's and scipy's wheels prefix
# them with scipy_, 64-bit-integer builds add a 64_ suffix
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


def _openblas_call(handle: ctypes.CDLL, verb: str):
    """The library's ``set`` or ``get`` thread-count call, or None."""
    for name in _OPENBLAS_SETTERS:
        call = getattr(handle, name.replace("_set_", f"_{verb}_"), None)
        if call is not None:
            return call
    return None


def single_blas_thread() -> None:
    """Set every loaded OpenBLAS that exports a thread-count setter to one
    thread: on this program's small matrices a second thread only spins."""
    for handle in _openblas_libraries().values():
        setter = _openblas_call(handle, "set")
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _can_pipeline(split: SplitSpec, cfg: AgstConfig) -> bool:
    """Whether the rounds may overlap in forked helpers: there is a
    validation set to settle a best epoch, more than one round, at least two
    CPUs, no other thread (a fork copies none), every OpenBLAS at one thread
    (more would already use the cores and spin against the helpers), and
    this process is not a multiprocessing child such as a pool worker."""
    if not (split.validation.size and cfg.iterations > 1
            and multiprocessing.parent_process() is None and threading.active_count() == 1
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        return False
    getters = [_openblas_call(handle, "get") for handle in _openblas_libraries().values()]
    return bool(getters) and all(get is not None and get() == 1 for get in getters)


class _Link:
    """The sending end of the pipe from one round to the next, and the
    parameters it last sent as a job, so that a job goes out once; a job of
    None cancels the one before."""

    def __init__(self, conn):
        self.conn, self.sent = conn, None

    def offer(self, params: StudentParams) -> None:
        if self.conn is not None and params is not self.sent:
            self.conn.send(("job", params))
            self.sent = params

    def cancel(self) -> None:
        if self.sent is not None:
            self.conn.send(("job", None))
            self.sent = None

    def final(self) -> None:
        if self.conn is not None:
            self.conn.send(("final", None))


class _Inbox:
    """What the previous round sent: its newest job (None once cancelled),
    whether that changed since ``take``, and whether it is final."""

    def __init__(self, conn):
        self.conn, self.job, self.changed, self.final = conn, None, False, False

    def read(self, block: bool) -> None:
        """Apply every waiting message, after waiting for one if ``block``;
        nothing follows a final mark, and the sender may have closed its end."""
        while not self.final and (block or self.conn.poll()):
            kind, params = self.conn.recv()
            if kind == "final":
                self.final = True
            else:
                self.job, self.changed, self.final = params, True, False
            block = False

    def take(self) -> StudentParams | None:
        self.changed = False
        return self.job


class _Relay:
    """``train_student``'s epoch hook in a pipelined round: offers the best
    parameters downstream once their epoch has held ``SETTLE_EPOCHS``
    epochs, and stops the student when the round's own job changed."""

    def __init__(self, inbox: _Inbox | None, link: _Link):
        self.inbox, self.link, self.stopped = inbox, link, False

    def __call__(self, epoch: int, best_epoch: int | None, best: StudentParams | None) -> bool:
        if self.inbox is not None:
            self.inbox.read(block=False)
            self.stopped = self.inbox.changed
        if not self.stopped and best is not None and epoch - best_epoch >= SETTLE_EPOCHS:
            self.link.offer(best)
        return self.stopped


def _helper(iteration: int, upstream, downstream, results, others: list,
            bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig) -> None:
    """Round ``iteration`` of a pipelined run, in a helper process: a new
    attempt on each job from round ``iteration - 1``; once the job of a
    finished attempt is final, its outcome goes to ``results``, and the round's
    parameters, marked final, downstream.  Exits quietly once the caller or
    the previous round is gone: closing ``others``, the pipe ends it does not
    use, lets it see that as the end of its pipes."""
    # an interrupt is the caller's to handle; it ends the helpers itself
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in others:
        end.close()
    inbox, link, attempts, outcome = _Inbox(upstream), _Link(downstream), 0, None
    try:
        while not (outcome is not None and inbox.final and not inbox.changed):
            if not inbox.changed:
                if inbox.final:     # final with no job: nothing more will come
                    return
                inbox.read(block=True)
                continue
            link.cancel()
            job, outcome = inbox.take(), None
            if job is None:
                continue
            attempts += 1
            relay = _Relay(inbox, link)
            try:
                out = _round(bundle, split, cfg, iteration, _outputs(job, bundle, cfg)[1], relay)
            except Exception as err:
                link.cancel()
                outcome = ("error", _portable(err), traceback.format_exc())
            else:
                if out is not None:
                    link.offer(out[0])
                    outcome = ("done", out[:3], attempts - 1)
        results.send(outcome)
        if outcome[0] == "done":
            link.final()
    except (EOFError, BrokenPipeError):
        return


def _portable(err: Exception) -> Exception:
    """``err`` if it survives a pickle round trip, else a RuntimeError with
    its message."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(str(err))


def _receive(reader, pending: list):
    """The next message on ``reader``, or a RuntimeError once a helper in
    ``pending``, all yet to report, has exited instead."""
    while not reader.poll():
        for proc in pending:
            if proc.exitcode is not None:
                raise RuntimeError(f"self-training helper {proc.name} exited with "
                                   f"code {proc.exitcode} before reporting")
        wait([reader, *(proc.sentinel for proc in pending)])
    return reader.recv()


def _pipelined(bundle: DatasetBundle, split: SplitSpec, cfg: AgstConfig) -> list:
    """Round 1 here and rounds 2..R in helpers forked before any round
    allocates; every helper is joined before this returns or raises."""
    context = multiprocessing.get_context("fork")
    # links[i]: round i + 1 -> round i + 2; replies[i]: round i + 2 -> here
    links = [context.Pipe(duplex=False) for _ in range(cfg.iterations - 1)]
    replies = [context.Pipe(duplex=False) for _ in range(cfg.iterations - 1)]
    ends = [end for pair in links + replies for end in pair]
    helpers = []
    try:
        for index in range(cfg.iterations - 1):
            own = (links[index][0], links[index + 1][1] if index + 2 < cfg.iterations else None,
                   replies[index][1])
            helpers.append(context.Process(
                target=_helper, name=f"agst-round-{index + 2}", daemon=True,
                args=(index + 2, *own, [end for end in ends if end not in own],
                      bundle, split, cfg)))
            helpers[-1].start()
        mine = [links[0][1], *(reader for reader, _ in replies)]
        for end in ends:
            if end not in mine:
                end.close()
        first = _Link(links[0][1])
        params, preds, stats, _ = _round(bundle, split, cfg, 1, None, _Relay(None, first))
        first.offer(params)
        first.final()
        done = [(params, preds, stats)]
        for index, (reader, _) in enumerate(replies):
            kind, payload, extra = _receive(reader, helpers[index:])
            if kind == "error":
                raise payload from RuntimeError(f"in helper {helpers[index].name}:\n{extra}")
            log.debug("iteration %d restarted %d times", index + 2, extra)
            done.append(payload)
        for proc in helpers:
            proc.join()
        return done
    finally:
        for proc in helpers:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
        for end in ends:
            end.close()
