"""Spans around calls into agst's public functions, recorded from outside.

``Tracer`` replaces each function in ``TARGETS`` in the namespace it is
called through (``agst.selftrain.train_student``, not only
``agst.mlp.train_student``) with a wrapper that records a span: id, name,
start, end, the id of the enclosing span, and counts read off the call's
result.  Leaving the ``with`` block puts the originals back.  The program's
code is not changed.

Spans stay in memory.  Worker processes forked by
``experiments.run_experiment`` inherit the wrappers; each writes its spans to
``spill_dir`` when a repetition ends, and ``collect`` merges those files.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

# (span name, "module" or "module:Class", attribute).  One name may be
# reached through several namespaces; a name missing from the program is
# skipped and its layer metrics read 0.
TARGETS = (
    ("data.load", "agst.data", "load_dataset"),
    ("data.split", "agst.data", "make_split"),
    ("data.split", "agst.experiments", "make_split"),
    ("graph.normalize", "agst.selftrain", "normalize_adjacency"),
    ("graph.normalize", "agst.experiments", "normalize_adjacency"),
    ("propagation.propagate", "agst.selftrain", "propagate_labels"),
    ("propagation.propagate", "agst.experiments", "propagate_labels"),
    ("mlp.train", "agst.selftrain", "train_student"),
    ("mlp.momentum_embed", "agst.mlp", "momentum_embed"),
    ("mlp.prototypes", "agst.mlp", "compute_prototypes"),
    ("mlp.filter", "agst.mlp", "filter_pseudo_labels"),
    ("mlp.contrastive", "agst.mlp", "loss_contrastive"),
    ("mlp.val_forward", "agst.mlp", "forward"),
    ("mlp.adam", "agst.mlp:Adam", "step"),
    ("rewiring.plan", "agst.selftrain", "plan_augmentation"),
    ("rewiring.candidates", "agst.rewiring", "generate_candidates"),
    ("rewiring.score", "agst.rewiring", "edge_probability"),
    ("rewiring.apply", "agst.selftrain", "apply_augmentation"),
    ("selftrain.predict", "agst.selftrain", "forward"),
    ("selftrain.run", "agst.selftrain", "run_agst"),
    ("selftrain.run", "agst.experiments", "run_agst"),
    ("experiments.run_single", "agst.experiments", "run_single"),
    ("experiments.run_experiment", "agst.experiments", "run_experiment"),
)

# counts read off a call's result, after its span has ended
COUNTERS = {
    "propagation.propagate":
        lambda r: {"zero_mass_rows": int((r.matrix.sum(axis=1) < 1e-12).sum())},
    "mlp.filter": lambda r: {"kept": int(r.kept.size)},
    "rewiring.candidates": lambda r: {"candidates": int(r[0].shape[0])},
    "rewiring.score": lambda r: {"scored": int(r.size)},
    "rewiring.plan": lambda r: {"chosen": int(r.added.shape[0] + r.removed.shape[0])},
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[str] = []
        self._next = 0
        self._root_pid = os.getpid()
        self._spans_pid = self._root_pid
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for name, path, attr in TARGETS:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != self._spans_pid:
                # first call in a forked worker: drop the parent's spans
                self.spans, self._spans_pid = [], pid
            sid = f"{pid}.{self._next}"
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            if count is not None:
                span.update(count(result))
            self.spans.append(span)
            if name == "experiments.run_single" and pid != self._root_pid:
                self._spill(pid)
            return result

        return wrapper

    def _spill(self, pid: int) -> None:
        path = self.spill_dir / f"{pid}-{self._next}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def collect(self) -> list[dict]:
        """Every span recorded since the last call, workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("*.json")):
            spans.extend(json.loads(path.read_text()))
            path.unlink()
        return sorted(spans, key=lambda s: s["start"])


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run one after another in one thread, so their
    durations add up without overlap.
    """
    covered: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def layer_metrics(op: list[dict], workers: int) -> dict[str, float]:
    """Per-layer figures of one timed operation, from its spans."""

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in op if s["name"] in names)

    def counted(name: str, key: str) -> list[int]:
        return [s[key] for s in op if s["name"] == name]

    own = self_times(op)
    train_s = total("mlp.train")
    epochs = sum(1 for s in op if s["name"] == "mlp.adam")
    kept = counted("mlp.filter", "kept")
    scored = sum(counted("rewiring.score", "scored"))
    singles = [s["end"] - s["start"] for s in op if s["name"] == "experiments.run_single"]
    pool_wall = total("experiments.run_experiment")
    return {
        "graph.normalize_s": total("graph.normalize"),
        "propagation.propagate_s": total("propagation.propagate"),
        "propagation.zero_mass_rows": sum(counted("propagation.propagate", "zero_mass_rows")),
        "mlp.train_s": train_s,
        "mlp.epochs": epochs,
        "mlp.epoch_ms": 1000.0 * train_s / epochs if epochs else 0.0,
        "mlp.momentum_embed_s": total("mlp.momentum_embed"),
        "mlp.pseudo_filter_s": total("mlp.prototypes", "mlp.filter"),
        "mlp.contrastive_s": total("mlp.contrastive"),
        "mlp.adam_s": total("mlp.adam"),
        "mlp.val_forward_s": total("mlp.val_forward"),
        "mlp.kept_nodes": statistics.median(kept) if kept else 0,
        "mlp.self_s": sum(own[s["id"]] for s in op if s["name"] == "mlp.train"),
        "rewiring.plan_s": total("rewiring.plan"),
        "rewiring.candidates_s": total("rewiring.candidates"),
        "rewiring.score_s": total("rewiring.score"),
        "rewiring.apply_s": total("rewiring.apply"),
        "rewiring.candidates": sum(counted("rewiring.candidates", "candidates")),
        "rewiring.useful_ratio":
            sum(counted("rewiring.plan", "chosen")) / scored if scored else 0.0,
        "selftrain.predict_s": total("selftrain.predict"),
        "selftrain.self_s": sum(own[s["id"]] for s in op if s["name"] == "selftrain.run"),
        "experiments.run_single_s": statistics.median(singles) if singles else 0.0,
        "experiments.pool_efficiency":
            sum(singles) / (workers * pool_wall) if singles and pool_wall else 0.0,
    }
