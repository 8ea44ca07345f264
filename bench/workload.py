"""Measure one workload in this interpreter and print its result as JSON.

Started by bench/run.py in a fresh interpreter whose BLAS thread pools are
pinned to one thread; the dataset directory was written by bench/gen.py.

    set-up   load_dataset + make_split, repeated (see SETUP_REPEATS)
    warm-up  one untimed pass (the first round; for the pool, workers=1)
    timed    the workload's operation on identical inputs until --seconds
             is used up (at least MIN_REPEATS times); with --trace 1 half of
             the time runs untraced and half traced
    checks   bench/checks.py, against computations made apart from agst

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics`` and, beside them, ``env``, ``checks``
and the raw samples.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import agst
import checks
from agst import data, experiments, graph, propagation, selftrain
from agst.mlp import TrainConfig
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed at least SETUP_REPEATS times and for at least SETUP_SECONDS,
# so that a load of a few milliseconds still gets a steady median
SETUP_REPEATS, SETUP_SECONDS = 5, 1.5
MIN_REPEATS = 2


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, asked of the library."""
    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].endswith(".so")})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    def blas_version(show_config) -> str:
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(np.show_config),
                     "scipy": blas_version(scipy.show_config)},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Highest resident set of this process and of any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Job:
    """The workload's inputs and its one timed operation."""

    def __init__(self, w: Workload, data_dir: Path, seed: int):
        self.w, self.data_dir, self.seed = w, data_dir, seed
        self.cfg = selftrain.AgstConfig(seed=seed, train=TrainConfig(no_val_epochs=w.no_val_epochs))
        self.bundle = self.split = None

    def setup(self) -> float:
        self.bundle = self.split = None      # one copy in memory, as in ``agst run``
        started = time.perf_counter()
        self.bundle = data.load_dataset(self.data_dir)
        self.split = data.make_split(self.bundle, self.w.protocol, seed=self.seed, k=self.w.k,
                                     rate=self.w.rate, val_per_class=self.w.val_per_class)
        return time.perf_counter() - started

    def spec(self, workers: int) -> experiments.ExperimentSpec:
        return experiments.ExperimentSpec(
            protocol=self.w.protocol, k=self.w.k, rate=self.w.rate, runs=self.w.runs,
            method="agst", config=self.cfg, seed=self.seed, workers=workers,
            val_per_class=self.w.val_per_class)

    def run(self, workers: int | None = None):
        """The timed operation; returns its output."""
        if self.w.pool:
            return experiments.run_experiment(self.spec(workers or self.w.workers), self.bundle)
        return selftrain.run_agst(self.bundle, self.split, self.cfg)

    def warm_up(self):
        """Untimed pass over the same code and data: the pool workload's
        workers=1 reference, or the first self-training round of the timed
        run, whose rewiring plan is the same size as the timed run's."""
        if self.w.pool:
            return self.run(workers=1)
        return selftrain.run_agst(self.bundle, self.split, replace(self.cfg, iterations=1))

    def summary(self, out) -> dict:
        """Epochs, test accuracy and the output a replay must reproduce."""
        if self.w.pool:
            return {"epochs": sum(it["epochs"] for r in out.records for it in r.iterations),
                    "acc": out.mean, "outcome": [r.accuracy for r in out.records]}
        test = self.split.test
        return {"epochs": sum(len(s.trace.records) for s in out.per_iteration),
                "acc": float(np.mean(out.predictions[test] == self.bundle.gold[test])),
                "outcome": out.predictions.tolist()}


def repeat_setup(job: Job) -> list[float]:
    samples = [job.setup()]
    while len(samples) < SETUP_REPEATS or sum(samples) < SETUP_SECONDS:
        samples.append(job.setup())
    return samples


def timed_loop(job: Job, seconds: float, minimum: int, tracer: Tracer | None):
    """Repeat the operation until the next repeat would overrun ``seconds``."""
    samples, failed, outputs = [], 0, []
    started = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = job.run()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            failed += 1
        else:
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            sample = {"wall": wall, "cpu": cpu, **job.summary(out)}
            if tracer is not None:
                sample["spans"] = tracer.collect()
            samples.append(sample)
            outputs.append(out)
        done = len(samples) + failed
        elapsed = time.perf_counter() - started
        typical = statistics.median(s["wall"] for s in samples) if samples else 0.0
        if done >= minimum and elapsed + typical > seconds:
            return samples, failed, outputs


def run_checks(job: Job, reference, samples: list[dict], outputs: list) -> dict:
    w, bundle, split = job.w, job.bundle, job.split
    n, c, edges, labels = checks.read_graph(job.data_dir)
    found = {}
    found["blas_pinned"] = (all(v == 1 for v in blas_threads().values()),
                            f"OpenBLAS threads {blas_threads()}")
    found["load"] = (np.array_equal(bundle.graph.edges, edges)
                     and np.array_equal(bundle.gold, labels),
                     "edges and labels as written")
    lp = job.cfg.lp
    program = propagation.to_distribution(propagation.propagate_labels(
        graph.normalize_adjacency(bundle.graph), bundle, split, lp)).matrix
    found["teacher"] = checks.check_teacher(
        program, checks.teacher(n, edges, split.labeled, labels, c, lp.alpha, lp.steps))
    outcomes = [s["outcome"] for s in samples]
    found["replay"] = (all(o == outcomes[0] for o in outcomes),
                       f"{len(outcomes)} repeats with identical inputs")
    found["band"] = checks.check_band(samples[0]["acc"], w.acc_band)

    if w.pool:
        seq = [r.accuracy for r in reference.records]
        found["pool_equals_sequential"] = (all(o == seq for o in outcomes),
                                           f"workers={w.workers} vs workers=1: {seq}")
        # repetition 0 (split seed and model seed both ``seed``) again
        # through run_agst, to see its predictions
        result = selftrain.run_agst(bundle, split, job.cfg)
        acc = float(np.mean(result.predictions[split.test] == bundle.gold[split.test]))
        found["repetition_0"] = (acc == seq[0], f"run_agst {acc} vs pool {seq[0]}")
    else:
        result = outputs[0]
    p = checks.probabilities(bundle.features, result.final_params)
    found["predictions"] = checks.check_predictions(p, result.predictions)
    found["all_classes"] = checks.check_all_classes(result.predictions, c)
    last = result.per_iteration[-1]
    found["plan"] = checks.check_plan(p, result.predictions, edges, last.added_edges,
                                      last.removed_edges, job.cfg.augment.beta_add,
                                      job.cfg.augment.beta_remove)
    return {name: {"ok": bool(ok), "detail": detail} for name, (ok, detail) in found.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="measure one workload (see bench/run.py)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spill", type=Path, required=True, help="directory for worker spans")
    args = ap.parse_args(argv)

    if not Path(agst.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"agst imported from {agst.__file__}, not from {ROOT / 'src'}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    job = Job(WORKLOADS[args.workload], args.data, args.seed)
    tracer = Tracer(args.spill) if args.trace else None

    if tracer is not None:
        with tracer:
            setup = repeat_setup(job)
        setup_spans = tracer.collect()
    else:
        setup = repeat_setup(job)
    rss = {"setup": peak_rss_mb()}
    reference = job.warm_up()
    rss["warm_up"] = peak_rss_mb()

    if tracer is None:
        samples, failed, outputs = timed_loop(job, args.seconds, MIN_REPEATS, None)
        traced = []
    else:
        samples, failed, outputs = timed_loop(job, args.seconds / 2, 1, None)
        with tracer:
            traced, t_failed, t_outputs = timed_loop(job, args.seconds / 2, 1, tracer)
        failed += t_failed
        outputs += t_outputs
    if not samples or (tracer is not None and not traced):
        raise SystemExit("every timed operation failed")

    rss["timed"] = peak_rss_mb()
    found = run_checks(job, reference, samples + traced, outputs)
    rss["checks"] = peak_rss_mb()
    walls = [s["wall"] for s in samples]

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s.p50": statistics.median(walls),
            "cpu_s": statistics.median(s["cpu"] for s in samples),
            "epochs_per_s": statistics.median(s["epochs"] / s["wall"] for s in samples),
            "test_acc": statistics.median(s["acc"] for s in samples),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        per_op = [layer_metrics(s["spans"], job.w.workers if job.w.pool else 1) for s in traced]
        metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
        loads = [s["end"] - s["start"] for s in setup_spans if s["name"] == "data.load"]
        splits = [s["end"] - s["start"] for s in setup_spans if s["name"] == "data.split"]
        metrics["data.load_s"] = statistics.median(loads) if loads else 0.0
        metrics["data.split_s"] = statistics.median(splits) if splits else 0.0
        metrics["trace.overhead_s"] = (statistics.median(s["wall"] for s in traced)
                                       - statistics.median(walls))
        if tracer.missing:
            print(f"not traced (absent from agst): {tracer.missing}", file=sys.stderr)

    for name, entry in found.items():
        if not entry["ok"]:
            print(f"check {name} FAILED: {entry['detail']}", file=sys.stderr)
    record = {
        "correct": all(entry["ok"] for entry in found.values()),
        "attempted": len(samples) + len(traced) + failed,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "workload": job.w.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "checks": found,
        "setup_samples": setup,
        "peak_rss_mb_after": rss,
        "samples": [{k: v for k, v in s.items() if k not in ("outcome", "spans")}
                    for s in samples + traced],
        "spans": [span for s in traced for span in s["spans"]] + (setup_spans if tracer else []),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
