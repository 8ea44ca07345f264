"""Benchmark entry point: one workload, one seed, one fresh interpreter.

    python3 bench/run.py --workload cora-csbm --seed 1 --seconds 20 --trace 0

Run from the root of an agst checkout; agst is imported from ./src.  The
launcher writes the workload's dataset with bench/gen.py, then measures it
with bench/workload.py in a new interpreter whose OpenBLAS, OpenMP and MKL
thread pools are pinned to one thread.  It prints the environment on one
line and the result on the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (environment, checks, samples, spans) goes to
bench/.work/results/<workload>-s<seed>-t<trace>.json; the dataset is deleted.
Without ./src/agst the launcher exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the whole run must end within 180 s
GEN_TIMEOUT, MEASURE_TIMEOUT = 40, 130


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child to its end.  On timeout the child's whole process
    group (its pool workers too) is killed and the child reaped."""
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "agst" / "__init__.py").is_file():
        print(f"no agst sources at {ROOT / 'src' / 'agst'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = WORK / f"{tag}-{os.getpid()}"
    data_dir = scratch / "data"
    try:
        gen = run_child([str(BENCH / "gen.py"), "--workload", args.workload,
                         "--seed", str(args.seed), "--out", str(data_dir)], GEN_TIMEOUT)
        if gen.returncode != 0:
            print(f"generator failed with status {gen.returncode}", file=sys.stderr)
            return 1
        measured = run_child([str(BENCH / "workload.py"), "--workload", args.workload,
                              "--data", str(data_dir), "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--spill", str(scratch / "spans")], MEASURE_TIMEOUT)
        if measured.returncode != 0:
            print(f"measurement failed with status {measured.returncode}", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired as err:
        print(f"timed out: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = json.loads(measured.stdout.strip().splitlines()[-1])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(record["env"]))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
