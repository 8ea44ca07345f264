"""Quick self-test of the benchmark on tiny inputs (about 15 s on 2 cores).

    python3 bench/selftest.py

1. The generator is deterministic: one seed, one set of bytes.
2. bench/run.py on the two tiny workloads, with --trace 0 and 1, prints as
   its last line exactly ``correct``, ``attempted``, ``failed`` and
   ``metrics``; the metrics are those BENCHMARK.json lists, with its units;
   every check passes and no operation fails.
3. The checks reject broken outputs: a plan with a cross-label pair, one
   that passes over its best candidate, one short of its quota, one that
   removes a non-edge, a teacher off by 1e-8 and a changed prediction.
4. In a directory holding only BENCHMARK.json and bench/, run.py exits with
   a non-zero status and prints no result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work" / f"selftest-{os.getpid()}"
sys.path.insert(0, str(ROOT / "src"))

Results = Iterator[tuple[bool, str]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_generator() -> Results:
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.generate("tiny-agst", seed, WORK / name)
    files = ["meta", "edges.tsv", "features.csv", "labels.tsv"]
    _, differ, missing = filecmp.cmpfiles(WORK / "a", WORK / "b", files, shallow=False)
    yield not differ and not missing, "same seed, same dataset bytes"
    other = filecmp.cmp(WORK / "a" / "edges.tsv", WORK / "c" / "edges.tsv", shallow=False)
    yield not other, "another seed, another graph"


def test_schema() -> Results:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("tiny-agst", "tiny-pool"):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if done.returncode != 0:
                yield False, f"{what}: exit {done.returncode}"
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            yield (sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result keys")
            units = {m["name"]: m["unit"] for m in contract[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            yield got == units, f"{what}: every {group} metric with its unit"
            yield (all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{what}: numeric values")
            yield (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: correct, nothing failed")


def test_checks_reject() -> Results:
    from agst import AugmentConfig, load_dataset, make_split, normalize_adjacency
    from agst import plan_augmentation, propagate_labels, to_distribution, LpConfig

    data = WORK / "a"
    bundle = load_dataset(data)
    n, c, edges, labels = checks.read_graph(data)
    p = np.random.default_rng(0).dirichlet(np.ones(c), size=n)
    hard = p.argmax(axis=1)
    plan = plan_augmentation(bundle.graph, p, AugmentConfig())

    def verdict(added, removed) -> bool:
        return checks.check_plan(p, hard, edges, added, removed, 0.4, 0.1)[0]

    yield verdict(plan.added, plan.removed), "plan of the program passes"
    cross = np.flatnonzero(hard != hard[0])[0]
    bad = plan.added.copy()
    bad[-1] = sorted((0, cross))
    yield not verdict(bad, plan.removed), "cross-label addition rejected"
    # swap the strongest addition for the weakest same-label non-edge
    i, j = np.triu_indices(n, k=1)
    same = hard[i] == hard[j]
    pool = np.column_stack([i[same], j[same]])
    taken = np.concatenate([edges[:, 0] * n + edges[:, 1], plan.added[:, 0] * n + plan.added[:, 1]])
    pool = pool[~np.isin(pool[:, 0] * n + pool[:, 1], taken)]
    weakest = pool[np.argmin(np.einsum("ij,ij->i", p[pool[:, 0]], p[pool[:, 1]]))]
    bad = plan.added.copy()
    bad[0] = weakest
    yield not verdict(bad, plan.removed), "passing over the best candidate rejected"
    yield not verdict(plan.added[:-1], plan.removed), "addition short of quota rejected"
    bad = plan.removed.copy()
    bad[0] = plan.added[0]
    yield not verdict(plan.added, bad), "removal of a non-edge rejected"

    split = make_split(bundle, "balanced", seed=1, k=3, val_per_class=5)
    lp = LpConfig()
    program = to_distribution(propagate_labels(normalize_adjacency(bundle.graph), bundle,
                                               split, lp)).matrix
    own = checks.teacher(n, edges, split.labeled, labels, c, lp.alpha, lp.steps)
    yield checks.check_teacher(program, own)[0], "teacher of the program passes"
    yield not checks.check_teacher(program + 1e-8, own)[0], "teacher off by 1e-8 rejected"
    flipped = hard.copy()
    flipped[0] = (hard[0] + 1) % c
    yield checks.check_predictions(p, hard)[0], "own argmax passes"
    yield not checks.check_predictions(p, flipped)[0], "changed prediction rejected"


def test_without_program() -> Results:
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_bench(bare, "tiny-agst", 0)
    printed = [line for line in done.stdout.splitlines() if line.startswith("{")]
    yield done.returncode != 0 and not printed, "without src/agst: non-zero exit, no result"


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for test in (test_generator, test_schema, test_checks_reject, test_without_program):
            for ok, what in test():
                print(("ok   " if ok else "FAIL ") + what)
                failures += not ok
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{failures} failure(s)" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
