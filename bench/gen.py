"""Seeded synthetic inputs for the benchmark, written in the agst dataset format.

Every graph is a contextual stochastic block model (cSBM; Deshpande et al.,
2018): class-structured edges with a chosen edge homophily, plus node
features that carry a class signal of their own.  The same ``--seed`` gives
byte-identical files.  This module uses numpy only and never imports agst,
so the program under test receives nothing but the written directory.

    python3 bench/gen.py --workload cora-csbm --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Shape


def draw_edges(rng: np.random.Generator, labels: np.ndarray, m: int, h: float) -> np.ndarray:
    """``m`` unique canonical (i < j) edges, a share ``h`` of them intra-class.

    One endpoint is uniform over nodes; the other is uniform over the same
    class with probability ``h`` and over the other classes otherwise.
    """
    n = labels.size
    members = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    drawn = np.empty(0, dtype=np.int64)        # edge keys i * n + j, in draw order
    while drawn.size < m:
        k = 2 * (m - drawn.size) + 64
        u = rng.integers(0, n, k)
        same = rng.random(k) < h
        v = np.empty(k, dtype=np.int64)
        for c, nodes in enumerate(members):
            own = labels[u] == c
            pick = own & same
            v[pick] = nodes[rng.integers(0, nodes.size, pick.sum())]
            pick = own & ~same
            others = np.flatnonzero(labels != c)
            v[pick] = others[rng.integers(0, others.size, pick.sum())]
        ok = u != v
        batch = np.minimum(u, v)[ok] * n + np.maximum(u, v)[ok]
        # keep first occurrences in draw order, so the result is seed-stable
        _, first = np.unique(batch, return_index=True)
        batch = batch[np.sort(first)]
        drawn = np.concatenate([drawn, batch[~np.isin(batch, drawn)]])
    chosen = np.sort(drawn[:m])
    return np.column_stack([chosen // n, chosen % n])


def draw_features(rng: np.random.Generator, labels: np.ndarray, shape: Shape) -> np.ndarray:
    n, f, c = labels.size, shape.features, labels.max() + 1
    if shape.binary:
        # each class owns a contiguous block of topic words; a node draws
        # 1 + Poisson(words - 1) words, each from its topic with probability
        # ``signal`` and uniformly from the whole vocabulary otherwise
        block = f // c
        x = np.zeros((n, f), dtype=np.uint8)
        counts = 1 + rng.poisson(shape.words - 1.0, n)
        rows = np.repeat(np.arange(n), counts)
        topical = rng.random(rows.size) < shape.signal
        cols = rng.integers(0, f, rows.size)
        cols[topical] = labels[rows[topical]] * block + rng.integers(0, block, topical.sum())
        x[rows, cols] = 1
        return x
    directions = rng.normal(size=(c, f))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = directions * (shape.signal / np.sqrt(2.0))
    return means[labels] + rng.normal(size=(n, f))


def write_dataset(out: Path, edges: np.ndarray, features: np.ndarray, labels: np.ndarray) -> None:
    out.mkdir(parents=True, exist_ok=True)
    n, f = features.shape
    (out / "meta").write_text(f"n={n}\nf={f}\nc={labels.max() + 1}\n")
    (out / "edges.tsv").write_text("".join(f"{i}\t{j}\n" for i, j in edges.tolist()))
    (out / "labels.tsv").write_text("".join(f"{i}\t{c}\n" for i, c in enumerate(labels.tolist())))
    if features.dtype == np.uint8:
        # "0,1,0,...\n" built as one byte buffer: 3.9M values in well under a second
        text = np.full((n, 2 * f), ord(","), dtype=np.uint8)
        text[:, 0::2] = features + ord("0")
        text[:, -1] = ord("\n")
        (out / "features.csv").write_bytes(text.tobytes())
    else:
        np.savetxt(out / "features.csv", features, fmt="%.9g", delimiter=",")


def generate(workload: str, seed: int, out: Path) -> None:
    shape = WORKLOADS[workload].shape
    # one stream per workload and seed; the workload name keeps two
    # workloads run with the same seed from sharing draws
    rng = np.random.default_rng([seed, sum(workload.encode())])
    labels = np.repeat(np.arange(len(shape.class_sizes)), shape.class_sizes)
    labels = labels[rng.permutation(labels.size)]    # node ids not sorted by class
    edges = draw_edges(rng, labels, shape.edges, shape.homophily)
    features = draw_features(rng, labels, shape)
    write_dataset(out, edges, features, labels)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
