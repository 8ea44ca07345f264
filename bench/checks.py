"""Correctness checks computed apart from the program.

Each check reads the raw dataset files or the program's outputs and
recomputes what they must satisfy with its own numpy/scipy code; nothing is
compared against a stored copy of earlier output.  A check returns
``(ok, detail)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import sparse

# Two dot products of the same rows taken by different BLAS paths (matmul
# here, einsum in the program) may differ in the last bits; a plan is wrong
# only if a pair it passed over beats its weakest choice by more than this.
SCORE_TOL = 1e-9


def read_graph(data: Path) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(n, c, edges, labels) parsed straight from the dataset files."""
    meta = dict(line.split("=") for line in (data / "meta").read_text().split())
    n, c = int(meta["n"]), int(meta["c"])
    edges = np.loadtxt(data / "edges.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
    pairs = np.loadtxt(data / "labels.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
    labels = np.full(n, -1, dtype=np.int64)
    labels[pairs[:, 0]] = pairs[:, 1]
    return n, c, edges, labels


def teacher(n: int, edges: np.ndarray, labeled: np.ndarray, labels: np.ndarray,
            c: int, alpha: float, steps: int) -> np.ndarray:
    """Row-normalized label propagation with S = D^-1/2 (A + I) D^-1/2.

    Y <- alpha S Y + (1 - alpha) Y0 for ``steps`` steps; rows without mass
    become uniform.
    """
    ones = np.ones(edges.shape[0])
    a = sparse.coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n))
    a = (a + a.T + sparse.identity(n)).tocsr()
    inv_sqrt = sparse.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    s = inv_sqrt @ a @ inv_sqrt
    y0 = np.zeros((n, c))
    y0[labeled, labels[labeled]] = 1.0
    y = y0
    for _ in range(steps):
        y = alpha * (s @ y) + (1.0 - alpha) * y0
    mass = y.sum(axis=1, keepdims=True)
    empty = mass < 1e-12
    return np.where(empty, 1.0 / c, y / np.where(empty, 1.0, mass))


def check_teacher(program: np.ndarray, own: np.ndarray) -> tuple[bool, str]:
    err = float(np.max(np.abs(program - own)))
    return err <= 1e-10, f"max |program - own| = {err:.3g}"


def probabilities(features: np.ndarray, params) -> np.ndarray:
    """The student's softmax output: relu(x W1 + b1) W2 + b2, then the head."""
    z = np.maximum(features @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2
    logits = z @ params.w3 + params.b3
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_predictions(p: np.ndarray, predictions: np.ndarray) -> tuple[bool, str]:
    """The program's hard labels are the argmax of our probabilities, except
    where the top two classes tie to rounding."""
    top2 = np.sort(p, axis=1)[:, -2:]
    differ = (np.argmax(p, axis=1) != predictions) & (top2[:, 1] - top2[:, 0] > 1e-12)
    return not differ.any(), f"{int(differ.sum())} of {p.shape[0]} predictions differ"


def _keys(pairs: np.ndarray, n: int) -> np.ndarray:
    return pairs[:, 0] * n + pairs[:, 1]


def check_plan(p: np.ndarray, hard: np.ndarray, edges: np.ndarray,
               added: np.ndarray, removed: np.ndarray,
               beta_add: float, beta_remove: float) -> tuple[bool, str]:
    """Properties of one rewiring plan against the pristine graph.

    Added pairs are canonical same-label non-edges, removed pairs are edges,
    the counts equal floor(beta * m) (capped by the candidates there are),
    and no pair passed over outscores the weakest choice: for additions this
    is searched over every same-label non-edge, class by class in row blocks.
    """
    n, m = hard.size, edges.shape[0]
    problems = []
    edge_keys = np.sort(_keys(edges, n))
    add_keys = _keys(added, n) if added.size else np.empty(0, dtype=np.int64)

    if added.size:
        if np.any(added[:, 0] >= added[:, 1]):
            problems.append("added pair not canonical (i < j)")
        if np.any(hard[added[:, 0]] != hard[added[:, 1]]):
            problems.append("added pair joins two predicted labels")
        if np.isin(add_keys, edge_keys).any():
            problems.append("added pair is already an edge")
        if np.unique(add_keys).size != add_keys.size:
            problems.append("added pair listed twice")
    if removed.size:
        rem_keys = _keys(removed, n)
        if not np.isin(rem_keys, edge_keys).all():
            problems.append("removed pair is not an edge")
        if np.unique(rem_keys).size != rem_keys.size:
            problems.append("removed pair listed twice")

    sizes = np.bincount(hard)
    same_label_edges = int(np.sum(hard[edges[:, 0]] == hard[edges[:, 1]]))
    candidates = int(np.sum(sizes * (sizes - 1) // 2)) - same_label_edges
    want_add = min(int(np.floor(beta_add * m)), candidates)
    want_remove = min(int(np.floor(beta_remove * m)), m)
    if added.shape[0] != want_add:
        problems.append(f"{added.shape[0]} additions, expected {want_add}")
    if removed.shape[0] != want_remove:
        problems.append(f"{removed.shape[0]} removals, expected {want_remove}")

    def dots(pairs):
        return np.einsum("ij,ij->i", p[pairs[:, 0]], p[pairs[:, 1]])

    if added.size and not problems:
        weakest = float(dots(added).min())
        beaten = _best_unchosen(p, hard, np.sort(np.concatenate([edge_keys, add_keys])), weakest)
        if beaten is not None:
            problems.append(f"unchosen pair {beaten} outscores the weakest addition")
    if removed.size and not problems:
        kept = edges[~np.isin(_keys(edges, n), _keys(removed, n))]
        if kept.size and dots(kept).min() < dots(removed).max() - SCORE_TOL:
            problems.append("a kept edge scores below a removed one")
    return not problems, "; ".join(problems) or (
        f"+{added.shape[0]} -{removed.shape[0]} of {candidates} candidates, m={m}")


def _best_unchosen(p: np.ndarray, hard: np.ndarray, taken: np.ndarray,
                   weakest: float, block: int = 256):
    """A same-label pair outside ``taken`` whose score beats ``weakest``, if any."""
    n = hard.size
    for cls in np.unique(hard):
        members = np.flatnonzero(hard == cls)
        for lo in range(0, members.size, block):
            rows = members[lo:lo + block]
            scores = p[rows] @ p[members].T
            r, s = np.nonzero(scores > weakest + SCORE_TOL)
            upper = rows[r] < members[s]
            keys = rows[r][upper] * n + members[s][upper]
            outside = keys[~np.isin(keys, taken)]
            if outside.size:
                return divmod(int(outside[0]), n)
    return None


def check_band(acc: float, band: tuple[float, float]) -> tuple[bool, str]:
    return band[0] <= acc <= band[1], f"test accuracy {acc:.4f}, band {band}"


def check_all_classes(predictions: np.ndarray, c: int) -> tuple[bool, str]:
    seen = np.unique(predictions).size
    return seen == c, f"{seen} of {c} classes predicted"
