"""Deterministic topology refinement from student predictions.

For two prediction rows the agreement score is sigmoid(p_i . p_j), the
probability the two nodes share a class.  Refinement adds the top
floor(beta_add * m) same-hard-label non-edges by score and removes the
floor(beta_remove * m) lowest-score existing edges, always against the
pristine input graph (m is its edge count).  Score ties break
lexicographically on (i, j).

Additions are planned class by class in blocks of ``BLOCK_ROWS`` rows, from
the most to the least confident pairs: each class's members are sorted by
row norm, largest first, and the classes by the norm product of their two
leading members.  By Cauchy-Schwarz no pair scores a dot above the product
of its two row norms, so each block is cut to the rows and columns whose
bound can still reach the running cut-off, and a class stops at the first
block with none.  Until ``quota`` pairs are held, a block seeds the cut-off
at its own (quota + same-label edges)-th largest dot, which at least
``quota`` of its non-edges reach.  A block's dot products come from one
matrix product, existing edges are looked up in the sorted edge keys, and
only pairs that can still reach the top ``quota`` are kept.  Memory is
O(BLOCK_ROWS * n_c + quota) for the largest predicted class of n_c nodes,
not the O(sum n_c^2) of listing every same-label pair.  The enumerator that
lists them all, ``generate_candidates`` in ``tests/reference.py``, is the
reference the plan is tested against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph

log = logging.getLogger(__name__)


@dataclass
class AugmentConfig:
    beta_add: float = 0.4
    beta_remove: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.beta_add <= 1.0 or not 0.0 <= self.beta_remove <= 1.0:
            raise ValueError("beta_add and beta_remove must lie in [0, 1]")


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def edge_probability(p: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sigmoid(p_i . p_j) for each (i, j) pair; never forms an n x n matrix."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= p.shape[0]):
        raise ValueError(f"pair index out of range [0, {p.shape[0]})")
    dots = np.einsum("ij,ij->i", p[pairs[:, 0]], p[pairs[:, 1]])
    return sigmoid(dots)


@dataclass
class AugmentationPlan:
    added: np.ndarray
    added_prob: np.ndarray
    removed: np.ndarray
    removed_prob: np.ndarray


# rows of one class scored per matrix product: the transient block holds
# BLOCK_ROWS * n_c dot products
BLOCK_ROWS = 256
# matmul and einsum dot products of the same rows may differ in the last
# bits, and so may a norm product from the exact bound, so the matmul and
# the bound only prune: every pair within this margin of the running cut-off
# survives and is scored again with ``edge_probability``
PRUNE_MARGIN = 1e-9


def _is_edge(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _rank(p: np.ndarray, pairs: np.ndarray, dots: np.ndarray, quota: int):
    """The first ``quota`` pairs by (-probability, i, j), with their matmul
    dots and their probabilities."""
    probs = edge_probability(p, pairs)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], -probs))[:quota]
    return pairs[order], dots[order], probs[order]


def _top_additions(p: np.ndarray, hard: np.ndarray, graph: SparseGraph, quota: int,
                   same_label_edges: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``quota`` same-label non-edges by (-probability, i, j), with
    their probabilities.

    Each class's members are visited by row norm, largest first (a stable
    sort, so equal norms keep id order), and the classes by their best bound
    ||p_(0)|| * ||p_(1)||, so the most confident pairs are scored first.  A
    pair is dropped when its matmul dot falls more than ``PRUNE_MARGIN``
    below the running cut-off:

    - once ``quota`` pairs are held, the cut-off is the smallest held dot;
      rows of ``p`` are class probabilities, so dots lie in [0, 1], where
      sigmoid tells apart two dots further apart than the margin;
    - before that, a block is filtered at its own
      (quota + same_label_edges)-th largest dot: at most
      ``same_label_edges`` of those pairs are edges, so at least ``quota``
      non-edges of the block alone reach it and the final cut-off cannot be
      lower.  Pairs held from earlier blocks may lie below it, so they do
      not count towards the seed.

    By Cauchy-Schwarz the pair of sorted rows a < b has a dot of at most
    ||p_a|| * ||p_b||.  Before a block starting at sorted row r is scored,
    its rows a with ||p_a|| * ||p_(a+1)|| and its columns b with
    ||p_r|| * ||p_b|| below the cut-off by more than the margin are cut, and
    the class stops when ||p_r|| * ||p_(r+1)|| is; the cut-off only rises,
    so no later pair of the class can reach it.  The norms, their products
    and the matmul each round differently from the einsum dot that ranks the
    pairs, by far less than the margin, so a pair the bound cuts cannot
    outrank a held one.  Pairs are stored as (min, max) and those held past
    the quota (ties within the margin) are ranked exactly and cut.
    """
    n = graph.n
    existing = graph.edge_keys()   # sorted, because the edge list is
    below = np.tri(BLOCK_ROWS, BLOCK_ROWS, -1, dtype=bool)
    norms = np.linalg.norm(p, axis=1)
    order = np.lexsort((-norms, hard))   # by class, then norm descending, then id
    classes = [m for m in np.split(order, np.flatnonzero(np.diff(hard[order])) + 1)
               if m.size > 1]
    best = np.array([norms[m[0]] * norms[m[1]] for m in classes])
    pairs, dots = np.empty((0, 2), dtype=np.int64), np.empty(0)
    cutoff = -np.inf
    for k in np.argsort(-best, kind="stable"):
        members = classes[k]
        pm, nm = p[members], norms[members]
        for start in range(0, members.size - 1, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, members.size - 1)
            # Cauchy-Schwarz: the pair of sorted rows a < b has a dot of at
            # most nm[a] * nm[b], which falls as a or b grows
            reach = cutoff - PRUNE_MARGIN
            rows = np.count_nonzero(nm[start:stop] * nm[start + 1:stop + 1] >= reach)
            if rows == 0:
                break
            cols = np.count_nonzero(nm[start] * nm[start + 1:] >= reach)
            # row r pairs member start + r with member start + 1 + column
            block = pm[start:start + rows] @ pm[start + 1:start + 1 + cols].T
            block[:, :rows][below[:rows, :rows]] = np.nan
            floor = cutoff
            seed = block.size - rows * (rows - 1) // 2 - quota - same_label_edges
            if cutoff == -np.inf and seed >= 0:
                # fewer than quota pairs held: the block's
                # (quota + same_label_edges)-th largest dot; NaN sorts last
                floor = np.partition(block.ravel(), seed)[seed]
            r, c = np.nonzero(block >= floor - PRUNE_MARGIN)
            i, j = members[start + r], members[start + 1 + c]
            i, j = np.minimum(i, j), np.maximum(i, j)
            fresh = ~_is_edge(existing, i * n + j)
            pairs = np.concatenate([pairs, np.column_stack([i[fresh], j[fresh]])])
            dots = np.concatenate([dots, block[r[fresh], c[fresh]]])
            if dots.size >= quota:
                kth = np.partition(dots, dots.size - quota)[dots.size - quota]
                keep = dots >= kth - PRUNE_MARGIN
                pairs, dots = pairs[keep], dots[keep]
                if dots.size > quota:
                    pairs, dots, _ = _rank(p, pairs, dots, quota)
                cutoff = dots.min()
    pairs, _, probs = _rank(p, pairs, dots, quota)
    return pairs, probs


def plan_augmentation(graph: SparseGraph, p: np.ndarray, cfg: AugmentConfig) -> AugmentationPlan:
    """Pick the edges to add and remove, without applying them.

    ``p`` holds one row of class probabilities per node.  The plan equals
    ranking every same-label non-edge by (-probability, i, j), without
    listing them all.
    """
    if p.ndim != 2 or p.shape[0] != graph.n:
        raise ValueError(f"p has shape {p.shape}; expected ({graph.n}, c), one row of "
                         f"class probabilities per node of the {graph.n}-node graph")
    if not np.isfinite(p).all():
        raise ValueError(f"p of shape {p.shape} has a non-finite entry")
    m = graph.m
    quota_add = int(cfg.beta_add * m)
    quota_remove = int(cfg.beta_remove * m)
    empty = np.empty((0, 2), dtype=np.int64)

    add_pairs, add_probs = empty, np.empty(0)
    if quota_add > 0:
        hard = np.argmax(p, axis=1)   # ties go to the lowest class
        sizes = np.bincount(hard)
        same_label_edges = np.count_nonzero(hard[graph.edges[:, 0]] == hard[graph.edges[:, 1]])
        available = int(np.sum(sizes * (sizes - 1) // 2)) - same_label_edges
        if available < quota_add:
            log.warning("only %d addition candidates for a quota of %d", available, quota_add)
        add_pairs, add_probs = _top_additions(p, hard, graph, quota_add, same_label_edges)

    rem_pairs, rem_probs = empty, np.empty(0)
    if quota_remove > 0:
        removals = graph.edges
        probs = edge_probability(p, removals)
        # the edge list is sorted by (i, j), so a stable sort breaks ties on it
        order = np.argsort(probs, kind="stable")[:quota_remove]
        rem_pairs, rem_probs = removals[order], probs[order]

    return AugmentationPlan(add_pairs, add_probs, rem_pairs, rem_probs)


def apply_augmentation(graph: SparseGraph, plan: AugmentationPlan) -> SparseGraph:
    """``graph`` rewired by ``plan``; ``graph`` itself when the plan is empty."""
    if plan.added.size == 0 and plan.removed.size == 0:
        return graph
    n = graph.n
    keys = graph.edge_keys()
    if plan.removed.size:
        keys = np.setdiff1d(keys, plan.removed[:, 0] * n + plan.removed[:, 1])
    if plan.added.size:
        keys = np.union1d(keys, plan.added[:, 0] * n + plan.added[:, 1])
    return SparseGraph(n, np.column_stack([keys // n, keys % n]))

