"""Label propagation over the normalized operator.

The iterated map is Y(t+1) = alpha * S @ Y(t) + (1 - alpha) * Y(0) with Y(0)
the one-hot matrix of labeled nodes, converging to the fixed point
(1 - alpha) * inv(I - alpha * S) @ Y(0).  alpha close to 1 propagates far;
1 - alpha is the teleport weight pulling mass back to the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import DatasetBundle, SplitSpec, require_gold, require_integers


@dataclass
class SoftLabels:
    """Non-negative (n, c) score matrix; rows sum to one when normalized."""

    matrix: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or not self.matrix.shape[0]:
            raise ValueError(f"soft labels must be a 2-D matrix with at least one row, "
                             f"got shape {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("soft label entries must be finite")
        if np.any(self.matrix < 0):
            raise ValueError("soft label entries must be non-negative")
        if self.normalized and np.max(np.abs(self.matrix.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("normalized soft labels must have unit row sums")


@dataclass
class LpConfig:
    alpha: float = 0.9
    steps: int = 10

    def __post_init__(self):
        require_integers(self, "steps")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def initial_label_matrix(bundle: DatasetBundle, split: SplitSpec) -> np.ndarray:
    """One-hot rows for labeled nodes, zero rows elsewhere.

    Raises on a split ``require_gold`` refuses, and if some class never
    appears among the labeled nodes: propagation can only ever emit classes
    it has seen.
    """
    require_gold(bundle, split)
    labels = bundle.gold[split.labeled]
    missing = np.setdiff1d(np.arange(bundle.num_classes), labels)
    if missing.size:
        raise ValueError(f"classes {missing.tolist()} absent from the labeled set")
    y0 = np.zeros((bundle.n, bundle.num_classes))
    y0[split.labeled, labels] = 1.0
    return y0


def propagate_labels(
    op: sparse.csr_array,
    bundle: DatasetBundle,
    split: SplitSpec,
    cfg: LpConfig,
) -> SoftLabels:
    """Run the propagation iteration for cfg.steps steps (unnormalized output)."""
    y0 = initial_label_matrix(bundle, split)
    y = y0.copy()
    for _ in range(cfg.steps):
        y = cfg.alpha * (op @ y) + (1.0 - cfg.alpha) * y0
    return SoftLabels(y, normalized=False)


def to_distribution(soft: SoftLabels) -> SoftLabels:
    """Row-normalize; rows with (near-)zero mass fall back to uniform."""
    sums = soft.matrix.sum(axis=1, keepdims=True)
    c = soft.matrix.shape[1]
    out = np.where(sums < 1e-12, 1.0 / c, soft.matrix / np.where(sums < 1e-12, 1.0, sums))
    return SoftLabels(out, normalized=True)
