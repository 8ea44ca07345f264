"""Central finite-difference verification of the joint-loss gradients.

The check differentiates ``mlp.joint_objective``, the function training
calls, as a pure function of the trainable parameters: the prototypes and
the filtered pseudo-label set from ``mlp.pseudo_targets``, taken on the
direct product x @ mw1, stay frozen at their current values (they are
constants of the gradient by design), and dropout is off.  The round's
inputs come from ``mlp.round_inputs``, as in training.  It works in
float64 whatever the student's dtype: on a float64 copy of the parameters,
so the caller's arrays are never written, and on ``bundle.features``, the
float64 matrix that prediction reads and training reads cast to float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle, SplitSpec
from .graph import SparseGraph
from .propagation import SoftLabels
from .mlp import (
    StudentParams,
    TrainConfig,
    init_params,
    joint_objective,
    pseudo_targets,
    round_inputs,
)

# roundoff of one loss evaluation, in machine epsilons times |loss|; on
# exactly-zero gradients of 1500 random tiny instances it was below 1
ROUNDOFF_ULPS = 16
# the largest relative error ``agst gradcheck`` passes, exclusive
PASS_BAR = 1e-4
# the central difference's step
STEP = 1e-5


def grad_check(
    params: StudentParams,
    bundle: DatasetBundle,
    split: SplitSpec,
    soft: SoftLabels,
    cfg: TrainConfig,
) -> float:
    """Max over every parameter of max(0, |a - n| - r) / (|a| + |n|), for the
    analytic gradient a and the central difference n at step ``STEP``.

    r = ROUNDOFF_ULPS * u * |f| / STEP bounds the roundoff of n, u being the
    machine epsilon and |f| the larger loss of the two evaluations (Nocedal &
    Wright, *Numerical Optimization*, section 8.1): a zero or tiny gradient
    whose difference is roundoff alone passes.
    """
    params = params.astype(np.float64)
    x = bundle.features
    unlabeled, hard, targets, members = round_inputs(bundle, split, soft, cfg, np.float64)
    protos, pls = pseudo_targets(params, x @ params.mw1, members, unlabeled, hard, cfg)

    def objective():
        return joint_objective(params, x, split.labeled, unlabeled, targets, cfg, protos, pls)

    _, _, analytic = objective()
    roundoff = ROUNDOFF_ULPS * np.finfo(np.float64).eps / STEP   # per unit of |f|

    worst = 0.0
    live = params.live
    for idx in range(live.size):
        original = live[idx]
        live[idx] = original + STEP
        plus = objective()[0]
        live[idx] = original - STEP
        minus = objective()[0]
        live[idx] = original
        numeric = (plus - minus) / (2.0 * STEP)
        a = analytic[idx]
        excess = abs(a - numeric) - roundoff * max(abs(plus), abs(minus))
        if excess > 0.0:
            worst = max(worst, excess / (abs(a) + abs(numeric)))
    return worst


@dataclass
class GradCheckReport:
    max_rel_error: float
    instances: int


def run_gradcheck_suite(instances: int = 20, seed: int = 0) -> GradCheckReport:
    """Joint-loss gradient check at the default loss weights on random tiny instances.

    Instances whose pre-activations sit within 1e-3 of a ReLU kink are
    redrawn: a centered difference straddling the kink says nothing about
    the gradient on either side.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    produced = 0
    while produced < instances:
        n = int(rng.integers(4, 11))
        f = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 9))
        features = rng.normal(size=(n, f))
        gold = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        rng.shuffle(gold)
        bundle = DatasetBundle(SparseGraph(n, np.empty((0, 2), dtype=np.int64)),
                               features, gold, c)
        labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
        split = SplitSpec(labeled, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        raw = rng.random((n, c)) + 0.1
        soft = SoftLabels(raw / raw.sum(axis=1, keepdims=True), normalized=True)
        params = init_params(f, c, hidden, rng)
        if np.min(np.abs(features @ params.w1 + params.b1)) < 1e-3:
            continue
        cfg = TrainConfig(dropout=0.0, hidden=hidden)
        worst = max(worst, grad_check(params, bundle, split, soft, cfg))
        produced += 1
    return GradCheckReport(max_rel_error=worst, instances=instances)
