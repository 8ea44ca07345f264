"""Feature-transformation student: MLP with hand-derived gradients.

Two affine encoder layers (f -> hidden -> hidden) with a ReLU and optional
dropout between them feed an affine softmax head (hidden -> c).  Training is
full-batch Adam on l_lab + lambda1 * l_unl + lambda2 * l_con: cross-entropy
against the gold labels and against the teacher's soft labels, and a
prototype contrastive term whose prototypes come from a momentum copy of the
encoder (an exponential moving average of its weights) and are constants of
the gradient.

The student trains in ``STUDENT_DTYPE`` (float32): an epoch is memory-bound
sparse products and passes over the hidden layer, so float32 halves its
traffic.  Prediction, the validation loss and ``gradcheck`` stay in float64.

The head runs in class space: with K = [w3 | protos.T / tau] (w3 alone
without the contrastive term), the logits and the similarity logits are
h @ (w2 @ K) + (b2 @ K + [b3 | 0]), so the embeddings z = h @ w2 + b2 and
their gradient are never formed, and no n-row product is hidden x hidden.

The momentum encoder never runs over x.  Its first layer is an average,
mw1 <- m * mw1 + (1 - m) * w1, so s = x @ mw1 follows
s <- m * s + (1 - m) * (x @ w1), the product the live forward pass takes
anyway (``momentum_fold``); past s, the momentum branch is c columns wide.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .data import DatasetBundle, SplitSpec, require_gold, require_integers
from .propagation import SoftLabels

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-12
# the dtype the student trains in; read where its weights are made
# (init_params) and where train_student casts the matrix it is given
STUDENT_DTYPE = np.float32

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")
# the momentum copies of the encoder's arrays, the first four of PARAM_NAMES;
# the head has none
MOMENTUM_NAMES = ("mw1", "mb1", "mw2", "mb2")
ARRAY_NAMES = PARAM_NAMES + MOMENTUM_NAMES


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, taken one column at a time: NumPy
    reduces a short last axis row by row, ten times slower at c = 7."""
    peak = a[..., :1].copy()
    for k in range(1, a.shape[-1]):
        np.maximum(peak, a[..., k:k + 1], out=peak)
    return peak


def row_sums(a: np.ndarray) -> np.ndarray:
    """The sums along the last axis as ``a @ ones``: a BLAS product, where
    NumPy reduces a short last axis row by row, 15 times slower at c = 7."""
    return a @ np.ones(a.shape[-1], a.dtype)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.subtract(logits, row_max(logits), out=out)
    np.exp(out, out=out)
    out /= row_sums(out)[..., None]
    return out


def clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOG_FLOOR))


def param_shapes(num_features: int, hidden: int, num_classes: int) -> tuple[tuple[int, ...], ...]:
    """The shapes of the arrays named in ``PARAM_NAMES``, in that order."""
    return ((num_features, hidden), (hidden,), (hidden, hidden), (hidden,),
            (hidden, num_classes), (num_classes,))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` in ``shapes``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class StudentParams:
    """Encoder weights, head weights, and the momentum encoder copy, as views
    of two flat vectors.

    ``live`` holds the trainable arrays of ``PARAM_NAMES`` one after another;
    ``momentum`` holds mw1, mb1, mw2, mb2, laid out as the encoder's arrays
    at the head of ``live``.  ``dims`` is (features, hidden, classes).  Adam,
    the momentum average, the finiteness check and a copy each make one pass
    over a vector.  The named arrays are views: write into them, never
    rebind them.
    """

    def __init__(self, live: np.ndarray, momentum: np.ndarray, dims: tuple[int, int, int]):
        self.live, self.momentum, self.dims = live, momentum, dims
        encoder = param_shapes(*dims)[:len(MOMENTUM_NAMES)]
        views = [*self.views(live).values(), *_views(momentum, encoder)]
        for name, view in zip(ARRAY_NAMES, views):
            setattr(self, name, view)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The arrays of ``PARAM_NAMES`` as views of ``flat``, a vector laid
        out as ``live``."""
        return dict(zip(PARAM_NAMES, _views(flat, param_shapes(*self.dims))))

    def __reduce__(self):
        # the two vectors alone: unpickling rebuilds the named arrays as views
        return StudentParams, (self.live, self.momentum, self.dims)

    def copy(self) -> "StudentParams":
        return StudentParams(self.live.copy(), self.momentum.copy(), self.dims)

    def astype(self, dtype) -> "StudentParams":
        """A copy with every array in ``dtype``."""
        return StudentParams(self.live.astype(dtype), self.momentum.astype(dtype), self.dims)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.live).all() and np.isfinite(self.momentum).all())


def init_params(
    num_features: int,
    num_classes: int,
    hidden: int,
    rng: np.random.Generator,
) -> StudentParams:
    """Glorot-uniform weights, zero biases, in ``STUDENT_DTYPE``; momentum
    encoder starts as a copy.  The weights are drawn in float64 and cast, so
    the generator's stream does not depend on the dtype."""
    dims = (num_features, hidden, num_classes)
    sizes = [math.prod(shape) for shape in param_shapes(*dims)]
    params = StudentParams(np.zeros(sum(sizes), STUDENT_DTYPE),
                           np.empty(sum(sizes[:len(MOMENTUM_NAMES)]), STUDENT_DTYPE), dims)
    for name in ("w1", "w2", "w3"):
        w = getattr(params, name)
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    params.momentum[:] = params.live[:params.momentum.size]
    return params


# 2**24: ``Generator.random(dtype=np.float32)`` is the top 24 bits of a
# 32-bit word times 2**-24
FLOAT32_GRID = 1 << 24


def draw_kept(rng: np.random.Generator, dropout: float, out: np.ndarray) -> np.ndarray:
    """Bernoulli draws, True with probability 1 - ``dropout``, into the bool
    array ``out``.

    The generator's raw 64-bit words are read as 32-bit words, low half
    first, and kept when at least ``ceil(float32(dropout) * 2**24) << 8``.
    For PCG64, Philox and SFC64 (64 bits a raw draw) and an even
    ``out.size`` these are the draws of ``rng.random(out.shape,
    dtype=np.float32) >= dropout``, and the generator ends in the same
    state; for an odd size the last word's high half is dropped, so the
    stream that follows differs."""
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("dropout draws need a bit generator with 64-bit raw output")
    words = rng.bit_generator.random_raw((out.size + 1) // 2).view(np.uint32)[:out.size]
    threshold = math.ceil(float(np.float32(dropout)) * FLOAT32_GRID) << 8
    return np.greater_equal(words.reshape(out.shape), threshold, out=out)


class EpochWorkspace:
    """The n x hidden and n x c arrays one epoch of ``params`` over n rows
    writes into, allocated once in the dtype of its weights.

    ``train_student`` fills the same workspace every epoch, in this order:
    the live product x @ w1 (into ``h1`` for dense x), its fold into ``s``
    (the (1 - m) x @ w1 term in ``d_d1``), ``pseudo_targets``'s momentum
    hidden layer ``h_mom`` (in ``d_d1``), the rest of the forward pass, the
    losses, then the backward pass.  ``h_mom`` stays valid until the backward
    pass, the rest until the next forward pass; ``s`` = x @ mw1 is carried
    from epoch to epoch.  No array holds embeddings, live or momentum, their
    gradient, or a parameter gradient.
    """

    def __init__(self, params: StudentParams, n: int):
        (hidden, num_classes), dtype = params.w3.shape, params.w1.dtype
        rows = (n, hidden)
        # the forward pass's state, read by the backward pass
        self.h1 = np.empty(rows, dtype)          # x @ w1 (SciPy's for CSR x), + b1, * keep
        # ReLU and dropout as one factor: 0 for a unit that is off or
        # dropped, 1 / (1 - dropout) (1 without dropout) for one kept
        self.keep = np.empty(rows, dtype)
        self.alive = np.empty(rows, dtype=bool)      # h1 > 0, then kept by the draw
        self.drawn = np.empty(rows, dtype=bool)      # the dropout draw
        # the head's output [logits | similarity logits] and its gradient,
        # as ``_rows`` of the head's width (c without the contrastive term)
        self.head = np.empty((n, 2 * num_classes), dtype)
        self.sim = self.head[:, num_classes:]
        self.d_out = np.empty((n, 2 * num_classes), dtype)
        self.g_sim = self.d_out[:, num_classes:]
        self.p = np.empty((n, num_classes), dtype)   # the softmax of the logits
        self.d_d1 = np.empty(rows, dtype)
        # bias gradients as ones @ a: a BLAS product, where NumPy's column
        # sums of an n-row array walk it row by row
        self.ones = np.ones(n, dtype)
        self.s: np.ndarray | None = None             # x @ mw1, carried across epochs
        self.h_mom = self.d_d1


def _rows(a, width):
    """``a``'s leading entries as n contiguous rows (ones @ a sums strided rows differently)."""
    return a.reshape(-1)[:a.shape[0] * width].reshape(-1, width)


def _product(x, w, out):
    """x @ w: into ``out`` for dense x, SciPy's fresh array for CSR x."""
    return x @ w if sparse.issparse(x) else np.matmul(x, w, out=out)


def _forward(params, x, ws, k, dropout=0.0, rng=None, xw1=None):
    """The live hidden layer h = ReLU(x @ w1 + b1) and the head's output
    h @ (w2 @ k) + (b2 @ k + [b3 | 0]), for ``k`` w3 or [w3 | protos.T / tau],
    their state left on ``ws``; returns the softmax of the output's first c
    columns, the logits.  ``xw1`` is the product x @ w1 when the caller has
    taken it.  Dropout applies only given ``rng``; ReLU and dropout are one
    multiply by ``ws.keep``."""
    h = _product(x, params.w1, ws.h1) if xw1 is None else xw1
    h += params.b1
    alive = np.greater(h, 0.0, out=ws.alive)
    unit = ws.keep.dtype.type
    scale = unit(1.0)
    if rng is not None and dropout > 0.0:
        alive &= draw_kept(rng, dropout, ws.drawn)
        scale = unit(1.0) / unit(1.0 - dropout)
    h *= np.multiply(alive, scale, out=ws.keep)
    ws.h1 = h
    c = params.b3.size
    bias = params.b2 @ k
    bias[:c] += params.b3
    out = np.matmul(h, params.w2 @ k, out=_rows(ws.head, k.shape[1]))
    out += bias
    return softmax(out[:, :c], out=ws.p)


def forward(params: StudentParams, x: np.ndarray,
            workspace: EpochWorkspace | None = None) -> np.ndarray:
    """Softmax predictions for every row of ``x``, in the dtype of
    ``params``, written into ``workspace`` (a fresh one when absent)."""
    if x.shape[1] != params.w1.shape[0]:
        raise ValueError(f"feature dim {x.shape[1]} != expected {params.w1.shape[0]}")
    ws = workspace if workspace is not None else EpochWorkspace(params, x.shape[0])
    return _forward(params, x, ws, params.w3)


def momentum_embed(
    params: StudentParams,
    s: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The momentum encoder's hidden layer ReLU(s + mb1) (never trained,
    never dropped out) from its pre-activation s = x @ mw1, written into
    ``out`` when given.  Its embeddings, this layer @ mw2 + mb2, are never
    formed: ``pseudo_targets`` applies mw2 and mb2 in class space."""
    h = np.add(s, params.mb1, out=out)
    return np.maximum(h, 0.0, out=h)


def momentum_fold(s: np.ndarray, xw1: np.ndarray, m: float, scratch: np.ndarray) -> None:
    """Carry s = x @ mw1 across ``momentum_update(params, m)``: s <- m * s +
    (1 - m) * xw1 in place, for xw1 = x @ w1 of the weights that update
    averages in.  The steps round as ``momentum_update``'s do; ``scratch``,
    shaped like s, receives the (1 - m) * xw1 product."""
    s *= m
    s += np.multiply(xw1, 1.0 - m, out=scratch)


def _backward(params, x, ws, d_out, w_out, grad):
    """Gradients given the forward pass's state and the gradient ``d_out`` of
    the head's output, into ``grad`` (laid out as ``params.live``), never
    forming d(loss)/d(z) = d_out @ w_out.  The n-row temporaries live in ``ws``."""
    g = params.views(grad)
    c = params.b3.size
    g_out = ws.h1.T @ d_out
    s = ws.ones @ d_out
    np.matmul(g_out, w_out, out=g["w2"])
    np.matmul(s, w_out, out=g["b2"])
    np.matmul(params.w2.T, g_out[:, :c], out=g["w3"])
    g["w3"] += np.outer(params.b2, s[:c])
    g["b3"][...] = s[:c]
    d_h1 = np.matmul(d_out, w_out @ params.w2.T, out=ws.d_d1)
    d_h1 *= ws.keep
    if sparse.issparse(x):
        g["w1"][...] = x.T @ d_h1
    else:
        np.matmul(x.T, d_h1, out=g["w1"])
    np.matmul(ws.ones, d_h1, out=g["b1"])
    return grad


def _mean(value, grad: np.ndarray, count: int) -> tuple[float, np.ndarray]:
    """A loss summed over ``count`` nodes and its gradient rows, both divided
    by ``count`` (left as sums when it is zero)."""
    if count:
        value /= count
        grad /= count
    return float(value), grad


def student_targets(soft: np.ndarray, gold: np.ndarray, labeled: np.ndarray,
                    dtype=STUDENT_DTYPE) -> np.ndarray:
    """The cross-entropy target of every row, (n, c) in ``dtype``: the
    one-hot gold class on the labeled rows, the teacher's distribution
    ``soft`` on the others."""
    targets = soft.astype(dtype)
    targets[labeled] = 0.0
    targets[labeled, gold[labeled]] = 1.0
    return targets


def loss_cross_entropy(
    p: np.ndarray,
    targets: np.ndarray,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    lambda1: float,
    out: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """Cross-entropy of the labeled rows against their gold classes and of
    the unlabeled rows against the teacher, ``targets`` being
    ``student_targets``; returns both values and the gradient of
    l_lab + lambda1 * l_unl w.r.t. every row's logits, written into ``out``
    when given.  Each loss is averaged over its set; the gradient is
    (p - targets) divided by its set's size, times lambda1 on the unlabeled
    rows: formed over every row, then the few labeled rows put back."""
    labeled = np.asarray(labeled)
    if labeled.size == 0:
        raise ValueError("empty labeled set")
    per_row = row_sums(targets * clamped_log(p))
    grad = np.subtract(p, targets, out=out)
    l_lab, lab = _mean(-per_row[labeled].sum(), grad[labeled], labeled.size)
    l_unl, grad = _mean(-per_row[unlabeled].sum(), grad, len(unlabeled))
    grad *= lambda1
    grad[labeled] = lab
    return l_lab, l_unl, grad


def class_members(gold: np.ndarray, labeled: np.ndarray, num_classes: int) -> list[np.ndarray]:
    """The labeled nodes of each class, in class order, for
    ``compute_prototypes``; refuses a class with none."""
    members = []
    for cls in range(num_classes):
        rows = labeled[gold[labeled] == cls]
        if rows.size == 0:
            raise ValueError(f"class {cls} has no labeled node")
        members.append(rows)
    return members


def compute_prototypes(h: np.ndarray, members: list[np.ndarray]) -> np.ndarray:
    """Mean of the rows of ``h`` of each class's ``class_members``,
    (c, h.shape[1]), in its dtype.  An affine map of the means is the mean of
    the mapped rows, so ``pseudo_targets`` averages the momentum hidden layer
    and maps the c means to embeddings."""
    protos = np.empty((len(members), h.shape[1]), h.dtype)
    for cls, rows in enumerate(members):
        protos[cls] = h[rows].mean(axis=0)
    return protos


@dataclass
class PseudoLabelSet:
    """Hard teacher labels for every node and the ids that survived filtering."""

    hard: np.ndarray
    kept: np.ndarray


def filter_pseudo_labels(
    hard: np.ndarray,
    h: np.ndarray,
    head: tuple[np.ndarray, np.ndarray],
    protos: np.ndarray,
    tau: float,
    unlabeled: np.ndarray,
) -> PseudoLabelSet:
    """Keep unlabeled nodes whose similarity to their own pseudo-class
    prototype (``hard``, the teacher's argmax class of every node) strictly
    exceeds uniform probability 1/c.  The similarities are the softmax of
    z @ protos.T / tau for embeddings z = h @ w + b, ``head`` = (w, b), taken
    as h @ (w @ protos.T / tau) + b @ protos.T / tau, so z is never formed."""
    c = protos.shape[0]
    if c < 2:
        raise ValueError("pseudo-label filtering needs at least two classes")
    if not tau > 0:
        raise ValueError("tau must be positive")
    w, b = head
    scaled = protos.T / tau
    logits = h @ (w @ scaled)
    logits += b @ scaled
    unlabeled = np.asarray(unlabeled)
    # over every row: gathering the unlabeled rows would copy most of them
    sims = softmax(logits, out=logits)
    own = sims[unlabeled, hard[unlabeled]]
    return PseudoLabelSet(hard=hard, kept=unlabeled[own > 1.0 / c])


def loss_contrastive(
    sim: np.ndarray,
    pls: PseudoLabelSet,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Prototype contrastive loss averaged over the kept set, and its gradient
    w.r.t. the similarity logits ``sim`` = z @ protos.T / tau, (n, c),
    written into ``out`` when given.  Prototypes are constants here: row i
    of the gradient is softmax(sim_i) - onehot(hard_i) for a kept node i,
    and zero elsewhere."""
    grad = np.empty(sim.shape, sim.dtype) if out is None else out
    grad.fill(0.0)
    kept = pls.kept
    if kept.size == 0:
        return 0.0, grad
    sims = softmax(sim[kept])
    rows = np.arange(kept.size)
    own = pls.hard[kept]
    value = -clamped_log(sims[rows, own]).sum()
    sims[rows, own] -= 1.0
    value, grad[kept] = _mean(value, sims, kept.size)
    return value, grad


def momentum_update(
    params: StudentParams,
    m: float,
    scratch: np.ndarray | None = None,
) -> None:
    """Exponential moving average of the encoder into the momentum copy.

    ``scratch``, shaped like ``params.momentum``, receives the
    ``(1 - m) * live`` product; without it the product is a fresh array.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("momentum must lie in [0, 1]")
    target = params.momentum
    target *= m
    target += np.multiply(params.live[:target.size], 1.0 - m, out=scratch)


# Adam's moment decay rates and the denominator's guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Plain Adam with L2 weight decay folded into the gradient, over the
    flat vector ``params.live`` and a gradient laid out like it; a step
    works in two scratch vectors."""

    def __init__(self, lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.state: tuple[np.ndarray, ...] | None = None

    def step(self, params: StudentParams, grad: np.ndarray) -> None:
        self.t += 1
        value = params.live
        if self.state is None:
            self.state = (np.zeros_like(value), np.zeros_like(value),
                          np.empty_like(value), np.empty_like(value))
        m, v, a, b = self.state
        g = grad
        if self.weight_decay:
            g = np.add(g, np.multiply(value, self.weight_decay, out=a), out=a)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=b)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=b), g, out=b)
        # value -= lr * m_hat / (sqrt(v_hat) + eps), each rounding in that order
        np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=b), out=b)
        b += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=a)
        a *= self.lr
        a /= b
        value -= a


@dataclass
class TrainConfig:
    tau: float = 0.5
    momentum: float = 0.999
    lambda1: float = 1.0
    lambda2: float = 0.1
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    patience: int = 100
    max_epochs: int = 10_000
    no_val_epochs: int = 300
    hidden: int = 64

    def __post_init__(self):
        require_integers(self, "patience", "max_epochs", "no_val_epochs", "hidden")
        # each test is written so that NaN fails it
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ValueError("loss weights must be finite and >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.patience < 0 or self.max_epochs < 1 or self.no_val_epochs < 1:
            raise ValueError(f"invalid epoch budget: patience={self.patience}, "
                             f"max_epochs={self.max_epochs}, no_val_epochs={self.no_val_epochs}")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    loss_labeled: float
    loss_unlabeled: float
    loss_contrastive: float
    val_acc: float | None


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None


def round_inputs(bundle: DatasetBundle, split: SplitSpec, soft: SoftLabels, cfg: TrainConfig,
                 dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """What a round's objective reads of the split and the teacher besides
    ``split.labeled``: the unlabeled nodes, the teacher's argmax class of
    every node (ties go to the lowest class), ``student_targets`` in
    ``dtype``, and ``class_members`` (None when ``cfg.lambda2`` is zero).
    Refuses a split ``require_gold`` refuses, an empty labeled set, and soft
    labels not normalized or not of shape (n, c)."""
    require_gold(bundle, split)
    labeled = split.labeled
    if labeled.size == 0:
        raise ValueError("empty labeled set")
    if not soft.normalized:
        raise ValueError("soft labels must be normalized distributions")
    if soft.matrix.shape != (bundle.n, bundle.num_classes):
        raise ValueError(f"soft labels have shape {soft.matrix.shape}, "
                         f"expected {(bundle.n, bundle.num_classes)}")
    members = class_members(bundle.gold, labeled, bundle.num_classes) if cfg.lambda2 else None
    unlabeled = np.ones(bundle.n, dtype=bool)
    unlabeled[labeled] = False
    return (np.flatnonzero(unlabeled), np.argmax(soft.matrix, axis=1),
            student_targets(soft.matrix, bundle.gold, labeled, dtype), members)


def pseudo_targets(
    params: StudentParams,
    s: np.ndarray,
    members: list[np.ndarray],
    unlabeled: np.ndarray,
    hard: np.ndarray,
    cfg: TrainConfig,
    workspace: EpochWorkspace | None = None,
) -> tuple[np.ndarray | None, PseudoLabelSet | None]:
    """The constants of the contrastive term, from the momentum encoder's
    pre-activation s = x @ mw1: its prototypes over each class's labeled
    ``members`` (``class_members``) and the filtered pseudo-label set over
    the teacher's argmax classes ``hard``; ``(None, None)`` when
    ``cfg.lambda2`` is zero.  The momentum hidden layer is written into
    ``workspace.h_mom`` when a workspace is given."""
    if cfg.lambda2 == 0:
        return None, None
    h = momentum_embed(params, s, None if workspace is None else workspace.h_mom)
    protos = compute_prototypes(h, members) @ params.mw2 + params.mb2
    return protos, filter_pseudo_labels(hard, h, (params.mw2, params.mb2), protos, cfg.tau,
                                        unlabeled)


def joint_objective(
    params: StudentParams,
    x: np.ndarray | sparse.csr_array,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    protos: np.ndarray | None,
    pls: PseudoLabelSet | None,
    rng: np.random.Generator | None = None,
    workspace: EpochWorkspace | None = None,
    xw1: np.ndarray | None = None,
    grad: np.ndarray | None = None,
) -> tuple[float, tuple[float, float, float], np.ndarray]:
    """The joint loss, its (labeled, unlabeled, contrastive) parts, and its
    gradient w.r.t. ``params.live``.

    joint = l_lab + lambda1 * l_unl + lambda2 * l_con, with the prototypes and
    pseudo-label set from ``pseudo_targets`` held constant; ``targets`` are
    ``student_targets`` in the dtype of ``params``.  Dropout at
    ``cfg.dropout`` applies only when ``rng`` is given.  ``xw1`` is the
    product x @ w1 when the caller has taken it.  The forward pass's arrays
    live in ``workspace`` (one sized to ``x`` when absent); the gradient is
    written into ``grad``, a vector laid out as ``params.live`` (a fresh one
    when absent), and returned.
    """
    ws = workspace if workspace is not None else EpochWorkspace(params, x.shape[0])
    grad = np.empty_like(params.live) if grad is None else grad
    k = params.w3 if pls is None else np.concatenate([params.w3, protos.T / cfg.tau], axis=1)
    p = _forward(params, x, ws, k, cfg.dropout, rng, xw1)
    d_out = _rows(ws.d_out, k.shape[1])
    l_lab, l_unl, _ = loss_cross_entropy(p, targets, labeled, unlabeled, cfg.lambda1,
                                         out=d_out[:, :p.shape[1]])
    if pls is None:
        l_con, w_out = 0.0, params.w3.T
    else:
        l_con, _ = loss_contrastive(ws.sim, pls, out=ws.g_sim)
        # d(loss)/d(z) = d_logits @ w3.T + lambda2 * g_sim @ protos / tau
        w_out = np.concatenate([params.w3.T, protos * (cfg.lambda2 / cfg.tau)])
    joint = l_lab + cfg.lambda1 * l_unl + cfg.lambda2 * l_con
    return joint, (l_lab, l_unl, l_con), _backward(params, x, ws, d_out, w_out, grad)


def train_student(
    bundle: DatasetBundle,
    split: SplitSpec,
    soft: SoftLabels,
    cfg: TrainConfig,
    rng: np.random.Generator,
    x: np.ndarray | sparse.csr_array,
    on_epoch: Callable[[int, int | None, StudentParams | None], bool] | None = None,
) -> tuple[StudentParams, TrainTrace]:
    """Full-batch Adam on the joint loss with validation early stopping.

    Each epoch recomputes the momentum prototypes and the filtered
    pseudo-label set, takes one gradient step, and updates the momentum
    encoder.  With a validation set, training stops once neither validation
    accuracy has increased nor validation loss decreased for more than
    ``patience`` epochs, and the best-accuracy epoch's parameters are
    restored (accuracy ties broken by lower validation loss).  Without a
    validation set a fixed budget of ``no_val_epochs`` epochs runs.

    ``x`` is ``bundle.features``, dense or CSR, or the same matrix in another
    float dtype; training reads it in ``STUDENT_DTYPE``.  ``rng`` draws the initial
    weights and the dropout.  ``on_epoch``, when given, is called after every
    epoch that does not end training, with the epoch, the best epoch so far
    and that epoch's parameters (both None without a validation set), which
    it must not write; a true return ends training there, with the best
    parameters so far.
    Every epoch writes into one ``EpochWorkspace`` built here, and the
    validation pass into another.  The validation loss is summed in float64.
    """
    expected = (bundle.n, bundle.num_features)
    if x.shape != expected:
        raise ValueError(f"feature matrix has shape {x.shape}, expected {expected}")
    unlabeled, hard, targets, members = round_inputs(bundle, split, soft, cfg, STUDENT_DTYPE)
    x = x.astype(STUDENT_DTYPE, copy=False)
    labeled = split.labeled
    has_val = split.validation.size > 0

    params = init_params(bundle.num_features, bundle.num_classes, cfg.hidden, rng)
    workspace = EpochWorkspace(params, x.shape[0])
    if members is not None:
        workspace.s = x @ params.mw1
    grad = np.empty_like(params.live)
    scratch = np.empty_like(params.momentum)
    if has_val:
        x_val = x[split.validation]
        val_workspace = EpochWorkspace(params, x_val.shape[0])
        gold_val = bundle.gold[split.validation]
        rows_val = np.arange(gold_val.size)
    optimizer = Adam(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    trace = TrainTrace()

    budget = cfg.max_epochs if has_val else cfg.no_val_epochs
    best_params, best_epoch = None, None
    best_acc, best_loss = -np.inf, np.inf
    low_loss = np.inf
    bad_epochs = 0

    for epoch in range(1, budget + 1):
        xw1 = _product(x, params.w1, workspace.h1)
        if members is not None and epoch > 1:
            # s = x @ mw1 after the last epoch's momentum_update
            momentum_fold(workspace.s, xw1, cfg.momentum, workspace.d_d1)
        protos, pls = pseudo_targets(params, workspace.s, members, unlabeled, hard, cfg,
                                     workspace)
        joint, (l_lab, l_unl, l_con), _ = joint_objective(
            params, x, labeled, unlabeled, targets, cfg, protos, pls, rng, workspace, xw1, grad)
        if not np.isfinite(joint):
            raise ValueError(f"non-finite loss at epoch {epoch}")

        optimizer.step(params, grad)
        momentum_update(params, cfg.momentum, scratch)
        if not params.all_finite():
            raise ValueError(f"non-finite parameter after epoch {epoch}")

        val_acc = None
        if has_val:
            p_val = forward(params, x_val, val_workspace)
            pred_val = np.argmax(p_val, axis=1)
            val_acc = float(np.mean(pred_val == gold_val))
            val_loss = -clamped_log(p_val[rows_val, gold_val]).sum(dtype=np.float64) / gold_val.size
        trace.records.append(EpochRecord(epoch, l_lab, l_unl, l_con, val_acc))

        if has_val:
            # patience resets on any validation improvement, accuracy or
            # loss; best_acc is the highest accuracy seen so far
            if val_acc > best_acc or val_loss < low_loss:
                bad_epochs = 0
            else:
                bad_epochs += 1
            low_loss = min(low_loss, val_loss)
            if val_acc > best_acc or (val_acc == best_acc and val_loss < best_loss):
                best_acc, best_loss = val_acc, val_loss
                best_params = params.copy()
                best_epoch = epoch
            if bad_epochs > cfg.patience:
                break
        if on_epoch is not None and on_epoch(epoch, best_epoch, best_params):
            break

    if has_val:
        trace.best_epoch = best_epoch
        return best_params, trace
    return params, trace
