"""Property test: an epoch written into a shared ``EpochWorkspace``, with the
momentum branch in class space, against the n x hidden epoch in ``reference``.

Two consecutive epochs with different parameters share one workspace, as
the epochs of one ``train_student`` call do, over dense and CSR features,
dropout on and off, and the contrastive term on and off.  Parameters,
features and workspace are in ``STUDENT_DTYPE``, as in training, and the
reference follows their dtype.  No gradient may live in the workspace, since
the next epoch overwrites it.

The embeddings and the keep factor (ReLU times dropout) equal the
reference bit for bit.  The softmax's row sums and the bias gradients'
column sums are BLAS products with a ones vector where the reference
reduces with NumPy, and the class-space steps reassociate sums, so the
probabilities, the losses, the prototypes, the filter's kept set and the
gradients are checked within float32 bounds.  Each compared value is a chain of sums and
products with at most D roundings along it, D = f + 2 hidden + c + n + 8.
Such an evaluation is within gamma_D |v| of the exact value, where
gamma_D = D u / (1 - D u), u = eps / 2, and |v| is the same chain on
absolute values (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., section 3.1 and lemma 3.3); two evaluations differ by at most twice
that.  A softmax over c logits that are each within delta of the exact ones
moves by at most 3 delta, and its own exp, sum and quotient add (c + 4) eps.
"""

import numpy as np
import pytest
from scipy import sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference  # noqa: E402
from agst import (  # noqa: E402
    SoftLabels,
    TrainConfig,
    class_members,
    init_params,
    joint_objective,
    pseudo_targets,
    student_targets,
)
from agst.mlp import STUDENT_DTYPE, EpochWorkspace  # noqa: E402

EPS = float(np.finfo(STUDENT_DTYPE).eps)
EPS64 = float(np.finfo(np.float64).eps)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def generator(seed):
    return None if seed is None else np.random.default_rng(seed)


def two_evaluations(depth):
    """How far two float32 evaluations of a chain of ``depth`` roundings may
    differ, per unit of the chain on absolute values: 2 gamma_depth."""
    u = EPS / 2
    return 2 * depth * u / (1 - depth * u)


def mag(a):
    a = a.toarray() if sparse.issparse(a) else np.asarray(a)
    return np.abs(a.astype(np.float64))


@st.composite
def problems(draw):
    c = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(c + 1, 12))
    f = draw(st.integers(1, 6))
    hidden = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = (rng.normal(size=(n, f)) * (rng.random((n, f)) < 0.6)).astype(STUDENT_DTYPE)
    x = sparse.csr_array(features) if draw(st.booleans()) else features
    gold = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    rng.shuffle(gold)
    labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
    raw = rng.random((n, c)) + 0.1
    soft = SoftLabels(raw / raw.sum(1, keepdims=True), normalized=True)
    cfg = TrainConfig(dropout=draw(st.sampled_from([0.0, 0.5])),
                      lambda2=draw(st.sampled_from([0.0, 0.1])), hidden=hidden)
    epochs = []
    for _ in range(2):
        params = init_params(f, c, hidden, rng)
        params.b1[:] = rng.uniform(-1.0, 1.0, hidden)
        params.mw1 += rng.normal(scale=0.1, size=params.mw1.shape)
        # no generator turns dropout off, as in validation and the gradient check
        seed = int(rng.integers(2**32)) if draw(st.booleans()) else None
        epochs.append((params, seed))
    return x, gold, labeled, soft, cfg, epochs


def check_pseudo_targets(params, x, protos, pls, ref, labeled, c, tau, gap):
    """Prototypes and kept set against the n x hidden reference."""
    ref_protos, ref_pls, ref_own = ref
    # the chain on absolute values: |x| @ |mw1| + |mb1|, then |mw2| and |mb2|
    h_abs = mag(x) @ mag(params.mw1) + mag(params.mb1)
    z_abs = h_abs @ mag(params.mw2) + mag(params.mb2)
    protos_abs = z_abs.max(axis=0)       # bounds every class's mean
    assert np.all(np.abs(protos - ref_protos) <= gap * protos_abs)
    # a node may change sides only where its own similarity is within the
    # filter's bound of 1/c
    delta = gap * (z_abs @ protos_abs) / tau
    unlabeled = np.setdiff1d(np.arange(x.shape[0]), labeled)
    near = 3 * delta[unlabeled] + (c + 4) * EPS
    flipped = np.isin(unlabeled, np.setxor1d(pls.kept, ref_pls.kept))
    assert np.all(np.abs(ref_own - 1.0 / c)[flipped] <= near[flipped])
    assert np.array_equal(pls.hard, ref_pls.hard)


def logit_gradient_error(ws, labeled, cfg):
    """Bound on |d(loss)/d(logits) - the reference's|, (n, c): the
    probabilities move by at most ``two_evaluations(c + 2)`` of themselves
    (the softmax's row sums are BLAS products, the reference's NumPy
    reductions), and each row's p - target, its division by the set's size
    and its lambda1 factor round once more on either side."""
    n, c = ws.p.shape
    unlabeled_rows = n - labeled.size
    scale = np.full(n, cfg.lambda1 / max(unlabeled_rows, 1))
    scale[labeled] = 1.0 / labeled.size
    p_err = two_evaluations(c + 2) * mag(ws.p)
    return scale[:, None] * p_err * (1 + 4 * EPS) + 4 * EPS * mag(ws.d_logits)


def gradient_bounds(params, x, ws, protos, pls, cfg, gap, labeled):
    """Per-entry bounds on |grad - reference grad|, both given the same
    prototypes and kept set (``pls`` None: no contrastive term)."""
    n, c = ws.p.shape
    dl_err = logit_gradient_error(ws, labeled, cfg)
    d_abs = mag(ws.d_logits) @ mag(params.w3).T
    d_err = gap * d_abs + dl_err @ mag(params.w3).T
    if pls is not None:
        red_count = pls.kept.size if pls.kept.size else 1
        coef = cfg.lambda2 / cfg.tau
        # the similarity logits' chain and the softmax's move on the kept rows
        delta = gap * (mag(ws.z) @ mag(protos).T / cfg.tau).max(axis=1)
        g_err = np.zeros(n)
        g_err[pls.kept] = (3 * delta[pls.kept] + (c + 4) * EPS) / red_count
        con_abs = coef * mag(ws.g_sim) @ mag(protos)
        d_abs += con_abs
        d_err += gap * con_abs + coef * g_err[:, None] * mag(protos).sum(0)
    through = d_err + gap * d_abs          # d_z's error and the next chain's own
    gate = mag(ws.keep)
    h_err = (through @ mag(params.w2).T) * gate
    h_err += gap * (d_abs @ mag(params.w2).T) * gate
    return {
        "w3": gap * mag(ws.z).T @ mag(ws.d_logits) + mag(ws.z).T @ dl_err,
        "b3": gap * mag(ws.d_logits).sum(0) + dl_err.sum(0),
        "w2": mag(ws.h1).T @ through,
        "b2": through.sum(0),
        "w1": mag(x).T @ h_err,
        "b1": h_err.sum(0),
    }


@settings(max_examples=120, deadline=None, derandomize=True)
@given(problems())
def test_shared_workspace_epochs_equal_fresh_arrays(problem):
    x, gold, labeled, soft, cfg, epochs = problem
    n, c = gold.size, soft.matrix.shape[1]
    f = x.shape[1]
    unlabeled = np.setdiff1d(np.arange(n), labeled)
    hard = np.argmax(soft.matrix, axis=1)
    targets = student_targets(soft.matrix, gold, labeled)
    members = class_members(gold, labeled, c)
    ws = EpochWorkspace(epochs[0][0], n)
    buffers = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]
    gap = 2 * two_evaluations(f + 2 * cfg.hidden + c + n + 8)   # doubled for second-order terms

    for params, seed in epochs:
        ws.s = x @ params.mw1
        protos, pls = pseudo_targets(params, ws.s, members, unlabeled, hard, cfg, ws)
        if cfg.lambda2 == 0:
            assert (protos, pls) == (None, None)
        else:
            ref = reference.pseudo_targets(params, x, gold, labeled, unlabeled, soft, cfg)
            check_pseudo_targets(params, x, protos, pls, ref, labeled, c, cfg.tau, gap)
        joint, parts, grad = joint_objective(
            params, x, labeled, unlabeled, targets, cfg, protos, pls,
            rng=generator(seed), workspace=ws)
        # the reference gets the same prototypes and kept set
        ref_joint, ref_parts, ref_grads, ref_cache = reference.joint_objective(
            params, x, gold, labeled, unlabeled, soft, cfg, protos, pls, rng=generator(seed))

        p_gap = two_evaluations(c + 2)
        assert np.all(np.abs(ws.p - ref_cache["p"]) <= p_gap * mag(ref_cache["p"]))
        assert same_bits(ws.z, ref_cache["z"])
        # ReLU and dropout as one factor
        keep = ref_cache["h1"] > 0.0
        if ref_cache["mask"] is not None:
            keep = keep * ref_cache["mask"]
        assert same_bits(ws.keep, keep.astype(STUDENT_DTYPE))
        # each -log p moves by at most 2 p_gap plus two roundings of its own;
        # the unlabeled term also sums row by row where the reference sums
        # its whole block, and every summed term is <= 0, so |value| bounds
        # the chain
        n_unl = unlabeled.size
        lab_bound = 2 * p_gap + (2 * EPS + two_evaluations(labeled.size + 2)) * abs(ref_parts[0])
        unl_bound = (2 * p_gap * (1 + EPS) * n_unl / max(n_unl, 1)
                     + (3 * EPS + two_evaluations(n * c + 2)) * abs(ref_parts[1]))
        assert abs(parts[0] - ref_parts[0]) <= lab_bound
        assert abs(parts[1] - ref_parts[1]) <= unl_bound
        assert grad.shape == params.live.shape
        assert not any(np.shares_memory(grad, b) for b in buffers)
        grads = params.views(grad)
        assert grads.keys() == ref_grads.keys()
        bounds = gradient_bounds(params, x, ws, protos, pls, cfg, gap, labeled)
        for name, g in grads.items():
            assert g.dtype == STUDENT_DTYPE
            assert np.all(np.abs(g - ref_grads[name]) <= bounds[name]), name
        if pls is None:
            assert parts[2] == 0.0
            assert abs(joint - ref_joint) <= (lab_bound + cfg.lambda1 * unl_bound
                                              + 4 * EPS64 * abs(ref_joint))
            continue
        kept = pls.kept.size
        con_abs = (mag(ws.z[pls.kept]) @ mag(protos).T / cfg.tau).max(axis=1, initial=0.0)
        per_node = 3 * gap * con_abs + (c + 4) * EPS
        con_bound = (per_node.mean() if kept else per_node.sum()) + gap * ref_parts[2]
        assert abs(parts[2] - ref_parts[2]) <= con_bound
