"""Property tests of the student's epoch as ``train_student`` runs it.

An epoch written into a shared ``EpochWorkspace`` must give the bits of the
same class-space arithmetic in fresh arrays (``reference.joint_objective``).
Two consecutive epochs with different parameters share one workspace, as
the epochs of one ``train_student`` call do, over dense and CSR features,
dropout on and off, and the contrastive term on and off.  Parameters,
features and workspace are in ``STUDENT_DTYPE``, as in training.  No
gradient may live in the workspace, since the next epoch overwrites it.

The class-space momentum branch is checked against the n x hidden momentum
encoder of ``reference``, which sums in another order, within float32
bounds.  Each compared value is a chain of sums and products with at most D
roundings along it, D = f + 2 hidden + c + n + 8.  Such an evaluation is
within gamma_D |v| of the exact value, where gamma_D = D u / (1 - D u),
u = eps / 2, and |v| is the same chain on absolute values (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., section 3.1 and lemma 3.3);
two evaluations differ by at most twice that.  A softmax over c logits that
are each within delta of the exact ones moves by at most 3 delta, and its
own exp, sum and quotient add (c + 4) eps.
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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(problems())
def test_shared_workspace_epochs_equal_fresh_arrays(problem):
    x, gold, labeled, soft, cfg, epochs = problem
    n, c = gold.size, soft.matrix.shape[1]
    unlabeled = np.setdiff1d(np.arange(n), labeled)
    hard = np.argmax(soft.matrix, axis=1)
    targets = student_targets(soft.matrix, gold, labeled)
    members = class_members(gold, labeled, c)
    ws = EpochWorkspace(epochs[0][0], n)
    buffers = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]

    for params, seed in epochs:
        ws.s = x @ params.mw1
        protos, pls = pseudo_targets(params, ws.s, members, unlabeled, hard, cfg, ws)
        fresh_protos, fresh_pls = pseudo_targets(params, ws.s, members, unlabeled, hard, cfg)
        if cfg.lambda2 == 0:
            assert (protos, pls) == (fresh_protos, fresh_pls) == (None, None)
        else:
            assert same_bits(protos, fresh_protos)
            assert same_bits(pls.kept, fresh_pls.kept)
        joint, parts, grad = joint_objective(
            params, x, labeled, unlabeled, targets, cfg, protos, pls,
            rng=generator(seed), workspace=ws)
        ref_joint, ref_parts, ref_grads, ref_cache = reference.joint_objective(
            params, x, labeled, unlabeled, targets, cfg, protos, pls, rng=generator(seed))

        # ReLU and dropout as one factor, and the hidden layer it scales
        assert same_bits(ws.keep, ref_cache["keep"])
        assert same_bits(ws.h1, ref_cache["d1"])
        assert same_bits(ws.p, ref_cache["p"])
        if pls is not None:
            assert same_bits(ws.sim, ref_cache["out"][:, c:])
        assert (joint, parts) == (ref_joint, ref_parts)
        if pls is None:
            assert parts[2] == 0.0
        assert grad.shape == params.live.shape
        assert not any(np.shares_memory(grad, b) for b in buffers)
        grads = params.views(grad)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == STUDENT_DTYPE
            assert same_bits(g, ref_grads[name]), name


@settings(max_examples=120, deadline=None, derandomize=True)
@given(problems())
def test_class_space_momentum_branch_matches_the_encoder(problem):
    x, gold, labeled, soft, cfg, epochs = problem
    if cfg.lambda2 == 0:
        return
    n, c = gold.size, soft.matrix.shape[1]
    unlabeled = np.setdiff1d(np.arange(n), labeled)
    hard = np.argmax(soft.matrix, axis=1)
    members = class_members(gold, labeled, c)
    gap = 2 * two_evaluations(x.shape[1] + 2 * cfg.hidden + c + n + 8)   # doubled for second-order terms
    for params, _ in epochs:
        protos, pls = pseudo_targets(params, x @ params.mw1, members, unlabeled, hard, cfg)
        ref = reference.pseudo_targets(params, x, gold, labeled, unlabeled, soft, cfg)
        check_pseudo_targets(params, x, protos, pls, ref, labeled, c, cfg.tau, gap)
