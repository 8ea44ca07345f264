"""Property test: an epoch written into a shared ``EpochWorkspace`` equals the
fresh-array epoch in ``reference`` bit for bit.

Two consecutive epochs with different parameters share one workspace, as
the epochs of one ``train_student`` call do, over dense and CSR features,
dropout on and off, and the contrastive term on and off.  Parameters,
features and workspace are in ``STUDENT_DTYPE``, as in training, and the
reference follows their dtype.  No gradient may live in the workspace, since
the next epoch overwrites it.
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
    compute_prototypes,
    filter_pseudo_labels,
    init_params,
    joint_objective,
    pseudo_targets,
)
from agst.mlp import STUDENT_DTYPE, EpochWorkspace  # noqa: E402


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def generator(seed):
    return None if seed is None else np.random.default_rng(seed)


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
                      lambda2=draw(st.sampled_from([0.0, 0.1])),
                      loss_reduction=draw(st.sampled_from(["mean", "sum"])), hidden=hidden)
    epochs = []
    for _ in range(2):
        params = init_params(f, c, hidden, rng)
        params.b1[:] = rng.uniform(-1.0, 1.0, hidden)
        params.mw1 += rng.normal(scale=0.1, size=params.mw1.shape)
        # no generator turns dropout off, as in validation and the gradient check
        seed = int(rng.integers(2**32)) if draw(st.booleans()) else None
        epochs.append((params, seed))
    return x, gold, labeled, soft, cfg, epochs


@settings(max_examples=120, deadline=None, derandomize=True)
@given(problems())
def test_shared_workspace_epochs_equal_fresh_arrays(problem):
    x, gold, labeled, soft, cfg, epochs = problem
    n, c = gold.size, soft.matrix.shape[1]
    unlabeled = np.setdiff1d(np.arange(n), labeled)
    ws = EpochWorkspace(n, cfg.hidden, c, STUDENT_DTYPE)
    buffers = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]

    for params, seed in epochs:
        protos, pls = pseudo_targets(params, x, gold, labeled, unlabeled, soft, cfg, ws)
        if cfg.lambda2 == 0:
            assert (protos, pls) == (None, None)
        else:
            ref_z_mom = reference.momentum_embed(params, x)
            ref_protos = compute_prototypes(ref_z_mom, gold, labeled, c)
            ref_pls = filter_pseudo_labels(soft, ref_z_mom, ref_protos, cfg.tau, unlabeled)
            assert same_bits(ws.z_mom, ref_z_mom)
            assert same_bits(protos, ref_protos)
            assert same_bits(pls.kept, ref_pls.kept)
        joint, parts, grads = joint_objective(
            params, x, gold, labeled, unlabeled, soft, cfg, protos, pls,
            rng=generator(seed), workspace=ws)
        ref_joint, ref_parts, ref_grads, ref_cache = reference.joint_objective(
            params, x, gold, labeled, unlabeled, soft, cfg, protos, pls, rng=generator(seed))

        assert same_bits(joint, ref_joint)
        assert all(same_bits(a, b) for a, b in zip(parts, ref_parts))
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert same_bits(g, ref_grads[name]), name
            assert not any(np.shares_memory(g, b) for b in buffers), name
        assert same_bits(ws.p, ref_cache["p"])
        assert same_bits(ws.z, ref_cache["z"])
        assert (ws.mask is None) == (ref_cache["mask"] is None)
        if ws.mask is not None:
            assert same_bits(ws.mask, ref_cache["mask"])
