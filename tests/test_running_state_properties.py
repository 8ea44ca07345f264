"""Property tests: the running momentum pre-activation s tracks x @ mw1.

``train_student`` takes s = x @ mw1 once and then, each epoch, folds the
live product x @ w1 into it (``momentum_fold``) instead of multiplying x by
mw1 again.  Over many epochs of random weight steps and EMA updates, s must
stay within a float32 bound of the exact x @ mw1 of the stored mw1: over
dense and CSR x, a fresh start and a warm start with mw1 != w1, and m in
{0, 0.5, 0.999}.

The bound, per row i, with u = eps / 2, X_i = sum_j |x_ij| and M the largest
|weight| of w1 and mw1 seen: ``momentum_update`` and ``momentum_fold`` round
m and 1 - m to the same float32 pair (m', n'), so the error r_t of s obeys
r_t = m' r_(t-1) + n' (fl(x @ w1) - x @ w1) + (the fold's three roundings)
- x @ (the update's three roundings).  The product is within gamma_f X_i M
of x @ w1, and each set of three roundings is within 3 u X_i M, so
|r_t| <= m' |r_(t-1)| + (n' gamma_f + 6 u) X_i M, with |r_0| <= gamma_f X_i M.
Summing the geometric series, |r_t| <= (2 gamma_f + 6 u / (1 - m')) X_i M,
below ((f + 1) eps + 4 eps / (1 - m)) X_i M: (f + 1) float32 epsilons plus
4 epsilons times 1 / (1 - m).
"""

import numpy as np
import pytest
from scipy import sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import agst.mlp as mlp  # noqa: E402
from agst import SoftLabels, TrainConfig, init_params, make_split, train_student  # noqa: E402
from agst.mlp import STUDENT_DTYPE, momentum_fold, momentum_update  # noqa: E402

from conftest import make_bundle  # noqa: E402

EPS = float(np.finfo(STUDENT_DTYPE).eps)


def bound(x, m, largest):
    """Per-row bound on |s - x @ mw1| (module docstring)."""
    dense = x.toarray() if sparse.issparse(x) else x
    rows = np.abs(dense.astype(np.float64)).sum(axis=1)
    return ((x.shape[1] + 1) * EPS + 4 * EPS / (1 - m)) * rows * largest


def exact(x, w):
    dense = x.toarray() if sparse.issparse(x) else x
    return dense.astype(np.float64) @ w.astype(np.float64)


@st.composite
def trails(draw):
    n = draw(st.integers(1, 20))
    f = draw(st.integers(1, 30))
    hidden = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = (rng.normal(size=(n, f)) * (rng.random((n, f)) < 0.5)).astype(STUDENT_DTYPE)
    x = sparse.csr_array(features) if draw(st.booleans()) else features
    params = init_params(f, 2, hidden, rng)
    if draw(st.booleans()):     # a warm start: the momentum copy has moved away
        params.mw1 += rng.normal(scale=0.3, size=params.mw1.shape).astype(STUDENT_DTYPE)
    m = draw(st.sampled_from([0.0, 0.5, 0.999]))
    epochs = draw(st.integers(1, 400))
    return x, params, m, epochs, rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trails())
def test_folded_state_tracks_the_direct_product(trail):
    x, params, m, epochs, rng = trail
    s = x @ params.mw1
    scratch = np.empty_like(s)
    largest = max(np.abs(params.w1).max(), np.abs(params.mw1).max())
    for _ in range(epochs):
        # a gradient step, the EMA, then the next epoch's product folded in
        params.w1 += rng.normal(scale=0.01, size=params.w1.shape).astype(STUDENT_DTYPE)
        momentum_update(params, m)
        momentum_fold(s, x @ params.w1, m, scratch)
        largest = max(largest, np.abs(params.w1).max(), np.abs(params.mw1).max())
        assert s.dtype == STUDENT_DTYPE
        assert np.all(np.abs(s - exact(x, params.mw1)) <= bound(x, m, largest)[:, None])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 0.5, 0.999]))
def test_pseudo_targets_read_x_at_mw1_every_epoch(seed, as_csr, m):
    # inside train_student: every epoch's pseudo_targets call gets the
    # running s, which must be x @ mw1 of the parameters it is called with
    rng = np.random.default_rng(seed)
    n, f = 40, 12
    features = (rng.random((n, f)) < 0.3).astype(np.float64)
    gold = np.repeat([0, 1], n // 2)
    bundle = make_bundle(n, [[0, 1]], gold, 2, features=features)
    split = make_split(bundle, "balanced", seed=seed % 1000, k=3, val_per_class=4)
    soft = SoftLabels(np.tile([0.7, 0.3], (n, 1)), normalized=True)
    cfg = TrainConfig(momentum=m, max_epochs=30, patience=30, hidden=8)
    x = features.astype(STUDENT_DTYPE)
    x = sparse.csr_array(x) if as_csr else x
    real = mlp.pseudo_targets
    seen, largest = [], 0.0

    def spy(params, s, *args):
        nonlocal largest
        largest = max(largest, np.abs(params.w1).max(), np.abs(params.mw1).max())
        seen.append(np.all(np.abs(s - exact(x, params.mw1)) <= bound(x, m, largest)[:, None]))
        return real(params, s, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "pseudo_targets", spy)
        _, trace = train_student(bundle, split, soft, cfg, rng, x)
    assert len(seen) == len(trace.records) == 30
    assert all(seen)
