"""Property test: the joint objective's gradient passes the finite-difference
check on random shapes, including two classes, an empty kept set for the
contrastive term, and all-zero feature rows.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from agst import (  # noqa: E402
    SoftLabels,
    TrainConfig,
    class_members,
    compute_prototypes,
    grad_check,
    init_params,
    pseudo_targets,
)

import reference  # noqa: E402
from conftest import make_bundle, split_of  # noqa: E402


@st.composite
def problems(draw):
    c = draw(st.sampled_from([2, 2, 3, 4]))
    n = draw(st.integers(c + 1, 10))
    f = draw(st.integers(1, 5))
    hidden = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_rows = draw(st.integers(0, n))
    empty_kept = draw(st.booleans())
    cfg = TrainConfig(lambda1=draw(st.sampled_from([0.0, 1.0])),
                      lambda2=draw(st.sampled_from([0.0, 0.1, 1.0])),
                      tau=draw(st.sampled_from([0.1, 0.5, 2.0])),
                      dropout=0.0, hidden=hidden)

    features = rng.normal(size=(n, f))
    features[rng.permutation(n)[:zero_rows]] = 0.0
    gold = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    rng.shuffle(gold)
    bundle = make_bundle(n, [], gold, c, features=features)
    labeled = np.array([np.flatnonzero(gold == cls)[0] for cls in range(c)])
    split = split_of(labeled)
    params = init_params(f, c, hidden, rng)
    # biases of either sign: a negative one kills its unit on all-zero rows,
    # and a unit dead on every row has an exactly-zero gradient.  Rows within
    # 1e-3 of the ReLU kink are redrawn: a centered difference straddling it
    # says nothing about either one-sided gradient
    params.b1[:] = rng.uniform(-1.0, 1.0, hidden)
    assume(np.min(np.abs(features @ params.w1 + params.b1)) > 1e-3)

    raw = rng.random((n, c)) + 0.1
    if empty_kept:
        # pseudo-label every node with its least similar prototype's class:
        # that similarity is at most 1/c, so the filter keeps no node
        z_mom = reference.momentum_embed(params, features)
        protos = compute_prototypes(z_mom, class_members(gold, labeled, c))
        least = np.argmin(reference.similarity_distribution(z_mom, protos, cfg.tau), axis=1)
        raw[np.arange(n), least] += c
    soft = SoftLabels(raw / raw.sum(1, keepdims=True), normalized=True)
    return params, bundle, split, soft, cfg, empty_kept


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problems())
def test_gradient_passes_check_on_random_shapes(problem):
    params, bundle, split, soft, cfg, empty_kept = problem
    if empty_kept and cfg.lambda2 > 0:
        unlabeled = np.setdiff1d(np.arange(bundle.n), split.labeled)
        members = class_members(bundle.gold, split.labeled, bundle.num_classes)
        _, pls = pseudo_targets(params, bundle.features @ params.mw1, members, unlabeled,
                                np.argmax(soft.matrix, axis=1), cfg)
        assert pls.kept.size == 0
    assert grad_check(params, bundle, split, soft, cfg) < 1e-4
