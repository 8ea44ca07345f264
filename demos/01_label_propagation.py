#!/usr/bin/env python3
"""Teacher walk-through: normalized operator + label propagation.

Builds a small two-ring graph, propagates three gold labels per class,
and compares the finite iteration against its fixed point, solved densely.
"""

import numpy as np

from agst import (
    LpConfig,
    make_split,
    normalize_adjacency,
    propagate_labels,
    to_distribution,
    two_cluster_bundle,
)
from agst.propagation import initial_label_matrix

# two 10-node rings with barely informative features: label signal travels
# along the rings
bundle = two_cluster_bundle(n=20, feature_dim=4, separation=0.3, intra_degree=0, seed=0)
split = make_split(bundle, "balanced", seed=0, k=3, val_per_class=2)
op = normalize_adjacency(bundle.graph)

print(f"graph: n={bundle.n}, m={bundle.graph.m}")
print(f"labeled nodes: {split.labeled.tolist()}")

# the operator keeps self-loops: an endpoint of degree d gets 1/(d+1) on the
# diagonal, so even an isolated node would retain its own label mass
dense = op.toarray()
print(f"diagonal of S: {np.round(np.diag(dense), 3)}")

for steps in (1, 2, 5, 10, 50):
    soft = propagate_labels(op, bundle, split, LpConfig(alpha=0.9, steps=steps))
    covered = np.sum(soft.matrix.sum(axis=1) > 1e-9)
    print(f"T={steps:3d}: nodes reached = {covered}/{bundle.n}")

# the fixed point (1 - alpha) * inv(I - alpha * S) @ Y(0)
alpha = 0.9
y0 = initial_label_matrix(bundle, split)
exact = (1.0 - alpha) * np.linalg.solve(np.eye(bundle.n) - alpha * dense, y0)
iterated = propagate_labels(op, bundle, split, LpConfig(alpha=alpha, steps=200))
gap = np.max(np.abs(exact - iterated.matrix))
print(f"max |closed form - 200-step iteration| = {gap:.2e}")

targets = to_distribution(iterated)
print("row-normalized soft labels (first 4 rows):")
print(np.round(targets.matrix[:4], 3))
