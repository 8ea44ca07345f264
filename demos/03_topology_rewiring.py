#!/usr/bin/env python3
"""Rewiring walk-through: agreement scores and the add/remove plan.

Scores node pairs with sigmoid(p_i . p_j) from a trained student and shows
which same-label non-edges get added and which low-agreement edges get
removed, always relative to the pristine graph.
"""

import numpy as np

from agst import (
    AgstConfig,
    AugmentConfig,
    TrainConfig,
    apply_augmentation,
    edge_probability,
    make_split,
    plan_augmentation,
    run_agst,
    two_cluster_bundle,
)
from agst.mlp import forward

bundle = two_cluster_bundle(n=40, noise_fraction=0.15, seed=2)
split = make_split(bundle, "balanced", seed=2, k=3, val_per_class=4)

# one self-training round gives us a student to score pairs with
agst_cfg = AgstConfig(train=TrainConfig(patience=30), iterations=1, seed=2)
result = run_agst(bundle, split, agst_cfg)
# probabilities as run_agst computes them: the weights and the bundle's
# features in float64
p = forward(result.final_params.astype(np.float64), bundle.features)

edges = bundle.graph.edges
probs = edge_probability(p, edges)
inter = bundle.gold[edges[:, 0]] != bundle.gold[edges[:, 1]]
print(f"mean agreement score on intra-class edges: {probs[~inter].mean():.4f}")
print(f"mean agreement score on injected noise edges: {probs[inter].mean():.4f}")

cfg = AugmentConfig(beta_add=0.4, beta_remove=0.1)
plan = plan_augmentation(bundle.graph, p, cfg)
removed_inter = np.sum(bundle.gold[plan.removed[:, 0]] != bundle.gold[plan.removed[:, 1]])
print(f"plan: +{plan.added.shape[0]} edges, -{plan.removed.shape[0]} edges "
      f"({removed_inter} of the removals are true inter-class edges)")

rewired = apply_augmentation(bundle.graph, plan)
print(f"edge count: {bundle.graph.m} -> {rewired.m}")

print("decision list (action, i, j, probability):")
for action, pairs, probs in (("add", plan.added, plan.added_prob),
                             ("remove", plan.removed, plan.removed_prob)):
    for (i, j), prob in zip(pairs, probs):
        print(f"  {action}\t{i}\t{j}\t{prob:.6f}")
