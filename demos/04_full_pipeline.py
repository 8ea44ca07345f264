#!/usr/bin/env python3
"""Full self-training loop on the noisy two-cluster benchmark.

Each round: propagate labels over the current graph, train a fresh student
on the soft targets, rewire the pristine graph from its predictions.
"""

import json

from agst import AgstConfig, make_split, run_agst, two_cluster_bundle

bundle = two_cluster_bundle(n=40, noise_fraction=0.1, seed=7)
split = make_split(bundle, "balanced", seed=7, k=3, val_per_class=4)

cfg = AgstConfig(iterations=3, seed=7)
result = run_agst(bundle, split, cfg)

for stats in result.per_iteration:
    print(f"iteration {stats.iteration}: val={stats.val_acc:.3f} "
          f"test={stats.test_acc:.3f} +{len(stats.added_edges)}/-{len(stats.removed_edges)} edges "
          f"({len(stats.trace.records)} epochs)")

print("per-iteration report:")
print(json.dumps([stats.to_dict() for stats in result.per_iteration], indent=2))
