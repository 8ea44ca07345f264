#!/usr/bin/env python3
"""Student walk-through: joint loss, early stopping, gradient check.

Trains the MLP on propagated soft labels over the noisy two-cluster toy,
prints the training trace, and verifies the hand-derived gradients against
central finite differences.
"""

import numpy as np

from agst import (
    LpConfig,
    TrainConfig,
    forward,
    make_split,
    normalize_adjacency,
    propagate_labels,
    run_gradcheck_suite,
    to_distribution,
    train_student,
    two_cluster_bundle,
)

bundle = two_cluster_bundle(n=40, noise_fraction=0.1, seed=1)
split = make_split(bundle, "balanced", seed=1, k=3, val_per_class=4)
op = normalize_adjacency(bundle.graph)
soft = to_distribution(propagate_labels(op, bundle, split, LpConfig()))

cfg = TrainConfig(patience=50)
# the bundle's float64 features, which prediction reads; training reads them
# in float32
x = bundle.features
params, trace = train_student(bundle, split, soft, cfg, np.random.default_rng(1), x)

print(f"epochs run: {len(trace.records)}, best epoch: {trace.best_epoch}")
first, last = trace.records[0], trace.records[-1]
print(f"labeled CE: {first.loss_labeled:.4f} -> {last.loss_labeled:.4f}")
print(f"soft-target CE: {first.loss_unlabeled:.4f} -> {last.loss_unlabeled:.4f}")
print(f"contrastive: {first.loss_contrastive:.4f} -> {last.loss_contrastive:.4f}")

# prediction as run_agst makes it: the float32 student's weights read in
# float64, on the float64 matrix
probs = forward(params.astype(np.float64), x)
preds = np.argmax(probs, axis=1)
acc = np.mean(preds[split.test] == bundle.gold[split.test])
print(f"test accuracy: {acc:.3f}")

print("epoch  labeled CE  soft-target CE  contrastive  val acc")
for r in trace.records:
    print(f"{r.epoch:5d}  {r.loss_labeled:10.4f}  {r.loss_unlabeled:14.4f}  "
          f"{r.loss_contrastive:11.4f}  {r.val_acc:7.3f}")

report = run_gradcheck_suite(instances=5, seed=0)
print(f"gradient check, 5 random tiny instances: max rel error {report.max_rel_error:.2e}")
