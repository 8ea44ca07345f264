#!/usr/bin/env python3
"""Student walk-through: joint loss, early stopping, gradient check.

Trains the MLP on propagated soft labels over the noisy two-cluster toy,
writes the training trace as CSV, and verifies the hand-derived gradients
against central finite differences.
"""

import numpy as np

from agst import (
    LpConfig,
    TrainConfig,
    feature_matrix,
    forward,
    make_split,
    normalize_adjacency,
    propagate_labels,
    run_gradcheck_suite,
    to_distribution,
    train_student,
    two_cluster_bundle,
    write_trace_csv,
)

bundle = two_cluster_bundle(n=40, noise_fraction=0.1, seed=1)
split = make_split(bundle, "balanced", seed=1, k=3, val_per_class=4)
op = normalize_adjacency(bundle.graph)
soft = to_distribution(propagate_labels(op, bundle, split, LpConfig()))

cfg = TrainConfig(patience=50, seed=1)
params, trace = train_student(bundle, split, soft, cfg)

print(f"epochs run: {len(trace.records)}, best epoch: {trace.best_epoch}")
first, last = trace.records[0], trace.records[-1]
print(f"labeled CE: {first.loss_labeled:.4f} -> {last.loss_labeled:.4f}")
print(f"soft-target CE: {first.loss_unlabeled:.4f} -> {last.loss_unlabeled:.4f}")
print(f"contrastive: {first.loss_contrastive:.4f} -> {last.loss_contrastive:.4f}")

# prediction as run_agst makes it: the float32 student's weights read in
# float64, on the float64 matrix it trained on
x = feature_matrix(bundle.features, cfg.normalize_features)
_, probs = forward(params.astype(np.float64), x)
preds = np.argmax(probs, axis=1)
acc = np.mean(preds[split.test] == bundle.gold[split.test])
print(f"test accuracy: {acc:.3f}")

write_trace_csv(trace, "student_trace.csv")
print("per-epoch trace written to student_trace.csv")

report = run_gradcheck_suite(instances=5, seed=0)
print(f"gradient check, 5 random tiny instances: max rel error {report.max_rel_error:.2e}")
