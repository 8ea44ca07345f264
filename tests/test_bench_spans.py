"""The benchmark's per-layer spans still reach the program.

``bench/spans.py`` wraps program functions by name; a renamed or removed
function is skipped there and its layer metrics silently read 0.  This test
loads that file as it stands and resolves every one of its targets.  The
one target expected to be absent is the dropped candidate search, which
``plan_augmentation`` replaced.  A target that resolves but that training
no longer calls, because it calls a private copy instead, also reads 0:
one ``train_student`` call under the benchmark's own ``Tracer`` must reach
each per-epoch target once an epoch.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from agst import SoftLabels, TrainConfig, make_split, mlp, two_cluster_bundle

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
ABSENT = {"agst.rewiring.generate_candidates"}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_student_and_pipeline_targets_resolve():
    spans = load_spans()
    missing = {f"{path}.{attr}" for _, path, attr in spans.TARGETS
               if not callable(getattr(spans._owner(path), attr, None))}
    assert missing == ABSENT


# the per-epoch targets and the layer metrics they feed
PER_EPOCH = ("mlp.adam", "mlp.val_forward", "mlp.momentum_embed", "mlp.prototypes",
             "mlp.filter", "mlp.contrastive")


def test_each_student_epoch_reaches_the_per_epoch_targets(tmp_path):
    spans = load_spans()
    bundle = two_cluster_bundle(n=40, seed=3)
    split = make_split(bundle, "balanced", seed=3, k=3, val_per_class=4)
    soft = SoftLabels(np.eye(2)[bundle.gold] * 0.8 + 0.1, normalized=True)
    cfg = TrainConfig(max_epochs=6, patience=10)
    with spans.Tracer(tmp_path) as tracer:
        _, trace = mlp.train_student(bundle, split, soft, cfg, np.random.default_rng(3),
                                     bundle.features)
    recorded = tracer.collect()
    epochs = len(trace.records)
    assert epochs == 6
    counts = Counter(s["name"] for s in recorded)
    assert {name: counts[name] for name in PER_EPOCH} == dict.fromkeys(PER_EPOCH, epochs)
    metrics = spans.layer_metrics(recorded, workers=1)
    assert metrics["mlp.epochs"] == epochs
    assert metrics["mlp.adam_s"] > 0 and metrics["mlp.val_forward_s"] > 0
    assert metrics["mlp.kept_nodes"] > 0
