"""The benchmark's per-layer spans still reach the program.

``bench/spans.py`` wraps program functions by name; a renamed or removed
function is skipped there and its layer metrics silently read 0.  This test
loads that file as it stands and resolves every one of its targets.  The
one target expected to be absent is the dropped candidate search, which
``plan_augmentation`` replaced.
"""

import importlib.util
from pathlib import Path

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
