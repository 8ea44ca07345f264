"""The benchmark's per-layer spans still reach the student and the pipeline.

``bench/spans.py`` wraps program functions by name; a renamed or removed
function is skipped there and its layer metrics silently read 0.  This test
loads that file as it stands and resolves its targets in ``agst.mlp``,
``agst.mlp:Adam`` and ``agst.selftrain``.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
CHECKED = ("agst.mlp", "agst.mlp:Adam", "agst.selftrain")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_student_and_pipeline_targets_resolve():
    spans = load_spans()
    targets = [(path, attr) for _, path, attr in spans.TARGETS if path in CHECKED]
    assert {path for path, _ in targets} == set(CHECKED)
    missing = [f"{path}.{attr}" for path, attr in targets
               if not callable(getattr(spans._owner(path), attr, None))]
    assert missing == []
