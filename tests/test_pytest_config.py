"""The suite's pytest configuration reports a failing property test.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When a
``@given`` test fails, Hypothesis's report imports libcst where it is
installed, and libcst 1.0 raises mypy_extensions' ``TypedDict``
deprecation on import: without the filter for that one message, the report
of the failure became an INTERNALERROR (exit 3) that ended the whole run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value < 0
'''


def test_a_failing_given_test_fails_under_the_repo_ini_options(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
