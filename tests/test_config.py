"""The pytest configuration in pyproject.toml: a failing Hypothesis test is
reported as one failure, and the run goes on to the next test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # to report a failing example Hypothesis imports libcst, whose import
    # raises a third-party DeprecationWarning; made an error, it ended the
    # run in an INTERNALERROR (exit 3) before the second test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
               "-q", "-p", "no:cacheprovider", "test_two.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
