"""The suite's pytest settings let a failing Hypothesis test fail alone:
the tests after it still run and the session still reports them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 5


def test_the_next_test_runs():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Run from tmp_path, so Hypothesis writes its .hypothesis/ there.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
