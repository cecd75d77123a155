"""The repository's pytest settings keep a session going past a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # with warnings as errors, hypothesis's report hook on a failed test
    # can raise a DeprecationWarning that pytest turns into INTERNALERROR,
    # and the tests after it never run
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
