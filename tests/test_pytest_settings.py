"""The repository's pytest settings: a failing hypothesis test is reported like any other."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    # With every warning an error, the DeprecationWarning that hypothesis raises while
    # it reports a failure would end the session in INTERNALERROR before test_passes.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
