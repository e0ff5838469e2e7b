"""The suite's own pytest settings, checked on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_property_is_reported_as_one_failure(tmp_path):
    # With every warning an error, the import Hypothesis makes to report
    # a falsifying example used to abort the whole run as an INTERNALERROR.
    # That import is of libcst, whose own import raised the warning; where
    # libcst is not installed there is nothing to check.
    pytest.importorskip("libcst")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in result.stdout
