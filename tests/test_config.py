"""The test run's own configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Hypothesis writes a failing example's patch through libcst, whose import
    # warns of a deprecation. Under the filterwarnings of pyproject.toml that
    # warning must not end the run with an internal error that hides the
    # failure.
    (tmp_path / "test_probe.py").write_text("from hypothesis import given, strategies as st\n\n\n"
                                            "@given(st.integers())\n"
                                            "def test_fails(x):\n"
                                            "    assert x < 5\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "FAILED test_probe.py::test_fails" in proc.stdout
