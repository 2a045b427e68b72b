"""The test settings in ``pyproject.toml`` themselves: a failing property test
must report its falsifying example, not an internal error."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_test_prints_its_example(tmp_path):
    # warnings are errors, and hypothesis' failure report imports a module
    # that raises a DeprecationWarning on import
    (tmp_path / "test_fails.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_fails.py"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
