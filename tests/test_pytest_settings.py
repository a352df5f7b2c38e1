import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # the suite turns every warning into an error; a deprecation warning the
    # hypothesis plugin raises while it reports a failure must not turn the
    # failure into an internal error that hides the falsifying example
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    argv = ["-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
    assert "Falsifying example" in proc.stdout
    assert proc.returncode == 1
