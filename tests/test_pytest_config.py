"""The repo's ``pytest.ini`` under a failing property test.

On a failure, hypothesis imports libcst to report the example, and
libcst touches ``mypy_extensions.TypedDict``, whose DeprecationWarning
``filterwarnings = error`` would turn into an INTERNALERROR that ends
the session: every later test would go unreported.
"""

import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(value):
    assert value < 0


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(PYTEST_INI),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "-q",
            "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert completed.returncode == 1
