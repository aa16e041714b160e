"""The suite's own pytest settings: a failing property is reported, not fatal."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_leaves_the_rest_of_the_run(tmp_path):
    # pytest runs tests in file order: the second test runs only if the
    # report of the first one's failure did not abort the session
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT,
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout[-2000:]
