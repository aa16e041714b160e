"""Every narrative script in demos/, and the README's library tour, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    check = "print(fifo_wait_lst(d, a, 1.0).value, wait_cdf('fifo', d, a, 3.0).value)\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", tour + check], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    w, big_w = map(float, proc.stdout.split())
    assert w == pytest.approx(0.6, rel=1e-12)
    assert big_w == pytest.approx(0.9602, abs=5e-5)
