"""Each demo script runs to completion and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ewens

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [d.name for d in DEMOS] == [
        "exact_laws.py", "path_functionals.py", "poisson_distances.py", "regime_gallery.py"
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(ewens.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
