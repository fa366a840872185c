"""The walkthrough scripts under demos/ run to completion."""

import os
import subprocess
import sys

import pytest

from conftest import REPO


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
