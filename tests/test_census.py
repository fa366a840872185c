"""scripts/census.py runs and reports the package's size and surface."""

import json
import subprocess
import sys

from conftest import REPO


def test_census_prints_one_json_line_of_counts(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "census.py"), "--root", str(REPO)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    counts = json.loads(lines[0])
    assert set(counts) == {
        "src_lines", "public_names", "settable_values", "defaulted_values", "cli_options"
    }
    assert all(type(value) is int and value > 0 for value in counts.values())
    assert counts["defaulted_values"] < counts["settable_values"]
