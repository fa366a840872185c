"""The package's public surface, and scripts/census.py, which counts it."""

import importlib
import inspect
import json
import re
import subprocess
import sys
from collections import Counter

import convsearch

from conftest import REPO

_MODULES = ("conversation", "evaluation", "fusion", "index", "llm", "offline", "pipeline", "prompts")


def test_the_package_exports_exactly_the_modules_all():
    declared = Counter(
        name
        for module in _MODULES
        for name in importlib.import_module(f"convsearch.{module}").__all__
    )
    assert [name for name, count in declared.items() if count > 1] == []
    public = {
        name for name, value in vars(convsearch).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(declared)


def test_readme_imports_from_the_package_resolve():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    imports = re.findall(r"^from convsearch import (\([^)]*\)|.*)$", readme, flags=re.M)
    names = [name for group in imports for name in re.findall(r"\w+", group)]
    assert names
    assert [name for name in names if not hasattr(convsearch, name)] == []


def _files(root):
    return {path: path.stat().st_mtime_ns for path in root.rglob("*") if ".git" not in path.parts}


def test_readme_python_blocks_run_in_order(capsys, monkeypatch):
    # the second block reranked with `passages`, which no block defined: a NameError
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    before = _files(REPO)
    monkeypatch.chdir(REPO)  # the blocks read the fixture by relative path
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    assert _files(REPO) == before


def test_census_prints_one_json_line_of_counts(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "census.py")],
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
