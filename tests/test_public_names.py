"""The package's public names that the benchmark and the demos read, and the test helpers CI imports.

The import block of pwlab/__init__.py is the one list of public names.  The
benchmark reads them as ``pw.<name>`` or ``pwlab.<name>`` and the demos
import them with ``from pwlab import ...``; a name dropped from the package
fails here before it breaks either.  The workflow's wide checks import
width-taking functions from the test modules, so a renamed one fails here too.
"""

import ast
import importlib
import re
from pathlib import Path

import pwlab
import pwlab.cli  # the benchmark imports the command line too

ROOT = Path(__file__).resolve().parent.parent


def _bench_names():
    names = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("pw", "pwlab")):
                names.add(node.attr)
    return names


def _demo_names():
    names = set()
    for path in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "pwlab":
                names.update(alias.name for alias in node.names)
    return names


def test_names_read_by_bench_and_demos_are_public():
    bench, demos = _bench_names(), _demo_names()
    # the scan finds what it scans for: the section workload and every demo's imports
    assert {"build_matrix", "operator_norm_estimate", "PwLabError", "verify"} <= bench
    assert "AffineSymbol" in demos
    missing = sorted(name for name in bench | demos if not hasattr(pwlab, name))
    assert not missing, missing


def test_workflow_imports_resolve(monkeypatch):
    # every "from X import a, b" line of the workflow's run blocks, with tests/ on the path as in CI
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    found = [(module, name.strip()) for module, names in re.findall(r"^\s*from ([\w.]+) import ([\w, ]+)$", text, re.M)
             for name in names.split(",")]
    assert len(found) >= 10, found
    missing = [f"{module}.{name}" for module, name in found if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
