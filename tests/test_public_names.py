"""The package's public names that the benchmark and the demos read.

The import block of pwlab/__init__.py is the one list of public names.  The
benchmark reads them as ``pw.<name>`` or ``pwlab.<name>`` and the demos
import them with ``from pwlab import ...``; a name dropped from the package
fails here before it breaks either.
"""

import ast
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
