"""Tests for the experiment scripts: each runs to completion with warnings
turned into errors, input out of its domain is a usage error, none reaches
into a private helper of the package, and every package name they read
exists."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import chamberwalks
from test_benchmark_hooks import _package_reads

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
MODULES = set(chamberwalks.__all__)


def run_script(argv, env):
    return subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("argv", [
    ["llt_trend.py", "--n", "10,20", "--big", "40"],
    ["llt_trend.py", "--q", "5/2", "--n", "10,20", "--big", "40"],
])
def test_script_runs_clean(argv, package_env):
    proc = run_script(argv, package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("q", ["2", "3", "5/2"])
def test_llt_trend_routes_side_by_side(q, package_env):
    """At the same n the exact and the spectral block print the same p."""
    proc = run_script(["llt_trend.py", "--q", q, "--n", "10,20", "--big", "10,20"],
                      package_env)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    exact = [row[:2] for row in rows if row[-1] != "(spectral)"]
    spectral = [row[:2] for row in rows if row[-1] == "(spectral)"]
    assert [n for n, _ in exact] == ["10", "20"]
    assert exact == spectral


@pytest.mark.parametrize("args", [
    ["--q", "1"],
    ["--n", "0"],
    ["--n", "10", "--big", "20000"],
    ["--q", "1e400"],
])
def test_llt_trend_out_of_domain_is_a_usage_error(args, package_env):
    """Input out of the domain ends in one error line and exit 2, not a
    traceback."""
    proc = run_script(["llt_trend.py", *args], package_env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_scripts_use_public_api():
    offenders = []
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                offenders.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not offenders


def test_script_reads_resolve():
    """Every package name a script reads exists, so a refactor that drops or
    moves one fails here; tier-1 runs neither parity.py nor the
    function-local imports of its queries."""
    reads = set().union(*map(_package_reads, sorted(SCRIPTS.glob("*.py"))))
    assert len(reads) >= 20  # the scan sees the scripts' reads
    missing = [f"{mod}.{name}" for mod, name in sorted(reads)
               if not hasattr(importlib.import_module(f"chamberwalks.{mod}"), name)]
    assert not missing
