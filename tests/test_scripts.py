"""Smoke tests for the experiment scripts: each runs to completion with
warnings turned into errors, and none reaches into a private helper of the
package."""

import ast
import pathlib
import subprocess
import sys

import pytest

import chamberwalks

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
MODULES = set(chamberwalks.__all__)


@pytest.mark.parametrize("argv", [
    ["llt_trend.py", "--n", "10,20", "--big", "40"],
    ["llt_trend.py", "--q", "5/2", "--n", "10,20", "--big", "40"],
    ["trace_oracles.py", "--nmax", "4", "--grid", "64"],
    ["trace_oracles.py", "--q", "5/2", "--nmax", "4", "--grid", "64"],
])
def test_script_runs_clean(argv, package_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=package_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_scripts_use_public_api():
    offenders = []
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                offenders.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not offenders
