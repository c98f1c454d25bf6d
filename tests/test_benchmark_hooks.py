"""The benchmark's traced runs wrap package attributes by name
(`perfbench/tracing.py`), and its workloads read package attributes
directly; a refactor that drops or moves one of them should fail here
rather than in the benchmark."""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    hooks = [(mod, attr) for mod, attr in tracing.SPANNED]
    hooks += [(mod, attr) for mod, attr, _ in tracing.COUNTED]
    missing = []
    for mod, attr in hooks:
        owner = importlib.import_module(f"chamberwalks.{mod}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer reads class attributes from the class __dict__
        found = owner is not None and (
            leaf in owner.__dict__ if isinstance(owner, type) else hasattr(owner, leaf)
        )
        if not found:
            missing.append(f"{mod}.{attr}")
    assert not missing


def _package_reads(path):
    """The (module, name) pairs of every <module>.<name> read in a file,
    for the package modules it imports with ``from chamberwalks import``."""
    tree = ast.parse(path.read_text())
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "chamberwalks"
               for a in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_benchmark_reads_resolve():
    reads = set().union(*map(_package_reads, sorted(PERFBENCH.glob("*.py"))))
    assert len(reads) >= 20  # the scan sees the workloads' reads
    missing = [f"{mod}.{name}" for mod, name in sorted(reads)
               if not hasattr(importlib.import_module(f"chamberwalks.{mod}"), name)]
    assert not missing
