"""The benchmark's traced runs wrap package attributes by name
(`perfbench/tracing.py`); a refactor that drops or moves one of them should
fail here rather than in the benchmark."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
