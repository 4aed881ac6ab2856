"""The traced benchmark (``bench/tracing.py``) wraps package functions by
name.  These tests read its name lists without importing or editing it, so
a rename in the package cannot silently drop a span from the benchmark."""

import ast
import importlib
from pathlib import Path

from heckelis.verification import ALL_SUITES

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracing_constant(name: str):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING}")


def test_every_wrapped_function_exists():
    for module, attr in tracing_constant("WRAPPED"):
        target = getattr(importlib.import_module(f"heckelis.{module}"), attr, None)
        assert callable(target), f"heckelis.{module}.{attr} is gone"


def test_every_traced_suite_runs_in_verify():
    suites = {suite.__name__ for suite in ALL_SUITES}
    assert set(tracing_constant("SUITES")) <= suites
