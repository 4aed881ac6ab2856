"""The benchmark (``bench/``) imports package names and the traced run
(``bench/tracing.py``) wraps package functions by name.  These tests read
the benchmark's sources without importing or editing them, so a rename in
the package cannot silently break the benchmark or drop a span from it."""

import ast
import importlib
from pathlib import Path

from heckelis.verification import ALL_SUITES

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def test_every_imported_name_exists():
    imports = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "heckelis"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heckelis":
                imports += [(path.name, node.module, alias.name) for alias in node.names]
    assert imports, "the benchmark imports nothing from heckelis"
    for source, module, name in imports:
        target = importlib.import_module(module)
        assert name is None or hasattr(target, name), f"{source}: {module}.{name} is gone"
