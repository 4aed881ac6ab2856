"""The benchmark (``bench/``) imports package names and the traced run
(``bench/tracing.py``) wraps package functions by name.  These tests read
the benchmark's sources without importing or editing them, so a rename in
the package cannot silently break the benchmark or drop a span from it."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import heckelis
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


def test_cli_import_loads_every_wrapped_module():
    # Tracer.install finds the modules to patch in sys.modules after the
    # benchmark imports heckelis.cli, so none of them may load later
    modules = sorted({module for module, _ in tracing_constant("WRAPPED")})
    script = f"import heckelis.cli, json, sys; print(json.dumps([m for m in {modules!r} if 'heckelis.' + m not in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(heckelis.__file__).resolve().parents[1])},
    )
    assert out.returncode == 0, f"child exited {out.returncode}; stderr:\n{out.stderr}"
    assert json.loads(out.stdout) == [], "not loaded by import heckelis.cli"


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
