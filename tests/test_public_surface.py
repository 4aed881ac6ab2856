"""The package's public surface is what its own code reaches.  Every public
module-level function or class under ``src/heckelis`` must be named by
package code outside its own definition, be wrapped by name in the
benchmark's traced run, or be listed in ``KEPT`` with the reason it stays.
A name that only tests reach belongs in ``tests/``.  Names are imported
from their submodules, so ``__init__`` binds none.  These tests read the
sources without importing them."""

import ast
from pathlib import Path

from test_bench_wiring import tracing_constant

SRC = Path(__file__).resolve().parents[1] / "src" / "heckelis"

# names no package code reaches, each with the check that keeps it
KEPT = {
    "kjdt.switch": "the Thomas-Yong switch; tests check it is an involution and commutes",
    "kjdt.random_viable_sequence": "criterion 5: rectification under random viable sequences",
    "kjdt.k_infusion": "criterion 5: the worked infusion example; k_rectify runs its switches without it",
    "tableaux.superstandard": "the inner filling of k_infusion's tests against the full-scan switch",
    "words.coxeter_length": "criterion 11: the length of the witness's Demazure product",
    "words.hecke_product": "the Demazure product of a Word; bench/run.py bisects prefixes with it",
    "asymptotics.erdos_szekeres_bound": "criterion 11: the Coxeter-length subsequence bound",
    "tableaux.count_increasing": "criteria 1 and 2: the pinned increasing-tableau counts",
    "tableaux.count_set_valued_standard": "criteria 1 and 2: the pinned set-valued counts",
    "asymptotics.beta": "the predicted scaled LIS constant, for a sweep summary to print",
}


def _names(node) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unreached() -> set[str]:
    """``module.name`` of each public top-level definition that no other
    top-level statement of a package module names."""
    statements = [
        (path.stem, node, _names(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    return {
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for _, other, names in statements if other is not node)
    }


def test_every_public_name_is_reached_or_kept():
    wrapped = {f"{module}.{attr}" for module, attr in tracing_constant("WRAPPED")}
    stray = unreached() - wrapped - KEPT.keys()
    assert not stray, f"reached by no package code; move to tests/ or keep with a reason: {sorted(stray)}"


def test_every_kept_name_is_defined_and_still_unreached():
    stale = KEPT.keys() - unreached()
    assert not stale, f"gone, or now reached by package code; drop from KEPT: {sorted(stale)}"


def test_init_binds_no_package_name():
    # a re-export is a second import path to a name, which no caller needs
    defined = {
        target.id if isinstance(target, ast.Name) else target.name
        for path in SRC.glob("*.py") if path.stem != "__init__"
        for node in ast.parse(path.read_text()).body
        for target in (node.targets if isinstance(node, ast.Assign) else [node])
        if isinstance(target, (ast.Name, ast.FunctionDef, ast.ClassDef))
    }
    bound = _names(ast.parse((SRC / "__init__.py").read_text())) & defined
    assert not bound, f"__init__ binds package names; import them from their modules: {sorted(bound)}"
