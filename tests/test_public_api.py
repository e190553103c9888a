import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fwlab

MODULES = [
    importlib.import_module(f"fwlab.{info.name}")
    for info in pkgutil.iter_modules(fwlab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_lists_exactly_the_public_definitions(module):
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(module, name)] == []
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(listed)) == []


PACKAGE = Path(fwlab.__file__).resolve().parent
REPO = PACKAGE.parent.parent

# public names that nothing calls yet, each with the ROADMAP item that owes it a caller
AWAITING_A_CALLER = {
    "fwlab.prediction_game.rescaled_value": "item 5: game-sim reports the sqrt(T) sweep through it",
    "fwlab.sobolev.multiplication_ratio": "item 8: commutator-check gives a verdict",
    "fwlab.hamiltonians.check_coefficient_assumptions": "item 8: a check target reports it",
    "fwlab.comparison_harness.ishii_matrix_check": "item 10 keeps it: one of the paper's own steps",
}


def _names_read(node) -> set:
    """Names a syntax tree reads: loaded names, loaded attributes and import aliases."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _callers() -> set:
    """Every name read by package code outside the top-level definition of
    that name itself, by a benchmark file or by the acceptance tests."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = {getattr(stmt, "name", None)}
            found |= _names_read(stmt) - own
    for path in [*sorted((REPO / "bench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]:
        found |= _names_read(ast.parse(path.read_text()))
    return found


def test_every_public_name_has_a_caller():
    callers = _callers()
    idle = sorted(
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if name not in callers
    )
    unowned = [name for name in idle if name not in AWAITING_A_CALLER]
    assert unowned == [], f"public names that no target, check or benchmark uses: {unowned}"
    # a name that found a caller leaves the exceptions
    assert sorted(AWAITING_A_CALLER) == idle
