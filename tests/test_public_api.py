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
    "fwlab.comparison_harness.ishii_matrix_check": "item 5: the second-order check of each maximizer",
}


MODULE_NAMES = {module.__name__ for module in MODULES}


def _references(path: Path, module: str | None = None) -> set:
    """The (module, name) pairs a file refers to, each resolved to its fwlab module.

    A reference is ``alias.name`` through an imported fwlab module, an import
    ``from fwlab.m import name`` (or ``from .m import name``) and, inside the
    defining ``module`` itself, a bare loaded name outside that name's own
    top-level definition.  A homonym in another module refers to nothing.
    """
    tree = ast.parse(path.read_text())
    aliases, found = {}, set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            for a in sub.names:
                if a.asname and a.name in MODULE_NAMES:
                    aliases[a.asname] = a.name
        elif isinstance(sub, ast.ImportFrom):
            source = "fwlab" + (f".{sub.module}" if sub.module else "") if sub.level else sub.module
            for a in sub.names:
                if f"{source}.{a.name}" in MODULE_NAMES:
                    aliases[a.asname or a.name] = f"{source}.{a.name}"
                elif source in MODULE_NAMES:
                    found.add((source, a.name))
    for stmt in tree.body:
        loads = [sub for sub in ast.walk(stmt) if isinstance(getattr(sub, "ctx", None), ast.Load)]
        refs = {
            (aliases[sub.value.id], sub.attr)
            for sub in loads
            if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in aliases
        }
        if module:
            refs |= {(module, sub.id) for sub in loads if isinstance(sub, ast.Name)}
        found |= refs - {(module, getattr(stmt, "name", None))}
    return found


def _callers() -> set:
    """Every (module, name) that package code, a benchmark file or the
    acceptance tests refer to.  The package's re-exports in ``__init__.py``
    are no callers."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found |= _references(path, f"fwlab.{path.stem}")
    for path in [*sorted((REPO / "bench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]:
        found |= _references(path)
    return found


def test_a_homonym_in_another_module_is_no_caller():
    # filtering_sim's Euler loop loads a local named step; a scan by bare
    # name took it for a caller of prediction_game.step
    refs = _references(PACKAGE / "filtering_sim.py", "fwlab.filtering_sim")
    assert ("fwlab.filtering_sim", "step") in refs
    assert ("fwlab.prediction_game", "step") not in refs


def test_every_public_name_has_a_caller():
    callers = _callers()
    idle = sorted(
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if (module.__name__, name) not in callers
    )
    unowned = [name for name in idle if name not in AWAITING_A_CALLER]
    assert unowned == [], f"public names that no target, check or benchmark uses: {unowned}"
    # a name that found a caller leaves the exceptions
    assert sorted(AWAITING_A_CALLER) == idle


def test_no_module_imports_scipy():
    # SciPy is a test extra: the package runs on numpy alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert found == []


def test_no_module_resolves_names_at_lookup():
    hooks = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    assert hooks == []
