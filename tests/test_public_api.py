import importlib
import inspect
import pkgutil

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
