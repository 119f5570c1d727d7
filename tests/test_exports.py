"""Each svopt module's export list names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import svopt

MODULES = [importlib.import_module(f"svopt.{info.name}")
           for info in pkgutil.iter_modules(svopt.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_export_list_names_the_public_functions_and_classes(module):
    def defined_here(obj):
        return ((inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__)

    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    exported = {name for name in module.__all__ if defined_here(getattr(module, name))}
    defined = {name for name, obj in vars(module).items()
               if defined_here(obj) and not name.startswith("_")}
    assert exported == defined
