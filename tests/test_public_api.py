"""Every name a module lists in `__all__` exists, so `from igcomposite.<module>
import *` works: a class or function deleted from a module must leave its
`__all__` too."""

import importlib
import pkgutil

import pytest

import igcomposite

MODULES = ["igcomposite"] + [f"igcomposite.{info.name}"
                             for info in pkgutil.iter_modules(igcomposite.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= namespace.keys()


def test_every_library_module_declares_its_api():
    # the command-line module is the only one without a public API list
    missing = [name for name in MODULES
               if not hasattr(importlib.import_module(name), "__all__")]
    assert missing == ["igcomposite.cli"]
