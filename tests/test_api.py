"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import stockswarm as ss

MODULES = ["stockswarm"] + [
    f"stockswarm.{m.name}" for m in pkgutil.iter_modules(ss.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__")
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


# The package re-exports these modules' public names, in this order.
REEXPORTED = ["domain", "history", "engine", "recommend", "oracle", "synth"]


def test_package_exports_each_module_all():
    modules = [importlib.import_module(f"stockswarm.{name}") for name in REEXPORTED]
    assert ss.__all__ == ["__version__", "errors", "fixture_paths"] + [
        attr for module in modules for attr in module.__all__
    ]
    for module in modules:
        for attr in module.__all__:
            assert getattr(ss, attr) is getattr(module, attr), attr
    assert ss.errors is importlib.import_module("stockswarm.errors")
    namespace = {}
    exec("from stockswarm import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ss.__all__)
