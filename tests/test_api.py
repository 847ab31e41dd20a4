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
