import importlib
import pkgutil

import pytest

import copulalg

MODULES = ["copulalg"] + [
    f"copulalg.{m.name}" for m in pkgutil.iter_modules(copulalg.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from copulalg import *` for users
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
