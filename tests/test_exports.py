import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_exact_arithmetic_unloaded():
    # polynomial products keep exact values as integers, and Fraction
    # only shows them, so the package import does not pay for fractions
    src = os.path.dirname(os.path.dirname(copulalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, copulalg; "
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, check=True)
    assert r.stdout == "[]\n"
