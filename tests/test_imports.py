"""Package checks: only numpy is needed at run time (scipy is a test-only
dependency), and the package version is the project's."""

import os
import subprocess
import sys

import pytest

import multiterm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(multiterm.__file__)))

PROBE = """
import importlib, pkgutil, sys
import multiterm
names = [m.name for m in pkgutil.iter_modules(multiterm.__path__)]
for name in names:
    importlib.import_module("multiterm." + name)
print(len(names), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_multiterm_module_imports_scipy():
    """Every module, imported in a fresh interpreter, leaves scipy unloaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout.split(" ", 1)
    modules = [f for f in os.listdir(os.path.join(SRC, "multiterm"))
               if f.endswith(".py") and f != "__init__.py"]
    assert int(out[0]) == len(modules)
    assert out[1].strip() == "[]"


def test_package_version_matches_pyproject():
    """The manifest records `multiterm.__version__`; it is the project's version."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == multiterm.__version__
