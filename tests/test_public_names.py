"""Every name a quayside module lists in ``__all__`` exists in it, and only
the modules that work on arrays import numpy."""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import quayside

MODULES = sorted(m.name for m in pkgutil.iter_modules(quayside.__path__, "quayside."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _imports_numpy(name):
    tree = ast.parse(importlib.util.find_spec(name).loader.get_source(name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "numpy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            return True
    return False


def test_only_the_array_modules_import_numpy():
    # the simulator draws and sorts arrays; lst_inversion needs numpy's
    # longdouble scalars; every other module runs on Python floats
    assert [name for name in MODULES if _imports_numpy(name)] == ["quayside.lst_inversion", "quayside.sim_oracle"]
