"""Every name a quayside module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import quayside

MODULES = sorted(m.name for m in pkgutil.iter_modules(quayside.__path__, "quayside."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
