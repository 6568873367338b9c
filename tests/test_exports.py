"""Every name a cinfstruct module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import cinfstruct

MODULES = sorted(
    "cinfstruct." + info.name for info in pkgutil.iter_modules(cinfstruct.__path__)
)


def test_every_module_is_found():
    assert {"cinfstruct.kernel", "cinfstruct.cli", "cinfstruct.linalg"} <= set(MODULES)


@pytest.mark.parametrize("name", ["cinfstruct"] + MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
