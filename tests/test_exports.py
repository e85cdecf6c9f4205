"""Every exported name resolves, so an export of a removed name fails here."""

import importlib
import pkgutil

import pytest

import pinnopt

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pinnopt.__path__) if info.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in pinnopt.__all__ if not hasattr(pinnopt, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pinnopt.{name}")
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
