"""Every exported name resolves, so an export of a removed name fails here;
and the optimizers reach curvature through its public names only."""

import ast
import importlib
import inspect
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


def test_optim_reads_no_private_curvature_name():
    tree = ast.parse(inspect.getsource(importlib.import_module("pinnopt.optim")))
    private = sorted(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "curvature"
        and node.attr.startswith("_")
    )
    assert not private
