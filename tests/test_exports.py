"""Every exported name resolves, so an export of a removed name fails here;
the optimizers reach curvature through its public names only; a layer's
parameters have one layout, built and read in ``network`` and ``curvature``;
an optimizer kind's facts live in its ``optim.KINDS`` entry only; and only
``taylor`` knows which of its forward states holds which layer's input."""

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


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reorders_parameters_by_column(name):
    # the (h_in + 1, h_out) blocks of network.layer_blocks are the only layout:
    # no module converts to or from a column-stacked copy with order="F"
    tree = ast.parse(inspect.getsource(importlib.import_module(f"pinnopt.{name}")))
    f_order = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword)
        and node.arg == "order"
        and isinstance(node.value, ast.Constant)
        and node.value.value == "F"
    ]
    assert not f_order


@pytest.mark.parametrize("name", MODULES)
def test_no_module_compares_with_an_optimizer_kind(name):
    # no module branches on a kind's name (optimizer == "engd", optimizer in
    # ("sgd", "adam")): what differs between kinds is read from optim.KINDS
    kinds = set(importlib.import_module("pinnopt.optim").OPTIMIZER_KINDS)
    tree = ast.parse(inspect.getsource(importlib.import_module(f"pinnopt.{name}")))

    def names_a_kind(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_a_kind(elt) for elt in node.elts)
        return isinstance(node, ast.Constant) and node.value in kinds

    compared = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(names_a_kind, [node.left, *node.comparators]))
    ]
    assert not compared


def test_taylor_defines_no_param_grad_matrix():
    # reading a record (the gradient block included) belongs to curvature
    tree = ast.parse(inspect.getsource(importlib.import_module("pinnopt.taylor")))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "param_grad_matrix" not in defined
    assert "param_grad_matrix" in importlib.import_module("pinnopt.curvature").__all__


# the helpers that index taylor_forward's states list, under their public and private names
STATE_LAYOUT_NAMES = {
    prefix + name for name in ("state_records", "linear_input_index", "linear_output_index") for prefix in ("", "_")
}


def _identifiers(tree) -> set:
    """Every name, attribute, import, definition and whole-string constant of a module's tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize("name", [m for m in MODULES if m != "taylor"])
def test_only_taylor_knows_its_state_layout(name):
    # taylor_backward returns the interior record, so no other module indexes the forward states
    tree = ast.parse(inspect.getsource(importlib.import_module(f"pinnopt.{name}")))
    assert not _identifiers(tree) & STATE_LAYOUT_NAMES


def test_the_record_is_paired_in_taylor_alone():
    taylor = importlib.import_module("pinnopt.taylor")
    assert not set(taylor.__all__) & STATE_LAYOUT_NAMES
    tree = ast.parse(inspect.getsource(importlib.import_module("pinnopt.curvature")))
    assert "layer_pairs" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
