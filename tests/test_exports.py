"""The package's public names: every module's ``__all__`` and what ``dpnets`` re-exports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import dpnets

MODULES = [info.name for info in pkgutil.iter_modules(dpnets.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"dpnets.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    imports = [node for node in ast.parse(inspect.getsource(dpnets)).body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        exported = importlib.import_module(f"dpnets.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # an import that a refactor leaves behind is neither read nor exported
    module = importlib.import_module(f"dpnets.{name}")
    tree = ast.parse(inspect.getsource(module))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(module.__all__)) == []


RELU_CORE_PRIVATE = {"_sl", "_si", "_tl", "_ti", "_w", "_bias_arrays", "_compiled", "_from_arrays"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "relu_core"])
def test_only_relu_core_reads_a_network_private_arrays(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(f"dpnets.{name}")))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(read & RELU_CORE_PRIVATE) == []



def test_every_private_helper_is_used():
    # a module-level private name that a refactor leaves behind is read on no other line of the package
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"dpnets.{name}"))) for name in MODULES}
    defined = set()
    for name, tree in trees.items():
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", node)]:
                label = getattr(target, "name", getattr(target, "id", ""))
                if label.startswith("_") and not label.startswith("__"):
                    defined.add((name, node.lineno, label))
    read = {
        (name, node.lineno, label)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        for label in (getattr(node, "id", None), getattr(node, "attr", None),
                      node.name if isinstance(node, ast.alias) else None)
        if label
    }
    orphans = [
        f"{name}.{label}" for name, line, label in sorted(defined)
        if not any(other[2] == label and other[:2] != (name, line) for other in read)
    ]
    assert orphans == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "relu_core"])
def test_only_relu_core_steps_a_network(name):
    # a loop that evaluates the same network on every pass steps it by hand: ReluNetwork.run is that loop
    tree = ast.parse(inspect.getsource(importlib.import_module(f"dpnets.{name}")))
    stepped = []
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.While)):
            bound = {node.id for node in ast.walk(loop)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            stepped += [
                f"line {call.lineno}: {ast.unparse(call.func)}"
                for call in ast.walk(loop)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "evaluate"
                and not {node.id for node in ast.walk(call.func.value) if isinstance(node, ast.Name)} & bound
            ]
    assert stepped == []


def test_no_co_builder_loops_over_min_trees():
    # one min_reduce_many call runs every tree of a network; a loop around it pays its fixed cost per pass
    tree = ast.parse(inspect.getsource(importlib.import_module("dpnets.co_builders")))
    looped = [
        f"line {call.lineno}"
        for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and "min_reduce_many" in {getattr(call.func, "id", None), getattr(call.func, "attr", None)}
    ]
    assert looped == []
