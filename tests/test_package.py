import importlib

import pytest

import ldplab

LAYERS = ("expr", "model", "problems", "zvonkin", "simulate", "action", "ldp")


@pytest.mark.parametrize("layer", LAYERS)
def test_package_exports_each_layer_all(layer):
    """Every name a layer module declares public is the package's name for
    the same object."""
    module = importlib.import_module(f"ldplab.{layer}")
    for name in module.__all__:
        assert getattr(ldplab, name) is getattr(module, name), name


def test_layer_all_lists_are_disjoint():
    """No name is declared public by two layers, so no star import shadows another."""
    seen = {}
    for layer in LAYERS:
        for name in importlib.import_module(f"ldplab.{layer}").__all__:
            assert name not in seen, f"{name} in {seen.get(name)} and {layer}"
            seen[name] = layer
