"""Every exported name resolves, so ``from holosim import *`` cannot fail on a stale entry,
and no function takes a numerical threshold: each bound is fixed where it is checked."""

import importlib
import inspect
import pkgutil

import holosim
from holosim import gates, holonomy
from holosim.formats import dumps

MODULES = [holosim] + [importlib.import_module(f"holosim.{info.name}")
                       for info in pkgutil.iter_modules(holosim.__path__)]


def test_every_exported_name_resolves():
    assert len(MODULES) > 1
    missing = [f"{module.__name__}.{name}" for module in MODULES
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_no_function_takes_a_threshold():
    knobs = {"tol", "cyclicity_tol", "min_singular", "unitary_tol", "indent"}
    found = [f"{module.__name__}.{name}({param})" for module in MODULES
             for name, obj in vars(module).items()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__
             for param in inspect.signature(obj).parameters if param in knobs]
    assert found == []
    assert list(inspect.signature(dumps).parameters) == ["value"]


def test_fixed_bounds():
    assert gates.CYCLIC_LEAKAGE == 1e-8
    assert holonomy.CERTIFY_PARALLEL_TRANSPORT == 1e-9
    assert holonomy.CERTIFY_DYNAMICAL_PHASE == 1e-9
    assert holonomy.CERTIFY_CYCLICITY == 1e-8
    assert holonomy.CERTIFY_CROSS_FIDELITY == 1.0 - 1e-6
    assert holonomy._WILSON_CYCLICITY == 1e-6
