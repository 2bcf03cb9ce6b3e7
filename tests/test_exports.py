"""The package exports its library modules' ``__all__`` and nothing else, every exported name resolves, so
``from holosim import *`` cannot fail on a stale entry, every public name has a reader outside the tests, and
no function takes a numerical threshold: each bound is fixed where it is checked."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import holosim
from holosim import chain, compiler, gates, holonomy, linalg, pulses
from holosim.formats import dumps

from test_traced_names import load_tracer

MODULES = [holosim] + [importlib.import_module(f"holosim.{info.name}")
                       for info in pkgutil.iter_modules(holosim.__path__)]
ROOT = Path(__file__).resolve().parents[1]
# the modules whose ``__all__`` the package re-exports, in its import order
LIBRARY = [linalg, chain, pulses, gates, holonomy, compiler]


def test_the_package_exports_its_library_modules_all():
    assert holosim.__all__ == ["__version__"] + [name for module in LIBRARY for name in module.__all__]


def test_no_name_is_exported_twice():
    # a later star import would silently shadow an earlier module's name
    assert len(set(holosim.__all__)) == len(holosim.__all__)


def test_each_package_name_is_its_modules_object():
    differ = [f"{module.__name__}.{name}" for module in LIBRARY for name in module.__all__
              if getattr(holosim, name) is not getattr(module, name)]
    assert differ == []


def public_names(module) -> set[str]:
    """The module's ``__all__`` and every name without a leading underscore that a top-level def, class or
    assignment of its source binds."""
    names = set(module.__all__)
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store))
    return {name for name in names if not name.startswith("_")}


def test_every_exported_name_resolves():
    assert len(MODULES) > 1
    missing = [f"{module.__name__}.{name}" for module in MODULES
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_exported_name_has_a_reader():
    # every public name, exported or not, is read as a Name or an Attribute (not in a string) by the package's
    # modules, the demos or the benchmark, or traced by the benchmark; the package __init__ only re-exports,
    # and a name only tests read is not public
    sources = [path for path in (ROOT / "src" / "holosim").glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = {name for _, name, _ in load_tracer().TRACED}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(sources) > 10
    public = {f"{module.__name__}.{name}": name for module in MODULES for name in public_names(module)}
    assert len(public) > 100  # the scan finds the names outside each __all__ too
    unread = [qualified for qualified, name in public.items() if name not in read]
    assert unread == []


def test_no_function_takes_a_threshold():
    knobs = {"tol", "tol_scale", "cyclicity_tol", "min_singular", "unitary_tol", "indent"}
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
