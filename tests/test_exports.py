"""Each module's `__all__` names what it defines, and the package imports only those names."""

import ast
import importlib
import inspect
import pkgutil

import etale_kit


def _modules():
    for info in pkgutil.iter_modules(etale_kit.__path__):
        yield importlib.import_module(f"etale_kit.{info.name}")


def test_every_exported_name_resolves():
    missing = [f"{module.__name__}.{name}" for module in _modules()
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, missing


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(etale_kit))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"etale_kit.{node.module}")
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in module.__all__]
    assert not unlisted, unlisted


NUMPY_FREE = ("errors", "groupoid", "families", "cocycles", "inverse_semigroup", "mutate")
NUMPY_BACKED = {"cstar", "decomposition", "aut_group", "io", "selftest", "cli"}


def _imported_modules(tree):
    """Absolute names of every module a parsed etale_kit module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "etale_kit" + (f".{base}" if base else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_combinatorial_core_stays_numpy_free():
    banned = {f"etale_kit.{name}" for name in NUMPY_BACKED}
    offending = []
    for name in NUMPY_FREE:
        module = importlib.import_module(f"etale_kit.{name}")
        for imported in _imported_modules(ast.parse(inspect.getsource(module))):
            if imported.split(".")[0] == "numpy" or imported in banned:
                offending.append(f"{name} imports {imported}")
    assert not offending, offending
