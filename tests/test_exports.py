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
