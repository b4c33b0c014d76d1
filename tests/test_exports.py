"""Each module's `__all__` names what it defines, the package root imports
nothing, and numpy is loaded only by the layers that compute with it."""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import etale_kit
from etale_kit import io as kio
from etale_kit.cstar import AlgebraElement
from etale_kit.families import standard_corpus


def _modules():
    for info in pkgutil.iter_modules(etale_kit.__path__):
        yield importlib.import_module(f"etale_kit.{info.name}")


def test_every_exported_name_resolves():
    missing = [f"{module.__name__}.{name}" for module in _modules()
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, missing


def test_package_root_imports_nothing():
    tree = ast.parse(inspect.getsource(etale_kit))
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, imports
    statements = [ast.unparse(node) for node in tree.body[1:]]
    assert len(statements) == 1 and statements[0].startswith("__version__ = "), statements


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


# modules whose import-time statements must not load numpy: io and cli import
# the numpy-backed layers inside the functions that call them
NUMPY_ON_CALL = ("__init__", "io", "cli")


def _import_time_nodes(node):
    """Every node of a parsed module except those inside function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_root_io_and_cli_import_numpy_only_on_call():
    banned = {f"etale_kit.{name}" for name in NUMPY_BACKED - set(NUMPY_ON_CALL)}
    root = Path(etale_kit.__file__).parent
    offending = []
    for name in NUMPY_ON_CALL:
        tree = ast.parse((root / f"{name}.py").read_text())
        for node in _import_time_nodes(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for imported in _imported_modules(node):
                    if imported.split(".")[0] == "numpy" or imported in banned:
                        offending.append(f"{name} imports {imported}")
    assert not offending, offending


_CLI_CHILD = """
import contextlib, io, json, sys
from etale_kit import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_combinatorial_commands_run_without_numpy(tmp_path):
    corpus = dict(standard_corpus())
    paths = []
    for name in ("pair(2)", "group_bundle([2,1])+pair(2)"):
        paths.append(tmp_path / f"{len(paths)}.json")
        paths[-1].write_text(kio.canonical_json(kio.groupoid_to_doc(corpus[name])))
    element = tmp_path / "element.json"
    element.write_text(kio.canonical_json(
        kio.element_to_doc(AlgebraElement(corpus["pair(2)"], [1, 1, 1, 1]))))
    runs = [[command, str(path)] for path in paths
            for command in ("validate", "analyze", "bisections", "quotient", "aut")]
    runs.append(["norm", str(paths[0]), "--element", str(element)])
    child = subprocess.run([sys.executable, "-c", _CLI_CHILD, json.dumps(runs)],
                           capture_output=True, text=True, check=True)
    seen = json.loads(child.stdout)
    assert [code for _, code, _ in seen] == [0] * len(runs), seen
    assert [loaded for _, _, loaded in seen] == [False] * (len(runs) - 1) + [True], seen
