"""Each module's `__all__` names what it defines and what is used outside it,
the package root imports nothing, numpy is loaded only by the layers that
compute with it, and each CLI command loads only the layers it calls."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import etale_kit
from etale_kit import io as kio
from etale_kit.decomposition import HomMatrix, quotient_hom
from etale_kit.families import cyclic_groupoid, pair_groupoid, standard_corpus


def _modules():
    for info in pkgutil.iter_modules(etale_kit.__path__):
        yield importlib.import_module(f"etale_kit.{info.name}")


def test_every_exported_name_resolves():
    missing = [f"{module.__name__}.{name}" for module in _modules()
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, missing


REPO = Path(__file__).resolve().parents[1]


def _words(path: Path) -> set[str]:
    return set(re.findall(r"\w+", path.read_text()))


def _annotated(tree: ast.Module, exported: set[str]) -> set[str]:
    """The words of the return and field annotations of the exported names."""
    annotations = []
    for node in tree.body:
        if getattr(node, "name", None) not in exported:
            continue
        if isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, ast.ClassDef):
            annotations += [item.annotation for item in node.body
                            if isinstance(item, ast.AnnAssign)]
            annotations += [item.returns for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    return {word for a in annotations if a is not None
            for word in re.findall(r"\w+", ast.unparse(a))}


def test_every_exported_name_has_a_caller_outside_its_module():
    """A name in `__all__` is referenced by another module of the package,
    by the benchmark under perfbench/ or by bench_curves.py; or it appears
    in a return or field annotation of another exported name of its module;
    or README.md names it."""
    src = Path(etale_kit.__file__).parent
    callers = [*src.glob("*.py"), *(REPO / "perfbench").iterdir(), REPO / "bench_curves.py"]
    words = {path: _words(path) for path in callers if path.is_file()}
    readme = _words(REPO / "README.md")
    unused = []
    for module in _modules():
        path = Path(module.__file__)
        exported = set(getattr(module, "__all__", ()))
        used = readme | _annotated(ast.parse(path.read_text()), exported).union(
            *(w for caller, w in words.items() if caller != path))
        unused += [f"{module.__name__}.{name}" for name in sorted(exported - used)]
    assert not unused, unused


def test_package_root_imports_nothing():
    tree = ast.parse(inspect.getsource(etale_kit))
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, imports
    statements = [ast.unparse(node) for node in tree.body[1:]]
    assert len(statements) == 1 and statements[0].startswith("__version__ = "), statements


NUMPY_FREE = ("errors", "groupoid", "hom_search", "families", "cocycles", "inverse_semigroup",
              "mutate")
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


def test_groupoid_imports_the_search_only_on_call():
    """Loading `groupoid`, as every command does, does not load the
    homomorphism search; the calls that search import it."""
    tree = ast.parse(Path(etale_kit.__file__).with_name("groupoid.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    at_load = {name for node in _import_time_nodes(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for name in _imported_modules(node)}
    on_call = {name for node in imports for name in _imported_modules(node)} - at_load
    assert "etale_kit.hom_search" in on_call and "etale_kit.hom_search" not in at_load


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
    element.write_text(kio.canonical_json({"coeff": [[1, 0]] * 4}))
    runs = [[command, str(path)] for path in paths
            for command in ("validate", "analyze", "bisections", "quotient", "aut")]
    runs.append(["norm", str(paths[0]), "--element", str(element)])
    child = subprocess.run([sys.executable, "-c", _CLI_CHILD, json.dumps(runs)],
                           capture_output=True, text=True, check=True)
    seen = json.loads(child.stdout)
    assert [code for _, code, _ in seen] == [0] * len(runs), seen
    assert [loaded for _, _, loaded in seen] == [False] * (len(runs) - 1) + [True], seen


PACKAGE = {f"etale_kit.{info.name}" for info in pkgutil.iter_modules(etale_kit.__path__)}
# what every command needs; each command imports the other layers it calls
CLI_AT_IMPORT = {"etale_kit.errors", "etale_kit.io", "etale_kit.groupoid"}


def test_cli_imports_only_errors_io_and_groupoid_at_load():
    tree = ast.parse(Path(etale_kit.__file__).with_name("cli.py").read_text())
    imported = {name for node in _import_time_nodes(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _imported_modules(node)}
    assert imported & PACKAGE == CLI_AT_IMPORT


_FRESH_CHILD = """
import contextlib, io, json, sys
from etale_kit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("etale_kit."))]))
"""

LOADED_BY_EVERY_COMMAND = {"etale_kit.cli", *CLI_AT_IMPORT}


def test_each_command_loads_only_the_layers_it_calls(tmp_path):
    r2 = pair_groupoid(2)
    docs = {"r2": kio.groupoid_to_doc(r2), "ones": {"coeff": [[1, 0]] * 4},
            "sign": kio.hom_to_doc(HomMatrix(r2, r2, np.diag([1, 1, -1, -1]).astype(complex))),
            "collapse": kio.hom_to_doc(quotient_hom(cyclic_groupoid(2)))}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(kio.canonical_json(doc))
    r2_path, ones, sign, collapse = (str(tmp_path / f"{name}.json") for name in docs)
    combinatorial = {"etale_kit.cocycles", "etale_kit.families", "etale_kit.inverse_semigroup"}
    search = "etale_kit.hom_search"
    runs = [
        (["validate", r2_path], combinatorial | {search}),
        (["analyze", r2_path], combinatorial),
        (["quotient", r2_path], combinatorial | {search}),
        (["aut", r2_path], {"etale_kit.inverse_semigroup"}),
        (["bisections", r2_path], {"etale_kit.cocycles"}),
        (["norm", r2_path, "--element", ones], {"etale_kit.inverse_semigroup"}),
        (["decompose", "--hom", sign], {"etale_kit.inverse_semigroup"}),
        (["rigidity", "--hom", collapse], {"etale_kit.inverse_semigroup"}),
        (["faut", r2_path, "--hom", sign], {"etale_kit.inverse_semigroup"}),
    ]
    for argv, unloaded in runs:
        child = subprocess.run([sys.executable, "-c", _FRESH_CHILD, json.dumps(argv)],
                               capture_output=True, text=True, check=True)
        code, loaded = json.loads(child.stdout)
        assert code == 0, (argv, child.stderr)
        assert LOADED_BY_EVERY_COMMAND <= set(loaded), (argv, loaded)
        assert not unloaded & set(loaded), (argv, loaded)
        # analyze counts the automorphisms and aut lists them
        assert argv[0] not in ("analyze", "aut") or search in loaded, (argv, loaded)


def test_only_the_two_id_helpers_decide_what_an_int_is():
    """`groupoid._int_type` is read only inside `_ids` and `_int`, which every
    id and count check of the package calls."""
    users = set()
    for path in Path(etale_kit.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Name) and inner.id == "_int_type"
                        or isinstance(inner, ast.alias) and inner.name == "_int_type"):
                    users.add((path.stem, getattr(node, "name", None)))
    assert users == {("groupoid", "_ids"), ("groupoid", "_int")}, users
