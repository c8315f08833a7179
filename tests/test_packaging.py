"""The package keeps zero runtime dependencies: pyproject.toml declares
none, and every absolute import under src/coxforge names the package
itself or a standard-library module. Every module-level private name
under src/coxforge is read somewhere in the package, every name a
module imports is read in that module, and every public function,
method or class is named in the package or by the benchmark; the
definitions that only the benchmark's tracer keeps alive are a frozen
set. The library modules load lazily: each is registered on import, a
command runs only the modules it uses (only verify and report run
sections), the CLI loads no argparse and loads json only to read or
write JSON, a reduce that runs no linalg loads no math, only an E graph
loads the E tables, the package ships only Python files, and the CLI
run as __main__ runs once."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_tracing import _traced

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted((ROOT / "src" / "coxforge").rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "coxforge" and top not in sys.stdlib_module_names:
                    outside.append((path.name, name))
    assert outside == []


def _fresh(code, *args):
    """The stdout of ``code`` in a new interpreter without site, which
    may import importlib.resources on its own; a test in this process
    would see the modules that earlier tests loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


@pytest.mark.parametrize(
    "module",
    ["importlib.resources", "fractions", "decimal", "argparse", "gettext", "locale", "json"],
)
def test_importing_the_cli_leaves_a_module_unloaded(module):
    code = "import sys, coxforge.cli; print(%r in sys.modules)" % module
    assert _fresh(code).strip() == "False"


EXECUTED = """
import io, sys, types
from contextlib import redirect_stdout
import coxforge.cli
with redirect_stdout(io.StringIO()):
    coxforge.cli.main(sys.argv[1:])
print(" ".join(sorted(
    name.split(".")[1] for name, m in sys.modules.items()
    if name.startswith("coxforge.") and type(m) is types.ModuleType
)))
"""

LIBRARY = {"linalg", "diophantine", "rings", "graphs", "invariants", "cox", "reduction", "sections"}


@pytest.mark.parametrize(
    "argv,ran",
    [
        ("graph --case A4", {"graphs", "rings"}),
        ("cox --case custom:2,2,3", {"graphs", "rings", "cox"}),
        ("invariants --case D12", {"graphs", "rings", "linalg", "diophantine", "invariants"}),
        # an empty trace audits nothing, so it needs no presentation
        ("reduce --case D4 --degree=0,2,0,0", {"graphs", "rings", "reduction"}),
        ("verify --case A4", LIBRARY),
        ("reduce --case D4 --degree=-1,0,0,0",
         {"graphs", "rings", "cox", "diophantine", "linalg", "reduction"}),
        ("report --case D4", LIBRARY),
        # no invariants section off A, D and E
        ("report --case custom:2,2,3", LIBRARY - {"invariants"}),
    ],
)
def test_a_command_runs_only_the_modules_it_uses(argv, ran):
    # every library module is in sys.modules, but a lazy one that was
    # never used is still of LazyLoader's module subclass
    executed = set(_fresh(EXECUTED, *argv.split()).split())
    assert executed == {"cli", "errors"} | ran


# the exit code of a command, and whether it loaded a given module
LOADED = """
import io, sys
from contextlib import redirect_stdout
import coxforge.cli
with redirect_stdout(io.StringIO()):
    code = coxforge.cli.main(sys.argv[1:])
print(code, %r in sys.modules)
"""


@pytest.mark.parametrize(
    "argv,loaded",
    [
        ("graph --case A4 --format text", False),
        ("reduce --case D4 --degree=-1,0,0,0 --format text", False),
        # the E reference tables are a Python literal, not a JSON file
        ("cox --case E6 --format text", False),
        ("invariants --case E7 --format text", False),
        # the probe can fail: writing JSON loads json
        ("graph --case A4", True),
    ],
)
def test_json_is_loaded_only_to_read_or_write_json(argv, loaded):
    assert _fresh(LOADED % "json", *argv.split()).split() == ["0", str(loaded)]


@pytest.mark.parametrize(
    "argv,loaded",
    [
        # reduction reads no math; linalg, which an audit runs, does
        ("reduce --case D4 --degree=0,2,0,0 --format text", False),
        ("reduce --case D4 --degree=-1,0,0,0 --format text", True),
    ],
)
def test_a_reduce_that_runs_no_linalg_loads_no_math(argv, loaded):
    assert _fresh(LOADED % "math", *argv.split()).split() == ["0", str(loaded)]


@pytest.mark.parametrize(
    "argv,loaded",
    [("verify --case D5", False), ("invariants --case E6", True)],
)
def test_the_e_tables_load_only_on_an_e_graph(argv, loaded):
    assert _fresh(LOADED % "coxforge._golden_e", *argv.split()).split() == ["0", str(loaded)]


def test_the_package_ships_only_python_files():
    # the package opens no file of its own; bytecode caches are build
    # output, not part of the package
    package = ROOT / "src" / "coxforge"
    shipped = [p.relative_to(package).as_posix() for p in package.rglob("*")
               if p.is_file() and "__pycache__" not in p.parts]
    assert shipped and [name for name in shipped if not name.endswith(".py")] == []
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert "package-data" not in tomllib.load(fh)["tool"]["setuptools"]


def test_every_library_module_is_registered_on_import():
    code = "import sys, coxforge; print(*sorted(n for n in sys.modules if n.startswith('coxforge.')))"
    assert _fresh(code).split() == sorted(["coxforge." + name for name in LIBRARY | {"errors"}])


def test_every_public_name_resolves_and_no_other():
    code = """
import coxforge
for name in coxforge.__all__:
    getattr(coxforge, name)
try:
    coxforge.no_such_name
except AttributeError as exc:
    print("AttributeError", exc)
"""
    assert _fresh(code).strip() == "AttributeError module 'coxforge' has no attribute 'no_such_name'"


RUN_AS_MAIN = """
import io, runpy, sys
from contextlib import redirect_stdout
sys.argv = ["coxforge", *sys.argv[1:]]
out = io.StringIO()
with redirect_stdout(out):
    try:
        runpy.run_module("coxforge.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, "coxforge.cli" in sys.modules)
sys.stdout.write(out.getvalue())
"""


def _assert_runs_once_as_main(argv):
    # python -m coxforge.cli: runpy finds the CLI apart from sys.modules
    # and runs its body once, as __main__
    status, _, printed = _fresh(RUN_AS_MAIN, *argv).partition("\n")
    assert status == "0 False"
    expected = _fresh("import sys, coxforge.cli; sys.exit(coxforge.cli.main(sys.argv[1:]))", *argv)
    assert printed == expected


def test_the_cli_run_as_main_runs_once_and_prints_what_main_prints():
    _assert_runs_once_as_main(["graph", "--case", "A4"])


def test_report_run_as_main_runs_once_and_prints_what_main_prints():
    # report runs sections, which takes its graph key from the graph
    # itself and never imports coxforge.cli a second time
    _assert_runs_once_as_main(["report", "--case", "D4"])


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _names_read(tree, hidden=()):
    """Every name the module reads: loaded names but those in ``hidden``,
    attributes and the names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if node.id not in hidden:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _bound(tree):
    """Every name the module binds as a variable or parameter."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def _parsed(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_private_helper_is_referenced():
    defined = []
    used = []
    for path, tree in _parsed(ROOT / "src" / "coxforge"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.extend((path.name, name) for name in names if _is_private(name))
        used.extend(_names_read(tree))
    assert defined
    assert [(module, name) for module, name in defined if name not in used] == []


def _named_outside_the_tests():
    """Every name the package or the benchmark reads. Names in
    __init__.py are exports, not uses, the benchmark's traced names
    count as uses, and a local of the same name hides a bare read."""
    used = {name for _, path, _ in _traced() for name in path.split(".")}
    for path, tree in _parsed(ROOT / "src" / "coxforge"):
        if path.name != "__init__.py":
            used.update(_names_read(tree, _bound(tree)))
    for _, tree in _parsed(ROOT / "bench"):
        used.update(_names_read(tree, _bound(tree)))
    return used


def test_every_public_function_is_named_outside_the_tests():
    # a public function or method that only tests call is dead code
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for path, tree in _parsed(ROOT / "src" / "coxforge"):
        for node in tree.body:
            if isinstance(node, functions):
                defined.append((path.name, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined.extend(
                    (path.name, "%s.%s" % (node.name, item.name), item.name)
                    for item in node.body
                    if isinstance(item, functions)
                )
    used = _named_outside_the_tests()
    unnamed = [
        (module, qualname)
        for module, qualname, name in defined
        if not name.startswith("_") and name not in used
    ]
    assert unnamed == []


def test_only_these_definitions_are_kept_alive_by_the_tracer():
    # a traced definition whose only readers outside the tests are the
    # tracer and other such definitions has no caller; each one here
    # stays only while bench/tracing.TRACED names it
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    readers = {}
    for path, tree in _parsed(ROOT / "src" / "coxforge"):
        if path.name == "__init__.py":
            continue
        hidden = _bound(tree)
        units = []
        for node in tree.body:
            if isinstance(node, functions):
                units.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                units.extend((item.name, item) if isinstance(item, functions) else ("", item)
                             for item in node.body)
            else:
                units.append(("", node))
        for owner, node in units:
            for name in _names_read(node, hidden):
                readers.setdefault(name, set()).add(owner)
    for _, tree in _parsed(ROOT / "bench"):
        for name in _names_read(tree, _bound(tree)):
            readers.setdefault(name, set()).add("")
    dead = {path.split(".")[-1] for _, path, _ in _traced()}
    while True:
        kept = {name for name in dead if readers.get(name, set()) <= dead}
        if kept == dead:
            break
        dead = kept
    assert dead == {
        "int_inverse", "rank_sparse", "diagonalize", "graded_piece_basis", "monomials_of_degree",
    }


def test_every_public_class_is_named_outside_the_tests():
    # a public class that only tests build or read is dead code
    defined = [
        (path.name, node.name)
        for path, tree in _parsed(ROOT / "src" / "coxforge")
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]
    assert defined
    used = _named_outside_the_tests()
    assert [(module, name) for module, name in defined if name not in used] == []


def test_every_import_is_used():
    # the imports of __init__.py are re-exports
    unused = []
    for path, tree in _parsed(ROOT / "src" / "coxforge"):
        if path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused.extend((path.name, name) for name in bound if name not in read)
    assert unused == []
