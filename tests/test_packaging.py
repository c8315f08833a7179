"""The package keeps zero runtime dependencies: pyproject.toml declares
none, and every absolute import under src/coxforge names the package
itself or a standard-library module. Every module-level private name
under src/coxforge is read somewhere in the package, and every public
function or method is named in the package or by the benchmark."""

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


@pytest.mark.parametrize("module", ["importlib.resources", "fractions", "decimal"])
def test_importing_the_cli_leaves_a_module_unloaded(module):
    # run without site, which may import importlib.resources on its own
    code = "import sys, coxforge.cli; print(%r in sys.modules)" % module
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _names_read(tree):
    """Every name the module reads: loaded names, attributes and the
    names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


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


def test_every_public_function_is_named_outside_the_tests():
    # a public function or method that only tests call is dead code;
    # names in __init__.py are exports, not uses, and the benchmark's
    # traced names count as uses
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    used = {name for _, path, _ in _traced() for name in path.split(".")}
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
        if path.name != "__init__.py":
            used.update(_names_read(tree))
    for _, tree in _parsed(ROOT / "bench"):
        used.update(_names_read(tree))
    unnamed = [
        (module, qualname)
        for module, qualname, name in defined
        if not name.startswith("_") and name not in used
    ]
    assert unnamed == []
