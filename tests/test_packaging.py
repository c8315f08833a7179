"""The package keeps zero runtime dependencies: pyproject.toml declares
none, and every absolute import under src/coxforge names the package
itself or a standard-library module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_importing_the_cli_leaves_importlib_resources_unloaded():
    # run without site, which may import importlib.resources on its own
    code = "import sys, coxforge.cli; print('importlib.resources' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
