"""The benchmark's per-layer trace wraps coxforge functions by name; a
renamed or deleted function would break `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _ in _traced()])
def test_traced_name_resolves(module, path):
    obj = importlib.import_module("coxforge." + module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
