"""The benchmark's per-layer trace wraps coxforge functions by name; a
renamed or deleted function would break `bench/run.py --trace 1`."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# `bench/run.py --trace 1` imports coxforge.cli, installs the tracer, runs
# one command and uninstalls it; run here in a fresh process, so that no
# other test has loaded a module first
CONTRACT = r"""
import importlib.util, io, json, sys, types
from contextlib import redirect_stdout

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

import coxforge.cli

missing = [m for m, _, _ in tracing.TRACED if "coxforge." + m not in sys.modules]
tracer = tracing.Tracer()
tracer.install()
try:
    with redirect_stdout(io.StringIO()):
        code = coxforge.cli.main(["graph", "--case", "A4"])
finally:
    patches = list(tracer._patches)
    tracer.uninstall()
summary = tracer.summary()
holders = [m for n, m in sys.modules.items() if n.startswith("coxforge")]
holders.append(sys.modules["coxforge.graphs"].ResolutionGraph)
left = [
    "%s.%s" % (getattr(h, "__name__", h), key)
    for h in holders
    for key, value in vars(h).items()
    if getattr(value, "__qualname__", "").startswith("Tracer._wrap")
]
print(json.dumps({
    "missing": missing,
    "code": code,
    "spans": summary["tracing.spans"],
    "main_calls": summary["cli.main.calls"],
    "parse_case_calls": summary["cli.parse_case.calls"],
    "patches": len(patches),
    "restored": all(getattr(obj, key) is original for obj, key, original in patches),
    "originals_in_coxforge": all(
        getattr(original, "__module__", "").startswith("coxforge") for _, _, original in patches
    ),
    "wrappers_left": left,
}))
"""


def test_tracer_contract_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(TRACING.parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", CONTRACT, str(TRACING)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    assert got["missing"] == []
    assert got["code"] == 0
    assert got["spans"] > 0
    assert got["main_calls"] == got["parse_case_calls"] == 1
    assert got["patches"] >= len(_traced())
    assert got["restored"] is True
    assert got["originals_in_coxforge"] is True
    assert got["wrappers_left"] == []
