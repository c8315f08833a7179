"""Command-line front end: build cases, verify tables and audits,
emit JSON or text reports.

Commands: graph, invariants, cox, reduce, verify, report. Output goes
to stdout or --out as UTF-8. Exit codes: 0 ok, 1 verification
mismatch, 2 usage error, 3 resource-cap error. Reports are byte-stable
for a fixed configuration; --timings adds wall-clock milliseconds and
is the one switch that breaks that stability.

Caps: --caps step=N bounds each reduction pass, not the whole trace, so
the nef pass and the basic pass of `reduce` and of the verify sweep get
N steps each. Every cap, from a flag, COXFORGE_CAP or the config file,
must be at least 1, and the cokernel cap at most
reduction.MAX_COKERNEL_CAP (40).
"""

import argparse
import itertools
import json
import os
import sys
import time

from . import reduction
from .cox import presentation_from_graph, verify_presentation
from .errors import (
    CoxforgeError,
    ParameterError,
    ResourceCapError,
    UnsupportedGraphError,
)
from .graphs import build_custom_tree, build_singularity
from .invariants import verify_invariant_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_GRID = 2000
DEFAULT_SEED = 20240
DEFAULT_CAPS = {
    "cokernel": reduction.DEFAULT_COKERNEL_CAP,
    "step": reduction.DEFAULT_STEP_CAP,
    "relation": None,
}
AUDIT_DEGREE_COUNT = 6


def parse_case(text):
    """Build the resolution graph named by a case string such as
    ``A3``, ``D5``, ``E7`` or ``custom:2,2,3``."""
    text = str(text).strip()
    if not text:
        raise ParameterError("empty case")
    if text.lower().startswith("custom:"):
        body = text.split(":", 1)[1]
        try:
            lengths = tuple(int(part) for part in body.split(",") if part.strip())
        except ValueError:
            raise ParameterError("branch lengths must be integers: %r" % body)
        if not lengths:
            raise ParameterError("custom case needs branch lengths")
        return build_custom_tree(lengths)
    family = text[0].upper()
    try:
        n = int(text[1:])
    except ValueError:
        raise ParameterError("cannot parse case %r" % text)
    return build_singularity(family, n)


def grid_sample(width, count, seed=DEFAULT_SEED, lo=-3, hi=3):
    """Deterministic sample of integer vectors in [lo, hi]^width. The
    full box is returned in lexicographic order when it fits in
    ``count``; otherwise a fixed-seed generator draws ``count``
    distinct cells."""
    span = hi - lo + 1
    if span ** width <= count:
        return [tuple(d) for d in itertools.product(range(lo, hi + 1), repeat=width)]
    out = []
    seen = set()
    state = seed & ((1 << 64) - 1)
    while len(out) < count:
        cell = []
        for _ in range(width):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            cell.append(lo + (state >> 33) % span)
        cell = tuple(cell)
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out


def _integer(value, what):
    """One integer setting: an int, or a string that parses as one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParameterError("%s needs an integer, got %r" % (what, value))


def _cap(key, value, what):
    """One cap setting: an integer of at least 1. A zero or negative cap
    would cut a reduction pass, an audit or a relation search off before
    it did any work. A cokernel cap above the audit limit would only
    fail once the first audit ran."""
    cap = _integer(value, what)
    if cap < 1:
        raise ParameterError("%s needs at least 1, got %d" % (what, cap))
    if key == "cokernel" and cap > reduction.MAX_COKERNEL_CAP:
        raise ParameterError(
            "%s needs at most %d, got %d" % (what, reduction.MAX_COKERNEL_CAP, cap)
        )
    return cap


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError("cannot read config %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ParameterError("config must be a JSON object")
    return data


def _parse_caps_flags(entries):
    caps = {}
    for entry in entries or ():
        for piece in entry.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ParameterError("caps entries look like key=value: %r" % piece)
            key, _, value = piece.partition("=")
            key = key.strip()
            if key not in DEFAULT_CAPS:
                raise ParameterError(
                    "unknown cap %r (known: %s)" % (key, ", ".join(sorted(DEFAULT_CAPS)))
                )
            caps[key] = _cap(key, value, "cap %r" % key)
    return caps


def resolve_settings(args, environ=None):
    """Merge caps, seed and grid size: flags override the environment,
    which overrides the config file, which overrides defaults."""
    environ = os.environ if environ is None else environ
    config = _load_config(args.config)
    caps = dict(DEFAULT_CAPS)
    config_caps = config.get("caps", {})
    if not isinstance(config_caps, dict):
        raise ParameterError("config caps must be an object")
    for key, value in config_caps.items():
        if key not in DEFAULT_CAPS:
            raise ParameterError("unknown cap %r in config" % key)
        caps[key] = _cap(key, value, "config cap %r" % key)
    env_cap = environ.get("COXFORGE_CAP")
    if env_cap is not None:
        caps["cokernel"] = _cap("cokernel", env_cap, "COXFORGE_CAP")
    caps.update(_parse_caps_flags(args.caps))
    grid = args.grid
    if grid is None:
        grid = _integer(config.get("grid", DEFAULT_GRID), "config grid")
    if grid < 1:
        # an empty sample would pass every check without doing any work
        raise ParameterError("grid needs at least 1 cell, got %d" % grid)
    seed = _integer(config.get("seed", DEFAULT_SEED), "config seed")
    return {"caps": caps, "grid": grid, "seed": seed}


def cmd_graph(graph, settings):
    payload = graph.to_dict()
    payload["intersection_matrix"] = [list(row) for row in graph.intersection_matrix()]
    payload["grading_matrix"] = [list(row) for row in graph.grading().matrix]
    payload["variables"] = list(graph.grading().variables)
    payload["negative_definite"] = graph.is_negative_definite()
    return payload, EXIT_OK


def cmd_invariants(graph, settings):
    report = verify_invariant_table(graph, relation_cap=settings["caps"]["relation"])
    return report, EXIT_OK if report["ok"] else EXIT_MISMATCH


def cmd_cox(graph, settings):
    report = verify_presentation(graph)
    return report, EXIT_OK if report["ok"] else EXIT_MISMATCH


def cmd_reduce(graph, degree, settings):
    caps = settings["caps"]
    trace = reduction.reduce(graph, degree, caps["step"])
    if trace.terminated:
        # only an audited trace needs the presentation, which a star
        # whose center has valence four or more does not have
        reduction.audit(trace, presentation_from_graph(graph), graph, caps["cokernel"])
    payload = trace.to_dict()
    payload["case"] = graph.label
    return payload, EXIT_OK if payload["ok"] else EXIT_MISMATCH


def _grid_cells(graph, settings):
    return grid_sample(len(graph.nodes), settings["grid"], settings["seed"])


def _termination_sweep(graph, cells, settings):
    max_steps = 0
    for d in cells:
        trace = reduction.reduce(graph, d, settings["caps"]["step"])
        ms = trace.measures
        if (
            not trace.terminated
            or not reduction.is_basic(trace.terminal, graph)
            or (graph.family == "D" and any(a < b for a, b in zip(ms, ms[1:])))
        ):
            return {"cells": len(cells), "ok": False, "failed_at": list(d)}
        max_steps = max(max_steps, len(trace.steps))
    return {"cells": len(cells), "ok": True, "max_steps": max_steps}


def _audit_sample(graph, cells, settings):
    caps = settings["caps"]
    reports = []
    ok = True
    for d in cells[:AUDIT_DEGREE_COUNT]:
        rep = reduction.full_equivalence_audit(
            graph, d, cap=caps["cokernel"], step_cap=caps["step"]
        )
        reports.append(
            {
                "initial": rep["initial"],
                "steps": len(rep["steps"]),
                "base_case": None if rep["base_case"] is None else rep["base_case"]["ok"],
                "ok": rep["ok"],
            }
        )
        ok = ok and rep["ok"]
    return {"degrees": reports, "ok": ok}


def _counterexample_section(graph, settings):
    caps = settings["caps"]
    audits = []
    any_failed = False
    for leaf in graph.basic_leaves():
        rep = reduction.audit_add_curve(graph, leaf, k=2, cap=caps["cokernel"])
        audits.append(rep)
        any_failed = any_failed or not rep["ok"]
    verdict = "rule-fails-as-predicted" if any_failed else "rule-holds-on-sample"
    return {"audits": audits, "verdict": verdict, "ok": True}


def _timed(sections, timings, name, fn):
    start = time.perf_counter()
    result = fn()
    timings[name] = int((time.perf_counter() - start) * 1000)
    sections[name] = result
    return result


def cmd_verify(graph, settings, with_timings):
    sections = {}
    timings = {}
    cells = _grid_cells(graph, settings)
    if graph.family is not None:
        _timed(sections, timings, "invariants", lambda: cmd_invariants(graph, settings)[0])
    _timed(sections, timings, "cox", lambda: cmd_cox(graph, settings)[0])
    if graph.is_negative_definite():
        _timed(sections, timings, "reduction", lambda: _termination_sweep(graph, cells, settings))
    else:
        # greedy reduction has no termination certificate off the
        # negative-definite lattice, so the sweep would only time out
        sections["reduction"] = {
            "skipped": "intersection form is not negative definite",
            "ok": True,
        }
    payload = {"case": graph.label, "sections": sections}
    if graph.family is not None:
        _timed(sections, timings, "audits", lambda: _audit_sample(graph, cells, settings))
    else:
        cex = _timed(
            sections, timings, "counterexample", lambda: _counterexample_section(graph, settings)
        )
        payload["verdict"] = cex["verdict"]
    ok = all(section["ok"] for section in sections.values())
    payload["ok"] = ok
    if with_timings:
        payload["timings"] = timings
    return payload, EXIT_OK if ok else EXIT_MISMATCH


def cmd_report(graph, settings, with_timings):
    sections = {}
    timings = {}
    _timed(sections, timings, "graph", lambda: cmd_graph(graph, settings)[0])
    if graph.family is not None:
        _timed(sections, timings, "invariants", lambda: cmd_invariants(graph, settings)[0])
    _timed(sections, timings, "cox", lambda: cmd_cox(graph, settings)[0])
    if graph.family is not None:
        cells = _grid_cells(graph, settings)
        _timed(sections, timings, "audits", lambda: _audit_sample(graph, cells, settings))
    else:
        _timed(
            sections, timings, "counterexample", lambda: _counterexample_section(graph, settings)
        )
    ok = all(section.get("ok", True) for section in sections.values())
    payload = {"case": graph.label, "sections": sections, "ok": ok}
    if with_timings:
        payload["timings"] = timings
    return payload, EXIT_OK if ok else EXIT_MISMATCH


def _render_text(payload):
    lines = []
    if "error" in payload:
        lines.append("error: %s" % payload["error"])
        lines.append("  message: %s" % payload["message"])
        if "partial" in payload:
            lines.append("  partial: %s" % json.dumps(payload["partial"], sort_keys=True))
    case = payload.get("case", payload.get("label"))
    if case is not None:
        lines.append("case %s" % case)
    if "negative_definite" in payload:
        lines.append(
            "  nodes: %d" % len(payload.get("nodes", ()))
        )
        lines.append(
            "  negative definite: %s" % ("yes" if payload["negative_definite"] else "no")
        )
    if "sections" in payload:
        for name in sorted(payload["sections"]):
            section = payload["sections"][name]
            if "skipped" in section:
                status = "skipped"
            else:
                status = "ok" if section.get("ok", True) else "FAIL"
            lines.append("  %s: %s" % (name, status))
    if "verdict" in payload:
        lines.append("  verdict: %s" % payload["verdict"])
    if "steps" in payload and "terminal" in payload:
        lines.append("  steps: %d" % len(payload["steps"]))
        lines.append("  terminal: %s" % payload["terminal"])
    if "ok" in payload:
        lines.append("ok" if payload["ok"] else "FAIL")
    return "\n".join(lines) + "\n"


def _emit(payload, args):
    if args.format == "text":
        text = _render_text(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


def _parse_degree(text, graph):
    try:
        degree = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError("degree must be comma-separated integers: %r" % text)
    if len(degree) != len(graph.nodes):
        raise ParameterError(
            "degree needs %d coordinates, got %d" % (len(graph.nodes), len(degree))
        )
    return degree


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxforge",
        description="Cox rings of ADE surface singularity resolutions: "
        "invariant tables, candidate presentations, reduction audits.",
    )
    parser.add_argument("command", choices=["graph", "invariants", "cox", "reduce", "verify", "report"])
    parser.add_argument("--case", required=True, help="A<n>, D<n>, E<n>, or custom:l1,l2,...")
    parser.add_argument("--degree", help="comma-separated multidegree (reduce only)")
    parser.add_argument("--grid", type=int, help="max sampled degree cells for verify")
    parser.add_argument(
        "--caps",
        action="append",
        metavar="KEY=N",
        help="override caps: cokernel, step (per reduction pass), relation "
        "(repeat or comma-separate)",
    )
    parser.add_argument("--config", help="JSON config file with caps/seed/grid")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--timings", action="store_true", help="include per-section milliseconds")
    return parser


def _run(args):
    """The payload and exit code of one command. A resource-cap error
    gives an error payload, with its partial result, and exit 3."""
    try:
        settings = resolve_settings(args)
        graph = parse_case(args.case)
        if args.command == "graph":
            return cmd_graph(graph, settings)
        if args.command == "invariants":
            return cmd_invariants(graph, settings)
        if args.command == "cox":
            return cmd_cox(graph, settings)
        if args.command == "reduce":
            if not args.degree:
                raise ParameterError("reduce needs --degree")
            return cmd_reduce(graph, _parse_degree(args.degree, graph), settings)
        if args.command == "verify":
            return cmd_verify(graph, settings, args.timings)
        return cmd_report(graph, settings, args.timings)
    except ResourceCapError as exc:
        payload = {"error": "resource-cap", "message": str(exc)}
        if exc.partial is not None:
            payload["partial"] = exc.partial
        return payload, EXIT_RESOURCE


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        payload, code = _run(args)
        _emit(payload, args)
    except (ParameterError, UnsupportedGraphError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except CoxforgeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_MISMATCH
    return code


if __name__ == "__main__":
    sys.exit(main())
