"""Command-line front end: build cases, verify tables and audits,
emit JSON or text reports.

Commands: graph, invariants, cox, reduce, verify, report. Output goes
to stdout or --out as UTF-8. Exit codes: 0 ok, 1 verification
mismatch, 2 usage error. Reports are byte-stable
for a fixed configuration; --timings adds wall-clock milliseconds and
is the one switch that breaks that stability.

Caps: --caps step=N bounds each reduction pass, not the whole trace, so
the nef pass and the basic pass of `reduce` and of verify's reduction
sweep (reduction.sweep) get N steps each. Every cap and the grid, from
a flag or the config file, must be at least 1; a config value is
checked even when a flag overrides it. The cokernel audits are exact
counts and take no cap, and invariants.toric_relations bounds the
degree of its relation search itself, so `cokernel` and `relation` are
unknown caps.
The --caps help lists the keys of DEFAULT_CAPS.

A --degree value may start with a minus sign: `--degree -1,0,0,0`.

verify and report build their sections through one function,
cmd_checks: both run the invariants (A, D and E only), cox and audits
or counterexample sections; verify adds the reduction sweep and the
top-level verdict, report the graph section.

verify and report show the cox and counterexample sections as skipped,
with the reason, on a star that no candidate relation covers (four or
more arms); the exit code rests on the sections that ran. When every
section was skipped, the text summary says that nothing was checked.
"""

import argparse
import itertools
import json
import sys
import time

from . import reduction
from .cox import presentation_from_graph, verify_presentation
from .errors import CoxforgeError, ParameterError, UnsupportedGraphError
from .graphs import build_custom_tree, build_singularity
from .invariants import verify_invariant_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

DEFAULT_GRID = 2000
DEFAULT_SEED = 20240
DEFAULT_CAPS = {"step": reduction.DEFAULT_STEP_CAP}
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
            lengths = tuple(int(part) for part in body.split(",")) if body.strip() else ()
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
    mask = (1 << 64) - 1
    factor, increment = 6364136223846793005, 1442695040888963407
    state = seed & mask
    # a dict keeps each distinct cell once, in the order first drawn
    cells = {}
    while len(cells) < count:
        cell = []
        for _ in range(width):
            state = (state * factor + increment) & mask
            cell.append(lo + (state >> 33) % span)
        cells[tuple(cell)] = None
    return list(cells)


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


def _cap(value, what):
    """One cap setting: an integer of at least 1. A zero or negative cap
    would cut a reduction pass off before it did any work."""
    cap = _integer(value, what)
    if cap < 1:
        raise ParameterError("%s needs at least 1, got %d" % (what, cap))
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
            caps[key] = _cap(value, "cap %r" % key)
    return caps


def resolve_settings(args):
    """Merge caps, seed and grid size: flags override the config file,
    which overrides defaults."""
    config = _load_config(args.config)
    for key in config:
        if key not in ("caps", "grid", "seed"):
            raise ParameterError("unknown setting %r in config" % key)
    caps = dict(DEFAULT_CAPS)
    config_caps = config.get("caps", {})
    if not isinstance(config_caps, dict):
        raise ParameterError("config caps must be an object")
    for key, value in config_caps.items():
        if key not in DEFAULT_CAPS:
            raise ParameterError("unknown cap %r in config" % key)
        caps[key] = _cap(value, "config cap %r" % key)
    caps.update(_parse_caps_flags(args.caps))
    # the config grid is checked even under --grid, as the config caps
    # are under --caps
    config_grid = _integer(config.get("grid", DEFAULT_GRID), "config grid")
    grid = config_grid if args.grid is None else args.grid
    for value in (config_grid, grid):
        if value < 1:
            # an empty sample would pass every check without doing any work
            raise ParameterError("grid needs at least 1 cell, got %d" % value)
    seed = _integer(config.get("seed", DEFAULT_SEED), "config seed")
    return {"caps": caps, "grid": grid, "seed": seed}


def cmd_graph(graph):
    payload = graph.to_dict()
    payload["intersection_matrix"] = [list(row) for row in graph.intersection_matrix()]
    payload["grading_matrix"] = [list(row) for row in graph.grading().matrix]
    payload["variables"] = list(graph.grading().variables)
    payload["negative_definite"] = graph.is_negative_definite()
    return payload


def cmd_reduce(graph, degree, settings):
    caps = settings["caps"]
    trace = reduction.reduce(graph, degree, caps["step"])
    if trace.terminated:
        # only an audited trace needs the presentation, which a star
        # whose center has valence four or more does not have
        reduction.audit(trace, presentation_from_graph(graph), graph)
    payload = trace.to_dict()
    payload["case"] = graph.label
    return payload


def _grid_cells(graph, settings):
    return grid_sample(len(graph.nodes), settings["grid"], settings["seed"])


def _audit_sample(graph, cells, step_cap):
    reports = []
    ok = True
    for d in cells[:AUDIT_DEGREE_COUNT]:
        rep = reduction.full_equivalence_audit(graph, d, step_cap)
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


def _counterexample_section(graph):
    audits = []
    any_failed = False
    for leaf in graph.basic_leaves():
        rep = reduction.audit_add_curve(graph, leaf, k=2)
        audits.append(rep)
        any_failed = any_failed or not rep["ok"]
    verdict = "rule-fails-as-predicted" if any_failed else "rule-holds-on-sample"
    return {"audits": audits, "verdict": verdict, "ok": True}


def _unless_unsupported(section, *args):
    """One section's report, or a visible skip with the reason when no
    candidate relation covers the graph."""
    try:
        return section(*args)
    except UnsupportedGraphError as exc:
        return {"skipped": str(exc), "ok": True}


def cmd_checks(graph, settings, command, with_timings):
    """The payload of verify or report (``command``), with each section
    timed. The grid cells are drawn before any section runs: always for
    verify, and for report only when the audits need them."""
    ade = graph.family is not None
    cells = _grid_cells(graph, settings) if ade or command == "verify" else None
    step_cap = settings["caps"]["step"]
    runs = []
    if command == "report":
        runs.append(("graph", cmd_graph, graph))
    if ade:
        runs.append(("invariants", verify_invariant_table, graph))
    runs.append(("cox", _unless_unsupported, verify_presentation, graph))
    if command == "verify":
        runs.append(("reduction", reduction.sweep, graph, cells, step_cap))
    if ade:
        runs.append(("audits", _audit_sample, graph, cells, step_cap))
    else:
        runs.append(("counterexample", _unless_unsupported, _counterexample_section, graph))
    sections = {}
    timings = {}
    for name, section, *args in runs:
        start = time.perf_counter()
        sections[name] = section(*args)
        timings[name] = int((time.perf_counter() - start) * 1000)
    ok = all(section.get("ok", True) for section in sections.values())
    payload = {"case": graph.label, "sections": sections, "ok": ok}
    if command == "verify" and "verdict" in sections.get("counterexample", {}):
        payload["verdict"] = sections["counterexample"]["verdict"]
    if with_timings:
        payload["timings"] = timings
    return payload


def _render_text(payload):
    lines = []
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
        verdict = "ok" if payload["ok"] else "FAIL"
        sections = payload.get("sections")
        if sections and all("skipped" in section for section in sections.values()):
            # the verdict of a run whose every section was skipped certifies nothing
            verdict += " (nothing checked: every section was skipped)"
        lines.append(verdict)
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
        help="override caps, repeat or comma-separate (known: %s)"
        % ", ".join(sorted(DEFAULT_CAPS)),
    )
    parser.add_argument("--config", help="JSON config file with caps/seed/grid")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--timings", action="store_true", help="include per-section milliseconds")
    return parser


def _glue_negative_degree(argv):
    """argv with ``--degree -1,0,0,0`` read as ``--degree=-1,0,0,0``:
    argparse takes a value that starts with a minus sign for an option.
    The flag may be abbreviated, as argparse allows."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--degree".startswith(flag) and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _run(args):
    """The payload and exit code of one command."""
    settings = resolve_settings(args)
    graph = parse_case(args.case)
    if args.command == "graph":
        payload = cmd_graph(graph)
    elif args.command == "invariants":
        payload = verify_invariant_table(graph)
    elif args.command == "cox":
        payload = verify_presentation(graph)
    elif args.command == "reduce":
        if not args.degree:
            raise ParameterError("reduce needs --degree")
        payload = cmd_reduce(graph, _parse_degree(args.degree, graph), settings)
    else:
        payload = cmd_checks(graph, settings, args.command, args.timings)
    # the graph payload has no verdict of its own
    return payload, EXIT_OK if payload.get("ok", True) else EXIT_MISMATCH


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_degree(sys.argv[1:] if argv is None else argv))
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
