"""Command-line front end: build cases, verify tables and audits,
emit JSON or text reports.

Commands: graph, invariants, cox, reduce, verify, report. Output goes
to stdout or --out as UTF-8. Exit codes: 0 ok, 1 verification
mismatch, 2 usage error or an input too large for memory. Reports are
byte-stable for a fixed configuration; --timings adds wall-clock
milliseconds and is the one switch that breaks that stability.

Caps: --caps step=N bounds each reduction pass, not the whole trace, so
the nef pass and the basic pass of `reduce` and of verify's reduction
sweep (sections.sweep) get N steps each. Every cap and the grid, from
a flag or the config file, must be at least 1; a config value is
checked even when a flag overrides it. The cokernel audits are exact
counts and take no cap, and invariants.toric_relations bounds the
degree of its relation search itself, so `cokernel` and `relation` are
unknown caps.

parse_args reads a command and the options of OPTIONS, each in full or
by a unique prefix, with its value verbatim after `=` or next (`--degree
-1,0,0,0`). Every number is read by one rule, _ascii_int: ASCII digits,
maybe after a minus sign, on the command line (degree, case, --caps,
--grid) and in a config string (caps, grid, seed), where a JSON integer
also does. int() would take '1_0', ' +5' or other scripts' digits too.

verify and report build their sections through one function,
sections.cmd_checks: both run the invariants (A, D and E; skipped on a
custom tree), cox and audits or counterexample sections; verify adds
the reduction sweep, report a top-level graph key, the payload of
graph. No other command loads sections. The defaults of the step cap,
the grid and the seed are the package's.

A section that does not apply reads {"skipped": <reason>}, with no ok:
the invariants on a custom tree, cox and counterexample on a star of
four or more arms, the sweep off the negative definite graphs. The
exit code rests on the ok of the sections that ran; when none ran, the
text summary says that nothing was checked. On a star of four or more
arms, reduce exits 2 only when its trace has a step to audit.
"""

import sys
import types

from . import (
    DEFAULT_GRID, DEFAULT_SEED, DEFAULT_STEP_CAP, cox, graphs, invariants, reduction, sections)
from .errors import CoxforgeError, ParameterError, UnsupportedGraphError, require_int

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

DEFAULT_CAPS = {"step": DEFAULT_STEP_CAP}


def _ascii_int(text):
    """The integer ``text`` writes in ASCII digits, maybe after a minus
    sign, once stripped; int() also takes '_', '+' and other digits."""
    text = text.strip()
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def parse_case(text):
    """Build the resolution graph named by a case string such as
    ``A3``, ``D5``, ``E7`` or ``custom:2,2,3``."""
    text = str(text).strip()
    if not text:
        raise ParameterError("empty case")
    if text.lower().startswith("custom:"):
        body = text.split(":", 1)[1]
        try:
            lengths = tuple(map(_ascii_int, body.split(","))) if body.strip() else ()
        except ValueError:
            raise ParameterError("branch lengths must be integers: %r" % body)
        if not lengths:
            raise ParameterError("custom case needs branch lengths")
        return graphs.build_custom_tree(lengths)
    family = text[0].upper()
    try:
        n = _ascii_int(text[1:])
    except ValueError:
        raise ParameterError("cannot parse case %r" % text)
    return graphs.build_singularity(family, n)


def _integer(value, what):
    """One integer setting, from a flag or the config file alike: an
    int, or a string that ``_ascii_int`` reads."""
    if isinstance(value, str):
        try:
            value = _ascii_int(value)
        except ValueError:
            pass
    return require_int(value, what)


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
    import json
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
    grid = config_grid if args.grid is None else _integer(args.grid, "grid")
    for value in (config_grid, grid):
        if value < 1:
            # an empty sample would pass every check without doing any work
            raise ParameterError("grid needs at least 1 cell, got %d" % value)
    seed = _integer(config.get("seed", DEFAULT_SEED), "config seed")
    return {"caps": caps, "grid": grid, "seed": seed}


def cmd_reduce(graph, degree, settings):
    caps = settings["caps"]
    trace = reduction.reduce(graph, degree, caps["step"])
    if trace.terminated and trace.steps:
        # only a trace with steps to audit needs the presentation, which
        # a star whose center has valence four or more does not have
        reduction.audit(trace, cox.presentation_from_graph(graph), graph)
    payload = trace.to_dict()
    payload["case"] = graph.label
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
                status = "ok" if section["ok"] else "FAIL"
                if "verdict" in section:
                    status += " (%s)" % section["verdict"]
            lines.append("  %s: %s" % (name, status))
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
        import json
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
        degree = tuple(map(_ascii_int, text.split(",")))
    except ValueError:
        raise ParameterError("degree must be comma-separated integers: %r" % text)
    if len(degree) != len(graph.nodes):
        raise ParameterError(
            "degree needs %d coordinates, got %d" % (len(graph.nodes), len(degree))
        )
    return degree


COMMANDS = ("graph", "invariants", "cox", "reduce", "verify", "report")
# long option -> (attribute, metavar (None: a switch), choices (the first
# is the default), help); --caps keeps every value, the others their last
OPTIONS = {
    "--case": ("case", "CASE", None, "A<n>, D<n>, E<n>, or custom:l1,l2,... (required)"),
    "--degree": ("degree", "D", None, "comma-separated multidegree (reduce only)"),
    "--grid": ("grid", "N", None, "max sampled degree cells for verify"),
    "--caps": ("caps", "KEY=N", None, "override caps, repeat or comma-separate (known: %s)"
               % ", ".join(sorted(DEFAULT_CAPS))),
    "--config": ("config", "PATH", None, "JSON config file with caps/seed/grid"),
    "--format": ("format", "FORMAT", ("json", "text"), "json (the default) or text"),
    "--out": ("out", "PATH", None, "write output to this path instead of stdout"),
    "--timings": ("timings", None, None, "include per-section milliseconds"),
    "--help": ("help", None, None, "print this help and exit (also -h)"),
}


def _usage():
    rows = ("  %-18s %s" % ("%s %s" % (name, meta or ""), text)
            for name, (_, meta, _, text) in OPTIONS.items())
    return "usage: coxforge {%s} --case CASE [option ...]\n\noptions (%s):\n%s\n" % (
        ",".join(COMMANDS), "a unique prefix will do; --name=value or --name value",
        "\n".join(rows))


def parse_args(argv):
    """The namespace of one command line, or None when it asks for help.
    An option's value is taken verbatim: it may start with a minus sign."""
    values = {attr: (choices or [None])[0] if meta else False
              for attr, meta, choices, _ in OPTIONS.values()}
    values["caps"] = []
    commands = []
    argv = iter(argv)
    for arg in argv:
        if not arg.startswith("-"):
            commands.append(arg)
            continue
        arg, glued, value = arg.partition("=")
        arg = "--help" if arg == "-h" else arg
        names = [arg] if arg in OPTIONS else [
            name for name in OPTIONS if len(arg) > 2 and name.startswith(arg)]
        if len(names) != 1:
            raise ParameterError("%s option %s (%s)" % (
                "ambiguous" if names else "unknown", arg, ", ".join(names or OPTIONS)))
        attr, meta, choices, _ = OPTIONS[names[0]]
        if meta is None:
            if glued:
                raise ParameterError("%s takes no value" % names[0])
            if attr == "help":
                return None
            values[attr] = True
            continue
        value = value if glued else next(argv, None)
        if value is None or choices and value not in choices:
            raise ParameterError("%s needs %s" % (names[0], " or ".join(choices or ["a value"])))
        values[attr] = values[attr] + [value] if attr == "caps" else value
    if len(commands) != 1 or commands[0] not in COMMANDS:
        raise ParameterError("expected one command of %s, got %s" % (", ".join(COMMANDS), commands))
    if values["case"] is None:
        raise ParameterError("--case is required")
    return types.SimpleNamespace(command=commands[0], **values)


def _run(args):
    """The payload and exit code of one command."""
    settings = resolve_settings(args)
    graph = parse_case(args.case)
    if args.command == "graph":
        payload = graph.to_dict()
    elif args.command == "invariants":
        payload = invariants.verify_invariant_table(graph)
    elif args.command == "cox":
        payload = cox.verify_presentation(graph)
    elif args.command == "reduce":
        if not args.degree:
            raise ParameterError("reduce needs --degree")
        payload = cmd_reduce(graph, _parse_degree(args.degree, graph), settings)
    else:
        payload = sections.cmd_checks(graph, settings, args.command, args.timings)
    # the graph payload has no verdict of its own
    return payload, EXIT_OK if payload.get("ok", True) else EXIT_MISMATCH


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_usage())
            return EXIT_OK
        payload, code = _run(args)
        _emit(payload, args)
    except (ParameterError, UnsupportedGraphError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except MemoryError:
        # a case too large to build, such as A99999999999999
        sys.stderr.write("error: not enough memory for this input\n")
        return EXIT_USAGE
    except CoxforgeError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_MISMATCH
    return code


if __name__ == "__main__":
    sys.exit(main())
