import hashlib
import json
from pathlib import Path

import pytest

from coxforge import cli, reduction, sections
from coxforge.errors import ParameterError, UnsupportedGraphError
from coxforge.graphs import ResolutionGraph


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


VERIFY_DIGESTS = json.loads((Path(__file__).parent / "data" / "verify_digests.json").read_text())
COMMAND_DIGESTS = json.loads((Path(__file__).parent / "data" / "command_digests.json").read_text())


def run_frozen(capsys, argv):
    # tests/data/verify_digests.json holds the SHA-256 of the stdout of
    # these commands, so any change to a byte of it shows; text output
    # comes back as it is, JSON parsed
    code, out = run(capsys, argv)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[" ".join(argv)]
    return code, out if "text" in argv else json.loads(out)


def test_graph_command(capsys):
    code, payload = run_json(capsys, ["graph", "--case", "D4"])
    assert code == 0
    assert payload["label"] == "D4"
    assert len(payload["nodes"]) == 4
    assert payload["negative_definite"] is True
    assert len(payload["intersection_matrix"]) == 4
    assert payload["variables"][:3] == ["x1", "x2", "x3"]


def test_graph_counterexample_tree_is_not_definite(capsys):
    code, payload = run_json(capsys, ["graph", "--case", "custom:2,2,3"])
    assert code == 0
    assert payload["negative_definite"] is False
    assert len(payload["nodes"]) == 8


def test_invariants_command(capsys):
    code, payload = run_json(capsys, ["invariants", "--case", "A4"])
    assert code == 0
    assert payload["ok"] is True
    assert [g["name"] for g in payload["generators"]] == ["Z1", "Z2", "W"]
    assert payload["relations"]["computed"] == ["W^5 = Z1*Z2"]


def test_invariants_rejects_custom(capsys):
    code, out = run(capsys, ["invariants", "--case", "custom:2,2,3"])
    assert code == 2


def test_cox_command(capsys):
    code, payload = run_json(capsys, ["cox", "--case", "D5"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["relation"] == "x2^2*y2 + x1^2*y1 + x4^3*y3*y4^2"
    assert len(payload["cuts"]) == 3


def test_reduce_command(capsys):
    code, payload = run_json(capsys, ["reduce", "--case", "D4", "--degree", "0,-1,0,0"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["terminal"] == [0, 1, 0, 0]
    assert len(payload["steps"]) == 6
    for step in payload["steps"]:
        assert step["actual_dim"] == step["expected_dim"] == 0


def test_reduce_reports_step_cap_exhaustion(capsys):
    code, payload = run_json(
        capsys,
        ["reduce", "--case", "D4", "--degree=-3,-3,-3,-3", "--caps", "step=3"],
    )
    assert code == 1
    assert payload["terminated"] is False
    assert payload["ok"] is False
    assert len(payload["steps"]) == 3
    assert all(s["actual_dim"] is None for s in payload["steps"])


@pytest.mark.parametrize("degree", ["0,0,0,-1,0", "0,0,0,2,0", "0,1,0,0,0"])
def test_reduce_audits_on_a5_are_exact(capsys, degree):
    # the highest standard monomial of these pieces has total degree 40,
    # so a count cut off at a total-degree cap of 40 cannot settle
    code, payload = run_json(capsys, ["reduce", "--case", "A5", "--degree=" + degree])
    assert code == 0
    assert payload["ok"] is True
    assert all(s["actual_dim"] == s["expected_dim"] for s in payload["steps"])


@pytest.mark.parametrize("degree", ["-1,0,0,0", "-3,-3,-3,-3", "0,-1,0,0", "-1,0,0"])
def test_a_degree_with_a_leading_minus_reads_like_the_glued_spelling(capsys, degree):
    # an option's value is read verbatim, minus sign and all; the last
    # degree has too few coordinates, which exits 2 either way
    def spelled(*flag):
        code = cli.main(["reduce", "--case", "D4", *flag])
        return code, capsys.readouterr()

    glued = spelled("--degree=" + degree)
    assert glued[0] == (2 if degree == "-1,0,0" else 0)
    assert spelled("--degree", degree) == glued
    assert spelled("--deg", degree) == glued


PARSED = {
    "command": "reduce", "case": "D4", "degree": None, "grid": None, "caps": [],
    "config": None, "format": "json", "out": None, "timings": False, "help": False,
}


@pytest.mark.parametrize(
    "argv,parsed",
    [
        (["--case", "D4", "reduce"], {}),
        (["--format", "text", "--case=D4", "reduce"], {"format": "text"}),
        (["reduce", "--case", "D4", "--degree=-1,0,0,0"], {"degree": "-1,0,0,0"}),
        (["reduce", "--case", "D4", "--degree", "-1,0,0,0"], {"degree": "-1,0,0,0"}),
        (["reduce", "--case", "D4", "--deg", "-1,0,0,0"], {"degree": "-1,0,0,0"}),
        (["reduce", "--case", "D4", "--form", "text", "--tim"], {"format": "text", "timings": True}),
        (["reduce", "--case", "D4", "--timings"], {"timings": True}),
        (["reduce", "--caps", "step=3", "--case", "D4", "--caps=step=4,step=5"],
         {"caps": ["step=3", "step=4,step=5"]}),
        (["reduce", "--case", "A1", "--grid", "5", "--case", "D4", "--grid=-7"], {"grid": "-7"}),
        (["reduce", "--case", "D4", "--format", "text", "--format", "json"], {}),
        # a value is verbatim, even when it spells an option
        (["reduce", "--case", "D4", "--out", "--help", "--config="], {"out": "--help", "config": ""}),
    ],
)
def test_parse_args_reads_each_spelling(argv, parsed):
    assert vars(cli.parse_args(argv)) == dict(PARSED, **parsed)


def test_repeated_and_joined_caps_apply_in_order():
    args = cli.parse_args(["verify", "--case", "D4", "--caps", "step=3,step=4", "--caps=step=5"])
    assert cli.resolve_settings(args)["caps"] == {"step": 5}
    args = cli.parse_args(["verify", "--case", "D4", "--caps=step=5", "--caps", "step=3,step=4"])
    assert cli.resolve_settings(args)["caps"] == {"step": 4}


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_prints_the_usage_from_the_option_table(capsys, flag):
    assert cli.parse_args(["graph", flag, "--case"]) is None
    assert cli.main([flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: coxforge {%s} " % ",".join(cli.COMMANDS))
    for name, (_, metavar, _, text) in cli.OPTIONS.items():
        assert "%s %s" % (name, metavar or "") in captured.out
        assert text in captured.out
    assert all(key in captured.out for key in cli.DEFAULT_CAPS)


COMMAND_LIST = "graph, invariants, cox, reduce, verify, report"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bogus", "--case", "D4"], "expected one command of %s, got ['bogus']" % COMMAND_LIST),
        (["graph", "cox", "--case", "D4"],
         "expected one command of %s, got ['graph', 'cox']" % COMMAND_LIST),
        (["--case", "D4"], "expected one command of %s, got []" % COMMAND_LIST),
        (["graph"], "--case is required"),
        (["graph", "--case", "D4", "--format", "xml"], "--format needs json or text"),
        (["graph", "--c", "D4"], "ambiguous option --c (--case, --caps, --config)"),
        (["graph", "--ca", "D4"], "ambiguous option --ca (--case, --caps)"),
        (["graph", "--case", "D4", "--bogus"], "unknown option --bogus (%s)" % ", ".join(cli.OPTIONS)),
        # not a prefix of --timings
        (["graph", "--case", "D4", "--time"], "unknown option --time (%s)" % ", ".join(cli.OPTIONS)),
        (["graph", "--case", "D4", "--"], "unknown option -- (%s)" % ", ".join(cli.OPTIONS)),
        (["graph", "--case", "D4", "--timings=1"], "--timings takes no value"),
        (["graph", "--case", "D4", "--out"], "--out needs a value"),
        (["graph", "--out", "x.json", "--case"], "--case needs a value"),
    ],
)
def test_a_malformed_command_line_gives_one_error_line(capsys, argv, message):
    with pytest.raises(ParameterError):
        cli.parse_args(argv)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_reduce_usage_errors(capsys):
    assert cli.main(["reduce", "--case", "D4"]) == 2
    assert cli.main(["reduce", "--case", "D4", "--degree", "1,0,0"]) == 2
    assert cli.main(["reduce", "--case", "D4", "--degree", "a,b,c,d"]) == 2


@pytest.mark.parametrize("degree,exit_code", [("0,0,0,0,0", 0), ("0,1,0,0,0", 0), ("1,0,0,0,0", 2)])
def test_reduce_on_a_four_arm_star_needs_a_relation_only_to_audit(capsys, degree, exit_code):
    # no candidate relation covers a valence-four center, so only a trace
    # with a step to audit (here one ShiftToLeaf) is refused
    code = cli.main(["reduce", "--case", "custom:1,1,1,1", "--degree=" + degree])
    captured = capsys.readouterr()
    assert code == exit_code
    if exit_code:
        assert captured.out == ""
        assert captured.err == "error: no candidate relation at a node of valence 4\n"
    else:
        payload = json.loads(captured.out)
        assert payload["steps"] == []
        assert payload["terminal"] == [int(c) for c in degree.split(",")]
        assert payload["ok"] is True
        assert captured.err == ""


@pytest.mark.parametrize("case", ["A99999999999999", "custom:99999999999999,1,1"])
def test_a_case_too_large_to_build_exits_2(capsys, case):
    # the node tuple of 10^14 entries is refused at once, with no memory
    # taken, and the MemoryError becomes a usage error
    code = cli.main(["graph", "--case", case])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: not enough memory for this input\n"


def test_the_default_step_cap_is_reductions():
    assert cli.DEFAULT_CAPS == {"step": reduction.DEFAULT_STEP_CAP}


def test_the_default_grid_and_seed_are_the_sections():
    assert (cli.DEFAULT_GRID, cli.DEFAULT_SEED) == (sections.DEFAULT_GRID, sections.DEFAULT_SEED)


def test_verify_command(capsys):
    code, payload = run_json(capsys, ["verify", "--case", "D4", "--grid", "200"])
    assert code == 0
    assert payload["ok"] is True
    sections = payload["sections"]
    assert sections["invariants"]["ok"]
    assert sections["cox"]["ok"]
    assert sections["reduction"]["ok"]
    assert sections["reduction"]["cells"] == 200
    assert sections["audits"]["ok"]


def test_verify_is_byte_stable(capsys):
    _, first = run(capsys, ["verify", "--case", "D4", "--grid", "150"])
    _, second = run(capsys, ["verify", "--case", "D4", "--grid", "150"])
    assert first == second


@pytest.mark.parametrize("case", ["A4", "D4", "D5", "E6"])
def test_verify_matches_golden_report(capsys, case):
    # tests/data holds the default verify reports, byte for byte
    code, out = run(capsys, ["verify", "--case", case])
    assert code == 0
    golden = Path(__file__).parent / "data" / ("verify_%s.json" % case)
    assert out.encode("utf-8") == golden.read_bytes()


INVARIANTS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "invariants_ade.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(INVARIANTS_GOLDEN))
def test_invariants_matches_golden_report(capsys, case):
    # tests/data/invariants_ade.json holds stdout and exit code of
    # `invariants` on every ADE case A1-A8, D4-D12, E6-E8
    code, out = run(capsys, ["invariants", "--case", case])
    assert code == INVARIANTS_GOLDEN[case]["exit"]
    assert out == INVARIANTS_GOLDEN[case]["stdout"]


COX_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cox_cases.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(COX_GOLDEN))
def test_cox_matches_golden_report(capsys, case):
    # tests/data/cox_cases.json holds stdout, stderr and exit code of
    # `cox` on A1-A8, D4-D12, E6-E8 and the custom stars 2,2,3, 1,2,2
    # and 1,1,1,1 (a valence-four center, a usage error)
    code = cli.main(["cox", "--case", case])
    captured = capsys.readouterr()
    assert code == COX_GOLDEN[case]["exit"]
    assert captured.out == COX_GOLDEN[case]["stdout"]
    assert captured.err == COX_GOLDEN[case]["stderr"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--case", "D5", "--grid", "20"],
        ["cox", "--case", "D5"],
        ["invariants", "--case", "E8"],
    ],
)
def test_each_command_builds_one_graph(capsys, monkeypatch, argv):
    # the graph parse_case builds is the only one: the invariants, cox
    # and reduction layers all take it rather than rebuilding the case
    built = []
    init = ResolutionGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResolutionGraph, "__init__", counting_init)
    code, _ = run(capsys, argv)
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "case,degree,caps,exit_code",
    [
        ("D4", "0,-1,0,0", None, 0),
        ("A3", "-1,0,0", None, 0),
        ("D4", "-3,-3,-3,-3", "step=3", 1),
    ],
)
def test_reduce_matches_golden_report(capsys, case, degree, caps, exit_code):
    # tests/data holds these reduce traces, byte for byte
    argv = ["reduce", "--case", case, "--degree=" + degree]
    name = "reduce_%s_%s" % (case, degree)
    if caps:
        argv += ["--caps", caps]
        name += "_" + caps
    code, out = run(capsys, argv)
    assert code == exit_code
    golden = Path(__file__).parent / "data" / (name + ".json")
    assert out.encode("utf-8") == golden.read_bytes()


def test_verify_reports_step_capped_sweep_cell(capsys):
    # a nef pass cut by the step cap fails its sweep cell; the basic
    # pass never runs on its (negative) terminal
    code, payload = run_json(capsys, ["verify", "--case", "D4", "--caps", "step=2"])
    assert code == 1
    assert payload["sections"]["reduction"] == {
        "cells": 2000,
        "failed_at": [2, -1, -1, -3],
        "ok": False,
    }


def _stepwise_sweep(graph, cells, settings):
    # the sweep as it ran before the closed form: the whole step-by-step
    # reduction of every cell, kept here as the reference; the measures
    # of a star with three arms, at least two of length 1, D_n or
    # custom in any arm order, must not rise
    arms = [len(arm) for arm in graph.branches()] if graph.center() is not None else []
    d_shaped = len(arms) == 3 and arms.count(1) >= 2
    max_steps = 0
    for d in cells:
        trace = reduction.reduce(graph, d, settings["caps"]["step"])
        ms = trace.twice_measures
        if (
            not trace.terminated
            or not reduction.is_basic(trace.terminal, graph)
            or (d_shaped and any(a < b for a, b in zip(ms, ms[1:])))
        ):
            return {"cells": len(cells), "ok": False, "failed_at": list(d)}
        max_steps = max(max_steps, len(trace.steps))
    return {"cells": len(cells), "ok": True, "max_steps": max_steps}


ADE_CASES = (
    ["A%d" % n for n in range(1, 9)]
    + ["D%d" % n for n in range(4, 13)]
    + ["E6", "E7", "E8"]
)

# the negative-definite stars: D, E6, E7 and E8 shapes under custom labels
DEFINITE_STARS = ["custom:1,1,1", "custom:1,1,4", "custom:1,2,2", "custom:1,2,3", "custom:1,2,4"]


@pytest.mark.parametrize(
    "case,grid,step",
    [(case, 300, cli.DEFAULT_CAPS["step"]) for case in ADE_CASES + DEFINITE_STARS]
    + [(case, cli.DEFAULT_GRID, step) for case in ("D4", "A6") for step in (1, 2, 5, 20, 40)]
    + [(case, 300, step) for case in DEFINITE_STARS for step in (2, 20)],
)
def test_termination_sweep_matches_the_stepwise_sweep(case, grid, step):
    graph = cli.parse_case(case)
    settings = {
        "caps": dict(cli.DEFAULT_CAPS, step=step),
        "grid": grid,
        "seed": cli.DEFAULT_SEED,
    }
    cells = sections.grid_sample(len(graph.nodes), settings["grid"], settings["seed"])
    want = _stepwise_sweep(graph, cells, settings)
    assert sections.sweep(graph, cells, step) == want


@pytest.mark.parametrize(
    "case,checked",
    [("D4", True), ("D8", True), ("custom:1,1,5", True),
     ("custom:2,1,1", True), ("custom:1,2,1", True),
     ("A5", False), ("E6", False), ("custom:1,2,3", False)],
)
def test_the_sweep_checks_the_measures_of_every_d_shaped_star(monkeypatch, case, checked):
    # a basic pass whose doubled measures rise fails the sweep on every
    # star with three arms, at least two of length 1, under a D label or
    # a custom one and in any arm order, and on no other graph
    basic_pass = reduction._basic_pass

    def rising(degree, graph, step_cap, known):
        trace = basic_pass(degree, graph, step_cap, known)
        ms = trace.twice_measures
        return reduction.ReductionTrace(
            trace.initial, trace.terminal, trace.steps, trace.terminated, ms + (ms[-1] + 1,))

    monkeypatch.setattr(reduction, "_basic_pass", rising)
    graph = cli.parse_case(case)
    cells = sections.grid_sample(len(graph.nodes), 50)
    assert sections.sweep(graph, cells)["ok"] is not checked


@pytest.mark.parametrize("case,definite", [("D12", True), ("custom:2,2,3", False)])
def test_verify_tests_negative_definiteness_once(capsys, case, definite):
    # the sweep, the closed nef form and the base case all ask the graph,
    # which reads the answer off its arms
    code, payload = run_json(capsys, ["verify", "--case", case])
    assert code == 0
    skipped = {"skipped": "intersection form is not negative definite"}
    assert (payload["sections"]["reduction"] == skipped) == (not definite)


def test_the_sweep_raises_off_the_negative_definite_graphs(capsys):
    # the sweep has no skip record of its own: it raises, and verify
    # shows the raise as the skipped reduction section
    graph = cli.parse_case("custom:2,2,3")
    with pytest.raises(UnsupportedGraphError, match="not negative definite"):
        sections.sweep(graph, sections.grid_sample(len(graph.nodes), 10))
    code, out = run(capsys, ["verify", "--case", "custom:2,2,3", "--format", "text"])
    assert code == 0
    assert "  reduction: skipped\n" in out


def _sweep_settings(step):
    return {
        "caps": dict(cli.DEFAULT_CAPS, step=step),
        "grid": 300,
        "seed": cli.DEFAULT_SEED,
    }


@pytest.mark.parametrize("case", ["A6", "D5", "E7"])
def test_termination_sweep_matches_the_stepwise_sweep_at_the_longest_passes(case):
    # caps one below and at the longest reduction (L) and the longest
    # basic pass alone (B), where a pass stopped at a known degree must
    # land its steps walked plus the count stopped at exactly on the cap;
    # the nef terminals, as cells of their own, put every basic pass
    # under the cap with no nef steps in front of it
    graph = cli.parse_case(case)
    cells = sections.grid_sample(len(graph.nodes), 300)
    terminals = list(dict.fromkeys(reduction.reduce_to_nef(d, graph).terminal for d in cells))
    longest = max(len(reduction.reduce(graph, d).steps) for d in cells)
    basic = max(len(reduction.reduce_nef_to_basic(t, graph).steps) for t in terminals)
    for step in (longest - 1, longest, basic - 1, basic):
        settings = _sweep_settings(step)
        for sample in (cells, terminals):
            want = _stepwise_sweep(graph, sample, settings)
            assert sections.sweep(graph, sample, step) == want
        if step == basic:
            assert sections.sweep(graph, terminals, step)["max_steps"] == basic
        if step == basic - 1:
            assert not sections.sweep(graph, terminals, step)["ok"]


def test_termination_sweep_builds_each_basic_step_once(monkeypatch):
    # E8 at grid 300: at most one basic-pass call per distinct nef
    # terminal, and no add-phase degree walked twice
    graph = cli.parse_case("E8")
    settings = _sweep_settings(cli.DEFAULT_CAPS["step"])
    cells = sections.grid_sample(len(graph.nodes), settings["grid"], settings["seed"])
    terminals = {reduction.reduce_to_nef(d, graph).terminal for d in cells}
    passes = [reduction.reduce_nef_to_basic(t, graph) for t in terminals]
    add_degrees = {s.degree_before for p in passes for s in p.steps if s.adds_curves()}
    shift_steps = {s.degree_before for p in passes for s in p.steps if not s.adds_curves()}
    built = []
    basic_pass = reduction._basic_pass

    def counting(*args):
        trace = basic_pass(*args)
        built.append(len(trace.steps))
        return trace

    monkeypatch.setattr(reduction, "_basic_pass", counting)
    assert sections.sweep(graph, cells, settings["caps"]["step"])["ok"]
    assert len(built) <= len(terminals)
    assert sum(built) <= len(add_degrees) + len(shift_steps)


@pytest.mark.parametrize("case", ["A5", "A6", "A7", "A8", "E8"])
def test_verify_audits_settle_past_total_degree_40(capsys, case):
    # audited steps whose standard monomials reach total degree 40 (A5)
    # and past it (57 on A6, 133 on A7, 208 on A8, 66 on E8); the first
    # six grid cells are the same at grid 6 as at the default grid
    code, payload = run_json(capsys, ["verify", "--case", case, "--grid", "6"])
    assert code == 0
    assert payload["ok"] is True
    assert all(row["ok"] for row in payload["sections"]["audits"]["degrees"])


ADE_CASES = ["A%d" % n for n in range(1, 9)] + ["D%d" % n for n in range(4, 13)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("case", ADE_CASES)
def test_verify_exits_zero_on_every_ade_case(capsys, case):
    # some of the first six grid cells reach the base case: most on D, E6
    # and E7, two on E8
    code, payload = run_frozen(capsys, ["verify", "--case", case, "--grid", "6"])
    assert code == 0
    assert payload["ok"] is True


@pytest.mark.parametrize("case", ADE_CASES)
def test_report_is_frozen_on_every_ade_case(capsys, case):
    code, payload = run_frozen(capsys, ["report", "--case", case, "--grid", "6"])
    assert code == 0
    assert set(payload["sections"]) == {"invariants", "cox", "audits"}


@pytest.mark.parametrize("case", ["custom:2,2,3", "custom:2,2,2", "custom:1,2,5"])
def test_report_is_frozen_on_three_arm_stars(capsys, case):
    code, payload = run_frozen(capsys, ["report", "--case", case])
    assert code == 0
    assert set(payload["sections"]) == {"cox", "counterexample"}


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("case", ["D5", "E6", "custom:2,2,3"])
def test_text_output_is_frozen(capsys, command, case):
    code, out = run_frozen(capsys, [command, "--case", case, "--format", "text"])
    assert code == 0
    assert out.splitlines()[-1] == "ok"


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_standalone_command_output_is_frozen(capsys, command):
    # tests/data/command_digests.json holds the SHA-256 of the stdout of
    # graph, invariants and cox on every ADE case and of graph and cox on
    # five custom stars, in json and in text, less the json stdout that
    # invariants_ade.json and cox_cases.json already hold in full
    code, out = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COMMAND_DIGESTS[command]


@pytest.mark.parametrize("case", ["D4", "A6"])
def test_step_capped_verify_is_frozen(capsys, case):
    argv = ["verify", "--case", case, "--grid", "6", "--caps", "step=2"]
    code, payload = run_frozen(capsys, argv)
    assert code == 1
    assert payload["sections"]["reduction"]["ok"] is False


@pytest.mark.parametrize("case", ["A3", "D5", "E6", "custom:2,2,3", "custom:1,1,1,2"])
def test_report_shares_its_checks_with_verify(capsys, case):
    # the sections both commands run are the same sections, byte for byte
    argv = ["--case", case, "--grid", "20"]
    _, verified = run_json(capsys, ["verify"] + argv)
    _, reported = run_json(capsys, ["report"] + argv)
    shared = set(verified["sections"]) & set(reported["sections"])
    assert shared == set(reported["sections"])
    for name in shared:
        assert reported["sections"][name] == verified["sections"][name]


@pytest.mark.parametrize("case", ["A3", "D5", "E6", "custom:2,2,3", "custom:1,1,1,2"])
def test_reports_graph_section_is_the_graph_payload(capsys, case):
    _, graph = run_json(capsys, ["graph", "--case", case])
    _, reported = run_json(capsys, ["report", "--case", case, "--grid", "20"])
    assert reported["graph"] == graph


def test_verify_counterexample(capsys):
    code, payload = run_frozen(capsys, ["verify", "--case", "custom:2,2,3"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["sections"]["counterexample"]["verdict"] == "rule-fails-as-predicted"
    audits = payload["sections"]["counterexample"]["audits"]
    verdicts = {a["node"]: a["ok"] for a in audits}
    assert verdicts[2] and verdicts[4] and not verdicts[7]
    assert payload["sections"]["reduction"]["skipped"]


@pytest.mark.parametrize("case", ["custom:2,2,2", "custom:1,2,5"])
def test_verify_affine_trees_exit_zero(capsys, case):
    # affine E6 and E8: the intersection matrix is singular
    code, payload = run_frozen(capsys, ["verify", "--case", case])
    assert code == 0
    assert payload["ok"] is True
    assert payload["sections"]["reduction"]["skipped"]


def test_verify_definite_custom_tree_holds(capsys):
    code, payload = run_frozen(capsys, ["verify", "--case", "custom:1,1,1", "--grid", "150"])
    assert code == 0
    assert payload["sections"]["counterexample"]["verdict"] == "rule-holds-on-sample"
    assert payload["sections"]["reduction"]["ok"]


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("case", ["custom:1,1,1,1", "custom:1,1,1,2"])
def test_four_arm_stars_show_the_relation_sections_as_skipped(capsys, command, case):
    # no candidate relation covers a valence-four center, so the cox and
    # counterexample sections are skipped; the exit code rests on the rest
    code, payload = run_frozen(capsys, [command, "--case", case, "--grid", "50"])
    assert code == 0
    assert payload["ok"] is True
    skipped = {"skipped": "no candidate relation at a node of valence 4"}
    assert payload["sections"]["cox"] == skipped
    assert payload["sections"]["counterexample"] == skipped
    assert "verdict" not in payload
    if command == "verify":
        # neither star is negative definite: custom:1,1,1,1 is affine D4
        assert payload["sections"]["reduction"]["skipped"]


@pytest.mark.parametrize("command", ["verify", "report"])
def test_four_arm_star_text_shows_skipped(capsys, command):
    argv = [command, "--case", "custom:1,1,1,1", "--grid", "50", "--format", "text"]
    code, out = run(capsys, argv)
    assert code == 0
    assert "  cox: skipped\n" in out
    assert "  counterexample: skipped\n" in out
    # every section was skipped: report's graph is a payload, not a check
    assert out.splitlines()[-1] == "ok (nothing checked: every section was skipped)"


@pytest.mark.parametrize(
    "argv,exit_code",
    [(["--case", "D4"], 0), (["--case", "D4", "--caps", "step=2"], 1)],
    ids=["D4-0", "D4-step=2-1"],
)
def test_verify_timings_only_add_the_timings_key(capsys, argv, exit_code):
    # --timings adds wall-clock milliseconds and must change no other byte
    code, plain = run(capsys, ["verify"] + argv)
    timed_code, timed = run(capsys, ["verify"] + argv + ["--timings"])
    assert code == timed_code == exit_code
    payload = json.loads(timed)
    assert set(payload.pop("timings")) <= set(payload["sections"])
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == plain


def test_report_command(capsys):
    code, payload = run_json(capsys, ["report", "--case", "A3", "--grid", "100"])
    assert code == 0
    assert payload["ok"] is True
    assert set(payload["sections"]) == {"invariants", "cox", "audits"}
    assert payload["graph"]["label"] == "A3"
    assert "timings" not in payload


def test_report_timings_flag(capsys):
    code, payload = run_json(capsys, ["report", "--case", "A2", "--grid", "50", "--timings"])
    assert code == 0
    assert set(payload["timings"]) == set(payload["sections"])


def test_text_format(capsys):
    code, out = run(capsys, ["verify", "--case", "D4", "--grid", "100", "--format", "text"])
    assert code == 0
    assert "case D4" in out
    assert "invariants: ok" in out
    assert out.rstrip().endswith("ok")


def test_text_format_shows_skipped_sections(capsys):
    code, out = run(capsys, ["verify", "--case", "custom:2,2,3", "--format", "text"])
    assert code == 0
    assert "  reduction: skipped\n" in out
    assert "  cox: ok\n" in out
    # the counterexample section's status names its own verdict
    assert "  counterexample: ok (rule-fails-as-predicted)\n" in out
    assert out.splitlines()[-1] == "ok"


def test_text_verdict_says_when_nothing_was_checked(capsys):
    # affine D4: no candidate relation and no negative definite form, so
    # every section is skipped; the exit code and the JSON stay as they were
    argv = ["verify", "--case", "custom:1,1,1,1", "--grid", "50"]
    code, out = run(capsys, argv + ["--format", "text"])
    assert code == 0
    assert out.splitlines()[-1] == "ok (nothing checked: every section was skipped)"
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["ok"] is True


@pytest.mark.parametrize("case", ["custom:2,2,3", "D4"])
def test_report_text_sections_agree_with_the_verdict(capsys, case):
    # every section that ran passed, in the text status as in the
    # verdict; the graph, of a non-definite star too, is no section
    code, out = run(capsys, ["report", "--case", case, "--grid", "50", "--format", "text"])
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "ok"
    assert [line for line in lines if line.endswith(": FAIL")] == []
    assert not [line for line in lines if line.startswith("  graph:")]


CHECKED_ARGVS = [key.split() for key in VERIFY_DIGESTS] + [
    ["report", "--case", "custom:1,1,1,1", "--format", "text"]]


@pytest.mark.parametrize("argv", CHECKED_ARGVS, ids=" ".join)
def test_the_verdict_folds_the_sections_that_ran(capsys, argv):
    # a section either ran, with its ok, or was skipped, with no ok; the
    # run's ok is the conjunction over those that ran, and the text, the
    # payload's rendering, says that nothing was checked exactly when
    # none did
    code, payload = run_json(capsys, [a for a in argv if a not in ("--format", "text")])
    ran = [s for s in payload["sections"].values() if "skipped" not in s]
    assert all(("ok" in s) != ("skipped" in s) for s in payload["sections"].values())
    assert payload["ok"] is all(s["ok"] for s in ran)
    assert code == (0 if payload["ok"] else 1)
    nothing = "" if ran else " (nothing checked: every section was skipped)"
    last = cli._render_text(payload).splitlines()[-1]
    assert last == ("ok" if payload["ok"] else "FAIL") + nothing


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, ["graph", "--case", "A2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["label"] == "A2"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["graph", "--case", "D4"], 0),
        (["verify", "--case", "D4", "--caps", "step=2"], 1),
    ],
    ids=["report", "step-cap"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, argv, code, where):
    assert cli.main(argv) == code
    capsys.readouterr()
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert cli.main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % target)


def test_usage_exit_codes(capsys):
    assert cli.main(["verify", "--case", "Q9"]) == 2
    assert cli.main(["verify", "--case", "custom:zz"]) == 2
    assert cli.main(["graph", "--case", "custom:1,,2,2"]) == 2
    assert cli.main(["graph", "--case", "custom:1,2,2,"]) == 2
    # int() alone would read each of these as a case, degree, cap or grid
    # not typed
    assert cli.main(["graph", "--case", "A1_0"]) == 2
    assert cli.main(["graph", "--case", "custom:1_0,1,1"]) == 2
    assert cli.main(["graph", "--case", "A\u0663"]) == 2
    assert cli.main(["graph", "--case", "D+5"]) == 2
    assert cli.main(["reduce", "--case", "A3", "--degree=1_0,0,0"]) == 2
    assert cli.main(["verify", "--case", "A1", "--caps", "step=1_0"]) == 2
    assert cli.main(["verify", "--case", "A1", "--caps", "step=+5"]) == 2
    assert cli.main(["verify", "--case", "A1", "--grid", "1_0"]) == 2
    assert cli.main(["verify", "--case", "A1", "--grid", "\u0663"]) == 2
    assert cli.main(["verify", "--case", "D4", "--caps", "bogus=3"]) == 2
    assert cli.main(["bogus", "--case", "D4"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_precedence_flag_over_config(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"caps": {"step": 400}, "grid": 77}))
    base = ["verify", "--case", "D4", "--config", str(config)]
    settings = cli.resolve_settings(cli.parse_args(base))
    assert settings["caps"] == {"step": 400}
    assert settings["grid"] == 77
    args = cli.parse_args(base + ["--caps", "step=30", "--grid", "99"])
    settings = cli.resolve_settings(args)
    assert settings["caps"] == {"step": 30}
    assert settings["grid"] == 99


def test_grid_sample_full_box_and_determinism():
    box = sections.grid_sample(2, 100)
    assert len(box) == 49
    assert box[0] == (-3, -3)
    assert box[-1] == (3, 3)
    a = sections.grid_sample(4, 500, seed=11)
    b = sections.grid_sample(4, 500, seed=11)
    c = sections.grid_sample(4, 500, seed=12)
    assert a == b
    assert a != c
    assert len(set(a)) == 500
    assert all(all(-3 <= x <= 3 for x in cell) for cell in a)


@pytest.mark.parametrize(
    "width,digest",
    [
        (4, "8c9f1d04f25164d778a074cced4e0a8ddb41c37251ac0b32858f5f354120ab93"),
        (5, "ad4628d21bdcdc220b75bbad0916a2be2529dcaf080af73a772613e2abe5252d"),
        (6, "df3ec90fb76354e2685c300894e3be91e8b6a47e2a15f63963c9a2ac97dd4148"),
        (8, "1337c3ce925b4d5885dbb69c4d5d9566733cacc2b60839e0937f65f63ca3de1e"),
        (12, "025c9db1ac9830c851f17dd78b869707870f7c1c9493061459997ea33be7abd4"),
    ],
)
def test_grid_sample_default_cells_are_frozen(width, digest):
    # the verify grid at the default seed: any change to the generator
    # that moves, drops or reorders a cell changes the digest
    cells = sections.grid_sample(width, cli.DEFAULT_GRID)
    assert hashlib.sha256(repr(cells).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "config",
    [
        {"caps": {"step": "abc"}},
        {"caps": {"step": None}},
        {"caps": {"step": 2.5}},
        {"grid": "x"},
        {"grid": True},
        {"seed": [1]},
        # int() reads each of these strings, the flags' ASCII-digit rule none
        {"grid": "1_0"},
        {"caps": {"step": "1_0"}},
        {"seed": "1_0"},
        {"grid": " +5"},
        {"caps": {"step": " +5"}},
        {"seed": " +5"},
        {"grid": "\u0663"},
        {"caps": {"step": "\u0663"}},
        {"seed": "\u0663"},
        # int() read this one as grid 10, step cap 5 and seed 3
        {"grid": "1_0", "caps": {"step": " +5"}, "seed": "\u0663"},
    ],
)
def test_config_values_must_be_integers(capsys, tmp_path, config):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    assert cli.main(["verify", "--case", "A3", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    setting = "cap 'step'" if "caps" in config else next(iter(config))
    assert err.startswith("error: config %s needs an integer, got " % setting)
    assert err.count("\n") == 1


def test_caps_flag_needs_integers(capsys):
    assert cli.main(["verify", "--case", "A3", "--caps", "step=abc"]) == 2
    assert capsys.readouterr().err == "error: cap 'step' needs an integer, got 'abc'\n"
    assert cli.main(["verify", "--case", "A3", "--caps", "step=1.5"]) == 2
    assert capsys.readouterr().err == "error: cap 'step' needs an integer, got '1.5'\n"


def test_string_integers_in_config_still_parse(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"caps": {"step": "400"}, "grid": "77", "seed": 5}))
    args = cli.parse_args(["verify", "--case", "D4", "--config", str(path)])
    settings = cli.resolve_settings(args)
    assert (settings["caps"]["step"], settings["grid"], settings["seed"]) == (400, 77, 5)


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_grid_below_one_is_rejected(capsys, tmp_path, grid):
    # an empty grid would report "ok" for a sweep and audits never run
    assert cli.main(["verify", "--case", "A3", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid needs at least 1 cell, got %s\n" % grid
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"grid": int(grid)}))
    assert cli.main(["verify", "--case", "A3", "--config", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "grid,message",
    [("abc", "config grid needs an integer, got 'abc'"), (0, "grid needs at least 1 cell, got 0")],
)
def test_a_bad_config_grid_is_rejected_under_the_grid_flag(capsys, tmp_path, grid, message):
    # --grid overrides the config grid but does not excuse it, as --caps
    # does not excuse the config caps; the flag used to hide it (exit 0)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"grid": grid}))
    for flag in ([], ["--grid", "3"]):
        assert cli.main(["verify", "--case", "A2", "--config", str(path)] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("cap", ["step=0", "step=-3"])
def test_caps_flag_below_one_is_rejected(capsys, cap):
    # a cap below 1 used to give a verdict (exit 0 or 1), not a usage error
    assert cli.main(["verify", "--case", "A3", "--grid", "20", "--caps", cap]) == 2
    key, _, value = cap.partition("=")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap %r needs at least 1, got %s\n" % (key, value)


@pytest.mark.parametrize("key", ["step"])
def test_config_cap_below_one_is_rejected(capsys, tmp_path, key):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"caps": {key: 0}}))
    assert cli.main(["verify", "--case", "A3", "--grid", "20", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config cap %r needs at least 1, got 0\n" % key


@pytest.mark.parametrize(
    "config,key",
    [({"grdi": 5, "cap": {"step": 1}}, "grdi"), ({"caps": {"step": 1}, "Seed": 3}, "Seed")],
)
def test_an_unknown_config_setting_is_a_usage_error(capsys, tmp_path, config, key):
    # a misspelt key used to be ignored, so the run went on at the defaults
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    assert cli.main(["verify", "--case", "A3", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown setting %r in config\n" % key


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_cokernel_cap_is_an_unknown_cap(capsys, tmp_path, source):
    # the cokernel audits are exact counts and the relation search bounds
    # its own degree, so neither takes a cap
    for key in ("cokernel", "relation"):
        argv = ["verify", "--case", "A3", "--grid", "20"]
        if source == "flag":
            argv += ["--caps", "%s=5" % key]
            message = "error: unknown cap %r (known: step)\n" % key
        else:
            path = tmp_path / "conf.json"
            path.write_text(json.dumps({"caps": {key: 5}}))
            argv += ["--config", str(path)]
            message = "error: unknown cap %r in config\n" % key
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


def test_help_names_every_cap_and_no_other(capsys):
    assert cli.main(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    listed = out.split("repeat or comma-separate (known: ", 1)[1].split(")", 1)[0]
    assert listed.split(", ") == sorted(cli.DEFAULT_CAPS)
