import json
from pathlib import Path

import pytest

from coxforge import cli
from coxforge.graphs import ResolutionGraph


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


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
        assert step["stabilized"] is True
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


def test_reduce_cap_error_carries_partial(capsys):
    code, payload = run_json(capsys, ["reduce", "--case", "A5", "--degree=0,0,0,-1,0"])
    assert code == 3
    assert payload["error"] == "resource-cap"
    assert payload["partial"]["cap"] == 40


def test_reduce_cap_error_text_format(capsys):
    code, out = run(
        capsys, ["reduce", "--case", "A5", "--degree=0,0,0,-1,0", "--format", "text"]
    )
    assert code == 3
    assert out.startswith("error: resource-cap\n")
    assert "cap 40" in out
    assert '  partial: {"cap": 40, "dim": ' in out


def test_reduce_usage_errors(capsys):
    assert cli.main(["reduce", "--case", "D4"]) == 2
    assert cli.main(["reduce", "--case", "D4", "--degree", "1,0,0"]) == 2
    assert cli.main(["reduce", "--case", "D4", "--degree", "a,b,c,d"]) == 2


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


def test_verify_counterexample(capsys):
    code, payload = run_json(capsys, ["verify", "--case", "custom:2,2,3"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["verdict"] == "rule-fails-as-predicted"
    audits = payload["sections"]["counterexample"]["audits"]
    verdicts = {a["node"]: a["ok"] for a in audits}
    assert verdicts[2] and verdicts[4] and not verdicts[7]
    assert payload["sections"]["reduction"]["skipped"]


@pytest.mark.parametrize("case", ["custom:2,2,2", "custom:1,2,5"])
def test_verify_affine_trees_exit_zero(capsys, case):
    # affine E6 and E8: the intersection matrix is singular
    code, payload = run_json(capsys, ["verify", "--case", case])
    assert code == 0
    assert payload["ok"] is True
    assert payload["sections"]["reduction"]["skipped"]


def test_verify_definite_custom_tree_holds(capsys):
    code, payload = run_json(capsys, ["verify", "--case", "custom:1,1,1", "--grid", "150"])
    assert code == 0
    assert payload["verdict"] == "rule-holds-on-sample"
    assert payload["sections"]["reduction"]["ok"]


def test_report_command(capsys):
    code, payload = run_json(capsys, ["report", "--case", "A3", "--grid", "100"])
    assert code == 0
    assert payload["ok"] is True
    assert set(payload["sections"]) == {"graph", "invariants", "cox", "audits"}
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


@pytest.mark.parametrize("case", ["custom:2,2,3", "D4"])
def test_report_text_sections_agree_with_the_verdict(capsys, case):
    # a section without an ok flag passes, in the text status as in the
    # verdict; the graph section of a non-definite star is one such
    code, out = run(capsys, ["report", "--case", case, "--grid", "50", "--format", "text"])
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "ok"
    assert [line for line in lines if line.endswith(": FAIL")] == []
    assert "  graph: ok" in lines


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
        (["reduce", "--case", "A5", "--degree=0,0,0,-1,0"], 3),
    ],
    ids=["report", "resource-cap"],
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
    assert cli.main(["verify", "--case", "D4", "--caps", "bogus=3"]) == 2
    assert cli.main(["bogus", "--case", "D4"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_env_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv("COXFORGE_CAP", "28")
    args = cli.build_parser().parse_args(["verify", "--case", "D4"])
    settings = cli.resolve_settings(args)
    assert settings["caps"]["cokernel"] == 28
    monkeypatch.setenv("COXFORGE_CAP", "not-a-number")
    assert cli.main(["verify", "--case", "D4"]) == 2
    capsys.readouterr()


def test_precedence_flag_over_env_over_config(tmp_path, monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"caps": {"cokernel": 20, "step": 400}, "grid": 77}))
    base = ["verify", "--case", "D4", "--config", str(config)]
    args = cli.build_parser().parse_args(base)
    settings = cli.resolve_settings(args, environ={})
    assert settings["caps"]["cokernel"] == 20
    assert settings["caps"]["step"] == 400
    assert settings["grid"] == 77
    settings = cli.resolve_settings(args, environ={"COXFORGE_CAP": "26"})
    assert settings["caps"]["cokernel"] == 26
    args = cli.build_parser().parse_args(base + ["--caps", "cokernel=30", "--grid", "99"])
    settings = cli.resolve_settings(args, environ={"COXFORGE_CAP": "26"})
    assert settings["caps"]["cokernel"] == 30
    assert settings["grid"] == 99


def test_grid_sample_full_box_and_determinism():
    box = cli.grid_sample(2, 100)
    assert len(box) == 49
    assert box[0] == (-3, -3)
    assert box[-1] == (3, 3)
    a = cli.grid_sample(4, 500, seed=11)
    b = cli.grid_sample(4, 500, seed=11)
    c = cli.grid_sample(4, 500, seed=12)
    assert a == b
    assert a != c
    assert len(set(a)) == 500
    assert all(all(-3 <= x <= 3 for x in cell) for cell in a)


@pytest.mark.parametrize(
    "config",
    [
        {"caps": {"step": "abc"}},
        {"caps": {"cokernel": None}},
        {"caps": {"step": 2.5}},
        {"grid": "x"},
        {"grid": True},
        {"seed": [1]},
    ],
)
def test_config_values_must_be_integers(capsys, tmp_path, config):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    assert cli.main(["verify", "--case", "A3", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and "needs an integer" in err


def test_caps_flag_and_env_need_integers(capsys, monkeypatch):
    assert cli.main(["verify", "--case", "A3", "--caps", "step=abc"]) == 2
    assert capsys.readouterr().err == "error: cap 'step' needs an integer, got 'abc'\n"
    monkeypatch.setenv("COXFORGE_CAP", "1.5")
    assert cli.main(["verify", "--case", "A3"]) == 2
    assert capsys.readouterr().err == "error: COXFORGE_CAP needs an integer, got '1.5'\n"


def test_string_integers_in_config_still_parse(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"caps": {"step": "400"}, "grid": "77", "seed": 5}))
    args = cli.build_parser().parse_args(["verify", "--case", "D4", "--config", str(path)])
    settings = cli.resolve_settings(args, environ={})
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


@pytest.mark.parametrize("cap", ["step=0", "step=-3", "relation=0", "cokernel=-2"])
def test_caps_flag_below_one_is_rejected(capsys, cap):
    # a cap below 1 used to give a verdict (exit 0 or 1), not a usage error
    assert cli.main(["verify", "--case", "A3", "--grid", "20", "--caps", cap]) == 2
    key, _, value = cap.partition("=")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap %r needs at least 1, got %s\n" % (key, value)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_env_cap_below_one_is_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("COXFORGE_CAP", value)
    assert cli.main(["verify", "--case", "A3", "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: COXFORGE_CAP needs at least 1, got %s\n" % value


@pytest.mark.parametrize("key", ["step", "cokernel", "relation"])
def test_config_cap_below_one_is_rejected(capsys, tmp_path, key):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"caps": {key: 0}}))
    assert cli.main(["verify", "--case", "A3", "--grid", "20", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config cap %r needs at least 1, got 0\n" % key


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_cokernel_cap_above_the_audit_limit_is_rejected(capsys, monkeypatch, tmp_path, source):
    # a cap of 41 used to pass start-up and exit 3 at the first audit
    def argv_with(value):
        argv = ["verify", "--case", "A3", "--grid", "20"]
        monkeypatch.delenv("COXFORGE_CAP", raising=False)
        if source == "flag":
            return argv + ["--caps", "cokernel=%d" % value]
        if source == "env":
            monkeypatch.setenv("COXFORGE_CAP", str(value))
            return argv
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"caps": {"cokernel": value}}))
        return argv + ["--config", str(path)]

    what = {"flag": "cap 'cokernel'", "env": "COXFORGE_CAP", "config": "config cap 'cokernel'"}
    assert cli.main(argv_with(41)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s needs at most 40, got 41\n" % what[source]
    settings = cli.resolve_settings(cli.build_parser().parse_args(argv_with(40)))
    assert settings["caps"]["cokernel"] == 40
