import json
from pathlib import Path

import pytest

from coxforge import cli


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


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, ["graph", "--case", "A2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["label"] == "A2"


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
