import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from orbk.cli import REPORT_SCHEMA, main


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return CliRunner()


def test_density_smooth_sphere(runner, tmp_path):
    result = runner.invoke(main, ["density", "--model", "football", "--n", "1",
                                  "--m", "10", "--r", "0.7"])
    assert result.exit_code == 0
    assert "PASS density: 11.000000" in result.output
    report = json.loads((tmp_path / "density_report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["rows"][0]["m"] == 10
    assert report["rows"][0]["N"] == 10


def test_bcoef_prints_exact_fraction(runner, tmp_path):
    result = runner.invoke(main, ["bcoef", "--model",
                                  '{"kind":"football","n":3}'])
    assert result.exit_code == 0
    assert "0.333333 (exact 1/3)" in result.output
    report = json.loads((tmp_path / "bcoef_report.json").read_text())
    assert len(report["rows"]) == 2


def test_rrk_weighted_line(runner, tmp_path):
    result = runner.invoke(main, ["rrk", "--model", '{"kind":"wpl","d":[1,2]}',
                                  "--m", "7"])
    assert result.exit_code == 0
    assert "total 4, oracle 4" in result.output


def test_unknown_command_is_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_bad_degree_names_field(runner):
    result = runner.invoke(main, ["density", "--n", "2", "--m", "11"])
    assert result.exit_code == 1
    assert "FAIL m:" in result.output


def test_bad_model_names_field(runner):
    result = runner.invoke(main, ["density", "--model",
                                  '{"kind":"wpl","d":[2,4]}', "--m", "8"])
    assert result.exit_code == 1
    assert "FAIL model:" in result.output


def test_reports_are_byte_identical(runner, tmp_path):
    args = ["split", "--n", "2", "--m", "4:12:4", "--r", "0.6"]
    runner.invoke(main, args + ["--out", "a.json"])
    runner.invoke(main, args + ["--out", "b.json"])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_config_file_overrides_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.25}))
    result = runner.invoke(main, ["density", "--n", "2", "--m", "10",
                                  "--r", "0.7", "--config", str(cfg)])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "density_report.json").read_text())
    assert report["params"]["r"] == 0.25


def test_unknown_config_field_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(main, ["density", "--n", "2", "--m", "10",
                                  "--config", str(cfg)])
    assert result.exit_code == 1
    assert "bogus" in result.output


@pytest.mark.parametrize("args,config,field,value", [
    (["charsum"], {"cases": "3"}, "cases", 3),
    (["density", "--n", "2", "--m", "10"], {"r": "0.5"}, "r", 0.5),
    (["pullback", "--n", "2"], {"m": "4"}, "m", 4),
    (["charsum"], {"cases": 3}, "cases", 3),
])
def test_config_values_take_their_option_type(runner, tmp_path, args, config,
                                              field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = runner.invoke(main, args + ["--config", str(cfg), "--out", "r.json"])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["params"][field] == value
    assert type(report["params"][field]) is type(value)
    if args[0] == "charsum":
        assert len(report["rows"]) == 3


@pytest.mark.parametrize("config,field", [
    ({"cases": "x"}, "cases"),
    ({"cases": [3]}, "cases"),
    ({"cases": None}, "cases"),
    ([1, 2], "config"),
    ({"cases": 3.7}, "cases"),  # click's INT would run 3 cases
    ({"cases": float("inf")}, "cases"),
])
def test_ill_typed_config_value_fails_on_its_field(runner, tmp_path, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = runner.invoke(main, ["charsum", "--config", str(cfg)])
    assert result.exit_code == 1
    assert f"FAIL {field}:" in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback


def test_csv_report_and_gnuplot_script(runner, tmp_path):
    result = runner.invoke(main, ["fit", "--n", "2", "--m", "10:120:10",
                                  "--format", "csv"])
    assert result.exit_code == 0
    csv_path = tmp_path / "fit_report.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "N"
    assert len(lines) > 2


def test_fit_reports_both_degree_conventions(runner, tmp_path):
    result = runner.invoke(main, ["fit", "--n", "2", "--m", "10:200:10"])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    s = report["summary"]
    assert s["a0_in_m"] == pytest.approx(1.0, abs=1e-6)
    assert s["a0_in_N"] == pytest.approx(2.0, abs=1e-5)
    assert s["a1_in_m"] == s["a1_in_N"]


def test_decay_noise_floor_outcome(runner, tmp_path):
    for mrange in ("10:120:2", "10:200:2"):
        result = runner.invoke(main, ["decay", "--n", "2", "--m", mrange,
                                      "--r", "1.0"])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "decay_report.json").read_text())
        assert report["summary"]["outcome"] == "noise_floor"


@pytest.mark.parametrize("r", [0.0, 0.4, 1.7])
def test_split_reassembles_gram_density(runner, tmp_path, r):
    result = runner.invoke(main, ["split", "--n", "2", "--m", "8", "--r", str(r)])
    assert result.exit_code == 0
    (row,) = json.loads((tmp_path / "split_report.json").read_text())["rows"]
    assert row["diagonal"] == 9.0
    assert row["reassembly_err"] < 1e-10
    # total is the Gram density, not the closed form it is compared with
    assert row["total"] == pytest.approx(row["diagonal"] + row["offdiagonal"], rel=1e-10)


@pytest.mark.parametrize("args", [
    ["density", "--n", "3", "--m", "900", "--r", "1000"],
    ["split", "--n", "6", "--m", "384", "--r", "1000"],
    ["decay", "--n", "3", "--m", "600:1200:3", "--r", "1000"],
])
def test_closed_form_far_from_the_cone_point_ends_in_a_report(runner, tmp_path, args):
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code in (0, 1)
    report = json.loads((tmp_path / f"{args[0]}_report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize("model,mrange", [
    ("3000", "0:3000:3000"),  # a football of order 3000, by --n
    ('{"kind":"wpl","d":[9973,9967]}', "0:2"),
])
def test_rrk_at_large_group_orders(runner, tmp_path, model, mrange):
    spec = ["--n", model] if model.isdigit() else ["--model", model]
    result = runner.invoke(main, ["rrk", *spec, "--m", mrange])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "rrk_report.json").read_text())
    assert all(row["match"] for row in report["rows"])


def test_rrk_over_the_whole_degree_range(runner, tmp_path):
    result = runner.invoke(main, ["rrk", "--model", '{"kind":"wpl","d":[2,3]}',
                                  "--m", "0:10000"])
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "rrk_report.json").read_text())["rows"]
    assert [row["m"] for row in rows] == list(range(10001))
    for row in rows:  # 2a + 3b = m: b has the parity of m and 3b <= m
        count = len(range(row["m"] % 2, row["m"] // 3 + 1, 2))
        assert row["oracle"] == count and row["total"] == str(count)


def test_rrk_at_large_group_orders_over_a_range(runner, tmp_path):
    start = time.perf_counter()
    result = runner.invoke(main, ["rrk", "--model", '{"kind":"wpl","d":[9973,9967]}',
                                  "--m", "0:200"])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "rrk_report.json").read_text())
    assert len(report["rows"]) == 201 and all(row["match"] for row in report["rows"])


def test_bcoef_at_a_large_cone_order(runner, tmp_path):
    start = time.perf_counter()
    result = runner.invoke(main, ["bcoef", "--model",
                                  '{"kind":"cone","group":{"order":9973,"weights":[1,2]}}'])
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 0, result.output
    assert "PASS bcoef" in result.output


def test_charsum_deterministic_seed(runner, tmp_path):
    r1 = runner.invoke(main, ["charsum", "--cases", "5", "--out", "c1.json"])
    r2 = runner.invoke(main, ["charsum", "--cases", "5", "--out", "c2.json"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_localmodel_prints_residual_table(runner, tmp_path):
    result = runner.invoke(main, ["localmodel"])
    assert result.exit_code == 0
    assert "f0: D0R" in result.output
    assert "PASS localmodel" in result.output


def test_phase_report(runner, tmp_path):
    result = runner.invoke(main, ["phase"])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "phase_report.json").read_text())
    assert report["summary"]["pass"] is True


WPL = '{"kind":"wpl","d":[2,3]}'
CONE = '{"kind":"cone","group":{"order":3,"weights":[1,2]}}'


@pytest.mark.parametrize("args", [
    ["fit", "--model", WPL],
    ["decay", "--model", WPL],
    ["split", "--model", WPL, "--m", "6"],
    ["density", "--model", WPL, "--m", "6"],
    ["pairing", "--n", "1"],
    ["rrk", "--model", CONE, "--m", "3"],
    # a model with no singular point has no delta coefficient to check
    ["bcoef", "--n", "1"],
    ["bcoef", "--model", '{"kind":"wpl","d":[1,1]}'],
    ["bcoef", "--model", '{"kind":"cone","group":{"order":1,"weights":[0]}}'],
])
def test_unsupported_model_fails_on_model_field(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "FAIL model:" in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback


@pytest.mark.parametrize("command", ["fit", "decay", "lowerbound", "recover",
                                     "pairing"])
def test_no_degree_left_fails_on_m_field(runner, command):
    for mrange in ("1", "0"):
        result = runner.invoke(main, [command, "--n", "2", "--m", mrange])
        assert result.exit_code == 1
        assert "FAIL m:" in result.output


@pytest.mark.parametrize("args,field", [
    (["charsum", "--cases", "0"], "cases"),
    (["localmodel", "--y-points", "100"], "y_points"),
    (["density", "--n", "2", "--r", "-1", "--m", "2:10:2"], "r"),
    (["density", "--n", "2", "--m", "20000", "--r", "0.5"], "m"),
    (["decay", "--n", "2", "--m", "2:6:2", "--r", "0.5"], "m"),
    (["pullback", "--n", "2", "--m", "0"], "m"),
    (["localmodel", "--y-points", "0"], "y_points"),
    (["localmodel", "--x-points", "1"], "x_points"),
    (["split", "--n", "3", "--m", "12", "--r", "-2"], "r"),
    (["pullback", "--n", "2", "--r-min", "-1"], "r_min"),
    (["bcoef", "--n", "-1"], "model"),
    (["recover", "--n", "2", "--width", "0"], "width"),
    (["pairing", "--n", "2", "--width", "-1"], "width"),
    (["recover", "--n", "2", "--center", "nan"], "center"),
    (["recover", "--n", "2", "--amplitude", "inf"], "amplitude"),
    (["recover", "--n", "2", "--m", "20", "--amplitude", "5", "--width", "1"],
     "amplitude"),
    (["pairing", "--n", "2", "--m", "20:40:20", "--amplitude", "0"], "amplitude"),
    (["recover", "--model", WPL, "--m", "1"], "m"),
    (["pullback", "--n", "1", "--m", "-1"], "m"),
    (["pullback", "--n", "2", "--points", "0"], "points"),
    (["charsum", "--cases", "1", "--seed", "-1"], "seed"),
    (["phase", "--out", "no/such/dir/report.json"], "out"),
    (["rrk", "--n", "2", "--m", "0:10000000000"], "m"),
    (["phase", "--h", "nan"], "h"),
    (["phase", "--h", "inf"], "h"),
    (["phase", "--h", "0"], "h"),
    (["localmodel", "--y-points", "1"], "y_points"),  # no positive frequency: nothing checked
    (["localmodel", "--y-points", "2"], "y_points"),
    # a group with no weights acts on C^0: nothing to check
    (["bcoef", "--model", '{"kind":"cone","group":{"order":2,"weights":[]}}'], "model"),
    # radii are finite; decay is measured away from the cone point r = 0
    (["density", "--n", "2", "--r", "inf"], "r"),
    (["fit", "--n", "2", "--r", "inf"], "r"),
    (["decay", "--n", "2", "--m", "10:200:2", "--r", "0"], "r"),
    (["decay", "--n", "2", "--r", "inf"], "r"),
    (["pullback", "--n", "2", "--r-max", "inf"], "r_max"),
    # a bad degree anywhere in a range fails the whole range
    (["rrk", "--n", "2", "--m", "5:-1:-1"], "m"),
    (["rrk", "--n", "2", "--m", "9999:10001"], "m"),
    # groups past the order bound: one generator of order 1000000007, two of 101 * 103
    (["bcoef", "--model", '{"kind":"cone","group":{"order":1000000007,"weights":[1,2]}}'],
     "model"),
    (["bcoef", "--model", '{"kind":"cone","group":[{"order":101,"weights":[1,2]},'
                          '{"order":103,"weights":[3,1]}]}'], "model"),
])
def test_invalid_value_fails_on_its_field(runner, args, field):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert f"FAIL {field}:" in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback


def test_narrow_bump_fails_on_amplitude_at_once(runner):
    # rho reaches -241 on a support 0.01 wide that lies between the points of
    # a t-grid 0.0125 apart; a guard that misses it leaves the window
    # quadrature to fail after more than a minute
    start = time.perf_counter()
    result = runner.invoke(main, ["recover", "--n", "2", "--m", "20:100:20", "--amplitude",
                                  "1e-3", "--center", "1.006", "--width", "0.005"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert "FAIL amplitude:" in result.output


def test_density_at_max_degree(runner, tmp_path):
    result = runner.invoke(main, ["density", "--n", "2", "--m", "10000", "--r", "0.5"])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "density_report.json").read_text())
    assert report["rows"][0]["rel_err"] < 1e-9


@pytest.mark.parametrize("args,degrees", [
    (["rrk", "--n", "2", "--m", "10:2:-2"], [10, 8, 6, 4, 2]),
    (["pairing", "--n", "2", "--m", "400:300:-50"], [300, 350, 400]),  # rounded and sorted
])
def test_degree_range_includes_its_stop_in_either_direction(runner, tmp_path, args, degrees):
    result = runner.invoke(main, args + ["--out", "r.json"])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "r.json").read_text())
    assert [row["m"] for row in report["rows"]] == degrees


# Runs the command line with the test-only packages unimportable.
RUNTIME_ONLY = """
import sys
for name in ("jsonschema", "mpmath", "hypothesis"):
    sys.modules[name] = None
from orbk.cli import main
main(sys.argv[1:])
"""


@pytest.mark.parametrize("args", [
    ["bcoef", "--n", "3"],
    ["density", "--n", "2", "--m", "4", "--r", "0.5"],
])
def test_cli_runs_without_the_test_dependencies(tmp_path, args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", RUNTIME_ONLY, *args], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith(f"PASS {args[0]}:")
