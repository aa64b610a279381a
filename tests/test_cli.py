"""Command-line driver: outputs, config echo, formatting, and the verify gate."""

import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import noisecycle
from noisecycle import cli, verify
from noisecycle.cli import FIELDS, RULES, main
from noisecycle.fock import ModelParams


def read_csv(path):
    with open(path) as fh:
        comments = []
        line = fh.readline()
        while line.startswith("#"):
            comments.append(line)
            line = fh.readline()
        header = line.strip().split(",")
        rows = list(csv.reader(fh))
    return comments, header, rows


# ---------------------------------------------------------------------------
# phase diagram
# ---------------------------------------------------------------------------

def test_phase_diagram_default_row_count(tmp_path):
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out / "phase_diagram.csv")
    assert header == ["K", "wp_plus", "r_star", "w0", "q_ss", "s_q", "phase"]
    assert len(rows) == 2500
    assert comments and comments[0].startswith("# config:")
    assert json.loads((out / "config.json").read_text())["command"] == "phase-diagram"


def test_phase_diagram_classifies_reference_points(tmp_path):
    out = tmp_path / "pd"
    main(["phase-diagram", "--out", str(out),
          "--k-min", "0.1", "--k-max", "0.6", "--k-count", "2",
          "--wp-min", "0.4", "--wp-max", "0.9", "--wp-count", "2"])
    _, header, rows = read_csv(out / "phase_diagram.csv")
    table = {(float(r[0]), float(r[1])): r[6] for r in rows}
    assert table[(0.6, 0.9)] == "I"
    assert table[(0.1, 0.4)] == "III"


def test_phase_diagram_single_point_phase_two(tmp_path):
    out = tmp_path / "pd"
    main(["phase-diagram", "--out", str(out),
          "--k-min", "0.6", "--k-max", "0.6", "--k-count", "1",
          "--wp-min", "0.53", "--wp-max", "0.53", "--wp-count", "1"])
    _, _, rows = read_csv(out / "phase_diagram.csv")
    assert rows[0][6] == "II"


@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_phase_diagram_count_from_a_config_file_must_be_an_integer(tmp_path, value):
    cfg = tmp_path / "pd.json"
    cfg.write_text(json.dumps({"wp_count": value}))
    with pytest.raises(SystemExit) as err:
        main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "pd")])
    assert str(err.value).startswith("config error at wp_count: ")
    assert not (tmp_path / "pd").exists()


def test_phase_diagram_sigmoid_column(tmp_path):
    out = tmp_path / "pd"
    main(["phase-diagram", "--out", str(out), "--k-count", "5", "--wp-count", "5"])
    _, _, rows = read_csv(out / "phase_diagram.csv")
    for row in rows:
        q, s = float(row[4]), float(row[5])
        assert abs(s - 1.0 / (1.0 + math.exp(-q))) < 1e-12


def test_phase_diagram_seventeen_digit_formatting(tmp_path):
    out = tmp_path / "pd"
    main(["phase-diagram", "--out", str(out),
          "--k-min", "0.1", "--k-max", "0.9", "--k-count", "3",
          "--wp-count", "3"])
    _, _, rows = read_csv(out / "phase_diagram.csv")
    # round-trip through the printed representation is exact
    for row in rows:
        for cell in row[:6]:
            assert float(cell) == float(("%.17g" % float(cell)))
    assert any("." in r[0] and len(r[0]) > 10 for r in rows)  # not truncated


def test_phase_diagram_rejects_bad_range(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["phase-diagram", "--out", str(tmp_path / "x"), "--k-min", "0.0"])
    assert "k_min" in str(err.value)


# command, config-file fields, a flag overriding one of them, fields left unset
# with their defaults, and part of the expected summary
CONFIG_CASES = [
    ("phase-diagram", {"k_count": 3, "wp_count": 3, "k_min": 0.2, "k_max": 0.8},
     {"wp_count": 2}, {"wp_min": 0.0, "wp_max": 1.0},
     {"rows": 6}),  # 3 from the file x 2 from the overriding flag
    ("steady", {"kind": "conventional", "kappa_up1": 0.2, "dim": 12},
     {"kappa_up1": 0.3}, {"omega0": 1.0, "kappa_down": 1.0},
     {"kernel_dim": 1, "all_pass": True}),
    ("evolve", {"k_ratio": 0.3, "dim": 30, "t": 5.0, "initial": "fock:2"},
     {"t": 2.0}, {"omega0": 1.0, "kappa_down": 1.0},
     {"t": 2.0}),
    ("sde", {"n_paths": 300, "burn_in": 20, "n_steps": 5, "seed": 3, "dump_samples": 50},
     {"seed": 4}, {"kappa": 1.0, "coordinates": "polar"},
     {"n_total": 300}),
    ("wigner", {"h": 0.4, "extent": 8.0, "wp_plus": 0.9},
     {"wp_plus": 0.55}, {"k_ratio": 0.5, "boundary_tol": 0.01},
     {}),
]


def as_flags(fields):
    return [arg for key, value in fields.items()
            for arg in ("--" + key.replace("_", "-"), str(value))]


@pytest.mark.parametrize("command, from_file, override, unset, summary",
                         CONFIG_CASES, ids=[case[0] for case in CONFIG_CASES])
def test_config_file_with_flag_override(tmp_path, command, from_file, override, unset,
                                        summary):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(from_file))
    merged, direct = tmp_path / "merged", tmp_path / "direct"
    assert main([command, "--config", str(cfg), "--out", str(merged), *as_flags(override)]) == 0
    echoed = json.loads((merged / "config.json").read_text())
    expected = {"command": command, **from_file, **override, **unset}
    assert {key: echoed.get(key) for key in expected} == expected
    report = json.loads((merged / "summary.json").read_text())
    assert {key: report.get(key) for key in summary} == summary
    # the file's fields are used: the run matches one given every field as a flag
    assert main([command, "--out", str(direct), *as_flags({**from_file, **override})]) == 0
    files = sorted(p.name for p in merged.iterdir())
    assert files == sorted(p.name for p in direct.iterdir())
    for name in files:
        assert (merged / name).read_bytes() == (direct / name).read_bytes(), name


@pytest.mark.parametrize("command, from_file", [case[:2] for case in CONFIG_CASES],
                         ids=[case[0] for case in CONFIG_CASES])
def test_echoed_config_reruns_the_same(tmp_path, command, from_file):
    # the echo holds a "command" key and every worked-out field
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(from_file))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, "--config", str(cfg), "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "config.json"), "--out", str(again)]) == 0
    for name in ("config.json", "summary.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("command", [*FIELDS, "verify"])
def test_help_shows_the_need_of_each_checked_field(monkeypatch, capsys, command):
    # argparse %-formats help strings, so a stray "%" would break --help alone
    monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    shown = capsys.readouterr().out
    for key in FIELDS.get(command, {}).keys() & RULES.keys():
        assert RULES[key][1] in shown, key


# ---------------------------------------------------------------------------
# steady report
# ---------------------------------------------------------------------------

def test_steady_report_all_pass(tmp_path):
    out = tmp_path / "steady"
    code = main(["steady", "--out", str(out), "--k-ratio", "0.3", "--wp-plus", "0.55"])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert report["all_pass"]
    assert report["kernel_dim"] == 2
    assert report["checks"]["detailed_balance_residual"]["pass"]


def test_steady_report_conventional_expected_failure(tmp_path):
    out = tmp_path / "steady"
    code = main(["steady", "--out", str(out), "--kind", "conventional",
                 "--kappa-up1", "0.3", "--dim", "20"])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    db = report["checks"]["detailed_balance_residual"]
    assert db["pass"] and db["value"] > 1e-3
    assert "fail" in db["expected"]
    echoed = json.loads((out / "config.json").read_text())
    assert "k_ratio" not in echoed and "wp_plus" not in echoed  # fields it ignores


@pytest.mark.parametrize("kappa_up1, dim, code", [("0.05", "20", 0), ("0.05", "400", 0),
                                                  ("0", "20", 1)])
def test_conventional_balance_floor_is_one_constant(tmp_path, kappa_up1, dim, code):
    # with gain the conventional flow gap is exactly 1 at any dim; without gain
    # nothing flows, the gap is exactly zero and the model must fail the row
    out = tmp_path / "steady"
    assert main(["steady", "--out", str(out), "--kind", "conventional",
                 "--kappa-up1", kappa_up1, "--dim", dim]) == code
    db = json.loads((out / "summary.json").read_text())["checks"]["detailed_balance_residual"]
    assert db["floor"] == 0.5
    assert db["value"] == (1.0 if code == 0 else 0.0)
    assert db["pass"] == (code == 0)


def test_steady_report_zero_ratio_skips_reconstruction(tmp_path):
    out = tmp_path / "steady"
    code = main(["steady", "--out", str(out), "--k-ratio", "0.0", "--dim", "20"])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert "skipped" in report["checks"]["conserved_reconstruction_gap"]


@pytest.mark.parametrize("argv", [
    pytest.param(["--k-ratio", "0"], id="zero-ratio"),
    # the vacuum then fills the top two levels, and circulation warns of it
    pytest.param(["--k-ratio", "0.3", "--dim", "2"], id="two-levels",
                 marks=pytest.mark.filterwarnings("ignore:top Fock levels")),
])
def test_steady_report_of_the_vacuum_skips_mandel_q(tmp_path, argv):
    # the even state is |0><0|: mean photon number 0, so Q is not defined
    out = tmp_path / "steady"
    main(["steady", "--out", str(out), "--wp-plus", "1", *argv])
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert "skipped" in checks["mandel_q_gap"]
    assert checks["steady_trace_distance"]["value"] == 0.0


@pytest.mark.parametrize("k_ratio", ["0.3", "0"])
def test_steady_report_without_rotation(tmp_path, k_ratio):
    # the circulation closed form is exactly zero at omega0 = 0
    out = tmp_path / "steady"
    code = main(["steady", "--out", str(out), "--omega0", "0", "--k-ratio", k_ratio])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert report["all_pass"]
    assert report["kernel_dim"] == 2


def test_steady_report_at_the_tail_dim_of_k099_holds_no_dense_state():
    # 5500 = 2 ceil(12 / -log10 0.99), the tail rule's dim; one dense complex
    # state there takes 484 MB, and the whole dense report peaked at 5.1 GB
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.99)
    tracemalloc.start()
    try:
        report = verify.steady_report(params, 5500, 0.55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["all_pass"] and len(report["checks"]) == 5
    assert peak < 16 * 2 ** 20


def test_steady_at_k099_takes_the_tail_dim_and_passes_every_row(tmp_path):
    out = tmp_path / "steady"
    assert main(["steady", "--out", str(out), "--k-ratio", "0.99"]) == 0
    assert json.loads((out / "config.json").read_text())["dim"] == 5500
    report = json.loads((out / "summary.json").read_text())
    assert len(report["checks"]) == 5 and report["all_pass"]
    assert report["edge_population"] <= 1e-12


def test_conventional_steady_at_large_gain_holds_its_mass(tmp_path):
    # mean photon number about (300 + 1) / 2: the default dim must hold it
    out = tmp_path / "steady"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # circulation warns of mass in the top Fock levels
        assert main(["steady", "--out", str(out), "--kind", "conventional",
                     "--kappa-up1", "300"]) == 0
    # a solve at twice the dim holds the same mean (test_lindblad, ratio 300)
    assert json.loads((out / "summary.json").read_text())["edge_population"] <= 1e-12


def test_steady_report_at_large_rates(tmp_path):
    # the stationarity gate is relative to the size of the generator's terms
    out = tmp_path / "steady"
    assert main(["steady", "--out", str(out), "--omega0", "1e9", "--kappa-down", "1e9"]) == 0
    assert json.loads((out / "summary.json").read_text())["all_pass"]


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_reports_steady_convergence(tmp_path):
    out = tmp_path / "ev"
    code = main(["evolve", "--out", str(out), "--k-ratio", "0.3", "--dim", "46",
                 "--t", "20", "--initial", "vacuum"])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert report["distance_to_predicted_steady"] < 1e-6
    assert abs(report["parity_final"] - report["parity_initial"]) < 1e-9


def test_evolve_near_saturated_ratio_default_dim(tmp_path):
    # k = 0.8 needs dim 248: a 61504-dimensional superoperator
    out = tmp_path / "ev"
    code = main(["evolve", "--out", str(out), "--k-ratio", "0.8", "--t", "60",
                 "--initial", "vacuum"])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert report["distance_to_predicted_steady"] < 1e-9
    assert abs(report["trace_final"] - 1.0) < 1e-10
    assert abs(report["parity_final"] - report["parity_initial"]) < 1e-9


def test_evolve_takes_the_tail_dim_and_reports_its_edge(tmp_path):
    out = tmp_path / "ev"
    assert main(["evolve", "--out", str(out), "--k-ratio", "0.95", "--t", "1"]) == 0
    assert json.loads((out / "config.json").read_text())["dim"] == 1078
    report = json.loads((out / "summary.json").read_text())
    assert 0.0 <= report["edge_population"] <= 1e-12


@pytest.mark.parametrize("initial, low, high", [
    ("coherent:8", 2.96e-2, 2.97e-2),
    ("coherent:5", 0.0, 1e-14),
    ("fock:3", 0.0, 0.0),
    ("vacuum", 0.0, 0.0),
])
def test_evolve_reports_the_mass_its_start_drops(tmp_path, initial, low, high):
    # the default dim at k = 0.5 is 80; a coherent start's Poisson mass on the
    # levels >= 80 is renormalized away, and the summary says how much
    out = tmp_path / "ev"
    assert main(["evolve", "--out", str(out), "--initial", initial, "--t", "1"]) == 0
    assert json.loads((out / "config.json").read_text())["dim"] == 80
    assert low <= json.loads((out / "summary.json").read_text())["initial_dropped_mass"] <= high


@pytest.mark.parametrize("argv, field, dim", [
    pytest.param(["evolve", "--k-ratio", "0.999"], "k_ratio", "55236", id="evolve-tail-rule"),
    pytest.param(["evolve", "--dim", "100000"], "dim", "100000", id="evolve-given-dim"),
    pytest.param(["evolve", {"dim": 100000}], "dim", "100000", id="evolve-dim-in-config"),
    # 112 dim^2 bytes pass 2 GiB from dim 4379 on
    pytest.param(["evolve", "--dim", "4379"], "dim", "4379", id="evolve-past-the-edge"),
    pytest.param(["evolve", "--dim", str(10 ** 400)], "dim", "1.00000e+400",
                 id="evolve-dim-past-float-range"),
    pytest.param(["steady", "--k-ratio", "0.9999999"], "k_ratio", "5.52620e+8",
                 id="steady-tail-rule"),
    pytest.param(["steady", "--kind", "conventional", "--kappa-up1", "1e12"], "kappa_up1",
                 "5.00007e+11", id="steady-conventional-tail-rule"),
    pytest.param(["steady", "--kind", "conventional", "--kappa-up1", "1e300"], "kappa_up1",
                 "5.00000e+299", id="steady-conventional-rule-near-float-max"),
    pytest.param(["steady", "--dim", "10000000"], "dim", "1.00000e+7", id="steady-given-dim"),
])
def test_dim_past_the_byte_budget_is_refused_before_any_output(tmp_path, argv, field, dim):
    # the refusal allocates nothing: one dense state at dim 55236 would take 49 GB
    if isinstance(argv[-1], dict):
        (tmp_path / "run.json").write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], "--config", str(tmp_path / "run.json")]
    run = tmp_path / "run"
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(run)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith(f"config error at {field}: ")
    assert f"at dim {dim} " in str(err.value) and "GiB budget" in str(err.value)
    assert not run.exists()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("argv, field, at", [
    # the default extent at k 0.5 is 7.62, so 15244 points a side, about 20.8 GiB
    pytest.param(["wigner", "--h", "0.001"], "h", "2.32380e+8 grid cells", id="wigner-fine-step"),
    pytest.param(["wigner", "--extent", "500"], "extent", "4.00040e+8 grid cells",
                 id="wigner-wide-extent"),
    # 2 * extent / h passes float range; the count is exact all the same
    pytest.param(["wigner", "--extent", "1e300", "--h", "1e-10"], "extent",
                 "4.00000e+620 grid cells", id="wigner-count-past-float-range"),
    pytest.param(["sde", "--n-paths", "100000000"], "n_paths", "1.00000e+8 paths", id="sde"),
    pytest.param(["phase-diagram", "--k-count", "10000", "--wp-count", "10000"],
                 "k_count/wp_count", "1.00000e+8 rows", id="phase-diagram"),
])
def test_grid_paths_or_rows_past_the_byte_budget_are_refused_before_any_output(
        tmp_path, argv, field, at):
    run = tmp_path / "run"
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(run)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith(f"config error at {field}: the arrays at {at} take about ")
    assert str(err.value).endswith(" GiB budget")
    assert not run.exists()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("argv, field", [
    pytest.param(["phase-diagram", "--k-count", "3", "--wp-count", "2"], "k_count/wp_count",
                 id="phase-diagram"),
    pytest.param(["steady"], "k_ratio", id="steady"),
    pytest.param(["evolve", "--dim", "20"], "dim", id="evolve"),
    pytest.param(["sde", "--n-paths", "50", "--burn-in", "0", "--n-steps", "1"], "n_paths",
                 id="sde"),
    pytest.param(["wigner", "--h", "0.5"], "h", id="wigner"),
    pytest.param(["wigner", "--h", "0.5", "--extent", "8"], "extent", id="wigner-given-extent"),
])
def test_every_command_checks_the_byte_budget(monkeypatch, tmp_path, argv, field):
    monkeypatch.setattr(cli, "BYTE_BUDGET", 64)  # less than any run's arrays take
    run = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(run)])
    assert str(err.value).startswith(f"config error at {field}: the arrays at ")
    assert str(err.value).endswith("past the 5.96046e-08 GiB budget")
    assert not run.exists()


# coherent:1e200 is well formed, but its amplitudes overflow
@pytest.mark.parametrize("spec", ["coherent:abc", "fock:x", "fock:99", "coherent:1e200"])
def test_evolve_rejects_malformed_initial_state(tmp_path, spec):
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--out", str(tmp_path / "ev"), "--dim", "20", "--initial", spec])
    assert str(err.value).startswith("config error at initial: ")
    assert repr(spec) in str(err.value)
    assert not (tmp_path / "ev").exists()  # no config echo for a run that never started


@pytest.mark.parametrize("argv, field", [
    pytest.param(["steady", "--dim", "1"], "dim", id="steady-dim-1"),
    pytest.param(["evolve", "--dim", "1"], "dim", id="evolve-dim-1"),
    pytest.param(["evolve", "--t", "-1"], "t", id="evolve-negative-t"),
    pytest.param(["evolve", "--t", "inf"], "t", id="evolve-inf-t"),
    pytest.param(["evolve", "--t", "nan"], "t", id="evolve-nan-t"),
    pytest.param(["phase-diagram", "--k-count", "-1"], "k_count",
                 id="phase-diagram-negative-k-count"),
    pytest.param(["phase-diagram", "--k-count", "0"], "k_count", id="phase-diagram-no-k-points"),
    pytest.param(["phase-diagram", "--wp-count", "-1"], "wp_count",
                 id="phase-diagram-negative-wp-count"),
    pytest.param(["phase-diagram", "--wp-count", "0"], "wp_count", id="phase-diagram-no-wp-points"),
    pytest.param(["steady", "--k-ratio", "1.2"], "k_ratio", id="steady-saturated-gain"),
    pytest.param(["steady", "--omega0", "nan"], "omega0", id="steady-nan-omega0"),
    pytest.param(["evolve", "--kappa-down", "0"], "kappa_down", id="evolve-no-loss"),
    pytest.param(["evolve", "--omega0", "inf"], "omega0", id="evolve-inf-omega0"),
    pytest.param(["evolve", "--initial", "coherent:nan"], "initial", id="evolve-nan-amplitude"),
    pytest.param(["wigner", "--k-ratio", "1.2"], "k_ratio", id="wigner-saturated-gain"),
    pytest.param(["sde", "--kappa", "nan"], "kappa", id="sde-nan-kappa"),
    pytest.param(["sde", "--dt", "inf"], "dt", id="sde-inf-dt"),
    pytest.param(["sde", "--seed", "-1"], "seed", id="sde-negative-seed"),
    pytest.param(["sde", {"seed": 1.5}], "seed", id="sde-config-float-seed"),
    pytest.param(["sde", {"seed": True}], "seed", id="sde-config-bool-seed"),
    pytest.param(["sde", {"n_paths": 100.5}], "n_paths", id="sde-config-float-paths"),
    pytest.param(["sde", {"n_steps": 2.5}], "n_steps", id="sde-config-float-steps"),
    pytest.param(["sde", {"burn_in": True}], "burn_in", id="sde-config-bool-burn-in"),
    pytest.param(["steady", "--wp-plus", "nan"], "wp_plus", id="steady-nan-weight"),
    pytest.param(["wigner", "--wp-plus", "1.5"], "wp_plus", id="wigner-weight-above-1"),
    pytest.param(["wigner", "--h", "nan"], "h", id="wigner-nan-step"),
    pytest.param(["wigner", "--extent", "-1"], "extent", id="wigner-negative-extent"),
    pytest.param(["wigner", "--boundary-tol", "nan"], "boundary_tol", id="wigner-nan-tolerance"),
    pytest.param(["steady", "--kind", "conventional", "--kappa-up1", "1e300",
                  "--kappa-down", "1e-300"], "kappa_up1", id="steady-overflowing-gain-ratio"),
    pytest.param(["evolve", {"dim": 2.5}], "dim", id="evolve-config-float-dim"),
    pytest.param(["evolve", {"k_ratio": "0.3"}], "k_ratio", id="evolve-config-string-ratio"),
    pytest.param(["evolve", {"t": "5"}], "t", id="evolve-config-string-time"),
    pytest.param(["evolve", {"initial": 3}], "initial", id="evolve-config-number-initial"),
    pytest.param(["steady", {"kind": "other"}], "kind", id="steady-config-unknown-kind"),
    pytest.param(["steady", {"h": 0.1}], "h", id="steady-config-unknown-field"),
    pytest.param(["steady", {"wp_plus": None}], "wp_plus", id="steady-config-null-weight"),
    pytest.param(["phase-diagram", {"k_min": "0.1"}], "k_min", id="phase-diagram-config-string-k"),
    pytest.param(["sde", {"dump_samples": "all"}], "dump_samples", id="sde-config-string-dump"),
    pytest.param(["sde", "--dump-samples", "-3"], "dump_samples", id="sde-negative-dump"),
    pytest.param(["steady", "--kind", "bogus"], "kind", id="steady-unknown-kind"),
    pytest.param(["steady", {"command": "evolve"}], "command", id="steady-config-of-evolve"),
    pytest.param(["steady", None], "config", id="steady-missing-config"),
    pytest.param(["steady", b"{"], "config", id="steady-malformed-config"),
    pytest.param(["steady", [1, 2]], "config", id="steady-config-not-an-object"),
    pytest.param(["steady"], "out", id="steady-out-names-a-file"),
    pytest.param(["steady", "--kappa-up1", "0.3"], "kappa_up1",
                 id="steady-one-photon-gain-without-kind"),
    pytest.param(["wigner", "--h", "100"], "h", id="wigner-one-point-grid"),
    pytest.param(["wigner", "--extent", "0.1"], "extent",
                 id="wigner-extent-leaves-no-interior-cell"),
    pytest.param(["wigner", "--h", "3"], "h", id="wigner-no-interior-cell"),
    pytest.param(["wigner", "--k-ratio", "0.55", "--wp-plus", "0.545"], "extent",
                 id="wigner-field-cut-by-the-grid-edge"),
    pytest.param(["steady", "--kind", "conventional", "--kappa-up1", "0.3", "--dim", "20",
                  "--k-ratio", "0.9"], "k_ratio", id="steady-conventional-ratio-flag"),
    pytest.param(["steady", {"kind": "conventional", "kappa_up1": 0.3, "dim": 20,
                             "k_ratio": 0.9}], "k_ratio", id="steady-conventional-ratio-in-config"),
    pytest.param(["steady", "--kind", "conventional", "--kappa-up1", "0.3", "--wp-plus", "0.2"],
                 "wp_plus", id="steady-conventional-weight-flag"),
    pytest.param(["steady", {"kind": "conventional", "kappa_up1": 0.3, "wp_plus": 0.2}],
                 "wp_plus", id="steady-conventional-weight-in-config"),
])
def test_invalid_dim_or_time_is_a_config_error(tmp_path, argv, field):
    if not isinstance(argv[-1], str):  # the config file's JSON, raw bytes, or None for no file
        config = tmp_path / "config.json"
        if argv[-1] is not None:
            text = argv[-1] if isinstance(argv[-1], bytes) else json.dumps(argv[-1]).encode()
            config.write_bytes(text)
        argv = [*argv[:-1], "--config", str(config)]
    run = tmp_path / "run"
    if field == "out":
        run.write_text("")  # a file takes the output directory's name
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(run)])
    assert str(err.value).startswith(f"config error at {field}: ")
    assert run.is_file() if field == "out" else not run.exists()


def test_wigner_grid_edge_error_names_the_ratio_and_tolerance(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["wigner", "--k-ratio", "0.55", "--wp-plus", "0.545", "--boundary-tol", "0.005",
              "--out", str(tmp_path / "w")])
    assert "edge-to-peak ratio 1.025e-02" in str(err.value)
    assert "boundary_tol = 0.005" in str(err.value)


# ---------------------------------------------------------------------------
# sde
# ---------------------------------------------------------------------------

def test_sde_summary_and_reproducibility(tmp_path):
    args = ["sde", "--kappa", "1.0", "--delta", "1.0", "--omega0", "10.0",
            "--n-paths", "4000", "--burn-in", "1500", "--n-steps", "50",
            "--dt", "0.002", "--seed", "5", "--dump-samples", "100"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2
    assert abs(s1["mean_r"] - s1["mean_r_expected"]) < 0.05
    # one bit per path step; each draw of 4000 paths fills whole words
    assert s1["path_steps"] == 4000 * 1550
    assert s1["increment_words"] == 4000 * 1550 // 64
    _, header, rows = read_csv(out1 / "samples.csv")
    assert header == ["r", "phi", "x", "y"]
    assert len(rows) == 100


# ---------------------------------------------------------------------------
# wigner field dump
# ---------------------------------------------------------------------------

def test_wigner_field_dump(tmp_path):
    out = tmp_path / "wf"
    code = main(["wigner", "--out", str(out), "--k-ratio", "0.5", "--wp-plus", "0.55",
                 "--h", "0.2", "--extent", "8.0"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["irr_over_rev"] < 0.05  # coarse grid, loose bound
    comments, header, rows = read_csv(out / "field.csv")
    assert header == ["x", "y", "w", "jx", "jy", "j_irr_x", "j_irr_y"]
    assert len(rows) == 81 * 81


def test_wigner_without_rotation_has_no_flux_ratio(tmp_path):
    # the reversible flux is omega0 times a field, exactly 0 here
    out = tmp_path / "wf"
    assert main(["wigner", "--out", str(out), "--omega0", "0", "--h", "0.2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_rev_flux"] == 0.0
    assert summary["irr_over_rev"] is None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_check(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--out", str(out), "--only", "detailed-balance"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["checks"]) == ["detailed-balance"]
    assert report["checks"]["detailed-balance"]["passed"]


def test_verify_report_rows(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--out", str(out), "--only", "detailed-balance,hopf-scaling"])
    assert code == 1
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert list(checks) == ["detailed-balance", "hopf-scaling"]
    for name, details in checks.items():
        rows = {k: v for k, v in details.items() if isinstance(v, dict)}
        assert rows, name
        assert all({"value", "pass"} <= row.keys() for row in rows.values()), name
        assert details["passed"] == all(row["pass"] for row in rows.values()), name
    hopf = checks["hopf-scaling"]
    # the exponent rows pass; the prefactor rows fail against the quoted constants (README)
    assert hopf["slope_wp_gap"]["pass"] and hopf["slope_k_gap"]["pass"]
    assert not hopf["coefficient_wp_gap"]["pass"] and not hopf["coefficient_k_gap"]["pass"]


def test_verify_unknown_check_rejected(tmp_path):
    with pytest.raises(SystemExit, match="config error at only: .*no-such-check"):
        main(["verify", "--out", str(tmp_path / "v"), "--only", "no-such-check"])
    assert not (tmp_path / "v").exists()


def test_verify_unknown_mutation_rejected(tmp_path):
    with pytest.raises(SystemExit, match="config error at mutate: .*typo"):
        main(["verify", "--out", str(tmp_path / "v"), "--only", "circulation",
              "--mutate", "typo"])
    assert not (tmp_path / "v").exists()


def test_verify_takes_no_config_file(tmp_path, capsys):
    # verify has no fields, so a config file would be read by nothing
    with pytest.raises(SystemExit) as err:
        main(["verify", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "v")])
    assert err.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_verify_mutation_mode_fails_circulation(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--out", str(out), "--only", "circulation",
                 "--mutate", "circulation-sign"])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["checks"]["circulation"]["passed"]


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

def test_cli_import_leaves_scipy_stats_unloaded():
    # every command pays for what the CLI module imports; only the ensemble
    # report needs scipy.stats, and it imports it when it runs
    src = str(Path(noisecycle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, noisecycle.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# package docs
# ---------------------------------------------------------------------------

def test_readme_api_list_matches_the_package_exports():
    root = Path(__file__).resolve().parents[1]
    init = ast.parse((root / "src" / "noisecycle" / "__init__.py").read_text())
    exported = {node.module: [alias.name for alias in node.names]
                for node in init.body if isinstance(node, ast.ImportFrom)}
    readme = (root / "README.md").read_text()
    section = readme.split("## Package API", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in section.split("\n- ")[1:]:
        module, names = item.split(":", 1)
        listed[module.strip("`")] = re.findall(r"`(\w+)`", names)
    assert listed == exported
