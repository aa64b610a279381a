"""Command-line driver: outputs, config echo, formatting, and the verify gate."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisecycle
from noisecycle.cli import main


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


@pytest.mark.parametrize("kappa_up1, code", [("0.05", 0), ("0", 1)])
def test_conventional_balance_floor_scales_with_gain(tmp_path, kappa_up1, code):
    # the conventional residual is about 1e-2 kappa_up1 / kappa_down; without
    # gain it is exactly zero and the model must fail the row
    out = tmp_path / "steady"
    assert main(["steady", "--out", str(out), "--kind", "conventional",
                 "--kappa-up1", kappa_up1, "--dim", "20"]) == code
    db = json.loads((out / "summary.json").read_text())["checks"]["detailed_balance_residual"]
    assert db["floor"] == 1e-3 * float(kappa_up1)
    assert db["pass"] == (code == 0)


def test_steady_report_zero_ratio_skips_reconstruction(tmp_path):
    out = tmp_path / "steady"
    code = main(["steady", "--out", str(out), "--k-ratio", "0.0", "--dim", "20"])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert "skipped" in report["checks"]["conserved_reconstruction_gap"]


@pytest.mark.parametrize("k_ratio", ["0.3", "0"])
def test_steady_report_without_rotation(tmp_path, k_ratio):
    # the circulation closed form is exactly zero at omega0 = 0
    out = tmp_path / "steady"
    code = main(["steady", "--out", str(out), "--omega0", "0", "--k-ratio", k_ratio])
    assert code == 0
    report = json.loads((out / "summary.json").read_text())
    assert report["all_pass"]
    assert report["kernel_dim"] == 2


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


@pytest.mark.parametrize("spec", ["coherent:abc", "fock:x", "fock:99"])
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
    pytest.param(["steady", "--k-ratio", "1.2"], "k_ratio", id="steady-saturated-gain"),
    pytest.param(["steady", "--omega0", "nan"], "omega0", id="steady-nan-omega0"),
    pytest.param(["evolve", "--kappa-down", "0"], "kappa_down", id="evolve-no-loss"),
    pytest.param(["evolve", "--omega0", "inf"], "omega0", id="evolve-inf-omega0"),
    pytest.param(["evolve", "--initial", "coherent:nan"], "initial", id="evolve-nan-amplitude"),
    pytest.param(["wigner", "--k-ratio", "1.2"], "k_ratio", id="wigner-saturated-gain"),
    pytest.param(["sde", "--kappa", "nan"], "kappa", id="sde-nan-kappa"),
    pytest.param(["sde", "--dt", "inf"], "dt", id="sde-inf-dt"),
])
def test_invalid_dim_or_time_is_a_config_error(tmp_path, argv, field):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "run")])
    assert str(err.value).startswith(f"config error at {field}: ")
    assert not (tmp_path / "run").exists()


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
    with pytest.raises(KeyError):
        main(["verify", "--out", str(tmp_path / "v"), "--only", "no-such-check"])


def test_verify_unknown_mutation_rejected(tmp_path):
    with pytest.raises(KeyError):
        main(["verify", "--out", str(tmp_path / "v"), "--only", "circulation",
              "--mutate", "typo"])


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
