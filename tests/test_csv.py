"""Every CSV the package writes is byte-identical to the csv-module reference.

The reference is the row-by-row path: ``csv.writer`` with each number
formatted by ``f"{v:.17g}"``.  The package writes through ``noisecycle.csvio``
instead, so each file is compared byte for byte with what the reference
writes from the same data.
"""

import csv
import json

import numpy as np

from noisecycle import analytic, sde, wignerflux
from noisecycle.cli import main
from noisecycle.fock import ModelParams
from noisecycle.wignerflux import FluxDecomposition, WignerField, field_to_csv


def reference_field_csv(path, field, jx, jy, decomp, header_lines):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "w", "jx", "jy", "j_irr_x", "j_irr_y"])
        for i, xv in enumerate(field.x):
            for j, yv in enumerate(field.y):
                writer.writerow([
                    f"{v:.17g}"
                    for v in (xv, yv, field.w[i, j], jx[i, j], jy[i, j],
                              decomp.j_irr_x[i, j], decomp.j_irr_y[i, j])
                ])


def reference_table_csv(path, header, rows, cfg):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.17g}" for v in row])


def echoed_config(out):
    return json.loads((out / "config.json").read_text())


def test_field_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "w"
    assert main(["wigner", "--out", str(out), "--k-ratio", "0.3", "--wp-plus", "0.6",
                 "--h", "0.25"]) == 0
    cfg = echoed_config(out)
    field = wignerflux.sample_steady_field(cfg["k_ratio"], cfg["wp_plus"],
                                           extent=cfg["extent"], h=cfg["h"])
    params = ModelParams(omega0=cfg["omega0"], kappa_down=cfg["kappa_down"],
                         kappa_up2=cfg["k_ratio"] * cfg["kappa_down"])
    jx, jy = wignerflux.wigner_current(field, params, boundary_tol=cfg["boundary_tol"])
    decomp = wignerflux.flux_decompose(field, jx, jy, params)
    # the zeroed edge ring prints as exact zeros
    assert not jx[0].any() and not decomp.j_irr_y[:, -1].any()
    ref = tmp_path / "ref.csv"
    reference_field_csv(ref, field, jx, jy, decomp,
                        [f"config: {json.dumps(cfg, sort_keys=True)}"])
    assert (out / "field.csv").read_bytes() == ref.read_bytes()


def test_field_csv_extreme_values_match_reference(tmp_path):
    grid = np.linspace(-1.5, 1.5, 4)
    special = np.array([
        -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
        1.7976931348623157e308, -1e308, 9.999999999999999e307, 1e-300,
        0.1, 1.0 / 3.0, -2.5e-17, 123456789.0, np.inf, -np.inf, np.nan, 1.0,
    ])
    w = special.reshape(4, 4)
    jx, jy = w[::-1].copy(), w.T.copy()
    decomp = FluxDecomposition(j_rev_x=jx, j_rev_y=jy, j_irr_x=-w, j_irr_y=w[:, ::-1].copy())
    field = WignerField(x=grid, y=grid, w=w)
    out, ref = tmp_path / "field.csv", tmp_path / "ref.csv"
    field_to_csv(out, field, jx, jy, decomp, header_lines=["edge values", "second line"])
    reference_field_csv(ref, field, jx, jy, decomp, ["edge values", "second line"])
    assert out.read_bytes() == ref.read_bytes()
    assert b",-0," in out.read_bytes() and b"4.9406564584124654e-324" in out.read_bytes()


def test_phase_diagram_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--out", str(out), "--k-min", "0.1", "--k-max", "0.9",
                 "--k-count", "4", "--wp-count", "5"]) == 0
    cfg = echoed_config(out)
    rows = []
    for k in np.linspace(cfg["k_min"], cfg["k_max"], cfg["k_count"]):
        for wp in np.linspace(cfg["wp_min"], cfg["wp_max"], cfg["wp_count"]):
            point = analytic.phase_classify(k, wp)
            rows.append((k, wp, point.r_star, point.w0, point.q_ss,
                         float(analytic.sigmoid(point.q_ss)), point.phase.value))
    kinds = {type(v) for row in rows for v in row}
    assert {np.float64, float, str} <= kinds
    assert {row[-1] for row in rows} == {"I", "II", "III"}
    ref = tmp_path / "ref.csv"
    reference_table_csv(ref, ["K", "wp_plus", "r_star", "w0", "q_ss", "s_q", "phase"], rows, cfg)
    assert (out / "phase_diagram.csv").read_bytes() == ref.read_bytes()


def test_samples_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "sde"
    assert main(["sde", "--out", str(out), "--n-paths", "600", "--burn-in", "200",
                 "--n-steps", "20", "--dump-samples", "500", "--seed", "3"]) == 0
    cfg = echoed_config(out)
    run_cfg = sde.SdeConfig(**{k: v for k, v in cfg.items()
                               if k not in ("command", "dump_samples")})
    result = sde.simulate_ensemble(run_cfg)
    cap = cfg["dump_samples"]
    rows = zip(result.r[:cap], result.phi[:cap], result.x[:cap], result.y[:cap])
    ref = tmp_path / "ref.csv"
    reference_table_csv(ref, ["r", "phi", "x", "y"], rows, cfg)
    assert (out / "samples.csv").read_bytes() == ref.read_bytes()

