"""Command-line driver: parameter sweeps, steady-state reports, ensembles, fields.

Every run takes an optional JSON config (flags override its fields) and
writes one output directory holding the echoed config, CSV data, and a JSON
summary.  CSV numbers carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import kstest

from . import analytic, csvio, sde, verify, wignerflux
from .fock import ModelKind, ModelParams, coherent_state, default_dim, fock_state, liouvillian
from .lindblad import (
    circulation,
    conserved_reconstruction,
    detailed_balance_residual,
    evolve,
    parity_expectation,
    parity_weights,
    steady_states,
    trace_distance,
)

def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """Flags override JSON config fields; unset fields fall back to parser defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
    merged = {}
    for key in keys:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_cfg:
            merged[key] = file_cfg[key]
    return merged


def _prepare_out(args: argparse.Namespace, command: str, cfg: dict) -> Path:
    out = Path(args.out or f"{command}-out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps({"command": command, **cfg}, indent=2) + "\n")
    return out


def _write_csv(path: Path, header: list[str], fmt: str, rows, cfg: dict, command: str) -> None:
    comment = f"config: {json.dumps({'command': command, **cfg}, sort_keys=True)}"
    with csvio.open_csv(path, header, [comment]) as fh:
        csvio.write_rows(fh, fmt, rows)


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _model_from_cfg(cfg: dict) -> ModelParams:
    kind = ModelKind(cfg.get("kind", "noise-induced"))
    if kind is ModelKind.NOISE_INDUCED:
        return ModelParams(
            omega0=cfg.get("omega0", 1.0),
            kappa_down=cfg.get("kappa_down", 1.0),
            kappa_up2=cfg.get("k_ratio", 0.5) * cfg.get("kappa_down", 1.0),
        )
    return ModelParams(
        omega0=cfg.get("omega0", 1.0),
        kappa_down=cfg.get("kappa_down", 1.0),
        kappa_up1=cfg.get("kappa_up1", 0.0),
        kind=kind,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phase_diagram(args: argparse.Namespace) -> int:
    keys = ["k_min", "k_max", "k_count", "wp_min", "wp_max", "wp_count"]
    cfg = _merge_config(args, keys)
    cfg = {
        "k_min": cfg.get("k_min", 0.02),
        "k_max": cfg.get("k_max", 0.98),
        "k_count": cfg.get("k_count", 50),
        "wp_min": cfg.get("wp_min", 0.0),
        "wp_max": cfg.get("wp_max", 1.0),
        "wp_count": cfg.get("wp_count", 50),
    }
    if not (0.0 < cfg["k_min"] <= cfg["k_max"] < 1.0):
        raise SystemExit(f"config error at k_min/k_max: need 0 < k_min <= k_max < 1, got {cfg}")
    if not (0.0 <= cfg["wp_min"] <= cfg["wp_max"] <= 1.0):
        raise SystemExit(f"config error at wp_min/wp_max: need range inside [0, 1], got {cfg}")
    out = _prepare_out(args, "phase-diagram", cfg)
    rows = []
    for k in np.linspace(cfg["k_min"], cfg["k_max"], cfg["k_count"]):
        for wp in np.linspace(cfg["wp_min"], cfg["wp_max"], cfg["wp_count"]):
            point = analytic.phase_classify(k, wp)
            rows.append(
                (k, wp, point.r_star, point.w0, point.q_ss,
                 float(analytic.sigmoid(point.q_ss)), point.phase.value)
            )
    _write_csv(out / "phase_diagram.csv",
               ["K", "wp_plus", "r_star", "w0", "q_ss", "s_q", "phase"],
               csvio.row_format(*[csvio.NUMBER] * 6, csvio.TEXT), rows, cfg, "phase-diagram")
    _write_summary(out, {"rows": len(rows)})
    print(f"wrote {len(rows)} rows to {out/'phase_diagram.csv'}")
    return 0


def cmd_steady(args: argparse.Namespace) -> int:
    keys = ["k_ratio", "wp_plus", "omega0", "kappa_down", "kappa_up1", "kind", "dim"]
    cfg = _merge_config(args, keys)
    cfg.setdefault("k_ratio", 0.5)
    cfg.setdefault("wp_plus", 0.55)
    cfg.setdefault("omega0", 1.0)
    cfg.setdefault("kappa_down", 1.0)
    cfg.setdefault("kind", "noise-induced")
    params = _model_from_cfg(cfg)
    dim = cfg.get("dim") or default_dim(params)
    cfg["dim"] = dim
    out = _prepare_out(args, "steady", cfg)

    gen = liouvillian(params, dim)
    solved = steady_states(gen)
    checks = {}
    if params.kind is ModelKind.NOISE_INDUCED:
        k, wp = params.k_ratio, cfg["wp_plus"]
        rho = solved.combine(wp)
        dist = trace_distance(rho, analytic.rho_ss_analytic(k, wp, dim))
        checks["steady_trace_distance"] = {"value": dist, "tol": 1e-8, "pass": dist < 1e-8}

        circ = circulation(rho, params)
        # without rotation (omega0 = 0) the closed form is zero: compare absolutely
        circ_gap = abs(circ.phi - circ.phi_formula) / (abs(circ.phi_formula) or 1.0)
        checks["circulation_rel_gap"] = {"value": circ_gap, "tol": 1e-8, "pass": circ_gap < 1e-8}

        n = np.arange(dim, dtype=float)
        pops = np.diag(rho).real
        mean = float(n @ pops)
        q_moments = (float(n ** 2 @ pops) - mean ** 2) / mean - 1.0
        q_gap = abs(q_moments - analytic.mandel_q(k, wp))
        # the truncated tail biases the second moment; allow for it explicitly
        q_tol = 1e-10 + 4.0 * dim ** 2 * k ** (dim / 2) / max(mean, 0.1)
        checks["mandel_q_gap"] = {"value": q_gap, "tol": q_tol, "pass": q_gap < q_tol}

        residual = detailed_balance_residual(params, rho)
        checks["detailed_balance_residual"] = {"value": residual, "tol": 1e-10,
                                               "pass": residual < 1e-10}

        if k > 0:
            gap = float(np.abs(conserved_reconstruction(rho, k)
                               - (wp * solved.rho_plus + (1 - wp) * solved.rho_minus)).max())
            checks["conserved_reconstruction_gap"] = {"value": gap, "tol": 1e-10,
                                                      "pass": gap < 1e-10}
        else:
            checks["conserved_reconstruction_gap"] = {
                "skipped": "zero gain ratio conserves an extra coherence; reconstruction not defined"
            }
    else:
        rho = solved.states[0]
        residual = detailed_balance_residual(params, rho)
        checks["detailed_balance_residual"] = {
            "value": residual,
            "expected": "fail (> 1e-3): the one-photon-gain model breaks detailed balance",
            "pass": residual > 1e-3,
        }
        circ = circulation(rho, params)
        checks["circulation"] = {"value": circ.phi, "mean_n": circ.mean_n, "pass": True}

    summary = {
        "kernel_dim": solved.kernel_dim,
        "checks": checks,
        "all_pass": all(c.get("pass", True) for c in checks.values()),
    }
    _write_summary(out, summary)
    for name, c in checks.items():
        status = "SKIP" if "skipped" in c else ("PASS" if c.get("pass") else "FAIL")
        print(f"{status}  {name}  {c}")
    return 0 if summary["all_pass"] else 1


def cmd_evolve(args: argparse.Namespace) -> int:
    keys = ["k_ratio", "omega0", "kappa_down", "dim", "t", "initial"]
    cfg = _merge_config(args, keys)
    cfg.setdefault("k_ratio", 0.5)
    cfg.setdefault("omega0", 1.0)
    cfg.setdefault("kappa_down", 1.0)
    cfg.setdefault("t", 10.0)
    cfg.setdefault("initial", "vacuum")
    params = _model_from_cfg(cfg)
    dim = cfg.get("dim") or default_dim(params)
    cfg["dim"] = dim
    out = _prepare_out(args, "evolve", cfg)

    spec = cfg["initial"]
    if spec == "vacuum":
        rho0 = fock_state(dim, 0)
    elif spec.startswith("fock:"):
        rho0 = fock_state(dim, int(spec.split(":", 1)[1]))
    elif spec.startswith("coherent:"):
        rho0 = coherent_state(dim, complex(spec.split(":", 1)[1]))
    else:
        raise SystemExit(f"config error at initial: unknown state {spec!r}")

    gen = liouvillian(params, dim)
    rho_t = evolve(rho0, gen, cfg["t"])
    wp0, _ = parity_weights(rho0)
    target = analytic.rho_ss_analytic(params.k_ratio, wp0, dim)
    summary = {
        "t": cfg["t"],
        "parity_initial": parity_expectation(rho0),
        "parity_final": parity_expectation(rho_t),
        "trace_final": float(np.trace(rho_t).real),
        "distance_to_predicted_steady": trace_distance(rho_t, target),
    }
    _write_summary(out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_sde(args: argparse.Namespace) -> int:
    keys = ["kappa", "delta", "omega0", "dt", "n_steps", "burn_in", "n_paths",
            "seed", "coordinates", "dump_samples"]
    cfg = _merge_config(args, keys)
    cfg = {
        "kappa": cfg.get("kappa", 1.0),
        "delta": cfg.get("delta", 1.0),
        "omega0": cfg.get("omega0", 10.0),
        "dt": cfg.get("dt", 0.002),
        "n_steps": cfg.get("n_steps", 200),
        "burn_in": cfg.get("burn_in", 3000),
        "n_paths": cfg.get("n_paths", 20000),
        "seed": cfg.get("seed", 0),
        "coordinates": cfg.get("coordinates", "polar"),
        "dump_samples": cfg.get("dump_samples", 10000),
    }
    out = _prepare_out(args, "sde", cfg)
    run_cfg = sde.SdeConfig(**{k: v for k, v in cfg.items() if k != "dump_samples"})
    result = sde.simulate_ensemble(run_cfg)
    empirical, formula = sde.circulation_classical(run_cfg, result)
    pdfs = sde.analytic_pdfs(run_cfg)
    ks_r = kstest(result.r, lambda r: 1.0 - np.exp(-run_cfg.delta * r ** 2 / (2 * run_cfg.kappa)))
    ks_phi = kstest(result.phi / (2.0 * math.pi), "uniform")
    summary = {
        "mean_r": result.mean_r,
        "mean_r_expected": math.sqrt(math.pi * run_cfg.kappa / (2.0 * run_cfg.delta)),
        "var_r": result.var_r,
        "var_r_expected": (4.0 - math.pi) * run_cfg.kappa / (2.0 * run_cfg.delta),
        "radial_mode_expected": pdfs.radial_mode,
        "ks_r_pvalue": float(ks_r.pvalue),
        "ks_phi_pvalue": float(ks_phi.pvalue),
        "circulation_empirical": empirical,
        "circulation_formula": formula,
        "n_diverged": result.n_diverged,
        "n_total": result.n_total,
    }
    cap = int(cfg["dump_samples"])
    if cap > 0:
        rows = zip(result.r[:cap], result.phi[:cap], result.x[:cap], result.y[:cap])
        _write_csv(out / "samples.csv", ["r", "phi", "x", "y"],
                   csvio.row_format(*[csvio.NUMBER] * 4), rows, cfg, "sde")
    _write_summary(out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    keys = ["k_ratio", "wp_plus", "omega0", "kappa_down", "h", "extent", "boundary_tol"]
    cfg = _merge_config(args, keys)
    cfg.setdefault("k_ratio", 0.5)
    cfg.setdefault("wp_plus", 0.55)
    cfg.setdefault("omega0", 1.0)
    cfg.setdefault("kappa_down", 1.0)
    cfg.setdefault("h", 0.05)
    cfg.setdefault("extent", wignerflux.default_extent(cfg["k_ratio"], cfg["wp_plus"]))
    cfg.setdefault("boundary_tol", 1e-2)
    params = _model_from_cfg(cfg)
    out = _prepare_out(args, "wigner", cfg)

    field = wignerflux.sample_steady_field(cfg["k_ratio"], cfg["wp_plus"],
                                           extent=cfg["extent"], h=cfg["h"])
    residual = wignerflux.wigner_generator_apply(field, params, boundary_tol=cfg["boundary_tol"])
    jx, jy = wignerflux.wigner_current(field, params, boundary_tol=cfg["boundary_tol"])
    decomp = wignerflux.flux_decompose(field, jx, jy, params)
    header = [f"config: {json.dumps({'command': 'wigner', **cfg}, sort_keys=True)}"]
    wignerflux.field_to_csv(out / "field.csv", field, jx, jy, decomp, header_lines=header)
    summary = {
        "mass": field.mass(),
        "max_generator_residual": float(np.abs(wignerflux.interior(residual)).max()),
        "max_irr_flux": wignerflux.max_flux_norm(decomp.j_irr_x, decomp.j_irr_y),
        "max_rev_flux": wignerflux.max_flux_norm(decomp.j_rev_x, decomp.j_rev_y),
    }
    summary["irr_over_rev"] = summary["max_irr_flux"] / summary["max_rev_flux"]
    _write_summary(out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    only = args.only.split(",") if args.only else None
    mutations = tuple(args.mutate.split(",")) if args.mutate else ()
    cfg = {"only": only, "mutations": list(mutations)}
    out = _prepare_out(args, "verify", cfg)
    start = time.time()
    results = verify.run_checks(only=only, mutations=mutations)
    report = {
        "all_pass": all(r.passed for r in results),
        "runtime_s": time.time() - start,
        "checks": {
            r.name: {"passed": r.passed, "duration_s": r.duration, **r.details}
            for r in results
        },
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in results:
        print(r.summary())
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"FAILED checks: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--out", help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisecycle",
        description="noise-induced quantum limit cycles and their classical twin",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("phase-diagram", help="sweep the (ratio, even-weight) square to CSV")
    _add_common(p)
    p.add_argument("--k-min", dest="k_min", type=float)
    p.add_argument("--k-max", dest="k_max", type=float)
    p.add_argument("--k-count", dest="k_count", type=int)
    p.add_argument("--wp-min", dest="wp_min", type=float)
    p.add_argument("--wp-max", dest="wp_max", type=float)
    p.add_argument("--wp-count", dest="wp_count", type=int)
    p.set_defaults(func=cmd_phase_diagram)

    p = subs.add_parser("steady", help="cross-checked steady-state report")
    _add_common(p)
    p.add_argument("--k-ratio", dest="k_ratio", type=float)
    p.add_argument("--wp-plus", dest="wp_plus", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--kappa-down", dest="kappa_down", type=float)
    p.add_argument("--kappa-up1", dest="kappa_up1", type=float)
    p.add_argument("--kind", choices=[k.value for k in ModelKind])
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_steady)

    p = subs.add_parser("evolve", help="propagate an initial state and report")
    _add_common(p)
    p.add_argument("--k-ratio", dest="k_ratio", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--kappa-down", dest="kappa_down", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--initial", help="vacuum | fock:n | coherent:alpha")
    p.set_defaults(func=cmd_evolve)

    p = subs.add_parser("sde", help="classical ensemble with summary statistics")
    _add_common(p)
    p.add_argument("--kappa", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--n-paths", dest="n_paths", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--coordinates", choices=["polar", "cartesian"])
    p.add_argument("--dump-samples", dest="dump_samples", type=int)
    p.set_defaults(func=cmd_sde)

    p = subs.add_parser("wigner", help="steady field, current, and flux decomposition")
    _add_common(p)
    p.add_argument("--k-ratio", dest="k_ratio", type=float)
    p.add_argument("--wp-plus", dest="wp_plus", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--kappa-down", dest="kappa_down", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--extent", type=float)
    p.add_argument("--boundary-tol", dest="boundary_tol", type=float)
    p.set_defaults(func=cmd_wigner)

    p = subs.add_parser("verify", help="run the acceptance checks")
    _add_common(p)
    p.add_argument("--only", help="comma-separated check names")
    p.add_argument("--mutate", help="comma-separated fault injections (self-test)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
