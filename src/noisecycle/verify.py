"""End-to-end verification checks, shared by the command line and the test suite.

Each check exercises one cross-validated claim and returns named comparison
rows ``{"value", <bound>, "pass"}`` beside plain context values; it passes
when every row does.  ``mutations`` deliberately corrupts a formula so the
check ``MUTATIONS`` maps it to must fail, to prove the checks have teeth.

The reports of ``noisecycle steady`` and ``noisecycle sde`` are built here from
the comparisons the checks make, so each tolerance is written once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic, sde, wignerflux
from .fock import (
    Generator,
    ModelKind,
    ModelParams,
    coherent_state,
    dim_for_tail,
    fock_state,
)
from .lindblad import (
    circulation,
    conserved_reconstruction,
    detailed_balance_residual,
    edge_population,
    evolve,
    parity_expectation,
    random_density_matrix,
    steady_populations,
    trace_distance,
    wigner_numeric,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    duration: float = 0.0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.details.items()))
        return f"{status}  {self.name}  ({self.duration:.1f}s)  {keys}"


def _fmt(v):
    if isinstance(v, dict):
        return f"{_fmt(v['value'])} {'ok' if v['pass'] else 'FAIL'}"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# ---------------------------------------------------------------------------
# comparisons shared by the checks and the command-line reports
# ---------------------------------------------------------------------------

CLOSED_FORM_TOL = 1e-8      # trace distance of a steady state to the closed form
CONVENTIONAL_FLOOR = 0.5    # conventional flow gap floor; with gain the gap is exactly 1
MANDEL_TOL = 1e-10          # Mandel Q from moments vs the closed form


def _below(value: float, tol: float) -> dict:
    return {"value": value, "tol": tol, "pass": bool(value < tol)}


def _above(value: float, floor: float) -> dict:
    return {"value": value, "floor": floor, "pass": bool(value > floor)}


def _within(value: float, lo: float, hi: float) -> dict:
    return {"value": value, "lo": lo, "hi": hi, "pass": bool(lo <= value <= hi)}


def _all_pass(details: dict) -> bool:
    """The verdict: every comparison row passes; a skipped comparison is no row."""
    return all(row["pass"] for row in details.values()
               if isinstance(row, dict) and "skipped" not in row)


def closed_form_row(pops: np.ndarray, k_ratio: float, wp_plus: float) -> dict:
    """Trace distance of the populations of a diagonal state to the closed form at their dim."""
    target = analytic.populations_ss(k_ratio, wp_plus, pops.size)
    return _below(trace_distance(pops, target), CLOSED_FORM_TOL)


def circulation_row(measured: float, formula: float) -> dict:
    """Relative gap to the closed form; absolute where that is zero (omega0 = 0)."""
    return _below(abs(measured - formula) / (abs(formula) or 1.0), 1e-8)


def balance_row(kind: ModelKind, residual: float) -> dict:
    """Row for a detailed-balance residual of a model of this kind: zero for noise-induced only."""
    if kind is ModelKind.NOISE_INDUCED:
        return _below(residual, 1e-10)
    # neither conventional jump has a mirror, so its flow gap is 1; without gain nothing flows
    return {**_above(residual, CONVENTIONAL_FLOOR),
            "expected": "fail: the one-photon-gain model breaks detailed balance"}


def mandel_moments(pops: np.ndarray) -> tuple[float, float]:
    """Mean photon number and Mandel Q of a photon-number distribution; Q is NaN at mean 0."""
    n = np.arange(pops.size, dtype=float)
    mean = float(n @ pops)
    return mean, (float(n ** 2 @ pops) - mean ** 2) / mean - 1.0 if mean else math.nan


def steady_report(params: ModelParams, dim: int, wp_plus: float | None) -> dict:
    """Steady state of one model cross-checked against closed forms and detailed balance.

    The conventional model must break detailed balance; it has one steady
    state, so it reads no even weight ``wp_plus``.  Every row reads the
    steady populations: no dim x dim array is built.
    """
    solved = steady_populations(Generator(params, dim))
    checks = {}
    if params.kind is ModelKind.NOISE_INDUCED:
        k = params.k_ratio
        pops = solved.combine(wp_plus)
        checks["steady_trace_distance"] = closed_form_row(pops, k, wp_plus)
        circ = circulation(pops, params)
        checks["circulation_rel_gap"] = circulation_row(circ.phi, circ.phi_formula)
        mean, q_moments = mandel_moments(pops)
        # the truncated tail biases the second moment; allow for it explicitly
        q_tol = MANDEL_TOL + 4.0 * dim ** 2 * k ** (dim / 2) / max(mean, 0.1)
        checks["mandel_q_gap"] = (
            _below(abs(q_moments - analytic.mandel_q(k, wp_plus)), q_tol) if mean
            else {"skipped": "the state is vacuum: mean photon number 0, Mandel Q not defined"})
        checks["detailed_balance_residual"] = balance_row(
            params.kind, detailed_balance_residual(params, pops))
        if k > 0:
            gap = float(np.abs(conserved_reconstruction(pops, k) - pops).max())
            checks["conserved_reconstruction_gap"] = _below(gap, 1e-10)
        else:
            checks["conserved_reconstruction_gap"] = {
                "skipped": "zero gain ratio conserves an extra coherence; reconstruction not defined"
            }
    else:
        pops = solved.states[0]
        checks["detailed_balance_residual"] = balance_row(
            params.kind, detailed_balance_residual(params, pops))
        circ = circulation(pops, params)
        checks["circulation"] = {"value": circ.phi, "mean_n": circ.mean_n, "pass": True}
    return {
        "kernel_dim": solved.kernel_dim,
        "edge_population": edge_population(pops),
        "checks": checks,
        "all_pass": _all_pass(checks),
    }


def ensemble_report(cfg: sde.SdeConfig, result: sde.SdeEnsembleResult) -> dict:
    """Ensemble moments and KS p-values against the Rayleigh/uniform closed forms.

    Also the work done: path steps and the raw 64-bit words of the increments.
    """
    from scipy.stats import kstest

    empirical, formula = sde.circulation_classical(cfg, result)
    ks_r = kstest(result.r, lambda r: 1.0 - np.exp(-cfg.delta * r ** 2 / (2 * cfg.kappa)))
    ks_phi = kstest(result.phi / (2.0 * math.pi), "uniform")
    return {
        "mean_r": result.mean_r,
        "mean_r_expected": math.sqrt(math.pi * cfg.kappa / (2.0 * cfg.delta)),
        "var_r": result.var_r,
        "var_r_expected": (4.0 - math.pi) * cfg.kappa / (2.0 * cfg.delta),
        "radial_mode_expected": sde.AnalyticPdfs(cfg.kappa, cfg.delta).radial_mode,
        "ks_r_pvalue": float(ks_r.pvalue),
        "ks_phi_pvalue": float(ks_phi.pvalue),
        "circulation_empirical": empirical,
        "circulation_formula": formula,
        "n_diverged": result.n_diverged,
        "n_total": result.n_total,
        "path_steps": cfg.n_paths * (cfg.burn_in + cfg.n_steps),
        "increment_words": result.increment_words,
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_steady_state_oracle(mutations=()) -> dict:
    """Solved steady states match the geometric closed form (dist < 1e-8)."""
    # a wrongly assembled generator: the loss rate doubled, so its ratio is k / 2
    kappa_down = 2.0 if "generator-loss-rate" in mutations else 1.0
    distances = []
    for k_ratio in (0.1, 0.5, 0.8):
        dim = dim_for_tail(k_ratio)
        params = ModelParams(omega0=1.0, kappa_down=kappa_down, kappa_up2=k_ratio)
        result = steady_populations(Generator(params, dim))
        distances += [closed_form_row(result.combine(wp), k_ratio, wp)["value"]
                      for wp in (0.3, 0.55, 0.9)]
    # np.max, unlike max, carries a NaN distance into the row, which then fails
    return {"max_trace_distance": _below(float(np.max(distances)), CLOSED_FORM_TOL)}


def check_wigner_oracle(mutations=()) -> dict:
    """Closed-form quasiprobability vs displaced parity (< 1e-6).

    The steady state, diagonal, on a 41x41 grid, and a coherent state, whose
    coherences ``wigner_numeric`` reads order by order, on a 5x5 grid:
    W = exp(-|(x, y) - 2 (Re alpha, Im alpha)|^2 / 2) / (2 pi).
    """
    k_ratio, wp = 0.2, 0.4
    dim = 128  # corner displacements reach |alpha| ~ 4.6 and need the headroom
    extent = wignerflux.default_extent(k_ratio, wp)
    axis = np.linspace(-extent, extent, 41)
    rho = analytic.rho_ss_analytic(k_ratio, wp, dim)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack((xs.ravel(), ys.ravel()))
    numeric = wigner_numeric(rho, points).reshape(xs.shape)
    closed = analytic.wigner_ss(xs, ys, k_ratio, wp)
    gap = float(np.abs(numeric - closed).max())

    alpha = 1.0 + 0.5j
    axis = np.linspace(-3.0, 3.0, 5)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack((xs.ravel(), ys.ravel()))
    numeric = wigner_numeric(coherent_state(dim, alpha), points).reshape(xs.shape)
    scale = 1.0 if "coherent-centre-halved" in mutations else 2.0  # alpha = (x + iy) / 2
    closed = np.exp(-0.5 * ((xs - scale * alpha.real) ** 2 + (ys - scale * alpha.imag) ** 2))
    coherent_gap = float(np.abs(numeric - closed / (2.0 * math.pi)).max())
    return {"max_abs_gap": _below(gap, 1e-6), "grid": "41x41",
            "coherent_max_abs_gap": _below(coherent_gap, 1e-6)}


def check_phase_classification(mutations=()) -> dict:
    """Reference points classify I/II/III; radius sign matches a brute-force scan."""
    points = {(0.6, 0.9): "I", (0.1, 0.55): "II", (0.2, 0.4): "III"}
    label_mismatches = sum(
        analytic.phase_classify(k, wp).phase.value != label
        for (k, wp), label in points.items()
    )
    k_grid = np.linspace(0.02, 0.98, 50)
    wp_grid = np.linspace(0.0, 1.0, 50)
    disagreements = 0
    odd_weight = "phase-scan-odd-weight" in mutations  # the scan run at 1 - wp
    for k in k_grid:
        for wp in wp_grid:
            formula_positive = analytic.limit_cycle_radius(k, wp) > 0
            scan_positive = analytic.scan_radius(k, 1.0 - wp if odd_weight else wp) > 0
            if formula_positive != scan_positive:
                disagreements += 1
    return {
        "reference_label_mismatches": _within(label_mismatches, 0, 0),
        "sign_disagreements": _within(disagreements, 0, 0),
        "sweep": "50x50",
    }


def check_hopf_scaling(mutations=()) -> dict:
    """Square-root amplitude law at cycle birth; prefactors vs the quoted constants.

    The measured prefactors follow analytically from the closed-form radius
    and land at exactly 1/(2 sqrt 2) of the quoted reference constants, so the
    prefactor rows fail; the exponent rows pass.  See the README and the
    radius cross-checks in the analytic tests.
    """
    k_c = 0.25
    wp_c = analytic.phase_boundary(k_c)
    offsets = np.geomspace(1e-5, 1e-3, 9)
    exponent = 1.0 if "hopf-linear-law" in mutations else 0.5  # a linear law as the reference
    targets = {
        "wp": ("wp_plus", 2.0 * math.sqrt(2.0) / (2.0 * wp_c - 1.0)),
        "k": ("k_ratio", 4.0 / (1.0 - k_c)),
    }
    details = {}
    for name, (direction, target) in targets.items():
        fit = analytic.hopf_scaling(k_c, wp_c, direction, offsets)
        details[f"slope_{name}"] = fit.slope
        details[f"slope_{name}_gap"] = _within(abs(fit.slope - exponent), 0.0, 0.02)
        details[f"coefficient_{name}"] = fit.coefficient
        details[f"coefficient_{name}_target"] = target
        details[f"coefficient_{name}_gap"] = _within(
            abs(fit.coefficient - target), 0.0, 0.02 * target
        )
        details[f"coefficient_ratio_{name}"] = fit.coefficient / target
    return details


def check_mandel_q(mutations=()) -> dict:
    """Closed-form Q vs moments of the diagonal steady state (< 1e-10)."""
    worst = 0.0
    sign_mismatches = 0
    for k_ratio in np.linspace(0.04, 0.8, 20):
        dim = dim_for_tail(k_ratio, decades=16.0)
        for wp in np.linspace(0.0, 1.0, 20):
            _, q_moments = mandel_moments(analytic.populations_ss(k_ratio, wp, dim))
            # a closed form read at the odd weight in place of the even one
            q_formula = analytic.mandel_q(
                k_ratio, 1.0 - wp if "mandel-parity-weight" in mutations else wp)
            worst = max(worst, abs(q_formula - q_moments))
            if (q_formula < 0) != analytic.nonclassical_region(k_ratio, wp):
                sign_mismatches += 1
    return {
        "max_abs_gap": _below(worst, MANDEL_TOL),
        "q_at_origin": _within(analytic.mandel_q(0.0, 0.0), -1.0, -1.0),
        "region_sign_mismatches": _within(sign_mismatches, 0, 0),
    }


def check_circulation(mutations=()) -> dict:
    """Phase-space angular momentum vs omega0 <x^2+y^2> and the steady form."""
    rng = np.random.default_rng(99)
    params = ModelParams(omega0=0.9, kappa_down=1.0, kappa_up2=0.5)
    dim = 64
    worst_rel = 0.0
    for _ in range(50):
        rho = random_density_matrix(dim, support=dim - 12, rng=rng)
        result = circulation(rho, params)
        mean_sq = 4.0 * float(np.arange(dim) @ np.diagonal(rho).real) + 2.0
        reference = abs(params.omega0) * mean_sq
        worst_rel = max(worst_rel, abs(result.phi - reference) / reference)

    steady = analytic.populations_ss(0.5, 0.55, 100)
    steady_params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
    steady_result = circulation(steady, steady_params)
    formula = 4.0 * abs(steady_params.omega0) * (analytic.mean_n_ss(0.5, 0.55) + 0.5)
    if "circulation-sign" in mutations:
        formula = -formula
    return {
        "max_rel_identity_gap": _below(worst_rel, 1e-9),
        "steady_rel_gap": circulation_row(steady_result.phi, formula),
        "steady_formula": formula,
        "steady_measured": steady_result.phi,
    }


def check_detailed_balance(mutations=()) -> dict:
    """Residual dichotomy: noise-induced < 1e-10, conventional above ``CONVENTIONAL_FLOOR``."""
    ni_params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
    ni = detailed_balance_residual(
        ni_params, analytic.populations_ss(0.5, 0.55, dim_for_tail(0.5)))
    conv_params = ModelParams(
        omega0=1.0, kappa_down=1.0, kappa_up1=0.3, kind=ModelKind.CONVENTIONAL
    )
    conv_dim = 20
    conv = detailed_balance_residual(
        conv_params, steady_populations(Generator(conv_params, conv_dim)).states[0])
    if "balance-models-swapped" in mutations:  # each row reads the other model
        ni, conv = conv, ni
    return {
        "noise_induced_residual": balance_row(ModelKind.NOISE_INDUCED, ni),
        "conventional_residual": balance_row(ModelKind.CONVENTIONAL, conv),
        "conventional_dim": conv_dim,
    }


def check_parity(mutations=()) -> dict:
    """Parity frozen along evolution, and the outcome it selects.

    The vacuum seeds no odd population.  A coherent start of mean photon
    number |alpha|^2 relaxes to the steady state of its even weight
    ``analytic.coherent_even_weight(|alpha|^2)`` (trace distance below
    ``CLOSED_FORM_TOL`` at t = 100), and that state is a limit cycle exactly
    when |alpha|^2 passes ``analytic.coherent_cycle_threshold``: two starts
    lie far from it and two within 5% of it, one on each side.
    """
    k_ratio = 0.3
    dim = dim_for_tail(k_ratio)
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=k_ratio)
    gen = Generator(params, dim)

    rho0 = coherent_state(dim, 1.0)
    reference = parity_expectation(rho0)
    drift = max(
        abs(parity_expectation(evolve(rho0, gen, t)) - reference) for t in (2.0, 10.0)
    )

    vacuum_end = evolve(fock_state(dim, 0), gen, 20.0)
    odd_max = float(np.abs(np.diag(vacuum_end).real[1::2]).max())

    threshold = analytic.coherent_cycle_threshold(k_ratio)  # 0.656 at k = 0.3
    if "cycle-threshold-halved" in mutations:
        threshold /= 2.0
    distances, label_mismatches = [], 0
    for alpha_sq in (0.2, 0.95 * threshold, 1.05 * threshold, 1.0):
        wp = analytic.coherent_even_weight(alpha_sq)
        if "parity-outcome-weight" in mutations:  # the odd weight taken for the even one
            wp = 1.0 - wp
        end = evolve(coherent_state(dim, math.sqrt(alpha_sq)), gen, 100.0)
        distances.append(trace_distance(end, analytic.rho_ss_analytic(k_ratio, wp, dim)))
        cycle = analytic.phase_classify(k_ratio, wp).phase is not analytic.Phase.STABLE_ORIGIN
        label_mismatches += cycle != (alpha_sq > threshold)
    return {
        "parity_drift": _below(drift, 1e-9),
        "vacuum_odd_population": _below(odd_max, 1e-10),
        "outcome_trace_distance": _below(float(np.max(distances)), CLOSED_FORM_TOL),
        "outcome_label_mismatches": _within(label_mismatches, 0, 0),
        "cycle_threshold": threshold,
        "dim": dim,
    }


def check_classical_sde(mutations=()) -> dict:
    """Ensemble moments, phase uniformity, grid residual order, circulation."""
    cfg = sde.SdeConfig(
        kappa=1.0, delta=1.0, omega0=10.0, dt=0.002, n_steps=200,
        burn_in=3000, n_paths=100_000, seed=42, coordinates="polar",
    )
    report = ensemble_report(cfg, sde.simulate_ensemble(cfg))
    mean_rel = abs(report["mean_r"] - report["mean_r_expected"]) / report["mean_r_expected"]
    var_rel = abs(report["var_r"] - report["var_r_expected"]) / report["var_r_expected"]
    formula = report["circulation_formula"]
    if "classical-circulation-halved" in mutations:  # the closed form halved after the ensemble
        formula = 0.5 * formula
    circ_rel = abs(report["circulation_empirical"] - formula) / formula
    return {
        "mean_r_rel": _below(mean_rel, 0.01),
        "var_r_rel": _below(var_rel, 0.02),
        "ks_pvalue": _above(report["ks_phi_pvalue"], 0.01),
        "circulation_rel": _below(circ_rel, 0.02),
        # raises GridRefinementError, failing the check, if the order leaves [1.7, 2.3]
        "fp_residual": sde.fokker_planck_residual(
            "cartesian", cfg, (np.linspace(-8, 8, 161),) * 2
        ),
        "samples": report["n_total"] - report["n_diverged"],
    }


def check_noise_drift(mutations=()) -> dict:
    """Midpoint-minus-Ito drift gap per unit time matches 2 kappa (x, y)."""
    cfg = sde.SdeConfig(kappa=0.5, delta=1.0, omega0=3.0, seed=11)
    report = sde.noise_induced_drift_check(cfg)
    gx, gy = report.gaps[-1]
    tx, ty = report.target
    if "drift-target-halved" in mutations:  # the induced drift taken as kappa (x, y)
        tx, ty = 0.5 * tx, 0.5 * ty
    scale = math.hypot(tx, ty)
    return {
        "rel_gap_x": _below(abs(gx - tx) / scale, 0.05),
        "rel_gap_y": _below(abs(gy - ty) / scale, 0.05),
        "gap_x": gx,
        "gap_y": gy,
        "target_x": tx,
        "target_y": ty,
    }


def check_wigner_flux(mutations=()) -> dict:
    """Steady current is rotational: irreversible remainder small and order ~2."""
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
    rotation = params  # whose free rotation the decomposition takes out
    if "rotational-flux-reversed" in mutations:  # taken out at -omega0: twice it remains
        rotation = replace(params, omega0=-params.omega0)
    stats = {}
    for h in (0.05, 0.025):
        fld = wignerflux.sample_steady_field(0.5, 0.55, extent=16.0, h=h)
        residual = wignerflux.wigner_generator_apply(fld, params)
        jx, jy = wignerflux.wigner_current(fld, params)
        decomp = wignerflux.flux_decompose(fld, jx, jy, rotation)
        stats[h] = {
            "irr": wignerflux.max_flux_norm(decomp.j_irr_x, decomp.j_irr_y),
            "rev": wignerflux.max_flux_norm(decomp.j_rev_x, decomp.j_rev_y),
            "res": float(np.abs(wignerflux.interior(residual)).max()),
        }
    ratio = stats[0.05]["irr"] / stats[0.05]["rev"]
    flux_order = wignerflux.observed_order(stats[0.05]["irr"], stats[0.025]["irr"])
    residual_order = wignerflux.observed_order(stats[0.05]["res"], stats[0.025]["res"])
    return {
        "irr_over_rev_at_h05": _below(ratio, 1e-3),
        "flux_order": _within(flux_order, 1.7, 2.3),
        "residual_order": _within(residual_order, 1.7, 2.3),
    }


def check_classical_mode(mutations=()) -> dict:
    """Stationary classical density peaks at the origin for every rate pair."""
    off_origin = 0
    for kappa in np.logspace(-1, 1, 10):
        for delta in np.logspace(-1, 1, 10):
            pdfs = sde.AnalyticPdfs(kappa=kappa, delta=delta)
            extent = 5.0 * math.sqrt(pdfs.coordinate_variance)
            axis = np.linspace(-extent, extent, 101)
            X, Y = np.meshgrid(axis, axis, indexing="ij")
            if "plane-as-radial" in mutations:  # the radial marginal taken for the plane density
                density = pdfs.radial(np.hypot(X, Y))
            else:
                density = pdfs.plane(X, Y)
            idx = np.unravel_index(np.argmax(density), density.shape)
            if idx != (50, 50):
                off_origin += 1
    return {"off_origin_count": _within(off_origin, 0, 0), "rate_grid": "10x10 log"}


# each fault injection and the check it must make fail; `noisecycle verify` rejects any other name
MUTATIONS = {"circulation-sign": "circulation", "generator-loss-rate": "steady-state-oracle",
             "parity-outcome-weight": "parity", "cycle-threshold-halved": "parity",
             "mandel-parity-weight": "mandel-q",
             "drift-target-halved": "noise-drift", "balance-models-swapped": "detailed-balance",
             "coherent-centre-halved": "wigner-oracle",
             "phase-scan-odd-weight": "phase-classification", "plane-as-radial": "classical-mode",
             "hopf-linear-law": "hopf-scaling", "classical-circulation-halved": "classical-sde",
             "rotational-flux-reversed": "wigner-flux"}

# wall-time budget of the checks that have one, in seconds
RUNTIME_BUDGETS_S = {"steady-state-oracle": 30.0, "wigner-oracle": 120.0, "classical-sde": 300.0}

CHECKS = {
    "steady-state-oracle": check_steady_state_oracle,
    "wigner-oracle": check_wigner_oracle,
    "phase-classification": check_phase_classification,
    "hopf-scaling": check_hopf_scaling,
    "mandel-q": check_mandel_q,
    "circulation": check_circulation,
    "detailed-balance": check_detailed_balance,
    "parity": check_parity,
    "classical-sde": check_classical_sde,
    "noise-drift": check_noise_drift,
    "wigner-flux": check_wigner_flux,
    "classical-mode": check_classical_mode,
}


def run_check(name: str, mutations=()) -> CheckResult:
    start = time.time()
    try:
        details = CHECKS[name](mutations=tuple(mutations))
    except Exception as exc:  # a crashed check is a failed check, with the reason
        details = {"error": {"value": f"{type(exc).__name__}: {exc}", "pass": False}}
    duration = time.time() - start
    if name in RUNTIME_BUDGETS_S:
        details["runtime"] = _below(duration, RUNTIME_BUDGETS_S[name])
    return CheckResult(name=name, passed=_all_pass(details), details=details, duration=duration)


def run_checks(only=None, mutations=()) -> list[CheckResult]:
    """Every check, or the ``CHECKS`` that ``only`` names, under ``MUTATIONS`` keys."""
    names = [n for n in CHECKS if not only or n in only]
    return [run_check(name, mutations=mutations) for name in names]
