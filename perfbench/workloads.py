"""Seeded inputs, requests and per-request correctness checks of the benchmark.

Every workload is built from rounds of ``ROUND`` requests.  Within a round
the inputs that set a request's cost are drawn on a jittered grid (one
uniform draw near the centre of each cell), so two seeds give different
inputs of nearly equal total cost.  A request calls the public functions
that one CLI subcommand calls, in the same order, each inside a span of the
tracer it is handed.  A check takes the request and its outputs and returns
``(module, message)`` for every failed comparison.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from noisecycle import analytic, fock, lindblad, sde, wignerflux
from noisecycle.fock import ModelKind, ModelParams

ROUND = 24
# inputs that set a request's cost vary within the central fifth of their
# grid cell, so that a round costs nearly the same for every seed
COST_JITTER = 0.2

# steady-report: grid spacing of the sampled field (the CLI default is 0.05),
# the CLI's boundary tolerance, and the displaced-parity oracle settings
FIELD_H = 0.1
BOUNDARY_TOL = 1e-2
ORACLE_DIM = 128
ORACLE_AXIS_POINTS = 9
ORACLE_TOL = 1e-6
CSV_PROBE_ROWS = 64

# classical-ensemble: one block of paths per request; z-score of the moment checks
N_PATHS = 4096
N_STEPS = 200
BURN_IN = 3000
MOMENT_Z = 5.0
DRIFT_TOL = 0.05
# excess kurtosis of the Rayleigh distribution, for the standard error of var(r)
RAYLEIGH_EXCESS_KURTOSIS = -(6 * math.pi ** 2 - 24 * math.pi + 16) / (4 - math.pi) ** 2


def jittered(rng: np.random.Generator, cells: int, lo: float, hi: float,
             width: float = 1.0) -> np.ndarray:
    """One uniform draw per equal cell of [lo, hi], in cell order.

    A draw falls in the central ``width`` fraction of its cell.
    """
    offsets = 0.5 + width * (rng.random(cells) - 0.5)
    return lo + (np.arange(cells) + offsets) * (hi - lo) / cells


# ---------------------------------------------------------------------------
# steady-report: `noisecycle steady` followed by `noisecycle wigner`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyRequest:
    k_ratio: float
    wp_plus: float
    kappa_up1: float | None  # set: the steady half runs the conventional model
    oracle: bool             # also evaluate the displaced-parity oracle
    probe_seed: int          # picks the CSV rows the check parses back


def steady_round(rng: np.random.Generator) -> list[SteadyRequest]:
    """6 k-cells on [0.05, 0.5] x 4 wp-cells on [0, 1].

    In every k-cell one wp-cell runs the conventional steady model; in the
    three k-cells below 0.3 two more wp-cells run the oracle.
    """
    k_cells, wp_cells = 6, 4
    # below kappa_up1 ~ 0.108 the residual falls under cmd_steady's fixed 1e-3
    kappa_up1 = rng.permutation(jittered(rng, k_cells, 0.12, 1.0))
    requests = []
    for ik, k in enumerate(jittered(rng, k_cells, 0.05, 0.5, COST_JITTER)):
        roles = rng.permutation(["conventional", "oracle", "oracle", "plain"]
                                if ik < 3 else ["conventional", "plain", "plain", "plain"])
        for wp, role in zip(jittered(rng, wp_cells, 0.0, 1.0, COST_JITTER), roles):
            requests.append(SteadyRequest(
                k_ratio=float(k),
                wp_plus=float(wp),
                kappa_up1=float(kappa_up1[ik]) if role == "conventional" else None,
                oracle=role == "oracle",
                probe_seed=int(rng.integers(2 ** 31)),
            ))
    return requests


def _noise_induced(k_ratio: float) -> ModelParams:
    return ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=k_ratio)


def run_steady_report(req: SteadyRequest, tr, workdir: Path) -> dict:
    out: dict = {}
    k, wp = req.k_ratio, req.wp_plus
    if req.kappa_up1 is None:
        params = _noise_induced(k)
    else:
        params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up1=req.kappa_up1,
                             kind=ModelKind.CONVENTIONAL)
    dim = fock.default_dim(params)
    with tr.span("fock.liouvillian"):
        gen = fock.liouvillian(params, dim)
    tr.count("fock.liouvillian.nnz", gen.nnz)
    with tr.span("lindblad.steady_states"):
        solved = lindblad.steady_states(gen)
    out["kernel_dim"] = solved.kernel_dim

    if params.kind is ModelKind.NOISE_INDUCED:
        rho = solved.combine(wp)
        with tr.span("analytic.rho_ss_analytic"):
            target = analytic.rho_ss_analytic(k, wp, dim)
        with tr.span("lindblad.trace_distance"):
            out["trace_distance"] = lindblad.trace_distance(rho, target)
        with tr.span("lindblad.circulation"):
            circ = lindblad.circulation(rho, params)
        out["circulation"] = (circ.phi, circ.phi_formula)
        n = np.arange(dim, dtype=float)
        pops = np.diag(rho).real
        mean = float(n @ pops)
        q_moments = (float(n ** 2 @ pops) - mean ** 2) / mean - 1.0
        out["mandel"] = (abs(q_moments - analytic.mandel_q(k, wp)),
                         1e-10 + 4.0 * dim ** 2 * k ** (dim / 2) / max(mean, 0.1))
        with tr.span("lindblad.detailed_balance_residual"):
            out["balance_residual"] = lindblad.detailed_balance_residual(params, rho)
        with tr.span("lindblad.conserved_reconstruction"):
            rebuilt = lindblad.conserved_reconstruction(rho, k)
        out["reconstruction_gap"] = float(
            np.abs(rebuilt - (wp * solved.rho_plus + (1 - wp) * solved.rho_minus)).max())
    else:
        rho = solved.states[0]
        with tr.span("lindblad.detailed_balance_residual"):
            out["balance_residual"] = lindblad.detailed_balance_residual(params, rho)
        with tr.span("lindblad.circulation"):
            out["circulation"] = (lindblad.circulation(rho, params).phi, None)

    with tr.span("analytic.phase_classify"):
        point = analytic.phase_classify(k, wp)
    with tr.span("analytic.scan_radius"):
        scanned = analytic.scan_radius(k, wp)
    out["radius"] = (point.r_star, scanned)

    if req.oracle:
        padded = np.zeros((ORACLE_DIM, ORACLE_DIM), dtype=complex)
        padded[:dim, :dim] = rho
        extent = wignerflux.default_extent(k, wp)
        axis = np.linspace(-extent, extent, ORACLE_AXIS_POINTS)
        pts = np.array([(x, y) for x in axis for y in axis])
        with tr.span("lindblad.wigner_numeric"):
            numeric = lindblad.wigner_numeric(padded, pts)
        tr.count("lindblad.wigner_numeric.points", len(pts))
        with tr.span("analytic.wigner_ss"):
            closed = analytic.wigner_ss(pts[:, 0], pts[:, 1], k, wp)
        out["oracle_gap"] = float(np.abs(numeric - closed).max())

    # `noisecycle wigner` at the same point of the noise-induced model
    wparams = _noise_induced(k)
    with tr.span("wignerflux.sample_steady_field"):
        field = wignerflux.sample_steady_field(k, wp, h=FIELD_H)
    with tr.span("wignerflux.wigner_generator_apply"):
        residual = wignerflux.wigner_generator_apply(field, wparams, boundary_tol=BOUNDARY_TOL)
    with tr.span("wignerflux.wigner_current"):
        jx, jy = wignerflux.wigner_current(field, wparams, boundary_tol=BOUNDARY_TOL)
    with tr.span("wignerflux.flux_decompose"):
        decomp = wignerflux.flux_decompose(field, jx, jy, wparams)
    cfg = {"command": "wigner", "k_ratio": k, "wp_plus": wp, "h": FIELD_H,
           "boundary_tol": BOUNDARY_TOL}
    path = workdir / "field.csv"
    with tr.span("wignerflux.field_to_csv"):
        wignerflux.field_to_csv(path, field, jx, jy, decomp,
                                header_lines=[f"config: {json.dumps(cfg, sort_keys=True)}"])
    tr.count("wignerflux.field_to_csv.rows", field.x.size * field.y.size)
    tr.count("wignerflux.field_to_csv.bytes", path.stat().st_size)
    # the summary `noisecycle wigner` writes
    out["summary"] = {
        "mass": field.mass(),
        "max_generator_residual": float(np.abs(wignerflux.interior(residual)).max()),
        "max_irr_flux": wignerflux.max_flux_norm(decomp.j_irr_x, decomp.j_irr_y),
        "max_rev_flux": wignerflux.max_flux_norm(decomp.j_rev_x, decomp.j_rev_y),
    }
    out["field"] = (field, jx, jy, decomp)
    out["csv_path"] = path
    return out


def csv_probe_rows(req: SteadyRequest, n_rows: int) -> np.ndarray:
    """Seeded data-row indices the CSV check parses back, always with the first and last."""
    rng = np.random.default_rng(req.probe_seed)
    picks = rng.choice(n_rows, size=min(CSV_PROBE_ROWS, n_rows), replace=False)
    return np.unique(np.concatenate([[0, n_rows - 1], picks]))


def check_csv(req: SteadyRequest, out: dict) -> list[tuple[str, str]]:
    field, jx, jy, decomp = out["field"]
    ny = field.y.size
    n_rows = field.x.size * ny
    lines = out["csv_path"].read_text().splitlines()
    body = lines[next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1:]
    if len(body) != n_rows:
        return [("wignerflux", f"CSV has {len(body)} data rows, expected {n_rows}")]
    for row in csv_probe_rows(req, n_rows):
        i, j = divmod(int(row), ny)
        expected = (field.x[i], field.y[j], field.w[i, j], jx[i, j], jy[i, j],
                    decomp.j_irr_x[i, j], decomp.j_irr_y[i, j])
        parsed = tuple(float(v) for v in body[row].split(","))
        if parsed != expected:
            return [("wignerflux", f"CSV row {row} reads {parsed}, expected {expected}")]
    return []


def check_steady_report(req: SteadyRequest, out: dict) -> list[tuple[str, str]]:
    bad = []

    def need(ok: bool, module: str, message: str) -> None:
        if not ok:
            bad.append((module, message))

    if req.kappa_up1 is None:
        need(out["kernel_dim"] == 2, "lindblad", f"kernel dimension {out['kernel_dim']}, expected 2")
        need(out["trace_distance"] < 1e-8, "lindblad",
             f"trace distance to the closed form {out['trace_distance']:.3e} >= 1e-8")
        phi, phi_formula = out["circulation"]
        gap = abs(phi - phi_formula) / abs(phi_formula)
        need(gap < 1e-8, "lindblad", f"circulation relative gap {gap:.3e} >= 1e-8")
        q_gap, q_tol = out["mandel"]
        need(q_gap < q_tol, "lindblad", f"Mandel Q gap {q_gap:.3e} >= {q_tol:.3e}")
        need(out["balance_residual"] < 1e-10, "lindblad",
             f"detailed-balance residual {out['balance_residual']:.3e} >= 1e-10")
        need(out["reconstruction_gap"] < 1e-10, "lindblad",
             f"conserved reconstruction gap {out['reconstruction_gap']:.3e} >= 1e-10")
    else:
        need(out["kernel_dim"] == 1, "lindblad", f"kernel dimension {out['kernel_dim']}, expected 1")
        need(out["balance_residual"] > 1e-3, "lindblad",
             f"conventional detailed-balance residual {out['balance_residual']:.3e} <= 1e-3")
        need(math.isfinite(out["circulation"][0]), "lindblad", "circulation is not finite")
    r_star, scanned = out["radius"]
    need((r_star > 0) == (scanned > 0), "analytic",
         f"closed-form radius {r_star:.4g} and scanned radius {scanned:.4g} disagree in sign")
    if req.oracle:
        need(out["oracle_gap"] < ORACLE_TOL, "lindblad",
             f"displaced-parity oracle gap {out['oracle_gap']:.3e} >= {ORACLE_TOL:.0e}")
    return bad + check_csv(req, out)


# ---------------------------------------------------------------------------
# evolve-mix: `noisecycle evolve`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolveRequest:
    k_ratio: float
    t: float
    level: int | None = None      # fock:n (0 is the vacuum)
    alpha: complex | None = None  # coherent:alpha

    @property
    def diagonal(self) -> bool:
        return self.alpha is None


def evolve_round(rng: np.random.Generator) -> list[EvolveRequest]:
    """3 (k, t) points, each evolved from 8 initial states: 24 requests.

    k takes one value in each of 3 cells on [0.1, 0.3] and t one in each of
    3 cells on [1, 5], paired as (low k, middle t), (middle k, low t) and
    (high k, high t).  The first two points cost about 0.3 s a request and
    the third about 2 s, so the median latency is the median of 16 similar
    requests spread over the run, not one isolated request.  The states are
    the vacuum twice, three fock:n (1 <= n <= 4) and three coherent:alpha
    (0.5 <= |alpha| <= 1.5, seeded phase).
    """
    ks = jittered(rng, 3, 0.1, 0.3, COST_JITTER)
    ts = jittered(rng, 3, 1.0, 5.0, COST_JITTER)
    requests = []
    for k, t in ((ks[0], ts[1]), (ks[1], ts[0]), (ks[2], ts[2])):
        k, t = float(k), float(t)
        requests += [EvolveRequest(k, t, level=0)] * 2
        requests += [EvolveRequest(k, t, level=int(n)) for n in rng.integers(1, 5, size=3)]
        for _ in range(3):
            alpha = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            requests.append(EvolveRequest(k, t, alpha=complex(alpha)))
    return requests


def run_evolve(req: EvolveRequest, tr, workdir: Path) -> dict:
    params = _noise_induced(req.k_ratio)
    dim = fock.default_dim(params)
    if req.diagonal:
        rho0 = fock.fock_state(dim, req.level)
    else:
        rho0 = fock.coherent_state(dim, req.alpha)
    with tr.span("fock.liouvillian"):
        gen = fock.liouvillian(params, dim)
    tr.count("fock.liouvillian.nnz", gen.nnz)
    with tr.span("lindblad.evolve", "diagonal" if req.diagonal else "coherent"):
        rho_t = lindblad.evolve(rho0, gen, req.t)
    wp0, _ = lindblad.parity_weights(rho0)
    with tr.span("analytic.rho_ss_analytic"):
        target = analytic.rho_ss_analytic(params.k_ratio, wp0, dim)
    with tr.span("lindblad.trace_distance"):
        distance = lindblad.trace_distance(rho_t, target)
    return {"rho0": rho0, "rho_t": rho_t, "distance_to_predicted_steady": distance}


def check_evolve(req: EvolveRequest, out: dict) -> list[tuple[str, str]]:
    rho0, rho_t = out["rho0"], out["rho_t"]
    bad = []
    trace_gap = abs(np.trace(rho_t).real - 1.0)
    if not trace_gap <= 1e-10:
        bad.append(("lindblad", f"trace off by {trace_gap:.3e} > 1e-10"))
    drift = abs(lindblad.parity_expectation(rho_t) - lindblad.parity_expectation(rho0))
    if not drift < 1e-9:
        bad.append(("lindblad", f"parity drift {drift:.3e} >= 1e-9"))
    lowest = float(np.linalg.eigvalsh(rho_t).min())
    if not lowest > -1e-10:
        bad.append(("lindblad", f"lowest eigenvalue {lowest:.3e} <= -1e-10"))
    return bad


# ---------------------------------------------------------------------------
# classical-ensemble: `noisecycle sde`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleRequest:
    kappa: float
    delta: float
    omega0: float
    coordinates: str
    seed: int

    def config(self) -> sde.SdeConfig:
        return sde.SdeConfig(
            kappa=self.kappa, delta=self.delta, omega0=self.omega0, dt=0.002 / self.kappa,
            n_steps=N_STEPS, burn_in=BURN_IN, n_paths=N_PATHS, seed=self.seed,
            coordinates=self.coordinates,
        )


def ensemble_round(rng: np.random.Generator) -> list[EnsembleRequest]:
    """kappa and delta on [0.5, 2], one draw per cell each; coordinates alternate.

    The rotation rate is drawn from [0, 10] for polar requests and from
    [0, 2 kappa] for cartesian ones: the Euler step of the cartesian scheme
    biases the radius by O(omega0^2 dt), which the moment checks resolve above
    omega0 = 2 kappa at this dt.
    """
    kappas = rng.permutation(jittered(rng, ROUND, 0.5, 2.0))
    deltas = rng.permutation(jittered(rng, ROUND, 0.5, 2.0))
    spins = rng.permutation(jittered(rng, ROUND, 0.0, 1.0))
    requests = []
    for i in range(ROUND):
        coordinates = "polar" if i % 2 == 0 else "cartesian"
        top = 10.0 if coordinates == "polar" else 2.0 * kappas[i]
        requests.append(EnsembleRequest(
            kappa=float(kappas[i]), delta=float(deltas[i]), omega0=float(spins[i] * top),
            coordinates=coordinates, seed=int(rng.integers(2 ** 31)),
        ))
    return requests


def run_classical(req: EnsembleRequest, tr, workdir: Path) -> dict:
    cfg = req.config()
    with tr.span("sde.simulate_ensemble", req.coordinates):
        result = sde.simulate_ensemble(cfg)
    tr.count("sde.simulate_ensemble.path_steps", cfg.n_paths * (cfg.burn_in + cfg.n_steps))
    tr.count("sde.simulate_ensemble.diverged", result.n_diverged)
    tr.count("sde.simulate_ensemble.paths", result.n_total)
    empirical, _ = sde.circulation_classical(cfg, result)
    half_width = 8.0 * math.sqrt(cfg.kappa / cfg.delta)
    grid = np.linspace(-half_width, half_width, 161)
    # raises GridRefinementError when the observed order leaves [1.7, 2.3]
    with tr.span("sde.fokker_planck_residual"):
        sde.fokker_planck_residual("cartesian", cfg, (grid, grid))
    with tr.span("sde.noise_induced_drift_check"):
        drift = sde.noise_induced_drift_check(cfg)
    with tr.span("sde.classical_detailed_balance"):
        balance = sde.classical_detailed_balance(cfg)
    return {
        "mean_r": result.mean_r,
        "var_r": result.var_r,
        "samples": result.r.size,
        "n_diverged": result.n_diverged,
        "n_total": result.n_total,
        "circulation": empirical,
        "drift": drift,
        "balance": balance,
    }


def moment_tolerances(req: EnsembleRequest, samples: int) -> dict[str, tuple[float, float]]:
    """Closed-form target and MOMENT_Z standard errors of each checked ensemble moment."""
    scale_sq = req.kappa / req.delta  # Rayleigh scale squared
    mean_r = math.sqrt(math.pi * scale_sq / 2.0)
    var_r = (4.0 - math.pi) / 2.0 * scale_sq
    circulation = 8.0 * req.omega0 * scale_sq
    return {
        "mean_r": (mean_r, MOMENT_Z * math.sqrt(var_r / samples)),
        "var_r": (var_r, MOMENT_Z * var_r * math.sqrt((RAYLEIGH_EXCESS_KURTOSIS + 2.0) / samples)),
        # x^2 + y^2 = 4 r^2 is exponential: its standard deviation equals its mean
        "circulation": (circulation, MOMENT_Z * circulation / math.sqrt(samples)),
    }


def check_classical(req: EnsembleRequest, out: dict) -> list[tuple[str, str]]:
    bad = []
    if not out["n_diverged"] <= 0.01 * out["n_total"]:
        bad.append(("sde", f"{out['n_diverged']} of {out['n_total']} paths diverged"))
    measured = {"mean_r": out["mean_r"], "var_r": out["var_r"], "circulation": out["circulation"]}
    for name, (target, tol) in moment_tolerances(req, out["samples"]).items():
        if not abs(measured[name] - target) <= tol:
            bad.append(("sde", f"{name} {measured[name]:.6g} is more than {tol:.3g} from {target:.6g}"))
    drift = out["drift"]
    gx, gy = drift.gaps[-1]
    tx, ty = drift.target
    rel = max(abs(gx - tx), abs(gy - ty)) / math.hypot(tx, ty)
    if not rel < DRIFT_TOL:
        bad.append(("sde", f"noise-induced drift gap {rel:.3e} >= {DRIFT_TOL}"))
    balance = out["balance"]
    orders = (balance.order_irreversible, balance.order_divergence)
    if not (balance.diffusion_time_reversal_exact and all(1.7 <= o <= 2.3 for o in orders)):
        bad.append(("sde", f"classical detailed balance: orders {orders}, diffusion exact "
                           f"{balance.diffusion_time_reversal_exact}"))
    return bad


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make_round: object
    run: object
    check: object


WORKLOADS = {
    "steady-report": Workload(steady_round, run_steady_report, check_steady_report),
    "evolve-mix": Workload(evolve_round, run_evolve, check_evolve),
    "classical-ensemble": Workload(ensemble_round, run_classical, check_classical),
}


def attempt(workload: Workload, req, tr, workdir: Path,
            request_id: int = 0) -> tuple[float, list[tuple[str, str]]]:
    """Send one request; return its latency and every ``(module, message)`` problem.

    A request fails when it raises, warns, or fails its check.  The check
    runs after the latency is taken.  Exceptions are counted by the span
    they left; warnings by the span they were issued in; check failures by
    the module they name.
    """
    problems = []
    out = None
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, *_: problems.append(
            (tr.current_module() or "request", f"{category.__name__}: {message}"))
        start = time.perf_counter()
        try:
            with tr.request(request_id):
                out = workload.run(req, tr, workdir)
        except Exception as exc:  # a failed request is reported; the caller goes on
            problems.append((None, f"raised {type(exc).__name__}: {exc}"))
        latency = time.perf_counter() - start
    if out is not None:
        problems.extend(workload.check(req, out))
    for module, _ in problems:
        if module is not None:
            tr.error(module)
    return latency, problems


def run_pass(workload: Workload, requests: list, tr, workdir: Path, failures: list) -> list[float]:
    """Closed loop with one client: send each request when the previous one returned.

    Returns the latencies and appends ``(request, problems)`` for every failure.
    """
    latencies = []
    for i, req in enumerate(requests):
        latency, problems = attempt(workload, req, tr, workdir, i)
        latencies.append(latency)
        if problems:
            failures.append((req, problems))
    return latencies


def make_requests(workload: str, seed: int, rounds: int) -> list:
    """``rounds`` rounds of seeded requests in a seeded order."""
    rng = np.random.default_rng(seed)
    make_round = WORKLOADS[workload].make_round
    requests = []
    for _ in range(rounds):
        batch = make_round(rng)
        if workload != "classical-ensemble":
            batch = [batch[i] for i in rng.permutation(len(batch))]
        requests.extend(batch)
    return requests
