"""Classical multiplicative-noise oscillator: the macroscopic comparison model.

Ito ensembles in polar and Cartesian coordinates, simulated in the frame
that rotates with omega0 (the rotation commutes with the rest of the
generator, so every path ends as quadratures (x, y) rotated once at one
shared site, and the polar phase is one normal draw per path); the
closed-form stationary densities (Rayleigh radius, uniform phase, Gaussian
plane), grid Fokker-Planck residuals, classical circulation, the
Stratonovich/Ito drift conversion check (one noise evaluation per draw),
and the classical detailed-balance flux decomposition.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .wignerflux import (divergence, dx, dxx, interior, make_grid, max_flux_norm,
                         observed_order, refine)

THREADS_ENV = "NOISECYCLE_THREADS"
_BLOCK_PATHS = 4096


class SdeError(RuntimeError):
    """Bad ensemble settings or a failed ensemble; ``field`` names a bad ``SdeConfig`` field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DivergenceError(SdeError):
    """More than the tolerated fraction of paths left the finite range."""


class GridRefinementError(SdeError):
    """Observed convergence order outside the trusted band; refine the grid."""


@dataclass(frozen=True)
class SdeConfig:
    """Ensemble parameters; noise increments carry variance 8 kappa dt.

    ``n_steps`` counts post-burn-in steps; each path contributes its final
    state as one sample.  Per-block random streams are derived from the seed
    so ensembles are reproducible and block-parallel.
    """

    kappa: float
    delta: float
    omega0: float = 0.0
    dt: float = 1e-3
    n_steps: int = 1
    burn_in: int = 1000
    n_paths: int = 10_000
    seed: int = 0
    coordinates: str = "polar"

    def __post_init__(self) -> None:
        for name in ("kappa", "delta", "omega0", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise SdeError(f"{name} must be finite, got {getattr(self, name)}", name)
        for name in ("kappa", "delta", "dt"):
            if getattr(self, name) <= 0:
                raise SdeError(f"{name} must be positive, got {getattr(self, name)}", name)
        for name in ("n_steps", "n_paths"):
            if getattr(self, name) < 1:
                raise SdeError(f"{name} must be at least 1, got {getattr(self, name)}", name)
        if self.burn_in < 0:
            raise SdeError(f"burn_in must be nonnegative, got {self.burn_in}", "burn_in")
        if self.coordinates not in ("polar", "cartesian"):
            raise SdeError(f"unknown coordinates {self.coordinates!r}", "coordinates")
        # explicit-scheme guard: drift stiffness over the bulk of the radial range
        r_max_sq = 6.0 * self.kappa / self.delta
        if self.dt * (3.0 * self.kappa + self.delta * r_max_sq) > 0.05:
            warnings.warn("time step is large for these rates; expect discretization bias",
                          stacklevel=2)

    @property
    def noise_std(self) -> float:
        return math.sqrt(8.0 * self.kappa * self.dt)


@dataclass(frozen=True)
class SdeEnsembleResult:
    """Post-burn-in samples with radius nonnegative and phase wrapped to [0, 2pi)."""

    r: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    mean_r: float
    var_r: float
    mean_x2_plus_y2: float
    n_diverged: int
    n_total: int


@dataclass(frozen=True)
class AnalyticPdfs:
    """Stationary densities: Rayleigh radius, uniform phase, Gaussian plane."""

    kappa: float
    delta: float

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        return (self.delta / self.kappa) * r * np.exp(-self.delta * r ** 2 / (2.0 * self.kappa))

    def phase(self, phi):
        return np.full_like(np.asarray(phi, dtype=float), 1.0 / (2.0 * math.pi))

    def plane(self, x, y):
        s = np.asarray(x) ** 2 + np.asarray(y) ** 2
        return self.delta / (8.0 * math.pi * self.kappa) * np.exp(-self.delta * s / (8.0 * self.kappa))

    @property
    def radial_mode(self) -> float:
        return math.sqrt(self.kappa / self.delta)

    @property
    def coordinate_variance(self) -> float:
        return 4.0 * self.kappa / self.delta


@dataclass(frozen=True)
class DriftGapReport:
    """Stratonovich-minus-Ito mean drift per unit time at a fixed state."""

    state: tuple[float, float]
    dts: np.ndarray
    gaps: np.ndarray          # shape (len(dts), 2)
    target: tuple[float, float]


@dataclass(frozen=True)
class DetailedBalanceReport:
    """Grid diagnostics of the stationary flux decomposition.

    ``order_divergence`` is None when the rotational divergence is exactly
    zero on both grids (omega0 = 0), where no order can be observed.
    """

    max_irreversible_flux: float
    max_reversible_divergence: float
    order_irreversible: float | None
    order_divergence: float | None
    diffusion_time_reversal_exact: bool
    spacing: float


def analytic_pdfs(cfg: SdeConfig) -> AnalyticPdfs:
    return AnalyticPdfs(kappa=cfg.kappa, delta=cfg.delta)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def step_polar(state, cfg: SdeConfig, noise):
    """Euler-Maruyama update of (r, phi); tiny negative excursions reflect."""
    r, phi = state
    d_r, d_phi = noise
    r_new = r + (3.0 * cfg.kappa * r - cfg.delta * r ** 3) * cfg.dt + 0.5 * r * d_r
    phi_new = phi - cfg.omega0 * cfg.dt + 0.5 * d_phi
    return np.abs(r_new), phi_new


def _cartesian_drift(x, y, cfg: SdeConfig):
    s = x ** 2 + y ** 2
    return (
        cfg.omega0 * y + 2.0 * cfg.kappa * x - 0.25 * cfg.delta * s * x,
        -cfg.omega0 * x + 2.0 * cfg.kappa * y - 0.25 * cfg.delta * s * y,
    )


def _cartesian_noise(x, y, d_x, d_y):
    return 0.5 * (x * d_x + y * d_y), 0.5 * (x * d_y - y * d_x)


def step_cartesian(state, cfg: SdeConfig, noise):
    """Euler-Maruyama update of (x, y) with the mixed multiplicative noise."""
    x, y = state
    a_x, a_y = _cartesian_drift(x, y, cfg)
    n_x, n_y = _cartesian_noise(x, y, *noise)
    return x + a_x * cfg.dt + n_x, y + a_y * cfg.dt + n_y


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _run_block(cfg: SdeConfig, block: int, size: int):
    """Quadratures (x, y) of one block of paths (see ``simulate_ensemble``).

    The omega0 = 0 steps run in place on preallocated buffers.  A polar path
    ends at (2 r cos psi, 2 r sin psi), psi = sqrt(2 kappa T) z drawn from the
    block's own stream, and both coordinate systems share one rotation.
    """
    rng = _block_rng(cfg.seed, block)
    total = cfg.burn_in + cfg.n_steps
    half_std = 0.5 * cfg.noise_std
    # diverged paths run to inf/nan and are counted afterwards
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.coordinates == "polar":
            r = np.full(size, math.sqrt(2.0 * cfg.kappa / cfg.delta))
            z, g = np.empty(size), np.empty(size)
            for _ in range(total):
                # r <- |r (1 + 3 kappa dt - delta dt r^2 + dW / 2)| = r |...| as r >= 0
                rng.standard_normal(size, out=z)
                np.multiply(r, r, out=g)
                g *= -cfg.delta * cfg.dt
                g += 1.0 + 3.0 * cfg.kappa * cfg.dt
                z *= half_std
                g += z
                np.abs(g, out=g)
                r *= g
            psi = math.sqrt(2.0 * cfg.kappa * total * cfg.dt) * rng.standard_normal(size)
            x, y = 2.0 * r * np.cos(psi), 2.0 * r * np.sin(psi)
        else:
            x = np.full(size, 2.0 * math.sqrt(cfg.kappa / cfg.delta))
            y = np.zeros(size)
            z = np.empty((2, size))
            a, b = z
            g, u, v = np.empty(size), np.empty(size), np.empty(size)
            for _ in range(total):
                # with g = 1 + 2 kappa dt - delta dt (x^2 + y^2) / 4 and (a, b) = (dX, dY) / 2:
                # x <- x (g + a) + y b,  y <- y (g - a) + x b
                rng.standard_normal((2, size), out=z)
                z *= half_std
                np.multiply(x, x, out=g)
                np.multiply(y, y, out=u)
                g += u
                g *= -0.25 * cfg.delta * cfg.dt
                g += 1.0 + 2.0 * cfg.kappa * cfg.dt
                np.add(g, a, out=u)
                u *= x
                np.multiply(y, b, out=v)
                u += v
                np.subtract(g, a, out=v)
                v *= y
                np.multiply(x, b, out=g)
                v += g
                x, u = u, x
                y, v = v, y
        angle = cfg.omega0 * total * cfg.dt
        cos, sin = math.cos(angle), math.sin(angle)
        return cos * x + sin * y, cos * y - sin * x


def simulate_ensemble(cfg: SdeConfig) -> SdeEnsembleResult:
    """Independent paths, burn-in discarded, one sample per path.

    Each path takes the omega0 = 0 Euler step of ``step_polar`` or
    ``step_cartesian`` for burn_in + n_steps steps of dt and is then rotated
    by -omega0 T, T = (burn_in + n_steps) dt, which is exact because the
    rotation commutes with the rest of the generator.  The polar phase is
    drawn once per path, sqrt(2 kappa T) z before that rotation, the law of
    its Euler sum.  Diverged paths are excluded and counted; above 1% the run
    fails.  Blocks run on ``NOISECYCLE_THREADS`` threads (unset or empty: 1);
    identical configs give bit-identical results for any thread count.
    """
    raw = os.environ.get(THREADS_ENV) or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise SdeError(f"{THREADS_ENV} must be an integer >= 1, got {raw!r}")
    sizes = [min(_BLOCK_PATHS, cfg.n_paths - s) for s in range(0, cfg.n_paths, _BLOCK_PATHS)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(lambda b: _run_block(cfg, *b), enumerate(sizes)))
    x = np.concatenate([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])

    finite = np.isfinite(x) & np.isfinite(y)
    n_diverged = int((~finite).sum())
    if n_diverged > 0.01 * cfg.n_paths:
        raise DivergenceError(f"{n_diverged} of {cfg.n_paths} paths diverged; reduce dt")
    x, y = x[finite], y[finite]
    r = 0.5 * np.hypot(x, y)
    phi = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    phi[phi == 2.0 * math.pi] = 0.0  # mod rounds a tiny negative angle up to 2 pi

    return SdeEnsembleResult(
        r=r,
        phi=phi,
        x=x,
        y=y,
        mean_r=float(np.mean(r)),
        var_r=float(np.var(r)),
        mean_x2_plus_y2=float(np.mean(x ** 2 + y ** 2)),
        n_diverged=n_diverged,
        n_total=cfg.n_paths,
    )


def circulation_classical(cfg: SdeConfig, result: SdeEnsembleResult) -> tuple[float, float]:
    """Empirical omega0 <x^2 + y^2> and the stationary value 8 omega0 kappa / delta.

    Both values take the rotation rate from ``cfg`` so the pair stays
    consistent when rescaling a recorded ensemble.
    """
    empirical = abs(cfg.omega0) * result.mean_x2_plus_y2
    formula = 8.0 * abs(cfg.omega0) * cfg.kappa / cfg.delta
    return empirical, formula


# ---------------------------------------------------------------------------
# Fokker-Planck grid residuals
# ---------------------------------------------------------------------------

def _radial_residual(cfg: SdeConfig, r: np.ndarray) -> np.ndarray:
    h = r[1] - r[0]
    p = analytic_pdfs(cfg).radial(r)
    drift = (3.0 * cfg.kappa * r - cfg.delta * r ** 3) * p
    diff = cfg.kappa * r ** 2 * p
    return -dx(drift, h, 0) + dxx(diff, h, 0)


def _phase_residual(cfg: SdeConfig, phi: np.ndarray) -> np.ndarray:
    h = phi[1] - phi[0]
    p = analytic_pdfs(cfg).phase(phi)
    return cfg.omega0 * dx(p, h, 0) + cfg.kappa * dxx(p, h, 0)


def _cartesian_residual(cfg: SdeConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    p = analytic_pdfs(cfg).plane(X, Y)
    a_x, a_y = _cartesian_drift(X, Y, cfg)
    diff = cfg.kappa * (X ** 2 + Y ** 2) * p
    return -dx(a_x * p, hx, 0) - dx(a_y * p, hy, 1) + dxx(diff, hx, 0) + dxx(diff, hy, 1)


# each operator and its residual field on grid axes (one axis, or the pair for cartesian)
_RESIDUALS = {"radial": _radial_residual, "phase": _phase_residual,
              "cartesian": _cartesian_residual}


def fokker_planck_residual(which: str, cfg: SdeConfig, grid) -> float:
    """Max |generator applied to the stationary density| on a uniform grid.

    The residual is recomputed on a once-refined grid and the observed
    convergence order must land in [1.7, 2.3] (a residual at rounding level on
    both grids, e.g. the phase operator on the uniform density, also passes).
    """
    if which not in _RESIDUALS:
        raise SdeError(f"unknown operator {which!r}")
    axes = [np.asarray(a, dtype=float) for a in (grid if which == "cartesian" else [grid])]
    coarse_res, fine_res = (
        float(np.abs(interior(_RESIDUALS[which](cfg, *g), 2)).max())
        for g in (axes, [refine(a) for a in axes])
    )
    scale = cfg.kappa + cfg.delta
    if coarse_res < 1e-13 * scale and fine_res < 1e-13 * scale:
        return coarse_res
    order = observed_order(coarse_res, fine_res)
    if not 1.7 <= order <= 2.3:
        raise GridRefinementError(
            f"observed order {order:.2f} outside [1.7, 2.3]; refine the grid"
        )
    return coarse_res


# ---------------------------------------------------------------------------
# Stratonovich vs Ito drift conversion
# ---------------------------------------------------------------------------

def noise_induced_drift_check(cfg: SdeConfig, state: tuple[float, float] = (1.0, 0.0),
                              n_draws: int = 400_000) -> DriftGapReport:
    """Mean one-step gap between midpoint-noise (Stratonovich) and Ito updates.

    Both updates consume the same draws and share the Euler drift; only the
    noise coefficient is averaged over the Euler predictor.  It is linear in
    the state, so the gap is half the noise at the Ito increment, one
    evaluation per draw (the b b'/2 term, Kloeden & Platen 1992), and zero at
    zero noise.  Per unit time it converges to 2 kappa (x, y) as dt halves
    from 4e-3 to 1e-3, the drift the multiplicative noise induces.
    """
    x0, y0 = state
    dts = np.array([4e-3, 2e-3, 1e-3])
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((2, n_draws))
    gaps = np.empty((dts.size, 2))
    ax0, ay0 = _cartesian_drift(x0, y0, cfg)
    for i, dt in enumerate(dts):
        std = math.sqrt(8.0 * cfg.kappa * dt)
        d_x, d_y = std * z[0], std * z[1]
        nx0, ny0 = _cartesian_noise(x0, y0, d_x, d_y)
        # noise coefficient at the Ito (Euler-Maruyama) increment
        gap_x, gap_y = _cartesian_noise(ax0 * dt + nx0, ay0 * dt + ny0, d_x, d_y)
        gaps[i] = [0.5 * float(np.mean(gap_x)) / dt, 0.5 * float(np.mean(gap_y)) / dt]
    return DriftGapReport(
        state=state,
        dts=dts,
        gaps=gaps,
        target=(2.0 * cfg.kappa * x0, 2.0 * cfg.kappa * y0),
    )


# ---------------------------------------------------------------------------
# classical detailed balance
# ---------------------------------------------------------------------------

def _balance_fields(cfg: SdeConfig, xs: np.ndarray):
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    s = X ** 2 + Y ** 2
    p = analytic_pdfs(cfg).plane(X, Y)
    # irreversible drift: the time-reversal-even part (position even, momentum odd)
    irr_x = (2.0 * cfg.kappa * X - 0.25 * cfg.delta * s * X) * p - cfg.kappa * dx(s * p, h, 0)
    irr_y = (2.0 * cfg.kappa * Y - 0.25 * cfg.delta * s * Y) * p - cfg.kappa * dx(s * p, h, 1)
    div_rev = divergence(cfg.omega0 * Y * p, -cfg.omega0 * X * p, h)
    return max_flux_norm(irr_x, irr_y, 2), float(np.abs(interior(div_rev, 2)).max())


def _diffusion_matrix(x, y) -> np.ndarray:
    """D = B B^T, shape (2, 2, ...); B's columns are the noise of unit dX and dY."""
    b = np.array([_cartesian_noise(x, y, 1.0, 0.0), _cartesian_noise(x, y, 0.0, 1.0)])
    return np.einsum("ji...,jk...->ik...", b, b)


def classical_detailed_balance(cfg: SdeConfig) -> DetailedBalanceReport:
    """Grid check that the stationary flux is reversible and divergence-free.

    The irreversible flux and the divergence of the rotational flux both
    vanish analytically on the Gaussian stationary density; on a grid of
    spacing 0.1 over |x|, |y| <= 8 sqrt(kappa / delta) (four standard
    deviations) and on its refinement they shrink at second order.  Without
    rotation (omega0 = 0) the rotational divergence is exactly zero on both
    grids and ``order_divergence`` is None.  Time reversal keeps x and flips
    y, so the diffusion matrix must obey D(x, y) = eps D(x, -y) eps with
    eps = diag(1, -1); ``diffusion_time_reversal_exact`` reports whether it
    does, exactly, on the grid.
    """
    h = 0.1
    xs = make_grid(8.0 * math.sqrt(cfg.kappa / cfg.delta), h)
    irr_c, div_c = _balance_fields(cfg, xs)
    irr_f, div_f = _balance_fields(cfg, refine(xs))

    X, Y = np.meshgrid(xs, xs, indexing="ij")
    eps = np.diag([1.0, -1.0])
    d_reversed = np.einsum("ij,jk...,kl->il...", eps, _diffusion_matrix(X, -Y), eps)
    exact = bool(np.array_equal(_diffusion_matrix(X, Y), d_reversed))
    return DetailedBalanceReport(
        max_irreversible_flux=irr_c,
        max_reversible_divergence=div_c,
        order_irreversible=observed_order(irr_c, irr_f),
        order_divergence=observed_order(div_c, div_f),
        diffusion_time_reversal_exact=exact,
        spacing=h,
    )
