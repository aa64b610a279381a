"""Classical multiplicative-noise oscillator: the macroscopic comparison model.

Ito ensembles in polar and Cartesian coordinates by the simplified weak
Euler scheme (two-point increments, one random bit each, weak order 1),
simulated in the frame that rotates with omega0 (the rotation commutes with
the rest of the generator, so every path ends as quadratures (x, y) rotated
once at one shared site, and the polar phase is one normal draw per path); the
closed-form stationary densities (Rayleigh radius, Gaussian plane), the
cartesian Fokker-Planck grid residual, classical circulation, the
Stratonovich/Ito drift conversion check (a closed form in three sample
moments, drawn from their exact law), and the classical detailed-balance flux
decomposition; the two-dimensional grid checks run in row blocks of 32 KiB.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .wignerflux import divergence, dx, dxx, make_grid, observed_order, refine

_BLOCK_PATHS = 4096
_DRAW_VALUES = 1 << 15  # increments per draw: 256 KiB of float64, small enough to stay in cache
_GRID_BLOCK_VALUES = 1 << 12  # 32 KiB a block array: a block stays under the heap trim threshold
DRIFT_STATE = (1.0, 0.0)  # where ``noise_induced_drift_check`` measures the gap
DRIFT_DRAWS = 400_000  # normal pairs of its sample mean


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

    ``burn_in`` and ``n_steps`` enter only as their sum, the steps each path
    takes; each path gives one sample, its state at the end.  Per-block
    random streams are derived from the seed so ensembles are reproducible.
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
        # a JSON config can give a float or a bool, which the ensemble loop and
        # numpy's seeding reject only once the run has started
        for name, least in (("n_steps", 1), ("n_paths", 1), ("burn_in", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SdeError(f"{name} must be an integer, got {value!r}", name)
            if value < least:
                raise SdeError(f"{name} must be at least {least}, got {value}", name)
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
    """Post-burn-in samples with radius nonnegative and phase wrapped to [0, 2pi).

    ``increment_words`` counts the raw 64-bit random words drawn for the
    increments; the polar phase draws one normal per path on top.
    """

    r: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    mean_r: float
    var_r: float
    mean_x2_plus_y2: float
    n_diverged: int
    n_total: int
    increment_words: int


@dataclass(frozen=True)
class AnalyticPdfs:
    """Stationary densities: Rayleigh radius and Gaussian plane; the phase is uniform."""

    kappa: float
    delta: float

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        return (self.delta / self.kappa) * r * np.exp(-self.delta * r ** 2 / (2.0 * self.kappa))

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
    """Stratonovich-minus-Ito mean drift per unit time at ``DRIFT_STATE``."""

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


# ---------------------------------------------------------------------------
# drift and noise of the cartesian step
# ---------------------------------------------------------------------------

def _cartesian_drift(x, y, cfg: SdeConfig):
    s = x ** 2 + y ** 2
    return (
        cfg.omega0 * y + 2.0 * cfg.kappa * x - 0.25 * cfg.delta * s * x,
        -cfg.omega0 * x + 2.0 * cfg.kappa * y - 0.25 * cfg.delta * s * y,
    )


def _cartesian_noise(x, y, d_x, d_y):
    return 0.5 * (x * d_x + y * d_y), 0.5 * (x * d_y - y * d_x)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _two_point_increments(rng: np.random.Generator, shape, half_std: float,
                          offset: float = 0.0) -> np.ndarray:
    """offset +- half_std with equal odds, one random bit per value (bit 1 gives +).

    The bits are the first n = prod(shape) bits of ceil(n / 64) raw 64-bit words
    of ``rng``'s bit generator, read as little-endian bytes and unpacked least
    significant bit first, so a seed gives the same values on every platform.
    At offset 0 every value is exactly +-half_std.
    """
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    values = bits.reshape(shape).astype(np.float64)  # a plain cast beats a mixed-type product
    values *= 2.0 * half_std
    values += offset - half_std
    return values


def _draw_steps(total: int, values_per_step: int) -> list[int]:
    """Steps of each increment draw: as many as fit in ``_DRAW_VALUES``, at least one."""
    steps = max(1, _DRAW_VALUES // values_per_step)
    return [min(steps, total - s) for s in range(0, total, steps)]


def _run_block(cfg: SdeConfig, block: int, size: int):
    """Quadratures (x, y) of one block of paths and the random words it drew.

    Simplified weak Euler scheme (see ``simulate_ensemble``): each step draws
    dW = +-sqrt(8 kappa dt) with equal odds, one raw bit per increment, at
    most ``_DRAW_VALUES`` increments per draw.  The omega0 = 0 steps run in place
    on preallocated buffers, on coordinates scaled so that the factor's
    nonlinear term is a plain square.  A polar path ends at
    (2 r cos psi, 2 r sin psi), psi = sqrt(2 kappa T) z, one normal drawn
    from the block's own stream after the loop, and both coordinate systems
    share one rotation.
    """
    rng = _block_rng(cfg.seed, block)
    total = cfg.burn_in + cfg.n_steps
    half_std = 0.5 * cfg.noise_std
    words = 0
    # diverged paths run to inf/nan and are counted afterwards
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.coordinates == "polar":
            # q = r sqrt(delta dt): r <- r (1 + 3 kappa dt - delta dt r^2 + dW / 2) is
            # q <- q (f - q^2), where the draw gives f = 1 + 3 kappa dt + dW / 2 whole;
            # the factor sees only q^2 and |a b| = |a| |b| exactly, so taking |q| once
            # below equals reflecting a negative radius at every step
            scale = math.sqrt(cfg.delta * cfg.dt)
            q = np.full(size, math.sqrt(2.0 * cfg.kappa / cfg.delta) * scale)
            g = np.empty(size)
            for steps in _draw_steps(total, size):
                f = _two_point_increments(rng, (steps, size), half_std,
                                          1.0 + 3.0 * cfg.kappa * cfg.dt)
                words += -(-f.size // 64)
                for f_step in f:
                    np.multiply(q, q, out=g)
                    np.subtract(f_step, g, out=g)
                    q *= g
            r = np.abs(q, out=q)
            r /= scale
            psi = math.sqrt(2.0 * cfg.kappa * total * cfg.dt) * rng.standard_normal(size)
            x, y = 2.0 * r * np.cos(psi), 2.0 * r * np.sin(psi)
        else:
            # (x, y) scaled by sqrt(delta dt) / 2; with g = 1 + 2 kappa dt - (x^2 + y^2)
            # and (a, b) = (dX, dY) / 2:  x <- x (g + a) + y b,  y <- y (g - a) + x b
            scale = 0.5 * math.sqrt(cfg.delta * cfg.dt)
            x = np.full(size, 2.0 * math.sqrt(cfg.kappa / cfg.delta) * scale)
            y = np.zeros(size)
            g, u, v = np.empty(size), np.empty(size), np.empty(size)
            c = 1.0 + 2.0 * cfg.kappa * cfg.dt
            for steps in _draw_steps(total, 2 * size):
                ab = _two_point_increments(rng, (steps, 2, size), half_std)
                words += -(-ab.size // 64)
                for a, b in ab:
                    np.multiply(x, x, out=g)
                    np.multiply(y, y, out=u)
                    g += u
                    np.subtract(c, g, out=g)
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
            x /= scale
            y /= scale
        angle = cfg.omega0 * total * cfg.dt
        cos, sin = math.cos(angle), math.sin(angle)
        return cos * x + sin * y, cos * y - sin * x, words


def simulate_ensemble(cfg: SdeConfig) -> SdeEnsembleResult:
    """Independent paths, burn-in discarded, one sample per path.

    Each path takes the omega0 = 0 Euler step, in (r, phi) with a negative
    radius reflected or in (x, y), for burn_in + n_steps steps of dt, fed
    two-point increments dW = +-sqrt(8 kappa dt), one random bit each: the
    simplified weak Euler scheme, of weak order 1 like Euler-Maruyama (Kloeden & Platen,
    Numerical Solution of SDEs, 1992, sec. 14.1; Talay & Tubaro 1990).  It
    samples the stationary law, not Gaussian paths.  Each path is then
    rotated by -omega0 T, T = (burn_in + n_steps) dt, which is exact because
    the rotation commutes with the rest of the generator.  The polar phase is
    drawn once per path, sqrt(2 kappa T) z before that rotation, its exact
    law.  Diverged paths are excluded and counted; above 1% the run fails.
    Each block of ``_BLOCK_PATHS`` paths draws from its own stream, derived
    from the seed and the block index.
    """
    sizes = [min(_BLOCK_PATHS, cfg.n_paths - s) for s in range(0, cfg.n_paths, _BLOCK_PATHS)]
    blocks = [_run_block(cfg, block, size) for block, size in enumerate(sizes)]
    x = np.concatenate([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])
    increment_words = sum(b[2] for b in blocks)

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
        increment_words=increment_words,
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

def _cartesian_residual(cfg: SdeConfig, xs: np.ndarray, ys: np.ndarray,
                        hx: float, hy: float) -> np.ndarray:
    """Residual field on rows ``xs`` of the grid xs x ys, whose spacings are (hx, hy)."""
    X, Y = xs[:, None], ys[None, :]
    p = AnalyticPdfs(cfg.kappa, cfg.delta).plane(X, Y)
    a_x, a_y = _cartesian_drift(X, Y, cfg)
    diff = cfg.kappa * (X ** 2 + Y ** 2) * p
    return -dx(a_x * p, hx, 0) - dx(a_y * p, hy, 1) + dxx(diff, hx, 0) + dxx(diff, hy, 1)


def _interior_maxima(fields, xs: np.ndarray, row_values: int) -> list[float]:
    """Largest |value| off the two-cell grid edge of each field ``fields(rows of xs)`` returns,
    taken on row blocks of at most ``_GRID_BLOCK_VALUES`` values, ``row_values`` a row; the
    one halo row at either end of a block takes the stencils' zeros and is cut."""
    step = max(1, _GRID_BLOCK_VALUES // row_values - 2)
    return np.max([[np.abs(f[1:-1, 2:-2]).max()
                    for f in fields(xs[start - 1:min(start + step, xs.size - 2) + 1])]
                   for start in range(2, xs.size - 2, step)], axis=0).tolist()


def _max_residual(cfg: SdeConfig, xs: np.ndarray, ys: np.ndarray) -> float:
    """Largest |cartesian residual| off the two-cell edge of the grid xs x ys."""
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    return _interior_maxima(lambda rows: [_cartesian_residual(cfg, rows, ys, hx, hy)],
                            xs, ys.size)[0]


def fokker_planck_residual(which: str, cfg: SdeConfig, grid) -> float:
    """Max |generator applied to the stationary density| on a uniform grid ``(xs, ys)``.

    The residual is recomputed on a once-refined grid and the observed
    convergence order must land in [1.7, 2.3] (a residual at rounding level on
    both grids also passes).  "cartesian" is the one operator; ``which`` stays
    because its callers, ``verify.check_classical_sde`` and perfbench's
    ``classical-ensemble`` workload, name it, and any other name raises
    ``SdeError``.
    """
    if which != "cartesian":
        raise SdeError(f"unknown operator {which!r}")
    xs, ys = (np.asarray(a, dtype=float) for a in grid)
    coarse_res, fine_res = _max_residual(cfg, xs, ys), _max_residual(cfg, refine(xs), refine(ys))
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

def _drift_moments(rng: np.random.Generator, n: int) -> tuple[float, float, float]:
    """m0 = <z0>, m1 = <z1> and m2 = <z0^2 + z1^2> of n standard normal pairs, from their law:
    by Cochran's theorem n m0 and n m1 are N(0, n) and n m2 - n (m0^2 + m1^2) is an independent
    chi-square with 2n - 2 degrees of freedom, zero at n = 1; three draws in place of 2n."""
    s0, s1 = math.sqrt(n) * rng.standard_normal(2)
    c = rng.chisquare(2 * n - 2) if n > 1 else 0.0
    return float(s0 / n), float(s1 / n), float((s0 * s0 / n + s1 * s1 / n + c) / n)


def _drift_gaps(cfg: SdeConfig, state: tuple[float, float], dts: np.ndarray,
                m0: float, m1: float, m2: float) -> np.ndarray:
    """Mean gap per unit time at each dt, shape (len(dts), 2), from the draws' three moments."""
    x0, y0 = state
    ax0, ay0 = _cartesian_drift(x0, y0, cfg)
    quarter_std = 0.25 * np.sqrt(8.0 * cfg.kappa * dts)
    return np.column_stack([cfg.kappa * x0 * m2 + quarter_std * (ax0 * m0 + ay0 * m1),
                            cfg.kappa * y0 * m2 + quarter_std * (ax0 * m1 - ay0 * m0)])


def noise_induced_drift_check(cfg: SdeConfig) -> DriftGapReport:
    """Mean one-step gap between midpoint-noise (Stratonovich) and Ito updates.

    Both updates consume the same draws and share the Euler drift; only the
    noise coefficient is averaged over the Euler predictor.  It is linear in
    the state, so the gap is half the noise at the Ito increment (the b b'/2
    term, Kloeden & Platen 1992), and zero at zero noise.  Over ``DRIFT_DRAWS``
    normal pairs z at ``DRIFT_STATE`` its mean is a closed form (``_drift_gaps``)
    in m0 = <z0>, m1 = <z1> and m2 = <z0^2 + z1^2>, drawn in O(1) from their
    exact law (``_drift_moments``).  Per unit time the x gap,
    kappa x m2 + sqrt(8 kappa dt) (a_x m0 + a_y m1) / 4 with (a_x, a_y) the
    drift at the state, has mean 2 kappa x at every dt (the drift the noise
    induces) and variance (4 kappa^2 x^2 + kappa dt (a_x^2 + a_y^2) / 2) / n
    over n draws; the y gap likewise, with y m2 and a_x m1 - a_y m0.
    """
    dts = np.array([4e-3, 2e-3, 1e-3])
    moments = _drift_moments(np.random.default_rng(cfg.seed), DRIFT_DRAWS)
    x0, y0 = DRIFT_STATE
    return DriftGapReport(dts=dts, gaps=_drift_gaps(cfg, DRIFT_STATE, dts, *moments),
                          target=(2.0 * cfg.kappa * x0, 2.0 * cfg.kappa * y0))


# ---------------------------------------------------------------------------
# classical detailed balance
# ---------------------------------------------------------------------------

def _balance_fields(cfg: SdeConfig, xs: np.ndarray, ys: np.ndarray, h: float):
    """Irreversible flux norm and rotational-flux divergence on rows ``xs`` of the grid xs x ys."""
    X, Y = xs[:, None], ys[None, :]
    s = X ** 2 + Y ** 2
    p = AnalyticPdfs(cfg.kappa, cfg.delta).plane(X, Y)
    sp = s * p
    # irreversible drift: the time-reversal-even part (position even, momentum odd)
    irr_x = (2.0 * cfg.kappa * X - 0.25 * cfg.delta * s * X) * p - cfg.kappa * dx(sp, h, 0)
    irr_y = (2.0 * cfg.kappa * Y - 0.25 * cfg.delta * s * Y) * p - cfg.kappa * dx(sp, h, 1)
    return np.hypot(irr_x, irr_y), divergence(cfg.omega0 * Y * p, -cfg.omega0 * X * p, h)


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

    def maxima(g):
        return _interior_maxima(lambda rows: _balance_fields(cfg, rows, g, g[1] - g[0]), g, g.size)

    (irr_c, div_c), (irr_f, div_f) = maxima(xs), maxima(refine(xs))
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]  # eps D eps = D o eps eps^T
    step = max(1, _GRID_BLOCK_VALUES // (4 * xs.size))  # D holds four values a point
    blocks = ((xs[i:i + step, None], xs[None, :]) for i in range(0, xs.size, step))
    exact = all(np.array_equal(_diffusion_matrix(X, Y), signs * _diffusion_matrix(X, -Y))
                for X, Y in blocks)
    return DetailedBalanceReport(
        max_irreversible_flux=irr_c,
        max_reversible_divergence=div_c,
        order_irreversible=observed_order(irr_c, irr_f),
        order_divergence=observed_order(div_c, div_f),
        diffusion_time_reversal_exact=exact,
        spacing=h,
    )
