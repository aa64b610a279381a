"""Grid discretization of the phase-space generator and its probability current.

The generator of the noise-induced model acts on quasiprobabilities through
drift, diffusion, and third-derivative terms.  Writing every term in flux
form defines a current via the continuity equation; splitting off the
rotational part (omega0 y, -omega0 x) W isolates the irreversible remainder,
which vanishes on the steady state at the discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import mean_n_ss, wigner_ss
from .fock import ModelKind, ModelParams

# one-sided stencils are never used: statistics exclude this many boundary cells
EDGE_CELLS = 3


class WignerGridError(ValueError):
    pass


class BoundaryContaminationError(WignerGridError):
    """Field not negligible at the grid edge; enlarge the extent."""


@dataclass(frozen=True)
class WignerField:
    """Real samples of a quasiprobability on a uniform square grid."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        hx = np.diff(self.x)
        hy = np.diff(self.y)
        if self.x.size != self.y.size or self.w.shape != (self.x.size, self.y.size):
            raise WignerGridError("grid must be square with matching samples")
        if not (np.allclose(hx, hx[0]) and np.allclose(hy, hy[0]) and np.isclose(hx[0], hy[0])):
            raise WignerGridError("grid must be uniform with equal spacings")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def mass(self) -> float:
        return float(self.w.sum() * self.h ** 2)


@dataclass(frozen=True)
class FluxDecomposition:
    j_rev_x: np.ndarray
    j_rev_y: np.ndarray
    j_irr_x: np.ndarray
    j_irr_y: np.ndarray


def default_extent(k_ratio: float, wp_plus: float) -> float:
    """Grid half-width covering the Gaussian tail support with margin."""
    return 2.0 * math.sqrt(2.0 * mean_n_ss(k_ratio, wp_plus) + 3.0) + 2.0


def grid_points(extent: float, h: float) -> int:
    """round(2 extent / h) + 1, the points of ``make_grid``, counted exactly past float range."""
    steps = 2.0 * extent / h
    if math.isinf(steps):
        from fractions import Fraction  # kept off the start-up path
        steps = 2 * Fraction(extent) / Fraction(h)
    return round(steps) + 1


def make_grid(extent: float, h: float) -> np.ndarray:
    return np.linspace(-extent, extent, grid_points(extent, h))


def refine(grid: np.ndarray) -> np.ndarray:
    """The same interval with every spacing halved."""
    return np.linspace(grid[0], grid[-1], 2 * (grid.size - 1) + 1)


def observed_order(coarse: float, fine: float) -> float | None:
    """Observed order log2(e_h / e_{h/2}) of an error; None when both errors are exactly 0."""
    if coarse == fine == 0.0:
        return None
    return math.log2(coarse / fine)


def sample_steady_field(k_ratio: float, wp_plus: float, extent: float | None = None,
                        h: float = 0.05) -> WignerField:
    if extent is None:
        extent = default_extent(k_ratio, wp_plus)
    grid = make_grid(extent, h)
    return WignerField(x=grid, y=grid, w=wigner_ss(grid[:, None], grid[None, :], k_ratio, wp_plus))


def interior(values: np.ndarray, cells: int = EDGE_CELLS) -> np.ndarray:
    return values[(slice(cells, -cells),) * values.ndim]


# ---------------------------------------------------------------------------
# stencils (second-order central; third derivatives use the fourth-order form)
# ---------------------------------------------------------------------------

def _stencil(f: np.ndarray, axis: int, width: int, formula) -> np.ndarray:
    """``formula`` along ``axis`` at cells ``width`` or more from either end; zero elsewhere."""
    out = np.zeros_like(f)
    out.swapaxes(axis, 0)[width:-width] = formula(f.swapaxes(axis, 0))
    return out


def dx(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    return _stencil(f, axis, 1, lambda s: (s[2:] - s[:-2]) / (2.0 * h))


def dxx(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    return _stencil(f, axis, 1, lambda s: (s[2:] - 2.0 * s[1:-1] + s[:-2]) / h ** 2)


def _dx4(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    # fourth-order first derivative; used where the truncation constant is largest
    return _stencil(f, axis, 2, lambda s: (
        s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]
    ) / (12.0 * h))


def _dxxx(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    return _stencil(f, axis, 3, lambda s: (
        s[:-6] - 8.0 * s[1:-5] + 13.0 * s[2:-4]
        - 13.0 * s[4:-2] + 8.0 * s[5:-1] - s[6:]
    ) / (8.0 * h ** 3))


def _zero_edges(f: np.ndarray, cells: int) -> np.ndarray:
    f[:cells, :] = 0.0
    f[-cells:, :] = 0.0
    f[:, :cells] = 0.0
    f[:, -cells:] = 0.0
    return f


def _check_boundary(field: WignerField, boundary_tol: float) -> None:
    edge = np.concatenate([field.w[0, :], field.w[-1, :], field.w[:, 0], field.w[:, -1]])
    peak = np.abs(field.w).max()
    worst = np.abs(edge).max()
    if worst > boundary_tol * peak:
        raise BoundaryContaminationError(
            f"edge-to-peak ratio {worst / peak:.3e} (edge {worst:.3e}, peak {peak:.3e}) exceeds "
            f"boundary_tol = {boundary_tol:.3g}; enlarge the grid extent"
        )


def _weighted_terms(field: WignerField, params: ModelParams, boundary_tol: float):
    """Drift, diffusion and third-derivative coefficients times w, each formed once."""
    _check_boundary(field, boundary_tol)
    if params.kind is not ModelKind.NOISE_INDUCED:
        raise WignerGridError("the phase-space generator is built for the noise-induced model")
    kd, ku = params.kappa_down, params.kappa_up2
    X, Y = field.x[:, None], field.y[None, :]
    s = X ** 2 + Y ** 2
    drift_x = -params.omega0 * Y - (ku + kd) * X + 0.25 * (kd - ku) * s * X
    drift_y = params.omega0 * X - (ku + kd) * Y + 0.25 * (kd - ku) * s * Y
    diff = 0.5 * (kd + ku) * s - (kd - ku)
    third_x = 0.25 * (kd - ku) * X
    third_y = 0.25 * (kd - ku) * Y
    w = field.w
    return drift_x * w, drift_y * w, diff * w, third_x * w, third_y * w


def wigner_generator_apply(field: WignerField, params: ModelParams,
                           boundary_tol: float = 1e-8) -> np.ndarray:
    """Apply the discretized phase-space generator to the sampled field.

    Every term is a derivative of coefficient * w: first derivatives of the
    drifts, second derivatives of the shared diffusion coefficient, and four
    third-derivative terms.  Pure third derivatives use 4th-order stencils;
    the outer EDGE_CELLS ring is zeroed.
    """
    drift_x, drift_y, diff, third_x, third_y = _weighted_terms(field, params, boundary_tol)
    h = field.h
    res = (
        dx(drift_x, h, 0)
        + dx(drift_y, h, 1)
        + dxx(diff, h, 0)
        + dxx(diff, h, 1)
        + dx(dxx(third_x, h, 1), h, 0)
        + _dxxx(third_x, h, 0)
        + dx(dxx(third_y, h, 0), h, 1)
        + _dxxx(third_y, h, 1)
    )
    return _zero_edges(res, EDGE_CELLS)


def wigner_current(field: WignerField, params: ModelParams,
                   boundary_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Current (jx, jy) whose negative divergence reproduces the generator.

    Each generator term d/dx[F] contributes -F to jx; the mixed third
    derivatives are grouped as d/dx of the cross second derivative, matching
    the decomposition in which the steady irreversible flux vanishes.  The
    diffusion-flux gradient carries the largest truncation constant and gets
    the 4th-order stencil; the remaining 2nd-order terms set the observed
    refinement order.
    """
    drift_x, drift_y, diff, third_x, third_y = _weighted_terms(field, params, boundary_tol)
    h = field.h
    jx = -(drift_x + _dx4(diff, h, 0) + dxx(third_x, h, 0) + dxx(third_x, h, 1))
    jy = -(drift_y + _dx4(diff, h, 1) + dxx(third_y, h, 1) + dxx(third_y, h, 0))
    return _zero_edges(jx, EDGE_CELLS), _zero_edges(jy, EDGE_CELLS)


def divergence(jx: np.ndarray, jy: np.ndarray, h: float) -> np.ndarray:
    return dx(jx, h, 0) + dx(jy, h, 1)


def flux_decompose(field: WignerField, jx: np.ndarray, jy: np.ndarray,
                   params: ModelParams) -> FluxDecomposition:
    """Split the current into the rotational part and the irreversible remainder."""
    X, Y = field.x[:, None], field.y[None, :]
    rev_x = _zero_edges(params.omega0 * Y * field.w, EDGE_CELLS)
    rev_y = _zero_edges(-params.omega0 * X * field.w, EDGE_CELLS)
    return FluxDecomposition(
        j_rev_x=rev_x,
        j_rev_y=rev_y,
        j_irr_x=jx - rev_x,
        j_irr_y=jy - rev_y,
    )


def max_flux_norm(jx: np.ndarray, jy: np.ndarray) -> float:
    return float(np.hypot(interior(jx), interior(jy)).max())


def field_to_csv(path, field: WignerField, jx: np.ndarray, jy: np.ndarray,
                 decomp: FluxDecomposition, header_lines: list[str] | None = None) -> None:
    """Dump (x, y, w, jx, jy, j_irr_x, j_irr_y) rows for external plotting.

    One row per grid point, x-major, written by :func:`noisecycle.csvio.write_csv`
    from the grid arrays as they are: each axis is encoded once and gathered
    per row, the five grids a chunk of rows at a time, each number a 32-byte
    cell of its 17 significant digits (``%.17g``); rows end in ``\\r\\n``.
    """
    from . import csvio  # on first use: importing noisecycle leaves the encoder unloaded

    header = ["x", "y", "w", "jx", "jy", "j_irr_x", "j_irr_y"]
    columns = [field.x[:, None], field.y[None, :], field.w, jx, jy,
               decomp.j_irr_x, decomp.j_irr_y]
    csvio.write_csv(path, header, columns, header_lines or [])
