"""Closed-form steady-state results for the noise-induced oscillator.

Everything here is a function of the gain/loss ratio ``k_ratio`` in [0, 1) and
the conserved even-parity weight ``wp_plus`` in [0, 1]: the diagonal steady
state, its phase-space quasiprobability in Cartesian/complex/polar
coordinates, the limit-cycle radius and phase diagram, amplitude scaling at
the cycle birth, photon statistics, and coherent-state thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# below this ratio the odd-sector quasiprobability switches to its series limit
_SMALL_RATIO = 1e-8
SCAN_POINTS = 2048  # radii of the brute-force scan of ``scan_radius``


class AnalyticError(ValueError):
    """Parameters outside the validity range of a closed form."""


class BoundaryCrossError(AnalyticError):
    """Scaling offsets stepped across the cycle-birth boundary."""


class Phase(Enum):
    """Qualitative steady-state classes on the (k_ratio, wp_plus) square."""

    STABLE_ORIGIN = "I"
    POSITIVE_CYCLE = "II"
    NEGATIVE_CYCLE = "III"


@dataclass(frozen=True)
class PhasePoint:
    r_star: float
    w0: float
    q_ss: float
    phase: Phase


@dataclass(frozen=True)
class HopfFit:
    """Least-squares amplitude scaling near the cycle-birth boundary."""

    radii: np.ndarray
    slope: float        # log-log exponent of r_star vs offset
    coefficient: float  # prefactor of the sqrt(offset) law (fit through origin)


# ---------------------------------------------------------------------------
# steady state and moments
# ---------------------------------------------------------------------------

def _require_state(k_ratio: float, wp_plus: float) -> None:
    """``AnalyticError`` off the square 0 <= k_ratio < 1, 0 <= wp_plus <= 1; a NaN is off it."""
    if not 0.0 <= k_ratio < 1.0:
        raise AnalyticError(f"gain/loss ratio must lie in [0, 1), got {k_ratio}")
    if not 0.0 <= wp_plus <= 1.0:
        raise AnalyticError(f"even weight must lie in [0, 1], got {wp_plus}")


def populations_ss(k_ratio: float, wp_plus: float, dim: int) -> np.ndarray:
    """Steady populations: geometric ladders on even and odd levels.

    Truncated to ``dim`` levels and normalized; the untruncated ladders put
    at most k_ratio**(dim // 2) of their weight on the levels from ``dim`` up.
    """
    _require_state(k_ratio, wp_plus)
    n = np.arange(dim)
    geom = k_ratio ** (n // 2).astype(float)
    pops = np.where(n % 2 == 0, wp_plus * geom, (1.0 - wp_plus) * geom)
    return pops / pops.sum()


def rho_ss_analytic(k_ratio: float, wp_plus: float, dim: int) -> np.ndarray:
    """The diagonal steady state of ``populations_ss`` as a density matrix."""
    return np.diag(populations_ss(k_ratio, wp_plus, dim)).astype(complex)


def mean_n_ss(k_ratio: float, wp_plus: float) -> float:
    """Steady mean photon number: 2 k/(1-k) plus the odd weight."""
    _require_state(k_ratio, wp_plus)
    return 2.0 * k_ratio / (1.0 - k_ratio) + (1.0 - wp_plus)


def mandel_q(k_ratio: float, wp_plus: float) -> float:
    """Steady Mandel Q; negative values witness sub-Poissonian statistics.

    Undefined at (0, 1), where the steady state is vacuum: returns NaN.
    """
    _require_state(k_ratio, wp_plus)
    if k_ratio == 0.0 and wp_plus == 1.0:
        return math.nan
    return (
        2.0 / (1.0 - k_ratio)
        + 2.0 * k_ratio / (1.0 + k_ratio - wp_plus * (1.0 - k_ratio))
        + wp_plus
        - 3.0
    )


def sigmoid(q):
    return 1.0 / (1.0 + np.exp(-np.asarray(q, dtype=float)))


def nonclassical_region(k_ratio: float, wp_plus: float) -> bool:
    """Sub-Poissonian region of the phase diagram (equivalent to mandel_q < 0).

    It is not the region where the Wigner function goes negative: W(0, 0) < 0
    iff wp_plus < 1/2 (``wigner_origin``).  (0.3, 0.3) lies outside it
    (Q = +0.708), yet its least W is W(0, 0) = -0.0637; (0.05, 0.6) lies
    inside it (Q = -0.086), yet W >= 0 for r in [0, 12], with W(0, 0) = +0.0318.
    """
    if not 0.0 <= wp_plus < 1.0:
        return False
    bound = (math.sqrt(5.0 - 4.0 * wp_plus * (2.0 - wp_plus)) - 3.0) / (
        1.0 + wp_plus * (2.0 - wp_plus)
    ) + 1.0
    return 0.0 <= k_ratio < bound


# ---------------------------------------------------------------------------
# quasiprobability in three coordinate systems
# ---------------------------------------------------------------------------

def wigner_ss(x, y, k_ratio: float, wp_plus: float):
    """Steady quasiprobability W(x, y), normalized to unit integral over the plane.

    The even and odd sectors are built from the same two exponentials, each
    formed once.  The odd closed form is a 0/0 expression at zero ratio; below
    k_ratio ~ 1e-8 it takes its limit, the single-excitation quasiprobability
    (s - 1) e^{-s/2} / (2 pi).
    """
    _require_state(k_ratio, wp_plus)
    u = math.sqrt(k_ratio)
    gamma = (1.0 - k_ratio) / (4.0 * math.pi)
    s = np.asarray(x) ** 2 + np.asarray(y) ** 2
    t_narrow = np.exp(-(0.5 + u / (1.0 - u)) * s) / (1.0 - u)
    t_wide = np.exp(-(0.5 - u / (1.0 + u)) * s) / (1.0 + u)
    even = gamma * (t_narrow + t_wide)
    if k_ratio < _SMALL_RATIO:
        odd = 2.0 * gamma * (s - 1.0) * np.exp(-0.5 * s)
    else:
        odd = gamma / u * (t_wide - t_narrow)
    return wp_plus * even + (1.0 - wp_plus) * odd


def wigner_radial(r, k_ratio: float, wp_plus: float):
    """Radial profile W(r) = Wbar(|alpha| = r), the object whose mode locates the cycle."""
    r = np.asarray(r, dtype=float)
    return 4.0 * wigner_ss(2.0 * r, 0.0, k_ratio, wp_plus)


def wigner_origin(k_ratio: float, wp_plus: float) -> float:
    """W(0, 0) = (even weight - odd weight) / (2 pi); negative iff wp_plus < 1/2."""
    _require_state(k_ratio, wp_plus)
    return (2.0 * wp_plus - 1.0) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# phase diagram
# ---------------------------------------------------------------------------

def phase_boundary(k_ratio: float) -> float:
    """Even weight above which the cycle collapses onto a stable origin."""
    return (3.0 + k_ratio) / (4.0 * (1.0 + k_ratio))


def limit_cycle_radius(k_ratio: float, wp_plus: float) -> float:
    """Mode radius of W(r): positive on the limit-cycle side, else 0.

    A nonpositive log argument means the origin is the only peak (deep stable
    phase); that is a valid regime, not an error.
    """
    if not 0.0 < k_ratio < 1.0:
        raise AnalyticError(f"closed-form radius needs ratio in (0, 1), got {k_ratio}")
    _require_state(k_ratio, wp_plus)
    if wp_plus >= phase_boundary(k_ratio):
        # at or past the cycle-birth boundary the origin is the only mode;
        # clamping keeps the radius and the classification exactly consistent
        return 0.0
    u = math.sqrt(k_ratio)
    b = 1.0 - (1.0 - k_ratio) * wp_plus
    num = (1.0 + u) ** 4 * (b - u)
    den = (1.0 - u) ** 4 * (b + u)
    if num <= 0.0 or num <= den:
        return 0.0
    r_sq = (1.0 - k_ratio) / (8.0 * u) * math.log(num / den)
    return math.sqrt(r_sq)


def phase_classify(k_ratio: float, wp_plus: float) -> PhasePoint:
    """Radius, W(0, 0), Mandel Q and phase of a parameter point, which the caller holds.

    Exact boundary values resolve to the closed side: even weight exactly at
    the cycle-birth boundary counts as a stable origin (zero radius); exactly
    1/2 counts as a positive cycle (negativity strict).
    """
    r_star = limit_cycle_radius(k_ratio, wp_plus)
    w0 = wigner_origin(k_ratio, wp_plus)
    q = mandel_q(k_ratio, wp_plus)
    if wp_plus >= phase_boundary(k_ratio):
        phase = Phase.STABLE_ORIGIN
    elif wp_plus >= 0.5:
        phase = Phase.POSITIVE_CYCLE
    else:
        phase = Phase.NEGATIVE_CYCLE
    return PhasePoint(r_star, w0, q, phase)


def scan_radius(k_ratio: float, wp_plus: float) -> float:
    """Brute-force mode of W(r) on ``SCAN_POINTS`` radii covering the Gaussian tail support."""
    r_max = 2.0 * math.sqrt(mean_n_ss(k_ratio, wp_plus) + 3.0)
    grid = np.linspace(0.0, r_max, SCAN_POINTS)
    return float(grid[int(np.argmax(wigner_radial(grid, k_ratio, wp_plus)))])


def hopf_scaling(
    k_c: float,
    wp_c: float,
    direction: str,
    offsets: np.ndarray,
) -> HopfFit:
    """Fit the cycle radius against the square root of the boundary distance.

    ``direction`` selects which parameter steps off the critical point
    ('wp_plus' decreases the even weight, 'k_ratio' decreases the ratio).
    Returns the radius at each offset, in the caller's order, the free
    log-log slope and the prefactor of the constrained sqrt-law fit.  An
    offset that leaves its parameter unchanged is an ``AnalyticError``; one
    that moves it but leaves the radius 0 is a ``BoundaryCrossError``.
    """
    if abs(wp_c - phase_boundary(k_c)) > 1e-9:
        raise AnalyticError(
            f"({k_c}, {wp_c}) is not on the cycle-birth boundary "
            f"(expected even weight {phase_boundary(k_c)})"
        )
    if direction not in ("wp_plus", "k_ratio"):
        raise AnalyticError(f"unknown direction {direction!r}")
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size < 2 or np.any(offsets <= 0) or np.any(offsets > 1e-2):
        raise AnalyticError("offsets must be positive, at most 1e-2, and at least two")
    points = [(k_c, wp_c - d) if direction == "wp_plus" else (k_c - d, wp_c) for d in offsets]
    for d, point in zip(offsets, points):
        if point == (k_c, wp_c):
            raise AnalyticError(f"offset {d} leaves {direction} unchanged at ({k_c}, {wp_c})")
    radii = np.array([limit_cycle_radius(*point) for point in points])
    for d, (k, wp), r in zip(offsets, points, radii):
        if r <= 0.0:
            raise BoundaryCrossError(f"offset {d} moves the point to ({float(k)}, {float(wp)}), "
                                     "but the radius there rounds to 0: in floating point the "
                                     "step does not pass the cycle-birth boundary")
    slope, _ = np.polyfit(np.log(offsets), np.log(radii), 1)
    root = np.sqrt(offsets)
    coefficient = float(root @ radii / (root @ root))
    return HopfFit(radii, float(slope), coefficient)


# ---------------------------------------------------------------------------
# coherent-state thresholds
# ---------------------------------------------------------------------------

def coherent_even_weight(alpha_sq: float) -> float:
    """Even-parity weight of a coherent state of mean photon number alpha_sq."""
    if alpha_sq < 0:
        raise AnalyticError("mean photon number must be nonnegative")
    return 0.5 * (1.0 + math.exp(-2.0 * alpha_sq))


def coherent_cycle_threshold(k_ratio: float) -> float:
    """Minimum coherent-state energy that seeds a limit cycle at this ratio."""
    if not 0.0 < k_ratio < 1.0:
        raise AnalyticError(f"ratio must lie in (0, 1), got {k_ratio}")
    return 0.5 * math.log(2.0 * (1.0 + k_ratio) / (1.0 - k_ratio))

