"""Truncated Fock-space operators, model parameters, and the model generators.

Both models are phase covariant: each channel (two-photon loss a a, two-photon
gain a^dag a^dag, one-photon gain a^dag) moves a fixed number k of photons, so
the generator maps rho to

    L(rho)[p, q] = diag[p, q] rho[p, q] + sum over k of jumps[k][p, q] rho[p + k, q + k].

``generator`` returns these grids as a ``Generator``, which applies itself to
a density matrix and is what the solvers of ``lindblad`` take; no dim^2 x dim^2
matrix is built.  Only the forward generator is built: an adjoint action
enters through the Hilbert-Schmidt duality Tr[A^dag L'(B)] = Tr[(L A)^dag B].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

MIN_DIM = 20
MAX_DIM = 400


class FockError(ValueError):
    """Invalid Fock-space construction request; ``field`` names a bad ``ModelParams`` field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NoStationaryStateError(FockError):
    """Two-photon gain at or above two-photon loss leaves no normalizable steady state."""


class ModelKind(Enum):
    NOISE_INDUCED = "noise-induced"
    CONVENTIONAL = "conventional"


@dataclass(frozen=True)
class ModelParams:
    """Rates of the nonlinearly damped oscillator.

    ``kind`` selects the gain mechanism: two-photon gain fed by the same
    thermal bath as the two-photon loss (noise-induced), or an independent
    one-photon gain channel (conventional).  Exactly one gain rate may be
    nonzero, matching the selected kind.
    """

    omega0: float
    kappa_down: float
    kappa_up2: float = 0.0
    kappa_up1: float = 0.0
    kind: ModelKind = ModelKind.NOISE_INDUCED

    def __post_init__(self) -> None:
        # the grids hold exact zeros off each channel's reach only for finite rates (0 * inf is NaN)
        for name in ("omega0", "kappa_down", "kappa_up2", "kappa_up1"):
            if not math.isfinite(getattr(self, name)):
                raise FockError(f"{name} must be finite, got {getattr(self, name)}", name)
        if self.kappa_down <= 0:
            raise FockError("two-photon loss rate kappa_down must be positive", "kappa_down")
        for name in ("kappa_up2", "kappa_up1"):
            if getattr(self, name) < 0:
                raise FockError(f"gain rate {name} must be nonnegative", name)
        absent = "kappa_up1" if self.kind is ModelKind.NOISE_INDUCED else "kappa_up2"
        if getattr(self, absent) != 0:
            raise FockError(f"the {self.kind.value} model has no {absent} gain channel", absent)
        if self.k_ratio >= 1:
            raise NoStationaryStateError(
                f"gain/loss ratio {self.k_ratio} >= 1: no normalizable stationary state", "kappa_up2")

    @property
    def k_ratio(self) -> float:
        """Two-photon gain over two-photon loss (0 at zero temperature)."""
        return self.kappa_up2 / self.kappa_down

    def rotation_reversed(self) -> "ModelParams":
        """Same rates with the sign of the free rotation flipped."""
        return replace(self, omega0=-self.omega0)


def default_dim(params: ModelParams) -> int:
    """Truncation large enough that the neglected steady-state tail is negligible.

    Even-parity populations decay geometrically with the gain/loss ratio, so an
    even dimension with ratio**(dim/2) < 1e-12 bounds the dropped mass; clamped
    to [MIN_DIM, MAX_DIM].  The conventional model relaxes to within a few
    photons of vacuum, so its default scales with sqrt(gain/loss); a ratio
    that overflows raises ``FockError`` at ``kappa_up1``.
    """
    if params.kind is ModelKind.NOISE_INDUCED:
        return dim_for_tail(params.k_ratio)
    ratio = params.kappa_up1 / params.kappa_down
    if not math.isfinite(ratio):
        raise FockError(f"gain/loss ratio kappa_up1/kappa_down = {params.kappa_up1}/"
                        f"{params.kappa_down} overflows", "kappa_up1")
    n = 2 * math.ceil(4.0 * math.sqrt(ratio) + 6.0)
    return min(max(n, MIN_DIM), MAX_DIM)


def dim_for_tail(k_ratio: float, decades: float = 12.0) -> int:
    """Smallest even dimension with k_ratio**(dim/2) below 10**-decades."""
    if not math.isfinite(k_ratio):
        raise FockError(f"gain/loss ratio must be finite, got {k_ratio}")
    if k_ratio <= 0.0:
        return MIN_DIM
    if k_ratio >= 1.0:
        raise NoStationaryStateError("gain/loss ratio must lie below 1")
    n = 2 * math.ceil(decades / (-math.log10(k_ratio)))
    return min(max(n, MIN_DIM), MAX_DIM)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def build_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators on a dim-level Fock space."""
    if dim < 2:
        raise FockError(f"Fock dimension must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a, a.conj().T


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def parity_op(dim: int) -> np.ndarray:
    """Photon-number parity (-1)**n, diagonal and involutive."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def fock_state(dim: int, n: int) -> np.ndarray:
    """Projector |n><n|."""
    if not 0 <= n < dim:
        raise FockError(f"level {n} outside 0..{dim - 1}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def coherent_state(dim: int, alpha: complex) -> np.ndarray:
    """Projector onto the truncated coherent state of amplitude alpha, renormalized.

    The amplitudes alpha^n / sqrt(n!) come from one cumulative product; the
    normalization absorbs the exp(-|alpha|^2 / 2) factor.
    """
    if not np.isfinite(alpha):
        raise FockError(f"coherent amplitude must be finite, got {alpha}")
    amp = np.ones(dim, dtype=complex)
    amp[1:] = np.cumprod(complex(alpha) / np.sqrt(np.arange(1, dim)))
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp.conj())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """A model generator as its grids over the density-matrix entries (see the module).

    ``jumps[k]`` is 0 wherever p + k or q + k falls off the truncation.
    """

    diag: np.ndarray
    jumps: dict[int, np.ndarray]

    def reach(self, k: int) -> tuple[slice, slice]:
        """The rows (and columns) that jump k writes, and the ones k above that it reads."""
        dim = self.diag.shape[0]
        return slice(max(-k, 0), dim - max(k, 0)), slice(max(k, 0), dim + min(k, 0))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) from the grids, one shifted product per jump."""
        out = self.diag * rho
        for k, jump in self.jumps.items():
            to, src = self.reach(k)
            out[to, to] += jump[to, to] * rho[src, src]
        return out

    @property
    def nnz(self) -> int:
        """Nonzero entries of the grids: those a sparse dim^2 x dim^2 form would store."""
        return sum(np.count_nonzero(grid) for grid in (self.diag, *self.jumps.values()))


def generator(params: ModelParams, dim: int | None = None) -> Generator:
    """Generator of the selected model on a dim-level Fock space, as grids.

    A channel c with c[n, n + k] = A_n gives the jump grid rate A_p A_q and
    the diagonal -rate (N_p + N_q) / 2 with N_n = (c^dag c)[n, n] = A_{n - k}^2;
    the free rotation adds -i omega0 (p - q).  The ladder values and the
    terms combine in the order of the sum of Kronecker-product terms (the
    rotation, then kappa_down D[a^2], then the gain channel), so the grids
    hold its values bit for bit.
    """
    if dim is None:
        dim = default_dim(params)
    if dim < 2:
        raise FockError(f"Fock dimension must be >= 2, got {dim}")
    root = np.sqrt(np.arange(dim, dtype=float))  # a[n - 1, n] = sqrt(n)
    lower = np.append(root[1:], 0.0)  # a[n, n + 1]
    # rate, k and c[n, n + k] of a a, a^dag a^dag and a^dag; ModelParams leaves
    # at most one gain rate nonzero, and a channel without rate adds no term
    channels = [(params.kappa_down, 2, lower * np.append(lower[1:], 0.0)),
                (params.kappa_up2, -2, root * np.append(0.0, root[:-1])),
                (params.kappa_up1, -1, root)]
    number = root * root
    diag = params.omega0 * (-1j * (number[:, None] - number))
    jumps = {}
    for rate, k, amp in (channel for channel in channels if channel[0] > 0):
        # amp vanishes where n + k falls off, so the roll wraps in zeros only
        cdc = np.roll(amp * amp, k)
        # 0j - x, not -x: the reference subtracts from an empty diagonal, and
        # the signs of zeros must agree too
        diag += rate * ((0j - 0.5 * cdc[:, None]) - 0.5 * cdc)
        jumps[k] = rate * np.multiply.outer(amp, amp)
    return Generator(diag, jumps)


def liouvillian(params: ModelParams, dim: int | None = None) -> Generator:
    """The model generator under its older name: ``generator(params, dim)``."""
    return generator(params, dim)
