"""Truncated Fock-space operators, model parameters, and the model generators.

Both models are phase covariant: each channel (two-photon loss a a, two-photon
gain a^dag a^dag, one-photon gain a^dag) moves a fixed number k of photons, so
the generator maps rho to

    L(rho)[p, q] = diag[p, q] rho[p, q] + sum over k of jump_k[p, q] rho[p + k, q + k].

Each jump grid is rank one and the diagonal grid an outer sum, so a
``Generator(params, dim)`` holds O(dim) factors and reads grid entries on
demand; the solvers of ``lindblad`` take it.  Only the forward generator is
built: an adjoint action enters through the Hilbert-Schmidt duality
Tr[A^dag L'(B)] = Tr[(L A)^dag B].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

MIN_DIM = 20


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


def default_dim(params: ModelParams) -> int:
    """Truncation leaving < 1e-12 of the steady mass above it: at least MIN_DIM, no ceiling.

    Noise-induced: ``dim_for_tail`` (populations decay as k**(n/2)).  Conventional,
    r = kappa_up1 / kappa_down: mean about (r + 1) / 2 and variance about 3r / 4, so
    the even dim at or above r/2 + 7 sqrt(r) + 8, checked by solves at twice the dim
    for r in [1e-3, 2e4].  A ratio that overflows raises ``FockError`` at ``kappa_up1``.
    """
    if params.kind is ModelKind.NOISE_INDUCED:
        return dim_for_tail(params.k_ratio)
    ratio = params.kappa_up1 / params.kappa_down
    if not math.isfinite(ratio):
        raise FockError(f"gain/loss ratio kappa_up1/kappa_down = {params.kappa_up1}/"
                        f"{params.kappa_down} overflows", "kappa_up1")
    return max(2 * math.ceil((ratio / 2 + 7.0 * math.sqrt(ratio) + 8.0) / 2), MIN_DIM)


def dim_for_tail(k_ratio: float, decades: float = 12.0) -> int:
    """Smallest even dimension with k_ratio**(dim/2) below 10**-decades, at least MIN_DIM."""
    if not math.isfinite(k_ratio):
        raise FockError(f"gain/loss ratio must be finite, got {k_ratio}")
    if k_ratio <= 0.0:
        return MIN_DIM
    if k_ratio >= 1.0:
        raise NoStationaryStateError("gain/loss ratio must lie below 1")
    return max(2 * math.ceil(decades / (-math.log10(k_ratio))), MIN_DIM)


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
    normalization absorbs the exp(-|alpha|^2 / 2) factor.  ``FockError`` when
    alpha, an amplitude or their norm is not finite.
    """
    amp = np.ones(dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        amp[1:] = np.cumprod(complex(alpha) / np.sqrt(np.arange(1, dim)))
        norm = np.linalg.norm(amp)  # not finite if an amplitude is not
    if not (np.isfinite(alpha) and np.isfinite(norm)):
        raise FockError(f"coherent state of amplitude {alpha} at dim {dim} is not finite")
    amp /= norm
    return np.outer(amp, amp.conj())


def coherent_tail(dim: int, alpha: complex) -> float:
    """Mass of the coherent state of finite amplitude alpha on the levels >= dim.

    ``coherent_state`` drops that mass and renormalizes.  The photon number
    is Poisson of mean |alpha|^2.  For dim >= mean the terms from dim on are
    summed up to 20 standard deviations and 40 levels past dim, where they
    have fallen below e^-170 of the first; below the mean the tail is 1
    minus the dim terms under it.
    """
    mean = abs(complex(alpha)) ** 2
    if mean == 0.0:
        return 0.0
    upper = dim >= mean
    n = np.arange(dim, math.ceil(dim + 20.0 * math.sqrt(mean) + 40.0)) if upper else np.arange(dim)
    log_factorial = np.array([math.lgamma(j + 1.0) for j in n.tolist()])
    terms = float(np.exp(n * math.log(mean) - mean - log_factorial).sum())
    return terms if upper else max(0.0, 1.0 - terms)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """A model's generator on a dim-level Fock space, as its rank-one factors (see the module).

    A channel c with c[n, n + k] = A_n gives the jump grid rate A_p A_q and
    adds -rate (N_p + N_q) / 2, N_n = (c^dag c)[n, n] = A_{n - k}^2, to the
    diagonal; the rotation adds -i omega0 (p - q) in exact photon numbers, so
    order m turns at exactly omega0 m.  ``diag`` and ``jump`` read entries at
    index arrays in the order of the sum of Kronecker-product terms (rotation,
    kappa_down D[a^2], gain), so each holds its value bit for bit.
    ``FockError`` unless params is a ``ModelParams`` and dim >= 2.
    """

    params: ModelParams
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.params, ModelParams):
            raise FockError(f"a generator needs ModelParams, got {type(self.params).__name__}")
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 2):
            raise FockError(f"Fock dimension must be an integer >= 2, got {self.dim!r}")

    @cached_property
    def channels(self) -> dict[int, tuple[float, np.ndarray]]:
        """k -> (rate, A) of a a, a^dag a^dag and a^dag, those with a rate; A_n = 0 off the grid."""
        root = np.sqrt(np.arange(self.dim, dtype=float))  # a[n - 1, n] = sqrt(n)
        lower = np.append(root[1:], 0.0)  # a[n, n + 1]
        channels = [(2, self.params.kappa_down, lower * np.append(lower[1:], 0.0)),
                    (-2, self.params.kappa_up2, root * np.append(0.0, root[:-1])),
                    (-1, self.params.kappa_up1, root)]
        return {k: (rate, amp) for k, rate, amp in channels if rate > 0}

    @cached_property
    def counts(self) -> dict[int, np.ndarray]:
        """k -> N_n = A_{n - k}^2; A is 0 where n + k falls off, so the roll wraps in zeros."""
        return {k: np.roll(amp * amp, k) for k, (_, amp) in self.channels.items()}

    def diag(self, p, q) -> np.ndarray:
        """The diagonal grid at the entries [p, q] of the (broadcast) index arrays p and q."""
        out = self.params.omega0 * (-1j * np.subtract(p, q, dtype=float))
        for k, (rate, _) in self.channels.items():
            # 0j - x, not -x: the reference subtracts from an empty diagonal, and
            # the signs of zeros must agree too
            out = out + rate * ((0j - 0.5 * self.counts[k][p]) - 0.5 * self.counts[k][q])
        return out

    def jump(self, k: int, p, q) -> np.ndarray:
        """Jump k's grid, rate A_p A_q, at the entries [p, q]."""
        rate, amp = self.channels[k]
        return rate * (amp[p] * amp[q])

    def reach(self, k: int, size: int) -> tuple[slice, slice]:
        """Entries of a diagonal of ``size`` that jump k writes, and those k on that it reads."""
        return slice(max(-k, 0), size - max(k, 0)), slice(max(k, 0), size + min(k, 0))

    def apply_order(self, m: int, values: np.ndarray) -> np.ndarray:
        """L(rho) on the entries rho[p, p + m], in p order, from rho's there (L keeps order m)."""
        p = np.arange(max(-m, 0), self.dim - max(m, 0))
        out = self.diag(p, p + m) * values
        for k in self.channels:
            to, src = self.reach(k, p.size)
            out[to] += self.jump(k, p[to], p[to] + m) * values[src]
        return out

    @property
    def nnz(self) -> int:
        """Nonzero grid entries, those a sparse dim^2 x dim^2 form would store: a jump's where
        both factors are, the diagonal's unless no channel counts p or q and, at omega0 != 0,
        p = q."""
        idle = np.count_nonzero(sum(self.counts.values(), np.zeros(self.dim)) == 0)
        diag_zeros = idle if self.params.omega0 else idle ** 2
        jumps = sum(np.count_nonzero(amp) ** 2 for _, amp in self.channels.values())
        return self.dim ** 2 - diag_zeros + jumps


# The generator's older name.  It stays only because perfbench/workloads.py calls it, and it
# goes when the benchmark workloads are rewritten (ROADMAP item 1).
liouvillian = Generator
