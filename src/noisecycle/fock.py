"""Truncated Fock-space operators, model parameters, and superoperator assembly.

Superoperators act on column-stacked (Fortran-order) vectorizations of
density matrices, so that vec(A rho B) = kron(B.T, A) vec(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

MIN_DIM = 20
MAX_DIM = 400


class FockError(ValueError):
    """Invalid Fock-space construction request."""


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
        if self.kappa_down <= 0:
            raise FockError("two-photon loss rate kappa_down must be positive")
        if self.kappa_up2 < 0 or self.kappa_up1 < 0:
            raise FockError("gain rates must be nonnegative")
        if self.kind is ModelKind.NOISE_INDUCED:
            if self.kappa_up1 != 0:
                raise FockError("noise-induced model has no one-photon gain channel")
            if self.k_ratio >= 1:
                raise NoStationaryStateError(
                    f"gain/loss ratio {self.k_ratio} >= 1: stationary state not normalizable"
                )
        else:
            if self.kappa_up2 != 0:
                raise FockError("conventional model has no two-photon gain channel")

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
    photons of vacuum, so its default scales with sqrt(gain/loss).
    """
    if params.kind is ModelKind.NOISE_INDUCED:
        return dim_for_tail(params.k_ratio)
    n = 2 * math.ceil(4.0 * math.sqrt(params.kappa_up1 / params.kappa_down) + 6.0)
    return min(max(n, MIN_DIM), MAX_DIM)


def dim_for_tail(k_ratio: float, decades: float = 12.0) -> int:
    """Smallest even dimension with k_ratio**(dim/2) below 10**-decades."""
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


def quadrature_x(dim: int) -> np.ndarray:
    a, ad = build_ladder(dim)
    return a + ad


def quadrature_y(dim: int) -> np.ndarray:
    a, ad = build_ladder(dim)
    return -1j * (a - ad)


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
    amp = np.ones(dim, dtype=complex)
    amp[1:] = np.cumprod(complex(alpha) / np.sqrt(np.arange(1, dim)))
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp.conj())


# ---------------------------------------------------------------------------
# vectorization (column stacking)
# ---------------------------------------------------------------------------

def vectorize(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise FockError(f"expected a square matrix, got shape {mat.shape}")
    return mat.reshape(-1, order="F")


def devectorize(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec).reshape(-1)
    dim = math.isqrt(vec.size)
    if dim * dim != vec.size:
        raise FockError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape((dim, dim), order="F")


def sandwich(left_op, right_op) -> sp.csr_matrix:
    """Superoperator for rho -> left_op @ rho @ right_op; dense or sparse operands.

    The one Kronecker site of the package: one-sided products are
    ``sandwich(op, eye)`` and ``sandwich(eye, op)`` with a sparse identity.
    """
    return sp.kron(sp.csr_matrix(right_op).T, sp.csr_matrix(left_op), format="csr")


def apply_super(superop: sp.spmatrix, rho: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    if superop.shape[1] != dim * dim:
        raise FockError(
            f"superoperator of size {superop.shape[1]} cannot act on a {dim}x{dim} matrix"
        )
    return devectorize(superop @ vectorize(rho))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def dissipator(c) -> sp.csr_matrix:
    """Matrix form of rho -> c rho c^dag - (c^dag c rho + rho c^dag c)/2.

    ``c`` may be dense or sparse; the products run on its sparse form, so a
    banded operator costs only its nonzeros.
    """
    shape = np.shape(c)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise FockError(f"Lindblad operator must be square, got shape {shape}")
    c = sp.csr_matrix(c, dtype=complex)
    cd = c.conj().T
    cdc = cd @ c
    eye = sp.identity(shape[0], dtype=complex, format="csr")
    return (sandwich(c, cd) - 0.5 * sandwich(cdc, eye) - 0.5 * sandwich(eye, cdc)).tocsr()


def hamiltonian_term(h) -> sp.csr_matrix:
    """Matrix form of rho -> -i [h, rho]."""
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    return (-1j * (sandwich(h, eye) - sandwich(eye, h))).tocsr()


def liouvillian(params: ModelParams, dim: int | None = None) -> sp.csr_matrix:
    """Generator of the selected model on a dim-level Fock space.

    The ladder operators and their products stay sparse (banded), so no
    step of the build costs a dense O(dim^3) product.
    """
    if dim is None:
        dim = default_dim(params)
    a = sp.csr_matrix(build_ladder(dim)[0])
    ad = a.conj().T.tocsr()
    gen = params.omega0 * hamiltonian_term(ad @ a) + params.kappa_down * dissipator(a @ a)
    if params.kind is ModelKind.NOISE_INDUCED:
        if params.kappa_up2 > 0:
            gen = gen + params.kappa_up2 * dissipator(ad @ ad)
    else:
        if params.kappa_up1 > 0:
            gen = gen + params.kappa_up1 * dissipator(ad)
    return gen.tocsr()


def adjoint_liouvillian(params: ModelParams, dim: int | None = None) -> sp.csr_matrix:
    """Hilbert-Schmidt adjoint: Tr[(L A)^dag B] = Tr[A^dag L^dag B]."""
    return adjoint_super(liouvillian(params, dim))


def adjoint_super(superop: sp.spmatrix) -> sp.csr_matrix:
    """Adjoint of a superoperator with respect to the Hilbert-Schmidt inner product."""
    return superop.conjugate().transpose().tocsr()

