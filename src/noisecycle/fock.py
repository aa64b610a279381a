"""Truncated Fock-space operators, model parameters, and superoperator assembly.

Superoperators act on column-stacked (Fortran-order) vectorizations of
density matrices, so that vec(A rho B) = kron(B.T, A) vec(rho).  Only the
forward generator is built: an adjoint action enters through the
Hilbert-Schmidt duality Tr[A^dag L'(B)] = Tr[(L A)^dag B].

Every operator of the two models (a, a^dag, their products, the identity)
has a single nonzero diagonal, so each term of ``liouvillian`` is one numpy
array on one diagonal of the vec space; the terms combine per diagonal as
plain arrays and the zeros are dropped when the CSR is written, without ``kron``.
``sandwich`` and ``dissipator`` take any operand and serve the rest: the
tests' quadrature channels and the left multiplication by a steady state in
``lindblad.detailed_balance_residual``.
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
        # liouvillian's per-diagonal sums are exact only for finite rates (0 * inf is NaN)
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
    photons of vacuum, so its default scales with sqrt(gain/loss).
    """
    if params.kind is ModelKind.NOISE_INDUCED:
        return dim_for_tail(params.k_ratio)
    n = 2 * math.ceil(4.0 * math.sqrt(params.kappa_up1 / params.kappa_down) + 6.0)
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
    if not np.isfinite(alpha):
        raise FockError(f"coherent amplitude must be finite, got {alpha}")
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

    The package's one ``kron``, for general operands; one-sided products are
    ``sandwich(op, eye)`` and ``sandwich(eye, op)`` with a sparse identity.
    ``liouvillian`` does not use it: its operators have one diagonal each.
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
    banded operator costs only its nonzeros.  ``liouvillian`` builds its own
    dissipators on one-diagonal operators, with this operation tree.
    """
    shape = np.shape(c)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise FockError(f"Lindblad operator must be square, got shape {shape}")
    c = sp.csr_matrix(c, dtype=complex)
    cd = c.conj().T
    cdc = cd @ c
    eye = sp.identity(shape[0], dtype=complex, format="csr")
    return (sandwich(c, cd) - 0.5 * sandwich(cdc, eye) - 0.5 * sandwich(eye, cdc)).tocsr()


def _shifted(values: np.ndarray, shift: int) -> np.ndarray:
    """out[i] = values[i - shift], and 0 where i - shift falls outside."""
    out = np.zeros_like(values)
    n = values.size
    if shift >= 0:
        out[shift:] = values[:max(n - shift, 0)]
    else:
        out[:shift] = values[-shift:]
    return out


@dataclass(frozen=True)
class _Band:
    """Operator with one nonzero diagonal: ``values[i] = op[i, i + offset]``, 0 off the matrix."""

    offset: int
    values: np.ndarray

    def dag(self) -> "_Band":
        # op^dag[j, j - k] = conj(op[j - k, j])
        return _Band(-self.offset, np.conj(self.column_values()))

    def __matmul__(self, other: "_Band") -> "_Band":
        # (A B)[i, i + ka + kb] = A[i, i + ka] B[i + ka, i + ka + kb]
        return _Band(self.offset + other.offset,
                     self.values * _shifted(other.values, -self.offset))

    def column_values(self) -> np.ndarray:
        """op[j - offset, j] at position j."""
        return _shifted(self.values, self.offset)


class _Diagonals(dict):
    """Superoperator held as {offset row - col: values over the vec rows}.

    Scaling, sums and differences act on whole diagonals, with 0 standing in
    for a missing one, and ``tocsr`` drops the zeros.  With finite rates a
    position off a term's pattern holds an exact zero, so the result equals
    scipy's CSR arithmetic on the same terms entry for entry.
    """

    @classmethod
    def sandwich(cls, left: _Band, right: _Band) -> "_Diagonals":
        """rho -> left rho right: the single diagonal row - col = k_R dim - k_L.

        Vec row p + q dim takes left[p, p + k_L] right[q - k_R, q] from vec
        column (p + k_L) + (q - k_R) dim, so the values are one outer product
        over the (q, p) grid, right factor first as in ``kron``.
        """
        dim = left.values.size
        return cls({right.offset * dim - left.offset:
                    np.multiply.outer(right.column_values(), left.values).reshape(-1)})

    def __rmul__(self, scalar) -> "_Diagonals":
        return _Diagonals({o: values * scalar for o, values in self.items()})

    def __add__(self, other: "_Diagonals") -> "_Diagonals":
        return _Diagonals({o: self.get(o, 0j) + other.get(o, 0j)
                           for o in self.keys() | other.keys()})

    def __sub__(self, other: "_Diagonals") -> "_Diagonals":
        return _Diagonals({o: self.get(o, 0j) - other.get(o, 0j)
                           for o in self.keys() | other.keys()})

    def tocsr(self) -> sp.csr_matrix:
        """CSR written diagonal by diagonal, without a sort; zeros are not stored.

        Row r holds column r - o of diagonal o, so visiting the offsets in
        descending order leaves every row's columns sorted.
        """
        n = next(iter(self.values())).size
        # nnz is at most one entry per row and diagonal
        index = np.int32 if len(self) * n < 2 ** 31 else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        for values in self.values():
            indptr[1:] += values != 0
        np.cumsum(indptr, out=indptr)
        data = np.empty(indptr[-1], dtype=complex)
        indices = np.empty(indptr[-1], dtype=index)
        fill = indptr[:-1].copy()  # next free slot of each row
        for o, values in sorted(self.items(), reverse=True):
            stored = values != 0
            at = fill[stored]
            data[at] = values[stored]
            indices[at] = np.flatnonzero(stored) - o
            fill += stored
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _band_dissipator(c: _Band, eye: _Band) -> _Diagonals:
    """``dissipator(c)`` of a one-diagonal operator, with its operation tree."""
    cd = c.dag()
    cdc = cd @ c
    return (_Diagonals.sandwich(c, cd) - 0.5 * _Diagonals.sandwich(cdc, eye)
            - 0.5 * _Diagonals.sandwich(eye, cdc))


def liouvillian(params: ModelParams, dim: int | None = None) -> sp.csr_matrix:
    """Generator of the selected model on a dim-level Fock space.

    Each term is one outer product on one diagonal of the vec space.  The
    terms combine per diagonal, as plain arrays, along the operation tree of
    ``omega0 * (-1j * (sandwich(h, eye) - sandwich(eye, h)))
    + kappa_down * dissipator(a a) + ...``, and the zeros are dropped at
    ``tocsr``; with finite rates the result equals that sparse build byte for byte.
    """
    if dim is None:
        dim = default_dim(params)
    if dim < 2:
        raise FockError(f"Fock dimension must be >= 2, got {dim}")
    a = _Band(1, np.append(np.sqrt(np.arange(1, dim)), 0.0).astype(complex))
    ad = a.dag()
    eye = _Band(0, np.ones(dim, dtype=complex))
    h = ad @ a
    gen = (params.omega0 * (-1j * (_Diagonals.sandwich(h, eye) - _Diagonals.sandwich(eye, h)))
           + params.kappa_down * _band_dissipator(a @ a, eye))
    # ModelParams leaves at most one gain rate nonzero, the one its kind selects
    if params.kappa_up2 > 0:
        gen = gen + params.kappa_up2 * _band_dissipator(ad @ ad, eye)
    if params.kappa_up1 > 0:
        gen = gen + params.kappa_up1 * _band_dissipator(ad, eye)
    return gen.tocsr()
