"""Numerical dynamics of the truncated generators.

Steady states from the null spaces and time evolution by the dense
exponentials of the generator's invariant blocks (the weakly connected
components of its sparsity pattern), phase-space circulation and the
detailed-balance residual from the forward generator alone (no adjoint or
time-reversed copy is built), steady-state reconstruction from conserved
quantities, and a displaced-parity quasiprobability evaluator used as an
oracle against the closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import norm as sparse_norm

from .analytic import mean_n_ss
from .fock import (
    FockError,
    ModelKind,
    ModelParams,
    apply_super,
    build_ladder,
    devectorize,
    liouvillian,
    parity_op,
    sandwich,
    vectorize,
)


class LindbladError(RuntimeError):
    """Numerical failure in a generator-level routine."""


class DegenerateSpectrumError(LindbladError):
    """Null space of unexpected dimension."""

    def __init__(self, kernel_dim: int):
        self.kernel_dim = kernel_dim
        super().__init__(f"null space has dimension {kernel_dim}, expected 1 or 2")


class StationarityError(LindbladError):
    """State handed in as stationary is not annihilated by the generator."""


class StiffnessError(LindbladError):
    """Propagation produced non-finite entries; enlarge the truncation or shorten t."""


class NormalizationError(LindbladError):
    """State's populations do not sum to 1, or a parity weight leaves [0, 1]."""


class DisplacementRangeError(LindbladError):
    """Displacement grid reaches beyond what the truncation resolves."""


@dataclass(frozen=True)
class SteadyStateResult:
    """Extremal steady states of a generator."""

    kernel_dim: int
    states: list[np.ndarray]
    rho_plus: np.ndarray | None = None
    rho_minus: np.ndarray | None = None

    def combine(self, wp_plus: float) -> np.ndarray:
        if self.rho_plus is None or self.rho_minus is None:
            raise LindbladError("no parity-sector basis available to combine")
        return wp_plus * self.rho_plus + (1.0 - wp_plus) * self.rho_minus


@dataclass(frozen=True)
class ConservedDecomposition:
    """Conserved quantities and the operator basis reconstructing the steady state."""

    c0: np.ndarray
    c1: np.ndarray
    m0: np.ndarray
    m1: np.ndarray

    def weights(self, rho0: np.ndarray) -> tuple[float, float]:
        # Tr[c^dag rho0] is the entrywise sum of conj(c) rho0
        return float(np.vdot(self.c0, rho0).real), float(np.vdot(self.c1, rho0).real)

    def reconstruct(self, rho0: np.ndarray) -> np.ndarray:
        w0, w1 = self.weights(rho0)
        return w0 * self.m0 + w1 * self.m1


@dataclass(frozen=True)
class CirculationResult:
    """Phase-space angular-momentum magnitude and its steady closed form."""

    phi: float
    phi_formula: float | None
    mean_n: float


# ---------------------------------------------------------------------------
# density-matrix helpers
# ---------------------------------------------------------------------------

def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    diff = rho1 - rho2
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def parity_weights(rho0: np.ndarray) -> tuple[float, float]:
    """Total population of even and of odd levels.

    Raises ``NormalizationError`` when the populations miss a sum of 1 by
    more than 1e-10 or the even weight leaves [0, 1] by more than 1e-12; an
    excursion within 1e-12 is rounding and is clipped.
    """
    pops = np.diag(rho0).real
    total = float(pops.sum())
    if abs(total - 1.0) > 1e-10:
        raise NormalizationError(f"populations sum to {total!r}, not 1")
    wp = float(pops[::2].sum())
    if not -1e-12 <= wp <= 1.0 + 1e-12:
        raise NormalizationError(f"even-parity weight {wp!r} lies outside [0, 1]")
    wp = min(max(wp, 0.0), 1.0)
    return wp, 1.0 - wp


def parity_expectation(rho: np.ndarray) -> float:
    pops = np.diag(rho).real
    return float((pops * (-1.0) ** np.arange(pops.size)).sum())


def random_density_matrix(dim: int, rank: int | None = None, support: int | None = None,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Random full-trace state; ``support`` confines it to the lowest levels."""
    rng = rng if rng is not None else np.random.default_rng()
    rank = rank if rank is not None else dim
    support = support if support is not None else dim
    g = rng.standard_normal((support, rank)) + 1j * rng.standard_normal((support, rank))
    block = g @ g.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:support, :support] = block / np.trace(block).real
    return rho


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def _invariant_blocks(L: sp.csr_matrix) -> list[np.ndarray]:
    """Index sets of the weakly connected components of L's sparsity pattern.

    L is exactly block-diagonal on these sets.  Both models commute with the
    phase rotation, so each coherence order m = n' - n is one block, split
    further by the parity of n under two-photon exchange.  The split reads
    only the pattern, so a generator without the symmetry gives fewer,
    larger blocks (at worst one).
    """
    n_blocks, labels = connected_components(L.astype(bool), connection="weak")
    stops = np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1]
    return np.split(np.argsort(labels, kind="stable"), stops)


# a singular value at most this fraction of its block's largest, or the trace
# of a unit null vector at most this size, counts as zero
_NULL_RTOL = 1e-10


def steady_states(L: sp.spmatrix) -> SteadyStateResult:
    """Steady states of a generator from the null spaces of its invariant blocks.

    Only blocks that hold a population index i (dim + 1) can carry a state; a
    block of coherences alone is skipped even when it has a kernel (the
    |0><1| block at omega0 = k = 0), so ``kernel_dim`` counts states.  Each
    remaining block gets a dense SVD, and each null vector (singular value
    at most ``_NULL_RTOL`` times the block's largest) is scaled to unit
    trace and symmetrized.  One state is the unique result; two states must
    be an even- and an odd-supported pair, returned as ``rho_plus`` and
    ``rho_minus`` with the ``combine`` mixer.  Any other count or pair, or
    a trace-free null vector, raises ``DegenerateSpectrumError``.
    """
    L = L.tocsr()
    n = L.shape[0]
    dim = math.isqrt(n)
    if dim * dim != n:
        raise FockError(f"superoperator size {n} is not a perfect square")
    null_vecs = []
    for idx in _invariant_blocks(L):
        if not np.any(idx % (dim + 1) == 0):
            continue
        _, s, vh = np.linalg.svd(L[idx][:, idx].toarray())
        for v in vh[s <= _NULL_RTOL * s[0]].conj():
            vec = np.zeros(n, dtype=complex)
            vec[idx] = v
            null_vecs.append(vec)
    count = len(null_vecs)
    if count not in (1, 2):
        raise DegenerateSpectrumError(count)

    states = []
    for vec in null_vecs:
        rho = devectorize(vec)
        tr = np.trace(rho)
        if abs(tr) <= _NULL_RTOL:
            raise DegenerateSpectrumError(count)
        rho = rho / tr
        states.append((rho + rho.conj().T) / 2)
    if count == 1:
        return SteadyStateResult(kernel_dim=1, states=states)

    plus, minus = states if not states[0][1::2].any() else states[::-1]
    if plus[1::2].any() or minus[::2].any():
        raise DegenerateSpectrumError(count)
    return SteadyStateResult(kernel_dim=2, states=[plus, minus], rho_plus=plus, rho_minus=minus)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def evolve(rho0: np.ndarray, L: sp.spmatrix, t: float) -> np.ndarray:
    """Propagate rho0 to time t under the generator L.

    L is split into its invariant blocks (see ``_invariant_blocks``).  A
    block on which vec(rho0) is zero stays zero and is skipped; every other
    block is propagated by its dense exponential.
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    if t == 0:
        return rho0.copy()
    L = L.tocsr()
    vec0 = vectorize(rho0).astype(complex)
    vec_t = np.zeros_like(vec0)
    for idx in _invariant_blocks(L):
        if not vec0[idx].any():
            continue
        block = L[idx][:, idx].toarray()
        vec_t[idx] = expm(t * block) @ vec0[idx]
    rho_t = devectorize(vec_t)
    if not np.all(np.isfinite(rho_t)):
        raise StiffnessError(
            "propagation diverged; enlarge the truncation or reduce rate * time"
        )
    return (rho_t + rho_t.conj().T) / 2


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------

def circulation(rho: np.ndarray, params: ModelParams) -> CirculationResult:
    """Phase-space angular-momentum magnitude |Re <x L'y - y L'x>|.

    The adjoint L' is never built: for Hermitian rho, x and y, duality gives
    Tr[rho x L'(y)] = conj Tr[y L(x rho)], so the magnitude is
    |Re(Tr[y L(x rho)] - Tr[x L(y rho)])|, two forward products with the
    tridiagonal quadratures.  For the noise-induced model this equals
    omega0 <x^2 + y^2>; at steady state the closed form
    4 omega0 (<n>_ss + 1/2), with <n>_ss from ``analytic.mean_n_ss``,
    applies and is reported alongside (None for the conventional model).
    """
    dim = rho.shape[0]
    edge = np.diag(rho).real[-2:].sum()
    if edge > 1e-8:
        warnings.warn(
            f"top Fock levels carry population {edge:.2e}; circulation may be unreliable",
            stacklevel=2,
        )
    gen = liouvillian(params, dim)
    a = sp.csr_matrix(build_ladder(dim)[0])
    x = a + a.conj().T
    y = -1j * (a - a.conj().T)
    # Tr[q M] sums q * M^T entrywise, O(dim) on the tridiagonal q
    moved_x = apply_super(gen, x @ rho)
    moved_y = apply_super(gen, y @ rho)
    phi = abs(float((y.multiply(moved_x.T).sum() - x.multiply(moved_y.T).sum()).real))
    mean_n = float(np.arange(dim) @ np.diag(rho).real)
    phi_formula = None
    if params.kind is ModelKind.NOISE_INDUCED:
        wp_plus, _ = parity_weights(rho)
        phi_formula = 4.0 * abs(params.omega0) * (mean_n_ss(params.k_ratio, wp_plus) + 0.5)
    return CirculationResult(phi=phi, phi_formula=phi_formula, mean_n=mean_n)


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------

def detailed_balance_residual(params: ModelParams, rho_ss: np.ndarray) -> float:
    """Norm gap of the stationary time-reversal condition, relative to the generator.

    Composes left-multiplication by the steady state, ``sandwich(rho_ss, eye)``,
    with the adjoint generator and compares against the time-reversed
    generator composed the other way round.  In the real Fock basis time
    reversal is complex conjugation (both dissipators are real and even,
    only the free rotation flips sign), so the time-reversed generator is
    conj(L) and the adjoint is its transpose; no further copy is built.  The
    state enters as it is: the sparse form stores its nonzeros and nothing
    is zeroed.  Zero is detailed balance; the conventional model violates it
    by orders of magnitude.
    """
    dim = rho_ss.shape[0]
    L = liouvillian(params, dim)
    stationarity = np.linalg.norm(L @ vectorize(rho_ss))
    if stationarity > 1e-8:
        raise StationarityError(
            f"state is not stationary: ||L vec(rho)|| = {stationarity:.3e}"
        )
    reversed_L = L.conj()
    mult_left = sandwich(rho_ss, sp.identity(dim, dtype=complex, format="csr"))
    residual = mult_left @ reversed_L.T - reversed_L @ mult_left
    return float(sparse_norm(residual) / sparse_norm(L))


# ---------------------------------------------------------------------------
# conserved-quantity reconstruction
# ---------------------------------------------------------------------------

def conserved_decomposition(k_ratio: float, dim: int) -> ConservedDecomposition:
    """Parity-built conserved pair and the operator basis it weighs.

    The two conserved quantities are sqrt(1-k)/2 (1 +/- parity); the basis
    operators are sqrt(1-k) times the even and odd geometric ladders.  They
    are mutually orthogonal and biorthogonal to the conserved pair
    (Tr[c_j^dag m_k] = delta_jk); reconstruction weights come from the
    initial state.
    """
    if not 0.0 < k_ratio < 1.0:
        raise FockError(
            f"reconstruction needs ratio in (0, 1), got {k_ratio} "
            "(the zero-ratio generator conserves an additional coherence)"
        )
    root = math.sqrt(1.0 - k_ratio)
    identity = np.eye(dim, dtype=complex)
    parity = parity_op(dim)
    c0 = root / 2.0 * (identity + parity)
    c1 = root / 2.0 * (identity - parity)
    n = np.arange(dim)
    geom = k_ratio ** (n // 2).astype(float)
    m0 = root * np.diag(np.where(n % 2 == 0, geom, 0.0)).astype(complex)
    m1 = root * np.diag(np.where(n % 2 == 1, geom, 0.0)).astype(complex)
    return ConservedDecomposition(c0=c0, c1=c1, m0=m0, m1=m1)


def conserved_reconstruction(rho0: np.ndarray, k_ratio: float) -> np.ndarray:
    """Steady state reached from rho0, assembled purely from conserved quantities."""
    return conserved_decomposition(k_ratio, rho0.shape[0]).reconstruct(rho0)


# ---------------------------------------------------------------------------
# displaced-parity quasiprobability (numeric oracle)
# ---------------------------------------------------------------------------

def wigner_numeric(rho: np.ndarray, points: np.ndarray) -> np.ndarray:
    """W(x, y) from displaced-parity expectations, vacuum-calibrated to 1/(2 pi).

    ``points`` is an (m, 2) array of quadrature coordinates; the displacement
    amplitude is alpha = (x + iy)/2 = r e^{i theta}.  One eigendecomposition
    i(a^dag - a) = V diag(lam) V^dag per call gives D(r) = V e^{-i r lam} V^dag
    on the real axis, built once per distinct radius, and the rotation
    R = diag(e^{i theta n}) turns it into D(alpha) = R D(r) R^dag; no closed
    form enters.  With P the parity, the value is
    Tr[rho D(alpha) P D(alpha)^dag] = sum_jk rho_jk (R D(r) P D(r)^dag R^dag)_kj,
    so each point of a radius costs one product with its diagonal rotation.
    Raises ``DisplacementRangeError`` when the grid reaches past the radius
    the truncation resolves for the occupied levels.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = rho.shape[0]
    a, ad = build_ladder(dim)
    n = np.arange(dim)
    signs = (-1.0) ** n

    pops = np.diag(rho).real
    tail = np.cumsum(pops[::-1])[::-1]
    occupied = np.nonzero(tail > 1e-9)[0]
    n_cov = int(occupied[-1]) if occupied.size else 0
    radii, group = np.unique(0.5 * np.hypot(points[:, 0], points[:, 1]), return_inverse=True)
    if (radii[-1] + math.sqrt(n_cov + 1.0)) ** 2 > dim - 2:
        raise DisplacementRangeError(
            f"grid radius {radii[-1]:.3g} reaches beyond the safe displacement radius "
            f"for dim {dim} with levels up to {n_cov} occupied"
        )

    evals, vecs = np.linalg.eigh(1j * (ad - a))
    angles = np.arctan2(points[:, 1], points[:, 0])
    values = np.empty(points.shape[0])
    for j, radius in enumerate(radii):
        disp = (vecs * np.exp(-1j * radius * evals)) @ vecs.conj().T
        # rho_jk (D P D^dag)_kj: the value at angle theta is rot^dag kernel rot
        kernel = rho * ((disp * signs) @ disp.conj().T).T
        members = np.flatnonzero(group == j)
        rot = np.exp(1j * np.outer(angles[members], n))
        values[members] = ((rot.conj() @ kernel) * rot).sum(axis=1).real / (2.0 * math.pi)
    return values


def wigner_numeric_grid(rho: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Displaced-parity values on the tensor grid xs x ys, indexed [ix, iy]."""
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return wigner_numeric(rho, pts).reshape(len(xs), len(ys))
