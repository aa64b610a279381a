"""Numerical dynamics of the truncated generators.

Steady states from the null space of the sparse generator, time evolution by
a dense exponential on each invariant block of the generator, phase-space
circulation through the adjoint generator, the time-reversed generator and
the detailed-balance residual, steady-state reconstruction from conserved
quantities, and a displaced-parity quasiprobability evaluator used as an
oracle against the closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import norm as sparse_norm

from .fock import (
    FockError,
    ModelKind,
    ModelParams,
    adjoint_liouvillian,
    build_ladder,
    devectorize,
    liouvillian,
    number_op,
    parity_op,
    quadrature_x,
    quadrature_y,
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


@dataclass(frozen=True)
class SteadyStateResult:
    """Extremal steady states spanning the null space of a generator."""

    kernel_dim: int
    states: list[np.ndarray]
    rho_plus: np.ndarray | None = None
    rho_minus: np.ndarray | None = None
    coherence_dropped: bool = False

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
        w0 = np.trace(self.c0.conj().T @ rho0)
        w1 = np.trace(self.c1.conj().T @ rho0)
        return float(w0.real), float(w1.real)

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

def check_density_matrix(rho: np.ndarray, herm_tol=1e-12, trace_tol=1e-12, eig_floor=-1e-10):
    if np.linalg.norm(rho - rho.conj().T) > herm_tol:
        raise LindbladError("state is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise LindbladError("state trace differs from 1")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < eig_floor:
        raise LindbladError("state has a significantly negative eigenvalue")


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    diff = rho1 - rho2
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def parity_weights(rho0: np.ndarray) -> tuple[float, float]:
    """Total population of even and of odd levels."""
    pops = np.diag(rho0).real
    wp = float(pops[::2].sum())
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

def steady_states(L: sp.spmatrix, block_size: int = 6, tol: float = 1e-10,
                  iterations: int = 3, seed: int = 2024) -> SteadyStateResult:
    """Null-space basis of a generator via block inverse iteration with sparse LU.

    The Hermitian span of the null vectors is projected onto the photon-number
    parity sectors: a two-dimensional kernel yields the even/odd extremal pair
    plus the ``combine`` mixer, a one-dimensional kernel the unique state.
    Coherence-sector null directions (zero-temperature corner) are dropped;
    anything else raises ``DegenerateSpectrumError``.
    """
    L = L.tocsr()
    n = L.shape[0]
    dim = math.isqrt(n)
    if dim * dim != n:
        raise FockError(f"superoperator size {n} is not a perfect square")
    block_size = min(block_size, n - 2)
    l_norm = sparse_norm(L)
    diag_scale = max(np.abs(L.diagonal()).max(), 1.0)

    lu = None
    for rel_shift in (1e-12, 1e-9, 1e-6):
        shifted = (L - rel_shift * diag_scale * sp.identity(n, dtype=complex, format="csr")).tocsc()
        try:
            lu = splu(shifted)
            break
        except RuntimeError:
            continue
    if lu is None:
        raise LindbladError("sparse factorization failed at every shift")

    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((n, block_size)) + 1j * rng.standard_normal((n, block_size))
    basis, _ = np.linalg.qr(basis)
    for _ in range(iterations):
        basis = lu.solve(basis)
        basis, _ = np.linalg.qr(basis)

    # Rayleigh-Ritz on the converged block, then keep vectors the generator kills
    small = basis.conj().T @ (L @ basis)
    _, ritz = np.linalg.eig(small)
    candidates = basis @ ritz
    candidates /= np.linalg.norm(candidates, axis=0, keepdims=True)
    residuals = np.linalg.norm(L @ candidates, axis=0)
    kept = candidates[:, residuals < tol * l_norm]
    if kept.shape[1] == 0:
        raise DegenerateSpectrumError(0)

    # Hermitian span of the kernel (the kernel is closed under conjugation)
    herm_vecs = []
    for i in range(kept.shape[1]):
        x = devectorize(kept[:, i])
        scale = np.linalg.norm(x)
        for h in ((x + x.conj().T) / 2, (x - x.conj().T) / 2j):
            if np.linalg.norm(h) > 1e-8 * scale:
                herm_vecs.append(vectorize(h))
    stack = np.column_stack(herm_vecs)
    u_svd, s_svd, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s_svd > 1e-8 * s_svd[0]))
    kernel = [devectorize(u_svd[:, i]) for i in range(rank)]

    coherence_dropped = False
    if rank not in (1, 2):
        diags = np.column_stack([np.diag(h).real for h in kernel])
        diag_rank = np.linalg.matrix_rank(diags, tol=1e-8 * np.abs(diags).max())
        if diag_rank not in (1, 2):
            raise DegenerateSpectrumError(rank)
        coherence_dropped = True

    if rank == 1 and not coherence_dropped:
        state = kernel[0]
        tr = np.trace(state).real
        if abs(tr) < 1e-10:
            raise DegenerateSpectrumError(rank)
        state = (state + state.conj().T) / (2 * tr)
        return SteadyStateResult(kernel_dim=1, states=[state])

    # split the kernel span along photon-number parity
    even = np.arange(dim) % 2 == 0
    even_mask = np.outer(even, even)
    odd_mask = np.outer(~even, ~even)
    best = {"plus": (0.0, None), "minus": (0.0, None)}
    for h in kernel:
        for name, mask in (("plus", even_mask), ("minus", odd_mask)):
            proj = np.where(mask, h, 0.0)
            tr = abs(np.trace(proj).real)
            if tr > best[name][0]:
                best[name] = (tr, proj)
    states = {}
    for name in ("plus", "minus"):
        tr, proj = best[name]
        if proj is None or tr < 1e-10:
            raise DegenerateSpectrumError(rank)
        states[name] = (proj + proj.conj().T) / (2 * np.trace(proj).real)
    return SteadyStateResult(
        kernel_dim=rank,
        states=[states["plus"], states["minus"]],
        rho_plus=states["plus"],
        rho_minus=states["minus"],
        coherence_dropped=coherence_dropped,
    )


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def evolve(rho0: np.ndarray, L: sp.spmatrix, t: float) -> np.ndarray:
    """Propagate rho0 to time t under the generator L.

    L is split into the weakly connected components of its sparsity pattern,
    on which it is exactly block-diagonal.  Both models commute with the
    phase rotation, so each coherence order m = n' - n is one block, split
    further by the parity of n under two-photon exchange.  A component on
    which vec(rho0) is zero stays zero and is skipped; every other component
    is propagated by the dense exponential of its block.  The decomposition
    reads only the pattern, so a generator without the symmetry is handled as
    one component.
    """
    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    if t == 0:
        return rho0.copy()
    L = L.tocsr()
    vec0 = vectorize(rho0).astype(complex)
    n_blocks, labels = connected_components(L.astype(bool), connection="weak")
    stops = np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1]
    vec_t = np.zeros_like(vec0)
    for idx in np.split(np.argsort(labels, kind="stable"), stops):
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

    For the noise-induced model this equals omega0 <x^2 + y^2>; at steady
    state the closed form 4 omega0 (2k/(1-k) + odd weight + 1/2) applies and
    is reported alongside (None for the conventional model).
    """
    dim = rho.shape[0]
    edge = np.diag(rho).real[-2:].sum()
    if edge > 1e-8:
        warnings.warn(
            f"top Fock levels carry population {edge:.2e}; circulation may be unreliable",
            stacklevel=2,
        )
    adj = adjoint_liouvillian(params, dim)
    x = quadrature_x(dim)
    y = quadrature_y(dim)
    adj_y = devectorize(adj @ vectorize(y))
    adj_x = devectorize(adj @ vectorize(x))
    observable = x @ adj_y - y @ adj_x
    phi = abs(float(np.trace(rho @ observable).real))
    mean_n = float(np.trace(rho @ number_op(dim)).real)
    phi_formula = None
    if params.kind is ModelKind.NOISE_INDUCED:
        _, wp_minus = parity_weights(rho)
        k = params.k_ratio
        phi_formula = 4.0 * abs(params.omega0) * (2.0 * k / (1.0 - k) + wp_minus + 0.5)
    return CirculationResult(phi=phi, phi_formula=phi_formula, mean_n=mean_n)


# ---------------------------------------------------------------------------
# time reversal and detailed balance
# ---------------------------------------------------------------------------

def time_reverse_operator(op: np.ndarray) -> np.ndarray:
    """Antilinear time reversal in the Fock basis, T|n> = |n>.

    On matrices this is transposition (equivalently entrywise conjugation for
    Hermitian operators); it swaps the ladder operators.
    """
    return np.asarray(op).T.copy()


def time_reversed_liouvillian(params: ModelParams, dim: int | None = None) -> sp.csr_matrix:
    """Generator satisfying T(L A) = T(L) T(A).

    Both dissipators are even under time reversal; only the free rotation
    flips sign.
    """
    return liouvillian(params.rotation_reversed(), dim)


def detailed_balance_residual(params: ModelParams, rho_ss: np.ndarray) -> float:
    """Norm gap of the stationary time-reversal condition, relative to the generator.

    Composes left-multiplication by the steady state with the adjoint
    generator and compares against the time-reversed generator composed the
    other way round.  Zero is detailed balance; the conventional model
    violates it by orders of magnitude.
    """
    dim = rho_ss.shape[0]
    L = liouvillian(params, dim)
    stationarity = np.linalg.norm(L @ vectorize(rho_ss))
    if stationarity > 1e-8:
        raise StationarityError(
            f"state is not stationary: ||L vec(rho)|| = {stationarity:.3e}"
        )
    reversed_L = time_reversed_liouvillian(params, dim)
    adjoint = L.conjugate().transpose().tocsr()
    trimmed = rho_ss.copy()
    trimmed[np.abs(trimmed) < 1e-15 * np.abs(trimmed).max()] = 0.0
    mult_left = sp.kron(sp.identity(dim, dtype=complex), sp.csr_matrix(trimmed), format="csr")
    residual = mult_left @ adjoint - reversed_L @ mult_left
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
    amplitude is alpha = (x + iy)/2 and each displacement operator exponential
    is built from the eigendecomposition of its anti-Hermitian generator,
    independent of any closed form.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = rho.shape[0]
    a, ad = build_ladder(dim)
    signs = (-1.0) ** np.arange(dim)

    pops = np.diag(rho).real
    tail = np.cumsum(pops[::-1])[::-1]
    occupied = np.nonzero(tail > 1e-9)[0]
    n_cov = int(occupied[-1]) if occupied.size else 0
    alpha_max = 0.5 * np.sqrt((points ** 2).sum(axis=1)).max()
    if (alpha_max + math.sqrt(n_cov + 1.0)) ** 2 > dim - 2:
        warnings.warn(
            "grid reaches beyond the safe displacement radius for this truncation",
            stacklevel=2,
        )

    values = np.empty(points.shape[0])
    for i, (x, y) in enumerate(points):
        alpha = 0.5 * (x + 1j * y)
        herm = 1j * (alpha * ad - np.conj(alpha) * a)
        evals, vecs = np.linalg.eigh(herm)
        disp = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
        displaced_parity = (disp * signs) @ disp.conj().T
        values[i] = np.trace(rho @ displaced_parity).real / (2.0 * math.pi)
    return values


def wigner_numeric_grid(rho: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Displaced-parity values on the tensor grid xs x ys, indexed [ix, iy]."""
    pts = np.array([(x, y) for x in xs for y in ys])
    return wigner_numeric(rho, pts).reshape(len(xs), len(ys))
