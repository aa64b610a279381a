"""Numerical dynamics of the truncated generators.

Steady states and time evolution take the model's grids, a ``fock.Generator``
(``fock.generator``), and solve them block by block; anything else raises
``TypeError`` before any work.  Both models are phase covariant: jump k takes
rho[p + k, q + k] to rho[p, q], so the generator never mixes coherence orders
m = q - p, and it keeps p modulo s, the gcd of its jump shifts (2 for the
noise-induced model and for the conventional one without gain, 1 with
one-photon gain).  Block (m, p0) holds rho[p0 + s j, p0 + s j + m], j = 0, 1, ...

Steady states live on the m = 0 blocks.  When the jumps are +2 and at most
-2 (the noise-induced model at any k >= 0, the conventional one without
gain) these are two birth-death chains, the even and the odd levels, and
each steady state is a detailed-balance product (Gardiner, *Handbook of
Stochastic Methods*); otherwise they get a dense SVD.  Evolution of the
noise-induced model at k > 0 takes the chain path: with jumps exactly +/-2
and real positive links, each block is a tridiagonal chain, symmetrized by
a diagonal similarity D (Simaan & Loudon, J. Phys. A 8, 539, 1975) and
solved by batched real ``eigh``, one call per chain length.  It needs each
chain's span max D / min D within ``_SPAN_MAX`` (1e8) and t times the
spread of a chain's imaginary diagonal, which bounds its phase error,
within ``_PHASE_ATOL`` (1e-11).  Any other generator, or a call past a
bound, takes the dense path: the exponential of each block's dense matrix.
Evolution assumes a Hermitian initial state and a Hermiticity-preserving
generator, so only orders m >= 0 are solved; the rest is their conjugate.

The steady-report quantities work on the generator's grids over the
density-matrix entries (``fock.generator``) and on the structure of the
states, never on a dim^2 x dim^2 product: phase-space circulation applies
the grids to the two quadrature products; the detailed-balance residual of a
diagonal steady state sums each jump grid against its mirror; the trace
distance of a diagonal difference is read off the diagonal; and the
displaced-parity quasiprobability evaluator, the oracle against the closed
forms, needs one matrix product per radius, none for a diagonal state.
Also here: steady-state reconstruction from conserved quantities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import mean_n_ss
from .fock import (
    FockError,
    Generator,
    ModelKind,
    ModelParams,
    build_ladder,
    generator,
    parity_op,
)


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported when called; a module-level name tests can replace.

    Only the dense path needs it, so the package and the chain path start
    without scipy.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` on a stack of chains; a module-level name tests can replace."""
    return np.linalg.eigh(a)


class LindbladError(RuntimeError):
    """Numerical failure in a generator-level routine."""


class DegenerateSpectrumError(LindbladError):
    """Null space of unexpected dimension."""

    def __init__(self, kernel_dim: int):
        self.kernel_dim = kernel_dim
        super().__init__(f"null space has dimension {kernel_dim}, expected 1")


class StationarityError(LindbladError):
    """State handed in as stationary is not annihilated by the generator."""


class OffDiagonalStateError(LindbladError):
    """Stationary state with coherences, handed to a check that takes a diagonal state."""


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
        """The steady state of even-parity weight wp_plus; ``NormalizationError`` outside [0, 1]."""
        if self.rho_plus is None or self.rho_minus is None:
            raise LindbladError("no parity-sector basis available to combine")
        if not 0.0 <= wp_plus <= 1.0:  # NaN fails too
            raise NormalizationError(f"even-parity weight {wp_plus!r} lies outside [0, 1]")
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

def _is_diagonal(mat: np.ndarray) -> bool:
    """Whether every entry off the main diagonal is exactly zero."""
    return np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Half the trace norm of the Hermitian part of rho1 - rho2.

    A diagonal difference, as two diagonal states (the steady states of
    both models) give, has the real parts of its diagonal as eigenvalues,
    so the value is half their l1 norm, exactly; any other difference goes
    to ``eigvalsh``.
    """
    diff = rho1 - rho2
    if _is_diagonal(diff):
        return 0.5 * float(np.abs(np.diagonal(diff).real).sum())
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
# the model's grids and their invariant blocks
# ---------------------------------------------------------------------------

def _require_generator(gen) -> None:
    """``TypeError`` unless gen is the model's grids, as ``fock.generator`` builds them."""
    if not isinstance(gen, Generator):
        raise TypeError(f"expected a fock.Generator, as fock.generator builds it, "
                        f"got {type(gen).__name__}")


def _step(gen: Generator) -> int:
    """The gcd s of the jump shifts (dim without jumps): block (m, p0) is rho[p0 + s j, ...]."""
    return math.gcd(*gen.jumps) or gen.diag.shape[0]


def _block(gen: Generator, step: int, m: int, p0: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows p of block (m, p0), m >= 0, and its dense matrix on the entries rho[p, p + m]."""
    rows = np.arange(p0, gen.diag.shape[0] - m, step)
    cols = rows + m
    block = np.diag(gen.diag[rows, cols])
    for k, jump in gen.jumps.items():
        shift = k // step
        j = np.arange(max(-shift, 0), rows.size - max(shift, 0))
        block[j, j + shift] = jump[rows[j], cols[j]]
    return rows, block


# ---------------------------------------------------------------------------
# (order, parity) chains
# ---------------------------------------------------------------------------

# The rounding of a chain solve grows with the span of its similarity, max D
# / min D (see ``_chains``): against the dense exponentials at k = 0.3,
# the largest entry gap is 4.5e-13 at a span of 7.0e7, 2.0e-12 at 7.7e8 and
# 2.1e-11 at 5.8e11.  A call that would solve a chain past this span takes
# the dense path; the tail-rule dims keep spans near 1e6.
_SPAN_MAX = 1e8
# evolution takes the chain path only while t times the largest spread of a
# chain's imaginary diagonal, which bounds the error of applying one phase
# per chain, stays at most this.  At k = 0.8, dim 248 and omega0 = -2.7 the
# spread is 3.4e-13, and the largest entry gap to the dense exponentials is
# 9.2e-13 at t = 3 and 4.6e-12 at t = 30, where t times the spread is 1.0e-11.
_PHASE_ATOL = 1e-11


def _is_chain(gen: Generator) -> bool:
    """Whether the jumps are +/-2 with real positive links: chains rho[p, q] -> rho[p + 2, ...]."""
    if gen.jumps.keys() != {2, -2}:
        return False
    for k, links in gen.jumps.items():
        to, _ = gen.reach(k)
        if np.iscomplexobj(links) or not np.all(links[to, to] > 0):
            return False
    return True


@dataclass(frozen=True)
class _Chains:
    """Chains of orders m >= 0, sorted by length and padded to the longest.

    Chain c holds rho[rows[c, j], cols[c, j]] for j < lengths[c], with rows
    p0 + 2 j and cols p0 + 2 j + m; past its length it repeats its last
    entry, with ``link`` 0 and ``log_scale`` constant there.
    """

    lengths: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    diag: np.ndarray       # the generator's diagonal along each chain
    link: np.ndarray       # symmetric off-diagonals sqrt(down up)
    log_scale: np.ndarray  # log D, 0 at the first entry

    def groups(self):
        """(chains, length) of each run of chains of one length, as a slice and an int."""
        edges = np.flatnonzero(np.diff(self.lengths, prepend=0, append=0)).tolist()
        for start, stop in zip(edges[:-1], edges[1:]):
            yield slice(start, stop), int(self.lengths[start])

    def symmetric(self, chains: slice, length: int) -> np.ndarray:
        """D T D^-1 without the imaginary part of the diagonal, one matrix per chain."""
        out = np.zeros((chains.stop - chains.start, length, length))
        flat = out.reshape(len(out), -1)
        flat[:, ::length + 1] = self.diag[chains, :length].real
        flat[:, 1::length + 1] = flat[:, length::length + 1] = self.link[chains, :length - 1]
        return out


def _chains(gen: Generator, orders: np.ndarray, starts: np.ndarray) -> _Chains:
    """The chains of orders m >= 0 starting at p0 in {0, 1} of a chain generator.

    On a chain the generator is a tridiagonal T with T[j, j + 1] = down,
    jumps[2] at entry j, and T[j + 1, j] = up, jumps[-2] at entry j + 1.
    D with D[j + 1] / D[j] = sqrt(down / up) makes D T D^-1 symmetric, with
    off-diagonals sqrt(down up); its real part then has an orthogonal
    eigenbasis, and the imaginary part of the diagonal, omega0 m for the
    models, adds a phase.  Undoing D multiplies rounding by up to
    max D / min D, the span.
    """
    diag, down, up = gen.diag, gen.jumps[2], gen.jumps[-2]
    lengths = (diag.shape[0] - orders - starts + 1) // 2
    order = np.argsort(lengths, kind="stable")
    order = order[lengths[order] > 0]
    lengths = lengths[order]
    width = int(lengths.max(initial=1))
    entry = np.minimum(np.arange(width), lengths[:, None] - 1)
    rows = starts[order, None] + 2 * entry
    cols = rows + orders[order, None]
    inside = np.arange(width - 1) < lengths[:, None] - 1
    link_down = np.where(inside, down[rows[:, :-1], cols[:, :-1]], 1.0)
    link_up = np.where(inside, up[rows[:, 1:], cols[:, 1:]], 1.0)
    log_scale = np.zeros(rows.shape)
    np.cumsum(0.5 * (np.log(link_down) - np.log(link_up)), axis=1, out=log_scale[:, 1:])
    link = np.where(inside, np.sqrt(link_down * link_up), 0.0)
    return _Chains(lengths, rows, cols, diag[rows, cols], link, log_scale)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

# a singular value at most this fraction of its block's largest, or the
# trace of a unit null vector at most this size, counts as zero
_NULL_RTOL = 1e-10
# a detailed-balance state pi passes when ||L(pi)||_F is at most this fraction
# of ||diag o pi||_F, the size of the terms that cancel in L(pi): the model
# gives at most 3.1e-16 up to dim 2200, a diagonal off by 1e-9 gives 1e-9
_STATIONARY_RTOL = 1e-12


def steady_states(gen: Generator) -> SteadyStateResult:
    """Steady states of a model generator, from its blocks of order m = 0.

    ``TypeError`` for anything but a ``fock.Generator``.  Only m = 0 blocks
    hold populations, so ``kernel_dim`` counts states (the |0><1| block is
    stationary too at omega0 = k = 0).  Jumps +2 and at most -2 give
    ``rho_plus`` and ``rho_minus``, the detailed-balance products of the even
    and odd levels (``_balanced_states``).  Otherwise the SVDs of the m = 0
    blocks must give exactly one null vector (``DegenerateSpectrumError``),
    a singular value at most ``_NULL_RTOL`` times its block's largest, with
    a trace (``LindbladError``); it is scaled to unit trace and symmetrized.
    """
    _require_generator(gen)
    if 2 in gen.jumps and gen.jumps.keys() <= {2, -2}:
        plus, minus = _balanced_states(gen)
        return SteadyStateResult(kernel_dim=2, states=[plus, minus], rho_plus=plus, rho_minus=minus)
    step = _step(gen)
    null = []
    for p0 in range(step):
        rows, block = _block(gen, step, 0, p0)
        _, s, vh = np.linalg.svd(block)
        null += [(rows, v) for v in vh[s <= _NULL_RTOL * s[0]].conj()]
    if len(null) != 1:
        raise DegenerateSpectrumError(len(null))
    rows, v = null[0]
    if abs(v.sum()) <= _NULL_RTOL:
        raise LindbladError("the null vector is trace free: it carries no state")
    rho = np.zeros(gen.diag.shape, dtype=complex)
    rho[rows, rows] = (v / v.sum()).real  # the Hermitian part
    return SteadyStateResult(kernel_dim=1, states=[rho])


def _balanced_states(gen: Generator) -> list[np.ndarray]:
    """The even and the odd steady state of a generator with jumps +2 and at most -2.

    On the levels p0, p0 + 2, ... jump 2 moves population down from p + 2 to
    p at rate down_p = jumps[2][p, p], and jump -2 up at up_{p + 2} =
    jumps[-2][p + 2, p + 2] (0 without it).  Detailed balance, pi_p up_{p + 2}
    = pi_{p + 2} down_p, makes pi the product of their ratios, summed in
    logarithms; log 0 = -inf gives |0><0| and |1><1| exactly.  The product
    reads the links only, so each state must pass the full generator,
    diagonal included: ``StationarityError`` unless ||L(pi)||_F <=
    ``_STATIONARY_RTOL`` ||diag o pi||_F, which a NaN fails.
    """
    dim = gen.diag.shape[0]
    down = np.diagonal(gen.jumps[2]).real
    up = np.diagonal(gen.jumps[-2]).real if -2 in gen.jumps else np.zeros(dim)
    log_pops = np.zeros(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pops[2:] = np.log(up[2:] / down[:-2])
    states = []
    for p0 in (0, 1):
        levels = np.arange(p0, dim, 2)
        log_chain = np.cumsum(log_pops[levels])
        pops = np.exp(log_chain - log_chain.max())
        rho = np.zeros((dim, dim), dtype=complex)
        rho[levels, levels] = pops / pops.sum()
        residual = np.linalg.norm(gen.apply(rho))
        scale = np.linalg.norm(gen.diag * rho)
        if not residual <= _STATIONARY_RTOL * scale:
            raise StationarityError(f"detailed-balance state {p0} is not stationary: ||L(pi)||_F "
                                    f"= {residual:.3e}, ||diag o pi||_F = {scale:.3e}")
        states.append(rho)
    return states


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

# an initial state further than this from its adjoint, entrywise, is rejected
_HERMITIAN_ATOL = 1e-12


def evolve(rho0: np.ndarray, gen: Generator, t: float) -> np.ndarray:
    """Propagate rho0 to time t under the model generator gen.

    gen must be a ``fock.Generator`` (``TypeError``), t finite and
    nonnegative and rho0 Hermitian (``ValueError``, past 1e-12 entrywise for
    rho0), and rho0 dim x dim for the dim of gen (``FockError``), all before
    any work.  gen is assumed to preserve Hermiticity, as every Lindblad
    generator does.  Under both assumptions the entry at the transposed
    index is the conjugate, so only the blocks of orders m = q - p >= 0 that
    the upper triangle of rho0 touches are propagated and the entries of
    order -m are their conjugates; what rho0 leaves zero stays zero.

    On a chain generator, the touched chains are propagated by one batched
    ``eigh`` per chain length (see ``_chains``):
    x(t) = e^{i theta t} D^-1 V e^{t lam} V^T D x(0), with theta the
    midpoint of the range of the imaginary parts of the chain's diagonal.
    Those vary along a chain by rounding only, and t times the width of
    their range, the spread, bounds the phase error, so the chain path
    needs that product at most ``_PHASE_ATOL`` and every span within
    ``_SPAN_MAX``.  Any other generator, or a call past a bound, takes the
    dense path: each touched block, written from the grids, is propagated
    by its dense exponential.
    """
    _require_generator(gen)
    if not 0.0 <= t < math.inf:  # NaN fails too
        raise ValueError(f"evolution time must be finite and nonnegative, got {t!r}")
    dim = gen.diag.shape[0]
    if np.shape(rho0) != (dim, dim):
        raise FockError(f"initial state of shape {np.shape(rho0)} does not match the "
                        f"generator's dim {dim}")
    skew = float(np.abs(rho0 - rho0.conj().T).max())
    if skew > _HERMITIAN_ATOL:
        raise ValueError(f"initial state is not Hermitian: max|rho0 - rho0^dag| = {skew:.3e}")
    if t == 0:
        return rho0.copy()
    step = _step(gen)
    p, q = np.nonzero(np.triu(rho0))
    touched = np.zeros((dim, step), dtype=bool)
    touched[q - p, p % step] = True
    orders, starts = np.nonzero(touched)
    rho_t = _evolve_chains(rho0, gen, t, orders, starts) if _is_chain(gen) else None
    if rho_t is None:
        rho_t = _evolve_dense(rho0, gen, t, step, orders, starts)
    rho_t = rho_t + np.triu(rho_t, 1).conj().T
    if not np.all(np.isfinite(rho_t)):
        raise StiffnessError(
            "propagation diverged; enlarge the truncation or reduce rate * time"
        )
    return (rho_t + rho_t.conj().T) / 2


def _evolve_chains(rho0: np.ndarray, gen: Generator, t: float, orders: np.ndarray,
                   starts: np.ndarray) -> np.ndarray | None:
    """The upper triangle of rho(t) on the chain path (see ``evolve``), or None past a bound."""
    chains = _chains(gen, orders, starts)
    # a padded entry repeats the chain's last one, so the range is the chain's
    low, high = chains.diag.imag.min(axis=1), chains.diag.imag.max(axis=1)
    span = np.ptp(chains.log_scale, axis=1).max(initial=0.0)
    if not span <= math.log(_SPAN_MAX) or t * (high - low).max(initial=0.0) > _PHASE_ATOL:
        return None
    scale = np.exp(chains.log_scale)
    start = rho0[chains.rows, chains.cols] * scale  # D x(0)
    x = np.zeros_like(start)
    for group, length in chains.groups():
        lam, vecs = eigh(chains.symmetric(group, length))
        y = start[group, :length]
        # V^T D x(0), the real and imaginary parts as two columns
        coef = vecs.transpose(0, 2, 1) @ np.stack((y.real, y.imag), axis=-1)
        y = vecs @ (coef * np.exp(t * lam)[..., None])
        x[group, :length] = y[..., 0] + 1j * y[..., 1]
    x *= np.exp(0.5j * t * (low + high))[:, None] / scale
    inside = np.arange(scale.shape[1]) < chains.lengths[:, None]
    rho_t = np.zeros(rho0.shape, dtype=complex)
    rho_t[chains.rows[inside], chains.cols[inside]] = x[inside]
    return rho_t


def _evolve_dense(rho0: np.ndarray, gen: Generator, t: float, step: int, orders: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """The upper triangle of rho(t) from the dense exponentials of the touched blocks."""
    rho_t = np.zeros(rho0.shape, dtype=complex)
    for m, p0 in zip(orders.tolist(), starts.tolist()):
        rows, block = _block(gen, step, m, p0)
        rho_t[rows, rows + m] = expm(t * block) @ rho0[rows, rows + m]
    return rho_t


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------

def circulation(rho: np.ndarray, params: ModelParams) -> CirculationResult:
    """Phase-space angular-momentum magnitude |Re <x L'y - y L'x>|.

    The adjoint L' is never built: for Hermitian rho, x and y, duality gives
    Tr[rho x L'(y)] = conj Tr[y L(x rho)], so the magnitude is
    |Re(Tr[y L(x rho)] - Tr[x L(y rho)])|.  The quadratures x = a + a^dag
    and y = -i(a - a^dag) enter through the ladder's one diagonal: x rho and
    y rho are two row shifts of rho, the generator's grids
    (``fock.generator``) act on them, and each trace reads the two diagonals
    next to the main one.  For the noise-induced model this equals
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
    gen = generator(params, dim)
    root = np.sqrt(np.arange(1.0, dim))  # a[n - 1, n] = sqrt(n)
    lowered = np.zeros(rho.shape, dtype=np.result_type(rho, complex))  # a rho
    lowered[:-1] = root[:, None] * rho[1:]
    raised = np.zeros_like(lowered)  # a^dag rho
    raised[1:] = root[:, None] * rho[:-1]
    moved_x = gen.apply(lowered + raised)
    moved_y = gen.apply(-1j * (lowered - raised))
    # Tr[q M] = sum_ij q_ij M_ji with q on the first off-diagonals
    trace_y = 1j * (root @ (np.diagonal(moved_x, 1) - np.diagonal(moved_x, -1)))
    trace_x = root @ (np.diagonal(moved_y, 1) + np.diagonal(moved_y, -1))
    phi = abs(float((trace_y - trace_x).real))
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

    The condition compares left-multiplication by the steady state, M,
    composed with the adjoint generator against the time-reversed generator
    composed the other way round: R = M conj(L)^T - conj(L) M.  In the real
    Fock basis time reversal is complex conjugation (both dissipators are
    real and even, only the free rotation flips sign), so the time-reversed
    generator is conj(L) and the adjoint is its transpose.

    Everything comes from the generator's grids (``fock.generator``).
    First ||L(rho_ss)||_F past 1e-8 raises ``StationarityError``.  Then
    rho_ss must be diagonal, as the steady states of both phase-symmetric
    models are: a stationary state with any nonzero coherence raises
    ``OffDiagonalStateError`` rather than losing that mass.  M then scales
    entry [p, q] by pi_p = rho_ss[p, p], so the diagonal grid cancels
    exactly, and jump k, which takes entry [p + k, q + k] to [p, q], leaves
    pi_p conj(J_{-k}[p + k, q + k]) - conj(J_k[p, q]) pi_{p + k} against
    its mirror jump -k.  The squares are summed over every jump and every
    mirror, a missing jump being 0.
    Zero is detailed balance; the conventional model violates it by orders
    of magnitude.
    """
    dim = rho_ss.shape[0]
    gen = generator(params, dim)
    stationarity = np.linalg.norm(gen.apply(rho_ss))
    if stationarity > 1e-8:
        raise StationarityError(
            f"state is not stationary: ||L(rho)||_F = {stationarity:.3e}"
        )
    if not _is_diagonal(rho_ss):
        raise OffDiagonalStateError(
            "the detailed-balance residual takes a diagonal steady state; "
            "this one has nonzero coherences"
        )
    pops = np.diagonal(rho_ss)[:, None]
    absent = np.zeros((dim, dim))
    residual_sq = 0.0
    for k in gen.jumps.keys() | {-k for k in gen.jumps}:
        to, src = gen.reach(k)
        term = (pops[to] * gen.jumps.get(-k, absent)[src, src].conj()
                - gen.jumps.get(k, absent)[to, to].conj() * pops[src])
        residual_sq += np.vdot(term, term).real
    gen_sq = np.vdot(gen.diag, gen.diag).real + sum(np.vdot(j, j).real for j in gen.jumps.values())
    return math.sqrt(residual_sq / gen_sq)


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
    amplitude is alpha = (x + iy)/2 = r e^{i theta}, and the value is
    Tr[rho D(alpha) P D(alpha)^dag] with P the parity (Royer, Phys. Rev. A
    15, 449, 1977).  One eigendecomposition G = i(a^dag - a) = V diag(lam) V^dag
    per call gives D(r) = V e^{-i r lam} V^dag on the real axis, and the
    rotation R = diag(e^{i theta n}) turns it into D(alpha) = R D(r) R^dag;
    no closed form enters.  The truncated G has P G P = -G exactly, so
    D(r) P D(r)^dag = D(2r) P = (V e^{-2i r lam}) (V^dag P), one product per
    distinct radius, and the value at angle theta is
    sum_jk rho_jk (R D(2r) P R^dag)_kj, one product with the diagonal rotation
    per point.  A diagonal rho gives a radial W,
    sum_n rho_nn (-1)^n sum_k |V_nk|^2 e^{-2i r lam_k}, so all radii come from
    one product with the phases and no rotation enters.  Raises
    ``DisplacementRangeError``, before either path, when the grid reaches
    past the radius the truncation resolves for the occupied levels.
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
    phases = np.exp(-2j * np.multiply.outer(evals, radii))  # e^{-2i r lam_k}, one column per radius
    if _is_diagonal(rho):
        weights = (np.diagonal(rho) * signs) @ (vecs.real ** 2 + vecs.imag ** 2)
        return (weights @ phases).real[group] / (2.0 * math.pi)
    parity_rows = vecs.conj().T * signs  # V^dag P
    angles = np.arctan2(points[:, 1], points[:, 0])
    values = np.empty(points.shape[0])
    for j in range(radii.size):
        # rho_jk (D(2r) P)_kj: the value at angle theta is rot^dag kernel rot
        kernel = rho * ((vecs * phases[:, j]) @ parity_rows).T
        members = np.flatnonzero(group == j)
        rot = np.exp(1j * np.outer(angles[members], n))
        values[members] = ((rot.conj() @ kernel) * rot).sum(axis=1).real / (2.0 * math.pi)
    return values


def wigner_numeric_grid(rho: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Displaced-parity values on the tensor grid xs x ys, indexed [ix, iy]."""
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return wigner_numeric(rho, pts).reshape(len(xs), len(ys))
