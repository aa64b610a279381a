"""Numerical dynamics of the truncated generators.

Steady states and time evolution take a model generator,
``fock.Generator(params, dim)``, and solve it block by block; anything else
raises ``TypeError`` before any work.  Both models are phase covariant: jump
k takes rho[p + k, q + k] to rho[p, q], so the generator never mixes
coherence orders m = q - p, and it keeps p modulo s, the gcd of its jump
shifts (2 for the noise-induced model and for the conventional one without
gain, 1 with one-photon gain).  Block (m, p0) holds
rho[p0 + s j, p0 + s j + m], j = 0, 1, ...

Steady states live on the m = 0 blocks, one per class of levels p0 < s.
Both models move population up by exactly s and down by 2, so a stationary
state has zero net flow across every cut between two levels of a class
(Kelly, *Reversibility and Stochastic Networks*, 1979); that one equation,
run down each class, gives both models' states.  The noise-induced model at
k > 0 evolves on the chain path: its jumps are +/-2 with real positive links
and one phase along each chain (omega0 m), so each block is a tridiagonal
chain, symmetrized by a diagonal similarity D (Simaan & Loudon, J. Phys. A 8,
539, 1975) and solved by batched real ``eigh``, one call per chain length,
unless the start weighted by D passes ``_SPAN_MAX``.  The other models, and
such a start, take each block's dense exponential.
Evolution assumes a Hermitian initial state and a Hermiticity-preserving
generator, so only orders m >= 0 are solved; the rest is their conjugate.

A diagonal state, as both models' steady states are, may be handed around
as its populations, a 1-D array (``steady_populations``).  The steady-report
quantities take either form and work in O(dim) on the diagonals they need
and the generator's factors: circulation applies the generator
(``Generator.apply_order``) to x rho and y rho on orders +/-1, formed from
rho's diagonals 0 and +/-2; the detailed-balance residual compares each
jump's population flow with its mirror's; the trace
distance of a diagonal difference and the reconstruction from conserved
quantities read the diagonal.  Dense matrices are built only for
``steady_states``, ``evolve`` and the displaced-parity oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import mean_n_ss
from .fock import FockError, Generator, ModelKind, ModelParams


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported when called, so that only the dense path loads scipy;
    a module-level name tests can replace."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` on a stack of chains; a module-level name tests can replace."""
    return np.linalg.eigh(a)


class LindbladError(RuntimeError):
    """Numerical failure in a generator-level routine."""


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
    """Extremal steady states of a generator, as density matrices or as populations."""

    states: list[np.ndarray]
    # with two states, states[0] and states[1]; fields, so that dataclasses.replace can
    # swap in a corrupted sector for a check to catch
    rho_plus: np.ndarray | None = None
    rho_minus: np.ndarray | None = None

    @property
    def kernel_dim(self) -> int:
        return len(self.states)

    def combine(self, wp_plus: float) -> np.ndarray:
        """The steady state of even-parity weight wp_plus; ``NormalizationError`` outside [0, 1]."""
        if self.rho_plus is None or self.rho_minus is None:
            raise LindbladError("no parity-sector basis available to combine")
        if not 0.0 <= wp_plus <= 1.0:  # NaN fails too
            raise NormalizationError(f"even-parity weight {wp_plus!r} lies outside [0, 1]")
        return wp_plus * self.rho_plus + (1.0 - wp_plus) * self.rho_minus


@dataclass(frozen=True)
class CirculationResult:
    """Phase-space angular-momentum magnitude and its steady closed form."""

    phi: float
    phi_formula: float | None
    mean_n: float


# ---------------------------------------------------------------------------
# density-matrix helpers
# ---------------------------------------------------------------------------

def _diagonal(state: np.ndarray, m: int = 0) -> np.ndarray:
    """The entries state[p, p + m]; a 1-D state is a diagonal state's populations."""
    if state.ndim == 2:
        return np.diagonal(state, m)
    return state if m == 0 else np.zeros(state.size - abs(m))


def _is_diagonal(state: np.ndarray) -> bool:
    """Whether every entry off the main diagonal is exactly zero; populations always are."""
    return state.ndim == 1 or np.count_nonzero(state) == np.count_nonzero(np.diagonal(state))


def edge_population(state: np.ndarray) -> float:
    """Population of the top two Fock levels, where a too-small truncation piles up mass."""
    return float(_diagonal(state)[-2:].real.sum())


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Half the trace norm of the Hermitian part of rho1 - rho2.

    Both states take one form, two density matrices or two populations
    vectors of one size; else ``ValueError``, as a matrix less a vector
    would broadcast the vector across the rows.  A diagonal difference, as
    two diagonal states (the steady states of both models) give, has the
    real parts of its diagonal as eigenvalues, so the value is half their l1
    norm, exactly; any other difference goes to ``eigvalsh``.
    """
    if np.shape(rho1) != np.shape(rho2):
        raise ValueError(f"trace distance of states of shapes {np.shape(rho1)} and "
                         f"{np.shape(rho2)}; both must take one form and size")
    diff = rho1 - rho2
    if _is_diagonal(diff):
        return 0.5 * float(np.abs(_diagonal(diff).real).sum())
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def parity_weights(rho0: np.ndarray) -> tuple[float, float]:
    """Total population of even and of odd levels.

    Raises ``NormalizationError`` when the populations miss a sum of 1 by
    more than 1e-10 or the even weight leaves [0, 1] by more than 1e-12; an
    excursion within 1e-12 is rounding and is clipped.
    """
    pops = _diagonal(rho0).real
    total = float(pops.sum())
    if abs(total - 1.0) > 1e-10:
        raise NormalizationError(f"populations sum to {total!r}, not 1")
    wp = float(pops[::2].sum())
    if not -1e-12 <= wp <= 1.0 + 1e-12:
        raise NormalizationError(f"even-parity weight {wp!r} lies outside [0, 1]")
    wp = min(max(wp, 0.0), 1.0)
    return wp, 1.0 - wp


def parity_expectation(rho: np.ndarray) -> float:
    pops = _diagonal(rho).real
    return float((pops * (-1.0) ** np.arange(pops.size)).sum())


def random_density_matrix(dim: int, support: int | None = None,
                          rng: np.random.Generator | None = None) -> np.ndarray:
    """Random full-trace state; ``support`` confines it to the lowest levels."""
    rng = rng if rng is not None else np.random.default_rng()
    support = support if support is not None else dim
    g = rng.standard_normal((support, dim)) + 1j * rng.standard_normal((support, dim))
    block = g @ g.conj().T
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:support, :support] = block / np.trace(block).real
    return rho


# ---------------------------------------------------------------------------
# the model's grids and their invariant blocks
# ---------------------------------------------------------------------------

def _require_generator(gen) -> None:
    """``TypeError`` unless gen is a model generator, a ``fock.Generator``."""
    if not isinstance(gen, Generator):
        raise TypeError(f"expected a fock.Generator, got {type(gen).__name__}")


def _step(gen: Generator) -> int:
    """The gcd s of the jump shifts: block (m, p0) is rho[p0 + s j, ...]."""
    return math.gcd(*gen.channels)


def _block(gen: Generator, step: int, m: int, p0: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows p of block (m, p0), m >= 0, and its dense matrix on the entries rho[p, p + m]."""
    rows = np.arange(p0, gen.dim - m, step)
    cols = rows + m
    block = np.diag(gen.diag(rows, cols))
    for k in gen.channels:
        shift = k // step
        j = np.arange(max(-shift, 0), rows.size - max(shift, 0))
        block[j, j + shift] = gen.jump(k, rows[j], cols[j])
    return rows, block


# ---------------------------------------------------------------------------
# (order, parity) chains
# ---------------------------------------------------------------------------

# Undoing D divides the rounding of D x(0) by D, so the start adds about eps max
# D |x(0)| / max |x(0)| to a chain solve's error, D = 1 at each chain's first
# entry.  A start weighed past this takes the dense path: the vacuum weighs 1 at
# every dim, a random full-support state at k = 0.3 and dim 90 about 2.6e11.
_SPAN_MAX = 1e8


def _is_chain(gen: Generator) -> bool:
    """Whether the jumps are +/-2, chains rho[p, q] -> rho[p + 2, q + 2] with positive links
    and one imaginary diagonal value each, omega0 m: the noise-induced model at k > 0."""
    return gen.channels.keys() == {2, -2}


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
    jump 2 at entry j, and T[j + 1, j] = up, jump -2 at entry j + 1.
    D with D[j + 1] / D[j] = sqrt(down / up) makes D T D^-1 symmetric, with
    off-diagonals sqrt(down up); its real part then has an orthogonal
    eigenbasis, and the imaginary part of the diagonal, one value along the
    chain, adds a phase.
    """
    lengths = (gen.dim - orders - starts + 1) // 2
    order = np.argsort(lengths, kind="stable")
    order = order[lengths[order] > 0]
    lengths = lengths[order]
    width = int(lengths.max(initial=1))
    entry = np.minimum(np.arange(width), lengths[:, None] - 1)
    rows = starts[order, None] + 2 * entry
    cols = rows + orders[order, None]
    inside = np.arange(width - 1) < lengths[:, None] - 1
    link_down = np.where(inside, gen.jump(2, rows[:, :-1], cols[:, :-1]), 1.0)
    link_up = np.where(inside, gen.jump(-2, rows[:, 1:], cols[:, 1:]), 1.0)
    log_scale = np.zeros(rows.shape)
    np.cumsum(0.5 * (np.log(link_down) - np.log(link_up)), axis=1, out=log_scale[:, 1:])
    link = np.where(inside, np.sqrt(link_down * link_up), 0.0)
    return _Chains(lengths, rows, cols, gen.diag(rows, cols), link, log_scale)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

# a steady state pi passes when ||L(pi)||_F is at most this fraction of
# ||diag o pi||_F, the size of the terms that cancel in L(pi): both models give
# at most 2.5e-16 up to dim 2200, a diagonal off by 1e-9 gives 1e-9
_STATIONARY_RTOL = 1e-12
# the cut recursion divides its running values by the latest once that passes
# this, so that none overflows
_RESCALE_AT = 1e150
# a flow of the cut recursion stays below the largest rate times 2 * _RESCALE_AT;
# rates above this could carry it past float range and are first scaled down
_RATE_LIMIT = np.finfo(float).max / 4 / _RESCALE_AT


def steady_populations(gen: Generator) -> SteadyStateResult:
    """Steady states of a model generator, one for each class of levels p0 < s, as populations.

    ``TypeError`` for anything but a ``fock.Generator``.  The jumps are 2 and
    at most one gain jump -s, s being their gcd (``_step``): -2 for the
    noise-induced model, -1 for the conventional one, none without gain.
    Each class holds one state (``_cut_states``), so ``kernel_dim`` is s (the
    |0><1| block is stationary too at omega0 = k = 0, but carries no state);
    s = 2 sets ``rho_plus`` and ``rho_minus``, the even and the odd state.
    """
    _require_generator(gen)
    return _steady_result(_cut_states(gen, _step(gen)))


def steady_states(gen: Generator) -> SteadyStateResult:
    """The states of ``steady_populations`` as density matrices."""
    return _steady_result([np.diag(pi.astype(complex)) for pi in steady_populations(gen).states])


def _steady_result(states: list[np.ndarray]) -> SteadyStateResult:
    return SteadyStateResult(states, *(states if len(states) == 2 else ()))


def _cut_states(gen: Generator, step: int) -> list[np.ndarray]:
    """The populations of the steady state of each class of levels p0, p0 + s, ... for p0 < s.

    Population moves up n -> n + s at u_n = jump(-s) at [n + s, n + s] (0
    without gain) and down j -> j - 2 at d_j = jump(2) at [j - 2, j - 2].  In a
    stationary state the net flow across the cut above level n vanishes:
    pi_n u_n = pi_{n + 1} d_{n + 1} + pi_{n + 2} d_{n + 2}, the down jumps
    that cross it (a level of another class holds 0).  Run down from the
    class's lowest level with u_n = 0, where pi is set to 1 (the levels above
    it only drain into it and carry no mass), every term is positive and
    nothing cancels; k = 0 gives |0><0| and |1><1| exactly.  The recursion
    reads the links only, so each state must pass the full generator,
    diagonal included (``_require_stationary``).
    """
    dim, n = gen.dim, np.arange(gen.dim)
    up = np.zeros(dim)
    if -step in gen.channels:
        up[:-step] = gen.jump(-step, n[step:], n[step:])
    down = np.zeros(dim + 2)  # two zeros past the top, read by the cuts near it
    down[2:dim] = gen.jump(2, n[:-2], n[:-2])
    fastest = max(up.max(), down.max())
    if fastest > _RATE_LIMIT:  # by a power of two: exact, and each state stays as it is
        shift = -math.frexp(fastest / _RATE_LIMIT)[1]
        up, down = np.ldexp(up, shift), np.ldexp(down, shift)
    ups, downs = up.tolist(), down.tolist()
    states = []
    for p0 in range(step):
        levels = np.arange(p0, dim, step)
        top = int(levels[np.argmax(up[levels] == 0)])  # the class's top level has none
        pi = [0.0] * (dim + 2)
        pi[top] = 1.0
        for n in range(top - step, p0 - 1, -step):
            pi[n] = value = (pi[n + 1] * downs[n + 1] + pi[n + 2] * downs[n + 2]) / ups[n]
            if value > _RESCALE_AT:
                if value < math.inf:
                    pi[n:top + 1] = [other / value for other in pi[n:top + 1]]
                else:  # the flow over ups[n] passed float range: a gain below ~1e-308 of the loss
                    flow = pi[n + 1] * downs[n + 1] + pi[n + 2] * downs[n + 2]
                    pi[n:top + 1] = [1.0] + [other / flow * ups[n] for other in pi[n + 1:top + 1]]
        pi = np.array(pi[:dim])
        pi /= pi.sum()
        _require_stationary(gen, pi, f"steady state {p0}")
        states.append(pi)
    return states


def _require_stationary(gen: Generator, pops: np.ndarray, what: str) -> None:
    """``StationarityError`` unless ||L(pi)||_F <= ``_STATIONARY_RTOL`` ||diag o pi||_F for the
    populations pi = pops, read on the main diagonal, where L(pi) lives; a NaN fails."""
    n = np.arange(gen.dim)
    residual = np.hypot.reduce(np.abs(gen.apply_order(0, pops)))  # hypot scales: no overflow
    scale = np.hypot.reduce(np.abs(gen.diag(n, n) * pops))
    if not residual <= _STATIONARY_RTOL * scale:
        raise StationarityError(f"{what} is not stationary: ||L(rho)||_F = {residual:.3e}, "
                                f"||diag o rho||_F = {scale:.3e}")


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

# an initial state further than this from its adjoint, entrywise, is rejected
_HERMITIAN_ATOL = 1e-12


def evolve(rho0: np.ndarray, gen: Generator, t: float) -> np.ndarray:
    """Propagate rho0 to time t under the model generator gen.

    gen must be a ``fock.Generator`` (``TypeError``), t finite and
    nonnegative and rho0 finite and Hermitian (``ValueError``, past 1e-12
    entrywise for rho0), and rho0 dim x dim for the dim of gen (``FockError``),
    all before any work.  Only the blocks of orders m = q - p >= 0 that rho0
    touches are solved; rho(t) is built once from their entries, which must be
    finite (``StiffnessError``), and, both models preserving Hermiticity, their
    conjugates fill in the Hermitian half.  rho(t) is complex at every t, whatever the dtype
    of rho0; its diagonal is real, and what rho0 leaves 0 stays 0.

    On a chain generator (the noise-induced model at k > 0) the touched chains
    take one batched ``eigh`` per chain length (see ``_chains``), x(t) =
    e^{i theta t} D^-1 V e^{t lam} V^T D x(0), theta the chain's one imaginary
    diagonal value, while max |D x(0)| <= ``_SPAN_MAX`` max |x(0)|; other
    generators, and a start past that, take each touched block's dense exponential.
    """
    _require_generator(gen)
    if not 0.0 <= t < math.inf:  # NaN fails too
        raise ValueError(f"evolution time must be finite and nonnegative, got {t!r}")
    dim = gen.dim
    if np.shape(rho0) != (dim, dim):
        raise FockError(f"initial state of shape {np.shape(rho0)} does not match the "
                        f"generator's dim {dim}")
    skew = float(np.abs(rho0 - rho0.conj().T).max()) if np.isfinite(rho0).all() else math.nan
    if not skew <= _HERMITIAN_ATOL:  # a rho0 that is not finite gives NaN, which fails
        raise ValueError(f"initial state is not Hermitian or not finite: "
                         f"max|rho0 - rho0^dag| = {skew:.3e}")
    if t == 0:
        return rho0.astype(complex)
    step = _step(gen)
    p, q = np.nonzero(rho0)
    touched = np.zeros((dim, step), dtype=bool)
    touched[(q - p)[q >= p], p[q >= p] % step] = True
    orders, starts = np.nonzero(touched)
    solved = _evolve_chains(rho0, gen, t, orders, starts) if _is_chain(gen) else None
    rows, cols, values = solved or _evolve_dense(rho0, gen, t, step, orders, starts)
    if not np.isfinite(values).all():
        raise StiffnessError("propagation diverged; enlarge the truncation or reduce rate * time")
    rho_t = np.zeros((dim, dim), dtype=complex)
    rho_t[cols, rows] = values.conj()
    rho_t[rows, cols] = values
    np.fill_diagonal(rho_t, rho_t.diagonal().real)
    return rho_t


def _evolve_chains(rho0: np.ndarray, gen: Generator, t: float, orders: np.ndarray,
                   starts: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """(rows, cols, values) of the touched entries on the chains, or None past the bound."""
    chains = _chains(gen, orders, starts)
    start = rho0[chains.rows, chains.cols].astype(complex, copy=False)  # x(0), then D x(0)
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf; D past the float range
        weight = np.log(np.abs(start))
        weight -= weight.max(initial=-math.inf)
        weight += chains.log_scale  # log(D |x(0)| / max |x(0)|)
        if not weight.max(initial=-math.inf) <= math.log(_SPAN_MAX):
            return None
        scale = np.exp(chains.log_scale, out=weight)
    # where D overflows, the bound holds |x(0)| below 1e-300 max |x(0)|; left unscaled,
    # it moves x(t) by as little, and x(t) = D^-1 y is 0 there
    np.multiply(start, scale, out=start, where=scale < math.inf)
    x = np.zeros_like(start)
    for group, length in chains.groups():
        lam, vecs = eigh(chains.symmetric(group, length))
        y = start[group, :length]
        # V^T D x(0), the real and imaginary parts as two columns
        coef = vecs.transpose(0, 2, 1) @ np.stack((y.real, y.imag), axis=-1)
        y = vecs @ (coef * np.exp(t * lam)[..., None])
        x[group, :length] = y[..., 0] + 1j * y[..., 1]
    x *= np.exp(1j * t * chains.diag.imag[:, :1]) / scale
    inside = np.arange(scale.shape[1]) < chains.lengths[:, None]
    return chains.rows[inside], chains.cols[inside], x[inside]


def _evolve_dense(rho0: np.ndarray, gen: Generator, t: float, step: int, orders: np.ndarray,
                  starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of the touched entries from their blocks' dense exponentials."""
    solved = [(np.empty(0, int), np.empty(0, int), np.empty(0, complex))]
    for m, p0 in zip(orders.tolist(), starts.tolist()):
        rows, block = _block(gen, step, m, p0)
        solved.append((rows, rows + m, expm(t * block) @ rho0[rows, rows + m]))
    return tuple(np.concatenate(part) for part in zip(*solved))


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------

def circulation(rho: np.ndarray, params: ModelParams) -> CirculationResult:
    """Phase-space angular-momentum magnitude |Re <x L'y - y L'x>|.

    The adjoint L' is never built: for Hermitian rho, x and y, duality gives
    Tr[rho x L'(y)] = conj Tr[y L(x rho)], so the magnitude is
    |Re(Tr[y L(x rho)] - Tr[x L(y rho)])|.  The quadratures x = a + a^dag
    and y = -i(a - a^dag) lie on orders +/-1, so each trace reads L(x rho)
    and L(y rho) there only; the generator keeps the order, so it needs
    x rho and y rho there only, which the ladder forms from the diagonals 0
    and +/-2 of rho (zero for populations).  Both models are phase covariant
    with real jump amplitudes, so the dissipators add only i times a real
    diagonal: at any rates the magnitude is |omega0| <x^2 + y^2>, that is
    |omega0| sum_n p_n w_n with w_n = 4n + 2 below the top level and
    2(dim - 1) on it, and it cannot see a wrong jump rate.  For the
    noise-induced model at steady state the closed form
    4 |omega0| (<n>_ss + 1/2), with <n>_ss from ``analytic.mean_n_ss``, is
    reported alongside (None for the conventional model).
    """
    main = _diagonal(rho)
    dim, pops = main.size, main.real
    edge = edge_population(rho)
    if edge > 1e-8:
        warnings.warn(
            f"top Fock levels carry population {edge:.2e}; circulation may be unreliable",
            stacklevel=2,
        )
    gen = Generator(params, dim)
    root = np.sqrt(np.arange(1.0, dim))  # a[n - 1, n] = sqrt(n)
    # a rho and a^dag rho on the entries [i, i + 1] (row 0) and [i + 1, i] (row 1)
    lowered = np.zeros((2, dim - 1), dtype=complex)
    raised = np.zeros_like(lowered)
    lowered[0] = root * main[1:]
    lowered[1, :-1] = root[1:] * _diagonal(rho, -2)
    raised[0, 1:] = root[:-1] * _diagonal(rho, 2)
    raised[1] = root * main[:-1]
    moved_x = [gen.apply_order(m, x) for m, x in zip((1, -1), lowered + raised)]
    moved_y = [gen.apply_order(m, y) for m, y in zip((1, -1), -1j * (lowered - raised))]
    # Tr[q M] = sum_ij q_ij M_ji with q on the first off-diagonals
    trace_y = 1j * (root @ (moved_x[0] - moved_x[1]))
    trace_x = root @ (moved_y[0] + moved_y[1])
    phi = abs(float((trace_y - trace_x).real))
    mean_n = float(np.arange(dim) @ pops)
    phi_formula = None
    if params.kind is ModelKind.NOISE_INDUCED:
        wp_plus, _ = parity_weights(rho)
        phi_formula = 4.0 * abs(params.omega0) * (mean_n_ss(params.k_ratio, wp_plus) + 0.5)
    return CirculationResult(phi=phi, phi_formula=phi_formula, mean_n=mean_n)


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------

def detailed_balance_residual(params: ModelParams, rho_ss: np.ndarray) -> float:
    """Relative mirror gap of the steady state's population flows; zero is detailed balance.

    First the populations pi of rho_ss must be stationary
    (``_require_stationary``); then rho_ss must be diagonal, as the steady
    states of both models are, else ``OffDiagonalStateError`` rather than
    losing that mass.  Jump k carries back_p = J_k[p, p] pi_{p + k} from
    level p + k down to p, and its mirror -k carries forth_p =
    J_{-k}[p + k, p + k] pi_p up again, a missing jump carrying 0.  The value
    is ||back - forth|| / ||back + forth|| over all pairs, 0 where nothing
    flows: Kolmogorov's criterion for the population chain (Kelly, 1979).
    It vanishes with the time-reversal condition M conj(L)^T = conj(L) M (M
    scales entry [p, q] by pi_p), whose jump terms are rank one, (forth_p -
    back_p) / A_k[p] times A_k[q], but it reads no level the state leaves
    empty, so it does not depend on the truncation.  Neither conventional
    jump has a mirror, so that model's gap is exactly 1.
    """
    pops = _diagonal(rho_ss).real
    gen, dim = Generator(params, pops.size), pops.size
    _require_stationary(gen, pops, "state")
    if not _is_diagonal(rho_ss):
        raise OffDiagonalStateError("the detailed-balance residual takes a diagonal steady "
                                    "state; this one has nonzero coherences")
    n = np.arange(dim)

    def flow(j, at, start):  # jump j's flow from the levels start into the levels at
        return gen.jump(j, n[at], n[at]) * pops[start] if j in gen.channels else 0.0

    gap_sq = total_sq = 0.0
    for k in {abs(j) for j in gen.channels}:
        low, high = gen.reach(k, dim)  # levels p and p + k
        back, forth = flow(k, low, high), flow(-k, high, low)
        gap, total = back - forth, back + forth
        gap_sq, total_sq = gap_sq + gap @ gap, total_sq + total @ total
    return math.sqrt(gap_sq / total_sq) if total_sq else 0.0


# ---------------------------------------------------------------------------
# conserved-quantity reconstruction
# ---------------------------------------------------------------------------

def conserved_reconstruction(rho0: np.ndarray, k_ratio: float) -> np.ndarray:
    """Steady state reached from rho0, assembled purely from conserved quantities.

    The two conserved quantities are sqrt(1-k)/2 (1 +/- parity), so their
    weights Tr[c^dag rho0] are sqrt(1-k) times the even and the odd
    population sums of rho0; they weigh sqrt(1-k) times the even and the odd
    geometric ladder, biorthogonal to them (Tr[c_j^dag m_k] = delta_jk).
    Populations in, populations out; a density matrix gives a density matrix.
    """
    if not 0.0 < k_ratio < 1.0:
        raise FockError(f"reconstruction needs ratio in (0, 1), got {k_ratio} (the zero-ratio "
                        "generator conserves an additional coherence)")
    pops = _diagonal(rho0).real
    root = math.sqrt(1.0 - k_ratio)
    n = np.arange(pops.size)
    weights = root * np.where(n % 2 == 0, pops[::2].sum(), pops[1::2].sum())
    rebuilt = weights * (root * k_ratio ** (n // 2).astype(float))
    return rebuilt if rho0.ndim == 1 else np.diag(rebuilt.astype(complex))


# ---------------------------------------------------------------------------
# displaced-parity quasiprobability (numeric oracle)
# ---------------------------------------------------------------------------

def wigner_numeric(rho: np.ndarray, points: np.ndarray) -> np.ndarray:
    """W(x, y) from displaced-parity expectations, vacuum-calibrated to 1/(2 pi).

    ``points`` is an (m, 2) array of quadrature coordinates; the displacement
    amplitude is alpha = (x + iy)/2 = r e^{i theta}, and the value is
    Re Tr[rho D(alpha) P D(alpha)^dag] with P the parity (Royer, Phys. Rev. A
    15, 449, 1977), the W of rho's Hermitian part; no closed form enters.
    G = i(a^dag - a) = S J S^dag with S = diag(i^n) and J real symmetric
    tridiagonal, J[n, n + 1] = sqrt(n + 1), so one real eigendecomposition
    J = Q diag(lam) Q^T per call gives D(r) = S Q e^{-i r lam} Q^T S^dag on
    the real axis.  The truncated G has P G P = -G exactly, so
    D(r) P D(r)^dag = D(2r) P, and the rotation R = diag(e^{i theta n}) turns
    it to angle theta: the entry [j + m, j] of R D(2r) P R^dag is
    (i e^{i theta})^m (-1)^j sum_l Q[j + m, l] Q[j, l] e^{-2i r lam_l}, and
    its entry [j, j + m] the conjugate.  So rho is read on the orders
    m = |q - p| that hold an entry, W = (1/2 pi) sum_m Re[(i e^{i theta})^m
    radial_m(r)], with radial_m one product of rho[j, j + m] +
    conj(rho[j + m, j]) (rho[j, j] at m = 0) with the phases of all radii; a
    diagonal rho is order 0 alone.  Raises ``DisplacementRangeError``, before
    any of this, when the points reach past the radius the truncation
    resolves for the occupied levels; no points give an empty array.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = rho.shape[0]
    pops = np.diag(rho).real
    tail = np.cumsum(pops[::-1])[::-1]
    occupied = np.nonzero(tail > 1e-9)[0]
    n_cov = int(occupied[-1]) if occupied.size else 0
    radii, group = np.unique(0.5 * np.hypot(points[:, 0], points[:, 1]), return_inverse=True)
    if radii.size and (radii[-1] + math.sqrt(n_cov + 1.0)) ** 2 > dim - 2:
        raise DisplacementRangeError(
            f"grid radius {radii[-1]:.3g} reaches beyond the safe displacement radius "
            f"for dim {dim} with levels up to {n_cov} occupied"
        )

    lam, q = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, dim)), -1))  # reads the lower triangle
    phases = np.exp(-2j * np.multiply.outer(lam, radii))  # e^{-2i r lam_l}, one column per radius
    signs = (-1.0) ** np.arange(dim)
    turn = 1j * np.exp(1j * np.arctan2(points[:, 1], points[:, 0]))  # i e^{i theta}
    rows, cols = np.nonzero(rho)
    values = np.zeros(points.shape[0])
    for m in np.unique(np.abs(cols - rows)).tolist():
        pair = np.diagonal(rho, m) + np.diagonal(rho, -m).conj() if m else np.diagonal(rho)
        radial = ((pair * signs[:dim - m]) @ (q[:dim - m] * q[m:])) @ phases
        values += (turn ** m * radial[group]).real
    return values / (2.0 * math.pi)
