"""Steady-state solver, propagation, circulation, time reversal, detailed balance."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm, null_space
from scipy.sparse.linalg import expm_multiply

from noisecycle import fock, lindblad
from noisecycle.analytic import rho_ss_analytic
from noisecycle.fock import (
    FockError,
    Generator,
    ModelKind,
    ModelParams,
    coherent_state,
    default_dim,
    fock_state,
)
from noisecycle.lindblad import (
    DisplacementRangeError,
    LindbladError,
    NormalizationError,
    OffDiagonalStateError,
    StationarityError,
    circulation,
    conserved_reconstruction,
    detailed_balance_residual,
    evolve,
    parity_expectation,
    parity_weights,
    random_density_matrix,
    steady_populations,
    steady_states,
    trace_distance,
    wigner_numeric,
)
from noisecycle.analytic import wigner_ss
from test_fock import (
    build_ladder,
    dense_apply,
    dense_grids,
    devectorize,
    dissipator,
    liouvillian_csr,
    number_op,
    parity_op,
    quadrature_x,
    reference_liouvillian,
    sandwich,
    tocsr,
    vectorize,
)

NI = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
CONV = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up1=0.3, kind=ModelKind.CONVENTIONAL)


def quadrature_y(dim: int) -> np.ndarray:
    a, ad = build_ladder(dim)
    return -1j * (a - ad)


def check_density_matrix(rho: np.ndarray, herm_tol=1e-12, trace_tol=1e-12, eig_floor=-1e-10):
    """Hermitian, unit trace and no significantly negative eigenvalue."""
    assert np.linalg.norm(rho - rho.conj().T) <= herm_tol, "state is not Hermitian"
    assert abs(np.trace(rho).real - 1.0) <= trace_tol, "state trace differs from 1"
    assert abs(np.trace(rho).imag) <= trace_tol, "state trace differs from 1"
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= eig_floor, (
        "state has a significantly negative eigenvalue")


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_steady_state_matches_geometric_form():
    dim = 46
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3)
    result = steady_states(Generator(params, dim))
    assert result.kernel_dim == 2
    for wp in (0.0, 0.3, 1.0):
        combined = result.combine(wp)
        check_density_matrix(combined, herm_tol=1e-10, trace_tol=1e-10)
        assert trace_distance(combined, rho_ss_analytic(0.3, wp, dim)) < 1e-8


def no_eigenproblem(monkeypatch):
    """Make a chain eigensolve or a dense SVD from here on fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("an eigenproblem was solved")

    monkeypatch.setattr(lindblad, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)


def test_steady_state_zero_ratio_sectors(monkeypatch):
    # no up links: the detailed-balance product is the pure-death pair, exactly
    gen = Generator(ModelParams(omega0=1.0, kappa_down=1.0), 20)
    no_eigenproblem(monkeypatch)
    result = steady_states(gen)
    assert result.kernel_dim == 2
    assert np.array_equal(result.rho_plus, fock_state(20, 0))
    assert np.array_equal(result.rho_minus, fock_state(20, 1))


def test_conventional_unique_full_rank():
    result = steady_states(Generator(CONV, 24))
    assert result.kernel_dim == 1
    assert result.rho_plus is None
    rho = result.states[0]
    check_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10)
    # the gain populates every level; the resolvable part of the ladder is
    # strictly positive (the far tail underflows double precision)
    pops = np.diag(rho).real
    assert np.all(pops[:10] > 0)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_conventional_without_gain_two_sectors():
    # pure two-photon loss: vacuum plus an odd remnant
    params = ModelParams(omega0=1.0, kappa_down=1.0, kind=ModelKind.CONVENTIONAL)
    result = steady_states(Generator(params, 20))
    assert result.kernel_dim == 2
    assert np.array_equal(result.states[0], fock_state(20, 0))
    assert np.array_equal(result.states[1], fock_state(20, 1))


def test_combine_unavailable_for_unique_state():
    result = steady_states(Generator(CONV, 20))
    with pytest.raises(LindbladError, match="no parity-sector basis"):
        result.combine(0.5)


@pytest.mark.parametrize("wp", [1.5, -0.1, math.nan])
def test_combine_rejects_weight_outside_unit_interval(wp):
    # at wp = 1.5 the mixture's smallest eigenvalue would be -0.35
    result = steady_states(Generator(NI, 20))
    with pytest.raises(NormalizationError, match="outside"):
        result.combine(wp)


@pytest.mark.parametrize("model", [
    pytest.param(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.4), id="noise-induced"),
    pytest.param(CONV, id="conventional"),
    pytest.param(ModelParams(omega0=1.0, kappa_down=1.0, kind=ModelKind.CONVENTIONAL),
                 id="conventional-without-gain"),
    # x-quadrature loss couples coherence orders m and m +/- 2
    pytest.param(lambda: liouvillian_csr(CONV, 12) + 0.2 * dissipator(quadrature_x(12)),
                 id="without-phase-symmetry"),
    # the y-quadrature drive also couples m and m +/- 1
    pytest.param(lambda: phase_breaking_generator(12), id="single-block"),
])
def test_steady_states_span_dense_null_space(monkeypatch, model):
    if not isinstance(model, ModelParams):
        assert_rejected_before_any_solve(monkeypatch, model(), steady_states)
        return
    # reference independent of the block split: the dense kernel of the whole generator
    kernel = null_space(liouvillian_csr(model, 12).toarray())
    result = steady_states(Generator(model, 12))
    assert result.kernel_dim == len(result.states) == kernel.shape[1]
    for rho in result.states:
        vec = vectorize(rho)
        residual = np.linalg.norm(vec - kernel @ (kernel.conj().T @ vec)) / np.linalg.norm(vec)
        assert residual < 1e-10
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_steady_state_zero_rotation_zero_ratio_counts_states():
    # the |0><1| coherence is stationary as well, but its block carries no state
    params = ModelParams(omega0=0.0, kappa_down=1.0)
    assert null_space(liouvillian_csr(params, 20).toarray()).shape[1] == 4
    result = steady_states(Generator(params, 20))
    assert result.kernel_dim == 2
    assert np.array_equal(result.rho_plus, fock_state(20, 0))
    assert np.array_equal(result.rho_minus, fock_state(20, 1))


@pytest.mark.parametrize("gain", [1e-300, 1e-308, 2.2250738585e-313, 5e-324])
def test_steady_states_at_a_gain_below_float_range_of_the_loss(gain):
    # below a gain of about 1e-308 of the loss one step of the cut recursion, the flow over
    # the gain, passes float range; each class's second level still holds k of the first
    params = ModelParams(omega0=0.0, kappa_down=1.0, kappa_up2=gain)
    even, odd = steady_populations(Generator(params, 6)).states
    assert even.tolist() == [1.0, 0.0, gain, 0.0, 0.0, 0.0]
    assert odd.tolist() == [0.0, 1.0, 0.0, gain, 0.0, 0.0]


def test_steady_state_near_saturated_ratio_default_dim():
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.9)
    dim = default_dim(params)
    assert dim == 526
    result = steady_states(Generator(params, dim))
    assert trace_distance(result.combine(0.55), rho_ss_analytic(0.9, 0.55, dim)) < 1e-8


@pytest.mark.parametrize("k_ratio,dim", [
    # the m = 0 chains span 0.3^(-45/2) = 5.8e11, past the chain path's bound for evolution
    (0.3, 92),
    # the even chain spans 0.3^(-650) = 1e340: the recursion must rescale as it goes
    (0.3, 1300),
    # the tail-rule dims of k = 0.95 and 0.99, past the default's clamp
    (0.95, 1078),
    (0.99, 2200),
])
def test_chain_steady_states_at_tail_dim_match_closed_form(monkeypatch, k_ratio, dim):
    with monkeypatch.context() as patch:
        no_eigenproblem(patch)
        result = steady_states(Generator(ModelParams(omega0=1.0, kappa_down=1.0,
                                                     kappa_up2=k_ratio), dim))
    assert result.kernel_dim == 2
    assert lindblad._is_diagonal(result.rho_plus) and lindblad._is_diagonal(result.rho_minus)
    for wp in (0.0, 0.55, 1.0):
        assert trace_distance(result.combine(wp), rho_ss_analytic(k_ratio, wp, dim)) < 1e-14


@pytest.mark.parametrize("dim", ["default", 400])
@pytest.mark.parametrize("kappa_up1", [0.05, 0.3, 1.0, 3.0, 10.0])
def test_conventional_steady_state_is_stationary(monkeypatch, kappa_up1, dim):
    # at dim 400 the populations span more than 1e308: a plain product overflows
    params = replace(CONV, kappa_up1=kappa_up1)
    gen = Generator(params, default_dim(params) if dim == "default" else dim)
    no_eigenproblem(monkeypatch)
    result = steady_states(gen)
    assert result.kernel_dim == len(result.states) == 1
    rho = result.states[0]
    assert lindblad._is_diagonal(rho)
    pops = np.diagonal(rho).real
    assert pops.min() >= 0 and abs(pops.sum() - 1.0) < 1e-14
    residual = np.linalg.norm(dense_apply(gen, rho)) / np.linalg.norm(dense_grids(gen)[0] * rho)
    assert residual <= lindblad._STATIONARY_RTOL


@pytest.mark.parametrize("ratio", [*np.logspace(-3, math.log10(2e4), 25).tolist(), 300.0],
                         ids="{:.3g}".format)
def test_conventional_default_dim_leaves_under_1e_12_above_it(ratio):
    # the mean photon number is about (r + 1) / 2 and the variance about 3r / 4;
    # a solve at twice the default dim holds what the default leaves out
    params = replace(CONV, kappa_up1=ratio)
    dim = default_dim(params)
    wide = steady_populations(Generator(params, 2 * dim)).states[0]
    assert wide[dim:].sum() < 1e-12
    pops = steady_populations(Generator(params, dim)).states[0]
    mean, wide_mean = np.arange(dim) @ pops, np.arange(2 * dim) @ wide
    assert abs(mean - wide_mean) <= 1e-9 * wide_mean
    if ratio >= 10:
        assert abs(wide_mean - (ratio + 1) / 2) < 0.01 * wide_mean


def perturb(monkeypatch, jump, fault):
    """Make the generator read one grid (jump 0 for the diagonal) as fault(value, p, q)."""
    diag, read = fock.Generator.diag, fock.Generator.jump
    if jump == 0:
        monkeypatch.setattr(fock.Generator, "diag",
                            lambda gen, p, q: fault(diag(gen, p, q), p, q))
    else:
        monkeypatch.setattr(fock.Generator, "jump", lambda gen, k, p, q: (
            fault(read(gen, k, p, q), p, q) if k == jump else read(gen, k, p, q)))


def scaled_at(level, factor):
    """A fault that scales the m = 0 entry [level, level] by factor."""
    return lambda value, p, q: np.where((p == level) & (q == level), factor * value, value)


@pytest.mark.parametrize("jump,fault", [
    # the product reads only the links: a diagonal off by 1e-9 gives ||L(pi)|| = 1e-9 ||diag pi||
    pytest.param(0, lambda value, p, q: value * (1 + 1e-9), id="diagonal"),
    pytest.param(0, scaled_at(6, 1 + 1e-9), id="one-diagonal-entry"),
    # a negative up link has no logarithm: the NaN state fails the bound
    pytest.param(-2, scaled_at(6, -1.0), id="negative-up-link"),
])
def test_balanced_states_must_be_stationary(monkeypatch, jump, fault):
    gen = Generator(NI, 20)
    perturb(monkeypatch, jump, fault)
    no_eigenproblem(monkeypatch)
    with pytest.raises(StationarityError, match="not stationary"):
        steady_states(gen)


@pytest.mark.parametrize("params,dim", [
    pytest.param(NI, 80, id="noise-induced"),
    pytest.param(ModelParams(omega0=0.0, kappa_down=1.0), 20, id="noise-induced-k0"),
    pytest.param(CONV, 24, id="conventional"),
])
def test_steady_quantities_of_populations_equal_those_of_the_dense_states(params, dim):
    # a 1-D state is the diagonal state of those populations, to the bit
    gen = Generator(params, dim)
    solved, dense = steady_populations(gen), steady_states(gen)
    assert solved.kernel_dim == dense.kernel_dim == len(solved.states)
    for pops, rho in zip(solved.states, dense.states):
        assert pops.shape == (dim,)
        assert np.array_equal(np.diag(pops.astype(complex)), rho)
        # the mean photon number sums a strided view of rho's diagonal, in another order
        got, dense_result = circulation(pops, params), circulation(rho, params)
        assert (got.phi, got.phi_formula) == (dense_result.phi, dense_result.phi_formula)
        assert got.mean_n == pytest.approx(dense_result.mean_n, rel=1e-15, abs=0)
        assert detailed_balance_residual(params, pops) == detailed_balance_residual(params, rho)
        assert parity_weights(pops) == parity_weights(rho)
        assert parity_expectation(pops) == parity_expectation(rho)
        other = np.roll(pops, 1)
        assert trace_distance(pops, other) == trace_distance(rho, np.diag(other))
    if dense.rho_plus is not None:
        assert np.array_equal(np.diag(solved.combine(0.3).astype(complex)), dense.combine(0.3))


def test_detailed_balance_rejects_populations_that_are_not_stationary():
    pops = steady_populations(Generator(NI, 30)).combine(0.55)
    pops[[0, 2]] += [-1e-6, 1e-6]
    with pytest.raises(StationarityError):
        detailed_balance_residual(NI, pops)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("given", [
    pytest.param(lambda: liouvillian_csr(NI, 12), id="csr"),
    pytest.param(lambda: liouvillian_csr(NI, 12).toarray(), id="dense-array"),
    pytest.param(lambda: Generator(NI, 12).diag, id="diagonal-grid"),
    pytest.param(lambda: None, id="none"),
])
def test_solvers_take_only_a_generator(monkeypatch, given):
    # rejected before any work: no grid read, no block built and no chain solved
    def no_work(*args):
        raise AssertionError("the argument was used")

    for name in ("_step", "_is_chain", "_block", "_cut_states", "eigh", "expm"):
        monkeypatch.setattr(lindblad, name, no_work)
    with pytest.raises(TypeError, match="fock.Generator"):
        steady_states(given())
    # ahead of the time and state checks too
    for t in (0.3, math.nan):
        with pytest.raises(TypeError, match="fock.Generator"):
            evolve(fock_state(12, 0), given(), t)


def test_evolve_zero_time_is_identity():
    rho = coherent_state(20, 0.7)
    out = evolve(rho, Generator(NI, 20), 0.0)
    assert np.array_equal(out, rho)


@pytest.mark.parametrize("params", [NI, CONV], ids=["chain", "dense"])
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_evolve_takes_a_real_or_integer_start(params, t):
    """A start of any numeric dtype evolves as its complex copy does, into a complex rho(t)."""
    gen = Generator(params, 24)
    vacuum = np.diag(np.eye(24, dtype=int)[0])
    for start in (vacuum, vacuum.astype(float), coherent_state(24, 1.0).real):
        out = evolve(start, gen, t)
        assert out.dtype == complex
        assert np.array_equal(out, evolve(start.astype(complex), gen, t))


def test_evolve_reaches_steady_state():
    dim = 48
    gen = Generator(NI, dim)
    rho_t = evolve(fock_state(dim, 0), gen, 25.0)
    assert trace_distance(rho_t, rho_ss_analytic(0.5, 1.0, dim)) < 1e-6
    assert abs(np.trace(rho_t).real - 1.0) < 1e-9


def test_evolve_conserves_parity_noise_induced():
    dim = 40
    gen = Generator(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3), dim)
    rho0 = coherent_state(dim, 0.8)
    start = parity_expectation(rho0)
    for t in (0.5, 2.0):
        assert abs(parity_expectation(evolve(rho0, gen, t)) - start) < 1e-9


@pytest.mark.xfail(strict=True, reason="the zero eigenvalue of each m = 0 chain comes back from "
                   "eigh as about 1e-12 at k 0.95, so trace and parity drift linearly in t")
def test_evolve_keeps_trace_and_parity_at_large_ratio():
    # measured: 1 - trace = 1 - parity = 1.0e-11 at t 10 and 1.1e-3 at t 1e9;
    # at k 0.5 (dim 80, t 10) both are 2.1e-14
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.95)
    dim = default_dim(params)
    assert dim == 1078
    gen = Generator(params, dim)
    for t in (10.0, 1e9):
        rho_t = evolve(fock_state(dim, 0), gen, t)
        assert abs(1.0 - np.trace(rho_t).real) <= 1e-14
        assert abs(1.0 - parity_expectation(rho_t)) <= 1e-14


def test_evolve_parity_drifts_conventional():
    dim = 30
    rho0 = fock_state(dim, 1)
    out = evolve(rho0, Generator(CONV, dim), 3.0)
    assert abs(parity_expectation(out) - parity_expectation(rho0)) > 0.1


def reference_evolve(rho0, gen, t):
    """Matrix-exponential action on the full superoperator, a CSR matrix."""
    rho_t = devectorize(expm_multiply(gen * t, vectorize(rho0)))
    return (rho_t + rho_t.conj().T) / 2


def assert_rejected_before_any_solve(monkeypatch, csr, solve):
    """A generator without phase symmetry is no model generator.

    ``solve`` handed its CSR raises ``TypeError``, with no dense block built
    and no chain solved.
    """
    def no_solve(*args):
        raise AssertionError("a block was solved")

    monkeypatch.setattr(lindblad, "_block", no_solve)
    monkeypatch.setattr(lindblad, "eigh", no_solve)
    with pytest.raises(TypeError, match="fock.Generator"):
        solve(csr)


def phase_breaking_generator(dim):
    """Two-photon loss plus an x-quadrature channel and drive: no phase symmetry."""
    a, _ = build_ladder(dim)
    h = number_op(dim) + 0.5 * quadrature_y(dim)
    eye = np.eye(dim)
    return (dissipator(a @ a) + 0.3 * dissipator(quadrature_x(dim))
            - 1j * (sandwich(h, eye) - sandwich(eye, h))).tocsr()


# the models by name, None for a generator without phase symmetry
GENERATORS = {
    "noise-induced-k0": ModelParams(omega0=1.0, kappa_down=1.0),
    "noise-induced-k0.4": ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.4),
    "conventional": CONV,
    "no-phase-symmetry": None,
}


def csr_generator(name, dim):
    """The CSR generator of a ``GENERATORS`` entry."""
    params = GENERATORS[name]
    return phase_breaking_generator(dim) if params is None else liouvillian_csr(params, dim)


@pytest.mark.parametrize("name", list(GENERATORS))
def test_evolve_matches_full_exponential_action(monkeypatch, name):
    dim = 24
    gen = csr_generator(name, dim)
    seeds = [
        fock_state(dim, 0),
        fock_state(dim, 3),
        coherent_state(dim, 1.1 + 0.4j),
        random_density_matrix(dim, rng=np.random.default_rng(7)),
    ]
    if GENERATORS[name] is None:
        # at t = 0 too, where no block would be solved
        for rho0 in seeds:
            for t in (0.0, 0.3):
                assert_rejected_before_any_solve(monkeypatch, gen,
                                                 lambda csr: evolve(rho0, csr, t))
        return
    model = Generator(GENERATORS[name], dim)
    for rho0 in seeds:
        for t in (0.3, 2.0):
            gap = np.abs(evolve(rho0, model, t) - reference_evolve(rho0, gen, t)).max()
            assert gap < 1e-11


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve(fock_state(10, 0), Generator(NI, 10), -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_evolve_rejects_time_that_is_not_finite(monkeypatch, t):
    # rejected before the generator's grids are read
    def no_path(*args):
        raise AssertionError("the generator was read")

    monkeypatch.setattr(lindblad, "_step", no_path)
    with pytest.raises(ValueError, match="finite"):
        evolve(fock_state(10, 0), Generator(NI, 10), t)


@pytest.mark.parametrize("name", list(GENERATORS))
def test_evolve_keeps_zero_at_zero(monkeypatch, name):
    # no chain and no block is touched
    zero = np.zeros((12, 12), dtype=complex)
    if GENERATORS[name] is None:
        assert_rejected_before_any_solve(monkeypatch, csr_generator(name, 12),
                                         lambda csr: evolve(zero, csr, 1.0))
        return
    assert np.array_equal(evolve(zero, Generator(GENERATORS[name], 12), 1.0), zero)


@pytest.mark.parametrize("params", [NI, CONV], ids=["noise-induced", "conventional"])
@pytest.mark.parametrize("state_dim,gen_dim", [(10, 12), (12, 10)])
def test_evolve_rejects_state_of_another_dim(monkeypatch, params, state_dim, gen_dim):
    def no_path(*args):
        raise AssertionError("the generator was read")

    monkeypatch.setattr(lindblad, "_step", no_path)
    with pytest.raises(FockError, match=rf"\({state_dim}, {state_dim}\).* dim {gen_dim}"):
        evolve(fock_state(state_dim, 0), Generator(params, gen_dim), 1.0)


def test_evolve_rejects_non_hermitian_state():
    rho0 = fock_state(20, 0)
    rho0[0, 1] = 0.1
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(rho0, Generator(NI, 20), t)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
def test_evolve_rejects_state_that_is_not_finite(monkeypatch, value):
    # rejected before any work, at t = 0 too
    def no_work(*args):
        raise AssertionError("the state was propagated")

    for name in ("_step", "_is_chain", "eigh", "expm"):
        monkeypatch.setattr(lindblad, name, no_work)
    rho0 = fock_state(20, 0)
    rho0[3, 3] = value
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="not finite"):
            evolve(rho0, Generator(NI, 20), t)


# the gcd s of each model generator's jump shifts: block (m, p0) holds rho[p0 + s j, p0 + s j + m]
STEPS = {"noise-induced-k0": 2, "noise-induced-k0.4": 2, "conventional": 1}


@pytest.mark.parametrize("name", list(STEPS))
def test_dense_blocks_equal_csr_slices(name):
    dim = 24
    gen = csr_generator(name, dim)
    step = STEPS[name]
    model = Generator(GENERATORS[name], dim)
    assert lindblad._step(model) == step
    for m in range(dim):
        for p0 in range(step):
            rows, block = lindblad._block(model, step, m, p0)
            assert np.array_equal(rows, np.arange(p0, dim - m, step))
            idx = rows + (rows + m) * dim
            reference = gen[idx][:, idx].toarray()
            assert block.dtype == reference.dtype
            assert block.tobytes() == reference.tobytes()


def count_solves(monkeypatch):
    """Dense exponentials and chain solves made from here on, by kind."""
    solves = {"expm": 0, "chains": 0}

    def counting_expm(a):
        solves["expm"] += 1
        return expm(a)

    def counting_eigh(a):
        solves["chains"] += a.shape[0]
        return np.linalg.eigh(a)

    monkeypatch.setattr(lindblad, "expm", counting_expm)
    monkeypatch.setattr(lindblad, "eigh", counting_eigh)
    return solves


# GENERATORS and the noise-induced model at k 0.3, 0.8 and 0.95; random full-support
# starts at dim 90 weigh past _SPAN_MAX at k <= 0.4 and take the dense path
EVOLVE_MODELS = {**GENERATORS, **{f"noise-induced-k{k}": ModelParams(omega0=1.0, kappa_down=1.0,
                                                                      kappa_up2=k)
                                  for k in (0.3, 0.8, 0.95)}}
PAST_SPAN = {("noise-induced-k0.3", "random"), ("noise-induced-k0.4", "random")}


@pytest.mark.parametrize("name", list(EVOLVE_MODELS))
def test_evolve_exponentiates_each_mirror_pair_once(monkeypatch, name):
    # a block is solved by a dense exponential, or, on the chain path of the
    # noise-induced model at k > 0, as one chain of a batched eigh
    dim = 90
    starts = {"vacuum": fock_state(dim, 0), "fock:3": fock_state(dim, 3),
              "coherent": coherent_state(dim, 1.1 + 0.4j),
              "random": random_density_matrix(dim, rng=np.random.default_rng(5))}
    if EVOLVE_MODELS[name] is None:
        assert_rejected_before_any_solve(monkeypatch, csr_generator(name, dim),
                                         lambda csr: evolve(starts["coherent"], csr, 0.3))
        return
    gen = Generator(EVOLVE_MODELS[name], dim)
    step = lindblad._step(gen)
    solves = count_solves(monkeypatch)
    for start, rho0 in starts.items():
        # one solve per touched block (m, p0) of order m >= 0, none for its mirror at -m
        p, q = np.nonzero(rho0)
        expected = len({(m, p0) for m, p0 in zip((q - p).tolist(), (p % step).tolist()) if m >= 0})
        chain = lindblad._is_chain(gen) and (name, start) not in PAST_SPAN
        for t in (0.01, 1.0, 10.0):
            solves.update(expm=0, chains=0)
            rho_t = evolve(rho0, gen, t)
            assert solves == {"expm": 0 if chain else expected, "chains": expected if chain else 0}
            # each solved entry is written once with its conjugate, the diagonal real
            assert np.array_equal(rho_t, rho_t.conj().T)
            assert not rho_t.diagonal().imag.any()
            # so a dense mirror of the upper triangle and a re-symmetrization move nothing
            mirrored = np.triu(rho_t) + np.triu(rho_t, 1).conj().T
            assert np.array_equal(rho_t, (mirrored + mirrored.conj().T) / 2)


def dense_block_evolve(gen, states, t, orders):
    """The states propagated by the dense exponentials of their (order, parity) blocks.

    The reference for the chain path: each block rho[p0 + 2 j, p0 + 2 j + m],
    p0 in {0, 1}, of a given order m >= 0 is sliced out of the CSR gen and
    propagated by one ``expm`` for all states at once, and the entries at
    -m are their conjugates; all others are left 0.
    """
    dim = states[0].shape[0]
    results = [np.zeros((dim, dim), dtype=complex) for _ in states]
    for m in orders:
        for p0 in range(min(2, dim - m)):
            rows = np.arange(p0, dim - m, 2)
            idx = rows + (rows + m) * dim
            propagated = expm(t * gen[idx][:, idx].toarray()) @ np.stack(
                [rho[rows, rows + m] for rho in states], axis=1)
            for rho, column in zip(results, propagated.T):
                rho[rows, rows + m] = column
    for rho in results:
        rho += np.triu(rho, 1).conj().T
    return [(rho + rho.conj().T) / 2 for rho in results]


@pytest.mark.parametrize("omega0", [0.0, 1.0, -2.7])
@pytest.mark.parametrize("k_ratio", [0.05, 0.3, 0.6, 0.8])
def test_chain_path_matches_dense_blocks(monkeypatch, k_ratio, omega0):
    # default dims 20, 46, 110 and 248.  Compared are the orders with the
    # longest chains, whose spans are largest (9.1e5 at k = 0.8), and the
    # shortest.  No chain's phase spreads: one phase per chain is exact.
    def no_expm(a):
        raise AssertionError("dense path taken")

    params = ModelParams(omega0=omega0, kappa_down=1.0, kappa_up2=k_ratio)
    dim = default_dim(params)
    gen = Generator(params, dim)
    diag, _ = dense_grids(gen)
    for m in range(dim):
        chain = np.diagonal(diag.imag, m)
        assert all(np.ptp(chain[s::2]) == 0 for s in (0, 1) if chain[s::2].size)
    orders = [0, 1, 2, dim - 2, dim - 1]
    p, q = np.indices((dim, dim))
    compared = np.isin(np.abs(q - p), orders)
    states = [coherent_state(dim, 1.5 + 0.7j),
              random_density_matrix(dim, rng=np.random.default_rng(3))]
    for t in (0.01, 0.3, 3.0):
        references = dense_block_evolve(tocsr(gen), states, t, orders)
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "expm", no_expm)
            for rho0, reference in zip(states, references):
                gap = np.abs(evolve(rho0, gen, t) - reference)[compared].max()
                assert gap < 1e-11


@pytest.mark.parametrize("params,is_chain,step", [
    pytest.param(NI, True, 2, id="noise-induced"),
    pytest.param(ModelParams(omega0=1.0, kappa_down=1.0), False, 2, id="k0-no-up-links"),
    pytest.param(CONV, False, 1, id="conventional"),
])
def test_chain_path_needs_positive_links_on_three_vec_diagonals(monkeypatch, params, is_chain,
                                                                step):
    dim = 12
    model = Generator(params, dim)
    assert lindblad._is_chain(model) == is_chain
    assert lindblad._step(model) == step
    # every touched block of order m >= 0 is solved on the path taken, and only there
    solves = count_solves(monkeypatch)
    rho0 = coherent_state(dim, 0.8)
    evolve(rho0, model, 0.3)
    p, q = np.nonzero(np.triu(rho0))
    touched = len(set(zip((q - p).tolist(), (p % step).tolist())))
    assert solves == ({"expm": 0, "chains": touched} if is_chain
                      else {"expm": touched, "chains": 0})


def test_coherent_start_past_the_chain_span_stays_on_the_chains(monkeypatch):
    # at k = 0.3 the m = 0 chains of dim 92 span 0.3^(-45/2) = 5.8e11, but
    # the start weighted by D, max D |x(0)| / max |x(0)|, stays near 1
    dim = 92
    gen = Generator(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3), dim)
    solves = count_solves(monkeypatch)
    rho0 = coherent_state(dim, 1.1 + 0.4j)
    rho_t = evolve(rho0, gen, 0.01)
    assert solves["expm"] == 0 and solves["chains"] > 0
    assert np.abs(rho_t - reference_evolve(rho0, tocsr(gen), 0.01)).max() < 1e-11


@pytest.mark.parametrize("dim", [90, 150])
def test_full_support_start_past_the_weighted_span_takes_the_dense_path(monkeypatch, dim):
    # this random state weighs 2.6e11 at dim 90 and 1.8e19 at dim 150; the
    # chains forced on it at t = 1 miss the trace by 3.2e-13 at dim 90,
    # 3.8e-9 at dim 150 and 0.51 at dim 250
    gen = Generator(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3), dim)
    rho0 = random_density_matrix(dim, rng=np.random.default_rng(11))
    solves = count_solves(monkeypatch)
    rho_t = evolve(rho0, gen, 1.0)
    assert solves["chains"] == 0 and solves["expm"] > 0
    assert abs(np.trace(rho_t).real - 1.0) < 1e-12


def test_vacuum_past_the_float_range_of_the_similarity_stays_on_the_chains(monkeypatch):
    # at k = 0.1, dim 1400, log D reaches 805 on the m = 0 chains, past the
    # float range: D is inf there, where the start is 0 and so is D^-1 y
    dim = 1400
    gen = Generator(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.1), dim)
    log_scale = lindblad._chains(gen, np.array([0]), np.array([0])).log_scale
    assert log_scale.max() > math.log(sys.float_info.max)
    rho0 = fock_state(dim, 0)
    solves = count_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho_t = evolve(rho0, gen, 10.0)
    assert solves["expm"] == 0 and solves["chains"] > 0
    assert abs(np.trace(rho_t).real - 1.0) < 1e-14
    assert abs(parity_expectation(rho_t) - 1.0) < 1e-14


def test_long_time_stays_on_the_chain_path(monkeypatch):
    # one exact phase per chain holds at every t: at t = 200 the chains stay
    # within 1e-11 of the dense exponentials and closer than they are to the
    # steady state they relax to
    dim = 46
    gen = Generator(ModelParams(omega0=-2.7, kappa_down=1.0, kappa_up2=0.3), dim)
    rho0 = random_density_matrix(dim, rng=np.random.default_rng(5))
    solves = count_solves(monkeypatch)
    chains = evolve(rho0, gen, 200.0)
    assert solves["expm"] == 0 and solves["chains"] > 0
    dense = dense_block_evolve(tocsr(gen), [rho0], 200.0, range(dim))[0]
    assert np.abs(chains - dense).max() < 1e-11
    closed_form = rho_ss_analytic(0.3, parity_weights(rho0)[0], dim)
    assert np.abs(chains - closed_form).max() < np.abs(dense - closed_form).max()


# ---------------------------------------------------------------------------
# parity weights
# ---------------------------------------------------------------------------

def test_parity_weights_fock_states():
    assert parity_weights(fock_state(10, 0)) == (1.0, 0.0)
    assert parity_weights(fock_state(10, 1)) == (0.0, 1.0)


def test_parity_weights_coherent():
    wp, wm = parity_weights(coherent_state(60, 1.0))
    assert wp == pytest.approx(math.exp(-1.0) * math.cosh(1.0), abs=1e-12)
    assert wp == pytest.approx(0.56767, abs=5e-6)
    assert wp + wm == pytest.approx(1.0)


def test_parity_weights_clips_rounding_only():
    rho = fock_state(10, 0)
    rho[0, 0] += 5e-13
    assert parity_weights(rho) == (1.0, 0.0)


def test_parity_weights_rejects_unnormalized_state():
    with pytest.raises(NormalizationError):
        parity_weights(0.9 * coherent_state(30, 1.0))
    # unit trace, but a negative population pushes the even weight above 1
    rho = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(NormalizationError):
        parity_weights(rho)


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------

def test_circulation_vacuum():
    result = circulation(fock_state(24, 0), NI)
    assert result.phi == pytest.approx(2.0, rel=1e-12)
    assert result.mean_n == pytest.approx(0.0, abs=1e-14)


def test_circulation_steady_frozen_example():
    # ratio 1/2 with equal sector weights: 4 * (2 + 0.5 + 0.5) = 12
    rho = rho_ss_analytic(0.5, 0.5, 100)
    result = circulation(rho, NI)
    assert result.phi_formula == pytest.approx(12.0)
    assert result.phi == pytest.approx(12.0, rel=1e-8)


def test_circulation_identity_random_states():
    rng = np.random.default_rng(17)
    dim = 40
    n_op = number_op(dim)
    for _ in range(10):
        rho = random_density_matrix(dim, support=dim - 10, rng=rng)
        result = circulation(rho, NI)
        reference = NI.omega0 * (4.0 * np.trace(rho @ n_op).real + 2.0)
        assert abs(result.phi - reference) / reference < 1e-9


def test_circulation_coherent_steady_mean_photon():
    v = 1.3
    wp = math.exp(-v) * math.cosh(v)
    expected_n = 2.0 * 0.5 / 0.5 + math.exp(-v) * math.sinh(v)
    rho = rho_ss_analytic(0.5, wp, 120)
    result = circulation(rho, NI)
    assert result.mean_n == pytest.approx(expected_n, rel=1e-10)


@pytest.mark.parametrize("params", [NI, CONV])
def test_circulation_matches_adjoint_reference(params):
    # x L'(y) - y L'(x) with the adjoint written out as the conjugate transpose
    rng = np.random.default_rng(29)
    dim = 30
    adj = liouvillian_csr(params, dim).conj().T
    x, y = quadrature_x(dim), quadrature_y(dim)
    observable = (x @ devectorize(adj @ vectorize(y))
                  - y @ devectorize(adj @ vectorize(x)))
    for _ in range(10):
        rho = random_density_matrix(dim, support=dim - 10, rng=rng)
        assert np.abs(np.diag(rho, 1)).max() > 1e-3  # coherences, not only populations
        reference = abs(np.trace(rho @ observable).real)
        assert abs(circulation(rho, params).phi - reference) < 1e-10 * reference


def test_circulation_warns_on_edge_occupation():
    rho = fock_state(20, 19)
    with pytest.warns(UserWarning):
        circulation(rho, NI)


def dense_circulation(rho, params):
    """phi from the whole matrices: a rho and a^dag rho as row shifts of rho, and the
    generator applied to all of x rho and y rho."""
    dim = rho.shape[0]
    gen = Generator(params, dim)
    root = np.sqrt(np.arange(1.0, dim))  # a[n - 1, n] = sqrt(n)
    lowered = np.zeros(rho.shape, dtype=complex)  # a rho
    lowered[:-1] = root[:, None] * rho[1:]
    raised = np.zeros_like(lowered)  # a^dag rho
    raised[1:] = root[:, None] * rho[:-1]
    moved_x = dense_apply(gen, lowered + raised)
    moved_y = dense_apply(gen, -1j * (lowered - raised))
    trace_y = 1j * (root @ (np.diagonal(moved_x, 1) - np.diagonal(moved_x, -1)))
    trace_x = root @ (np.diagonal(moved_y, 1) + np.diagonal(moved_y, -1))
    return abs(float((trace_y - trace_x).real))


@pytest.mark.parametrize("dim", [24, 64])
@pytest.mark.parametrize("params", [NI, replace(CONV, omega0=-0.7)],
                         ids=["noise-induced", "conventional"])
def test_circulation_on_three_diagonals_equals_the_dense_form(params, dim):
    # the diagonals 0 and +/-2 of rho take the same products and sums as the whole matrix
    rng = np.random.default_rng(dim)
    for _ in range(30):
        rho = random_density_matrix(dim, support=dim - 10, rng=rng)
        assert np.abs(np.diag(rho, 2)[:dim - 12]).min() > 0  # the +/-2 diagonals are read
        assert circulation(rho, params).phi == dense_circulation(rho, params)


@pytest.mark.parametrize("scale", [0.1, 7.0])
@pytest.mark.parametrize("params", [NI, replace(CONV, omega0=-0.7)],
                         ids=["noise-induced", "conventional"])
def test_circulation_does_not_read_the_jump_rates(params, scale):
    # both models are phase covariant with real jump amplitudes, so each dissipator D has
    # D'(a) = h(n) a with h real, and its part of x D'(y) - y D'(x) is i times a real
    # diagonal: only the rotation is left, phi = |omega0| sum_n p_n w_n with
    # w_n = 4n + 2 below the top level and 2(dim - 1) on it
    dim = 30
    scaled = replace(params, **{name: scale * getattr(params, name)
                                for name in ("kappa_down", "kappa_up2", "kappa_up1")})
    rho = random_density_matrix(dim, rng=np.random.default_rng(dim))  # the top level occupied
    weights = 4.0 * np.arange(dim) + 2.0
    weights[-1] = 2.0 * (dim - 1)
    expected = abs(params.omega0) * float(weights @ np.diag(rho).real)
    with pytest.warns(UserWarning, match="top Fock levels"):
        phi = circulation(rho, scaled).phi
    assert phi == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# time reversal: T|n> = |n> transposes operators and conjugates the generator,
# which flips only the free rotation (detailed balance, M conj(L)^T = conj(L) M, rests on it)
# ---------------------------------------------------------------------------

def test_time_reversal_swaps_ladder_operators():
    a, ad = build_ladder(16)
    assert np.array_equal(a.T, ad)
    assert np.array_equal(ad.T, a)


def test_time_reversal_is_involution():
    for params in (ModelParams(omega0=0.7, kappa_down=1.3, kappa_up2=0.4),
                   replace(CONV, omega0=0.7)):
        reversed_params = replace(params, omega0=-params.omega0)
        gen, reversed_gen = liouvillian_csr(params, 18), liouvillian_csr(reversed_params, 18)
        assert abs(gen.conj() - reversed_gen).max() == 0.0
        assert abs(reversed_gen.conj() - gen).max() == 0.0


def test_time_reversal_fixes_generator_without_rotation():
    params = ModelParams(omega0=0.0, kappa_down=1.0, kappa_up2=0.3)
    gap = liouvillian_csr(params, 20).conj() - liouvillian_csr(params, 20)
    assert abs(gap).max() == 0.0


@pytest.mark.parametrize("params", [NI, CONV])
def test_time_reversal_defining_property(params):
    rng = np.random.default_rng(23)
    dim = 24
    gen = liouvillian_csr(params, dim)
    for _ in range(5):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (g + g.conj().T) / 2
        lhs = devectorize(gen @ vectorize(herm)).T
        rhs = devectorize(gen.conj() @ vectorize(herm.T))
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(lhs).max()


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------

def test_detailed_balance_holds_noise_induced():
    dim = 80
    for wp in (0.3, 0.55, 0.9):
        residual = detailed_balance_residual(NI, rho_ss_analytic(0.5, wp, dim))
        assert residual < 1e-10


def test_detailed_balance_independent_of_rotation():
    dim = 60
    rho = rho_ss_analytic(0.4, 0.6, dim)
    r1 = detailed_balance_residual(ModelParams(0.5, 1.0, 0.4), rho)
    r2 = detailed_balance_residual(ModelParams(3.0, 1.0, 0.4), rho)
    assert abs(r1 - r2) < 1e-12


def test_detailed_balance_fails_conventional():
    rho = steady_states(Generator(CONV, 20)).states[0]
    assert detailed_balance_residual(CONV, rho) > 1e-3


@pytest.mark.parametrize("params,dim,expected", [
    pytest.param(replace(CONV, kappa_up1=0.05), 20, 1.0, id="conventional-0.05-dim20"),
    pytest.param(replace(CONV, kappa_up1=0.05), 400, 1.0, id="conventional-0.05-dim400"),
    pytest.param(replace(CONV, kappa_up1=1e4), default_dim(replace(CONV, kappa_up1=1e4)), 1.0,
                 id="conventional-1e4-default-dim"),
    pytest.param(replace(NI, kappa_up2=0.95), 80, 0.0, id="noise-induced-k0.95-dim80"),
    pytest.param(replace(NI, kappa_up2=0.95), 1078, 0.0, id="noise-induced-k0.95-dim1078"),
])
def test_detailed_balance_verdict_is_free_of_the_truncation(params, dim, expected):
    # the flow gap reads the occupied levels only: the conventional model's is
    # exactly 1 at any dim (default 5708 at kappa_up1 1e4), the noise-induced one's rounding
    solved = steady_populations(Generator(params, dim))
    pops = solved.combine(0.55) if params.kind is ModelKind.NOISE_INDUCED else solved.states[0]
    residual = detailed_balance_residual(params, pops)
    if expected:
        assert residual == expected
    else:
        assert residual < 1e-15


def test_detailed_balance_requires_stationary_state():
    with pytest.raises(StationarityError):
        detailed_balance_residual(NI, coherent_state(40, 1.0))


@pytest.mark.parametrize("dim", [12, 46])
def test_stationarity_is_judged_at_rates_near_the_float_range(dim):
    # ||diag o pi||_F at kappa_down 1e300 passes the float range, where an overflowing norm
    # (a RuntimeWarning, an error here) would let any state pass as stationary
    huge = ModelParams(omega0=1.0, kappa_down=1e300, kappa_up2=0.5e300)
    unit = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
    for got, expected in zip(steady_populations(Generator(huge, dim)).states,
                             steady_populations(Generator(unit, dim)).states, strict=True):
        assert np.array_equal(got, expected)
    with pytest.raises(StationarityError, match="not stationary"):
        detailed_balance_residual(huge, fock_state(dim, 0))
    # at k 1e-10 the cut recursion's flow, the loss 1e300 times a running value up to
    # 1e150, would pass the float range unless the rates are scaled first
    huge = ModelParams(omega0=1.0, kappa_down=1e300, kappa_up2=1e290)
    unit = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=1e-10)
    for got, expected in zip(steady_populations(Generator(huge, dim)).states,
                             steady_populations(Generator(unit, dim)).states, strict=True):
        assert trace_distance(got, expected) < 1e-15


@pytest.mark.parametrize("params", [NI, CONV], ids=["noise-induced", "conventional"])
def test_detailed_balance_residual_is_free_of_the_rate_scale(params):
    # the stationarity gate is relative to the generator and the residual to
    # the flows, so rates x1e9 leave the residual as it is; ||L(rho)||_F of
    # the stationary states is then 5e-8 to 3e-7, past an absolute bound of 1e-8
    dim = default_dim(params)
    scaled = replace(params, **{name: 1e9 * getattr(params, name)
                                for name in ("omega0", "kappa_down", "kappa_up2", "kappa_up1")})
    residuals = []
    for model in (params, scaled):
        solved = steady_states(Generator(model, dim))
        rho = solved.combine(0.55) if model.kind is ModelKind.NOISE_INDUCED else solved.states[0]
        residuals.append(detailed_balance_residual(model, rho))
    if params.kind is ModelKind.NOISE_INDUCED:
        assert max(residuals) < 1e-10
    else:
        assert residuals[0] > 1e-3 and abs(residuals[1] - residuals[0]) <= 1e-12 * residuals[0]


def reference_detailed_balance_residual(params, rho_ss):
    """Kolmogorov's criterion on the Kronecker build: the rates W[n, m] = L[n(dim + 1),
    m(dim + 1)] off the diagonal, the flows F = W diag(pi), and ||F - F^T|| / ||F + F^T||,
    0 where nothing flows."""
    dim = rho_ss.shape[0]
    pops = np.diag(rho_ss).real
    on_diagonal = np.arange(dim) * (dim + 1)
    rates = reference_liouvillian(params, dim)[on_diagonal][:, on_diagonal].toarray().real
    np.fill_diagonal(rates, 0.0)
    flows = rates * pops
    total = np.linalg.norm(flows + flows.T)
    return float(np.linalg.norm(flows - flows.T) / total) if total else 0.0


def balance_cases():
    """Diagonal steady states of both models: (id, params, state)."""
    for omega0 in (0.0, 1.0, -2.7):
        for k, dim in ((0.0, 20), (0.3, 46), (0.95, 80)):
            params = ModelParams(omega0=omega0, kappa_down=1.0, kappa_up2=k)
            yield (f"noise-induced-w{omega0}-k{k}", params,
                   lambda params=params, dim=dim: steady_states(
                       Generator(params, dim)).combine(0.55))
    for gain in (0.05, 0.1216, 3.0):
        params = replace(CONV, kappa_up1=gain)
        yield (f"conventional-{gain}", params,
               lambda params=params: steady_states(
                   Generator(params, default_dim(params))).states[0])


@pytest.mark.parametrize("params,make_state", [case[1:] for case in balance_cases()],
                         ids=[case[0] for case in balance_cases()])
def test_detailed_balance_matches_sparse_composition(params, make_state):
    rho = make_state()
    assert lindblad._is_diagonal(rho)
    got = detailed_balance_residual(params, rho)
    reference = reference_detailed_balance_residual(params, rho)
    if params.kind is ModelKind.NOISE_INDUCED:
        # the exact residual is 0, so both are rounding of a gap relative to the flows,
        # each summed in its own order (up to 1.2e-16 here); the check's bound is 1e-10
        assert max(got, reference) < 1e-15
    else:
        assert got == 1.0 and abs(got - reference) <= 1e-12


def test_detailed_balance_rejects_stationary_coherence():
    # at omega0 = k = 0 the |0><1| coherence is stationary too
    params = ModelParams(omega0=0.0, kappa_down=1.0)
    rho = 0.5 * (fock_state(20, 0) + fock_state(20, 1))
    rho[0, 1] = rho[1, 0] = 0.2
    assert np.linalg.norm(liouvillian_csr(params, 20) @ vectorize(rho)) == 0.0
    with pytest.raises(OffDiagonalStateError):
        detailed_balance_residual(params, rho)


def test_steady_checks_build_no_csr_generator(monkeypatch):
    # the checks of a diagonal steady state work on the generator's grids:
    # neither a CSR build nor a Kronecker product may enter them, and
    # scipy.sparse cannot even be imported
    dim = 60
    rho = rho_ss_analytic(0.4, 0.6, dim)

    def refuse(*args, **kwargs):
        raise AssertionError("a steady-report check built a dim^2 x dim^2 matrix")

    for name in ("csr_matrix", "coo_matrix", "kron"):
        monkeypatch.setattr(sp, name, refuse)
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.4)
    circ = circulation(rho, params)
    assert circ.phi == pytest.approx(circ.phi_formula, rel=1e-8)
    assert detailed_balance_residual(params, rho) < 1e-10


# ---------------------------------------------------------------------------
# conserved-quantity reconstruction
# ---------------------------------------------------------------------------

def conserved_pair(k_ratio, dim):
    """The conserved quantities sqrt(1-k)/2 (1 +/- parity) as dense operators."""
    root, eye, parity = math.sqrt(1.0 - k_ratio), np.eye(dim), parity_op(dim)
    return root / 2.0 * (eye + parity), root / 2.0 * (eye - parity)


def reconstruction_basis(k_ratio, dim):
    """The operators the pair weighs: |0><0| and |1><1| have weights sqrt(1-k) and 0."""
    root = math.sqrt(1.0 - k_ratio)
    return [conserved_reconstruction(fock_state(dim, n), k_ratio) / root for n in (0, 1)]


def test_decomposition_orthogonality():
    m0, m1 = reconstruction_basis(0.4, 60)
    assert abs(np.trace(m0.conj().T @ m1)) < 1e-10
    # biorthogonality against the conserved pair
    for i, c in enumerate(conserved_pair(0.4, 60)):
        for j, m in enumerate((m0, m1)):
            overlap = np.trace(c.conj().T @ m).real
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_conserved_quantities_are_conserved():
    dim = 60
    adj = liouvillian_csr(ModelParams(1.0, 1.0, 0.4), dim).conj().T
    for c in conserved_pair(0.4, dim):
        moved = adj @ vectorize(c)
        assert np.abs(moved).max() < 1e-10


def test_reconstruction_from_vacuum():
    rec = conserved_reconstruction(fock_state(40, 0), 0.3)
    assert np.abs(rec - rho_ss_analytic(0.3, 1.0, 40)).max() < 1e-10


def test_reconstruction_equal_mixture():
    rho0 = (fock_state(40, 0) + fock_state(40, 1)) / 2
    rec = conserved_reconstruction(rho0, 0.3)
    assert np.abs(rec - rho_ss_analytic(0.3, 0.5, 40)).max() < 1e-10


def test_reconstruction_random_states_two_routes():
    rng = np.random.default_rng(31)
    dim = 46
    for _ in range(5):
        rho0 = random_density_matrix(dim, support=24, rng=rng)
        wp, _ = parity_weights(rho0)
        via_weights = wp * rho_ss_analytic(0.3, 1.0, dim) + (1 - wp) * rho_ss_analytic(0.3, 0.0, dim)
        assert np.abs(conserved_reconstruction(rho0, 0.3) - via_weights).max() < 1e-10


def test_reconstruction_of_populations_is_the_dense_diagonal():
    rho0 = random_density_matrix(30, support=20, rng=np.random.default_rng(8))
    pops = conserved_reconstruction(np.diagonal(rho0).real.copy(), 0.3)
    assert pops.shape == (30,)
    assert np.array_equal(np.diag(pops.astype(complex)), conserved_reconstruction(rho0, 0.3))


def test_reconstruction_rejects_zero_ratio():
    with pytest.raises(FockError):
        conserved_reconstruction(fock_state(20, 0), 0.0)


# ---------------------------------------------------------------------------
# displaced-parity evaluator
# ---------------------------------------------------------------------------

def test_wigner_numeric_fock_states_at_origin():
    origin = np.array([[0.0, 0.0]])
    assert wigner_numeric(fock_state(30, 0), origin)[0] == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    assert wigner_numeric(fock_state(30, 1), origin)[0] == pytest.approx(-1 / (2 * math.pi), rel=1e-12)


def test_wigner_numeric_matches_closed_form_grid():
    k, wp = 0.2, 0.4
    rho = rho_ss_analytic(k, wp, 80)
    axis = np.linspace(-4.0, 4.0, 9)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    numeric = wigner_numeric(rho, np.column_stack((X.ravel(), Y.ravel()))).reshape(X.shape)
    assert np.abs(numeric - wigner_ss(X, Y, k, wp)).max() < 1e-6


def reference_wigner_numeric(rho, points):
    """Displaced parity with one eigendecomposition of the generator per point."""
    dim = rho.shape[0]
    a, ad = build_ladder(dim)
    signs = (-1.0) ** np.arange(dim)
    values = np.empty(len(points))
    for i, (x, y) in enumerate(points):
        alpha = 0.5 * (x + 1j * y)
        evals, vecs = np.linalg.eigh(1j * (alpha * ad - np.conj(alpha) * a))
        disp = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
        values[i] = np.trace(rho @ (disp * signs) @ disp.conj().T).real / (2.0 * math.pi)
    return values


def test_wigner_numeric_coherent_state_with_phase():
    # coherences make the value depend on the rotation's sign, unlike diagonal states
    alpha = 0.8 * np.exp(0.7j)
    pts = np.random.default_rng(11).uniform(-3.0, 3.0, size=(50, 2))
    closed = np.exp(-((pts[:, 0] - 2 * alpha.real) ** 2
                      + (pts[:, 1] - 2 * alpha.imag) ** 2) / 2) / (2 * math.pi)
    assert np.abs(wigner_numeric(coherent_state(40, alpha), pts) - closed).max() < 1e-12


def test_wigner_numeric_matches_per_point_reference():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(24, support=8, rng=rng)
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))
    assert np.abs(wigner_numeric(rho, pts) - reference_wigner_numeric(rho, pts)).max() < 1e-12


def cat_0_3():
    cat = np.zeros((40, 40))
    cat[np.ix_([0, 3], [0, 3])] = 0.5
    return cat


# diagonal states are order 0 alone; the cat state holds orders 0 and 3 only; the
# coherent state is real, so its coherences enter through the rotation alone; a lower
# triangle is read as its Hermitian part, as the reference reads it
@pytest.mark.parametrize("make_state", [
    pytest.param(lambda: fock_state(40, 0), id="fock-0"),
    pytest.param(lambda: fock_state(40, 1), id="fock-1"),
    pytest.param(lambda: fock_state(40, 4), id="fock-4"),
    pytest.param(lambda: rho_ss_analytic(0.0, 0.55, 40), id="steady-k0"),
    pytest.param(lambda: rho_ss_analytic(0.3, 0.55, 60), id="steady-k0.3"),
    pytest.param(lambda: rho_ss_analytic(0.5, 0.3, 100), id="steady-k0.5"),
    pytest.param(cat_0_3, id="cat-0-3"),
    pytest.param(lambda: coherent_state(40, 0.7).real, id="coherent-real"),
    pytest.param(lambda: np.tril(random_density_matrix(24, support=8, rng=np.random.default_rng(5))),
                 id="lower-triangle"),
])
def test_wigner_numeric_state_matches_per_point_reference(make_state):
    state = make_state()
    xs = np.linspace(-2.0, 2.0, 9)
    pts = np.array([(x, y) for x in xs for y in xs])
    assert np.abs(wigner_numeric(state, pts) - reference_wigner_numeric(state, pts)).max() < 1e-13


def test_wigner_numeric_square_grid_matches_per_point_reference():
    # the mirror images of each point share its radius
    rng = np.random.default_rng(6)
    rho = random_density_matrix(24, support=8, rng=rng)
    xs = np.linspace(-1.5, 1.5, 9)
    pts = np.array([(x, y) for x in xs for y in xs])
    assert np.unique(np.hypot(pts[:, 0], pts[:, 1])).size < len(pts) // 4
    assert np.abs(wigner_numeric(rho, pts) - reference_wigner_numeric(rho, pts)).max() < 1e-12


def test_trace_distance_of_diagonal_states_matches_eigvalsh(monkeypatch):
    pairs = [(rho_ss_analytic(0.3, 0.55, 46), rho_ss_analytic(0.3, 0.2, 46)),
             (fock_state(30, 0), fock_state(30, 3)),
             (steady_states(Generator(CONV, 24)).states[0], fock_state(24, 0))]
    diagonal = [trace_distance(r1, r2) for r1, r2 in pairs]
    monkeypatch.setattr(lindblad, "_is_diagonal", lambda mat: False)
    for (r1, r2), value in zip(pairs, diagonal):
        assert abs(value - trace_distance(r1, r2)) < 1e-15
    assert diagonal[1] == 1.0


def test_trace_distance_rejects_states_of_two_forms():
    # a populations vector less a matrix would broadcast across the rows
    with pytest.raises(ValueError, match=r"\(4, 4\) and \(4,\)"):
        trace_distance(fock_state(4, 0), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"\(4,\) and \(5,\)"):
        trace_distance(np.eye(4)[0], np.eye(5)[0])


def test_wigner_numeric_raises_beyond_safe_radius():
    with pytest.raises(DisplacementRangeError):
        wigner_numeric(coherent_state(16, 2.0), np.array([[6.0, 0.0]]))


def test_wigner_numeric_of_no_points_is_empty():
    assert wigner_numeric(coherent_state(16, 2.0), np.empty((0, 2))).shape == (0,)
