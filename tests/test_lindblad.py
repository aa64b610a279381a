"""Steady-state solver, propagation, circulation, time reversal, detailed balance."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from noisecycle.analytic import rho_ss_analytic
from noisecycle.fock import (
    FockError,
    ModelKind,
    ModelParams,
    build_ladder,
    coherent_state,
    default_dim,
    dissipator,
    fock_state,
    hamiltonian_term,
    liouvillian,
    number_op,
    parity_op,
    quadrature_x,
    quadrature_y,
    vectorize,
    devectorize,
)
from noisecycle.lindblad import (
    DegenerateSpectrumError,
    DisplacementRangeError,
    NormalizationError,
    StationarityError,
    circulation,
    conserved_decomposition,
    conserved_reconstruction,
    detailed_balance_residual,
    evolve,
    parity_expectation,
    parity_weights,
    random_density_matrix,
    steady_states,
    trace_distance,
    wigner_numeric,
    wigner_numeric_grid,
)
from noisecycle.analytic import wigner_ss

NI = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
CONV = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up1=0.3, kind=ModelKind.CONVENTIONAL)


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
    result = steady_states(liouvillian(params, dim))
    assert result.kernel_dim == 2
    for wp in (0.0, 0.3, 1.0):
        combined = result.combine(wp)
        check_density_matrix(combined, herm_tol=1e-10, trace_tol=1e-10)
        assert trace_distance(combined, rho_ss_analytic(0.3, wp, dim)) < 1e-8


def test_steady_state_zero_ratio_sectors():
    result = steady_states(liouvillian(ModelParams(omega0=1.0, kappa_down=1.0), 20))
    assert result.kernel_dim == 2
    assert np.allclose(result.rho_plus, fock_state(20, 0), atol=1e-10)
    assert np.allclose(result.rho_minus, fock_state(20, 1), atol=1e-10)


def test_conventional_unique_full_rank():
    result = steady_states(liouvillian(CONV, 24))
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
    result = steady_states(liouvillian(params, 20))
    assert result.kernel_dim == 2
    assert np.allclose(result.states[0], fock_state(20, 0), atol=1e-10)
    assert np.allclose(result.states[1], fock_state(20, 1), atol=1e-10)


def test_combine_unavailable_for_unique_state():
    result = steady_states(liouvillian(CONV, 20))
    with pytest.raises(Exception):
        result.combine(0.5)


def test_degenerate_kernel_raises_with_dimension():
    # pure dephasing conserves every population: the null space is huge
    from noisecycle.fock import dissipator, number_op

    gen = dissipator(number_op(6)).tocsr()
    with pytest.raises(DegenerateSpectrumError) as err:
        steady_states(gen)
    assert err.value.kernel_dim > 2


@pytest.mark.parametrize("make_gen", [
    pytest.param(lambda: liouvillian(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.4), 12),
                 id="noise-induced"),
    pytest.param(lambda: liouvillian(CONV, 12), id="conventional"),
    pytest.param(lambda: liouvillian(ModelParams(omega0=1.0, kappa_down=1.0,
                                                 kind=ModelKind.CONVENTIONAL), 12),
                 id="conventional-without-gain"),
    # x-quadrature loss couples coherence orders m and m +/- 2
    pytest.param(lambda: liouvillian(CONV, 12) + 0.2 * dissipator(quadrature_x(12)),
                 id="without-phase-symmetry"),
    # the y-quadrature drive also couples m and m +/- 1: one block
    pytest.param(lambda: phase_breaking_generator(12), id="single-block"),
])
def test_steady_states_span_dense_null_space(make_gen):
    # reference independent of the block split: the dense kernel of the whole generator
    gen = make_gen()
    kernel = null_space(gen.toarray())
    result = steady_states(gen)
    assert result.kernel_dim == len(result.states) == kernel.shape[1]
    for rho in result.states:
        vec = vectorize(rho)
        residual = np.linalg.norm(vec - kernel @ (kernel.conj().T @ vec)) / np.linalg.norm(vec)
        assert residual < 1e-10
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_steady_state_zero_rotation_zero_ratio_counts_states():
    # the |0><1| coherence is stationary as well, but its block carries no state
    gen = liouvillian(ModelParams(omega0=0.0, kappa_down=1.0), 20)
    assert null_space(gen.toarray()).shape[1] == 4
    result = steady_states(gen)
    assert result.kernel_dim == 2
    assert np.allclose(result.rho_plus, fock_state(20, 0), atol=1e-10)
    assert np.allclose(result.rho_minus, fock_state(20, 1), atol=1e-10)


def test_steady_state_near_saturated_ratio_default_dim():
    params = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.9)
    dim = default_dim(params)
    assert dim >= 400
    result = steady_states(liouvillian(params, dim))
    assert trace_distance(result.combine(0.55), rho_ss_analytic(0.9, 0.55, dim)) < 1e-8


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_zero_time_is_identity():
    rho = coherent_state(20, 0.7)
    out = evolve(rho, liouvillian(NI, 20), 0.0)
    assert np.array_equal(out, rho)


def test_evolve_reaches_steady_state():
    dim = 48
    gen = liouvillian(NI, dim)
    rho_t = evolve(fock_state(dim, 0), gen, 25.0)
    assert trace_distance(rho_t, rho_ss_analytic(0.5, 1.0, dim)) < 1e-6
    assert abs(np.trace(rho_t).real - 1.0) < 1e-9


def test_evolve_conserves_parity_noise_induced():
    dim = 40
    gen = liouvillian(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3), dim)
    rho0 = coherent_state(dim, 0.8)
    start = parity_expectation(rho0)
    for t in (0.5, 2.0):
        assert abs(parity_expectation(evolve(rho0, gen, t)) - start) < 1e-9


def test_evolve_parity_drifts_conventional():
    dim = 30
    rho0 = fock_state(dim, 1)
    out = evolve(rho0, liouvillian(CONV, dim), 3.0)
    assert abs(parity_expectation(out) - parity_expectation(rho0)) > 0.1


def reference_evolve(rho0, gen, t):
    """Matrix-exponential action on the full superoperator."""
    rho_t = devectorize(expm_multiply(gen.tocsr() * t, vectorize(rho0)))
    return (rho_t + rho_t.conj().T) / 2


def phase_breaking_generator(dim):
    """Two-photon loss plus an x-quadrature channel and drive: no phase symmetry."""
    a, _ = build_ladder(dim)
    return (dissipator(a @ a) + 0.3 * dissipator(quadrature_x(dim))
            + hamiltonian_term(number_op(dim) + 0.5 * quadrature_y(dim))).tocsr()


@pytest.mark.parametrize("make_gen,phase_symmetric", [
    (lambda dim: liouvillian(ModelParams(omega0=1.0, kappa_down=1.0), dim), True),
    (lambda dim: liouvillian(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.4), dim), True),
    (lambda dim: liouvillian(CONV, dim), True),
    (phase_breaking_generator, False),
], ids=["noise-induced-k0", "noise-induced-k0.4", "conventional", "no-phase-symmetry"])
def test_evolve_matches_full_exponential_action(make_gen, phase_symmetric):
    dim = 24
    gen = make_gen(dim)
    # without the symmetry the sparsity pattern is one block
    n_blocks, _ = connected_components(gen.astype(bool), connection="weak")
    assert (n_blocks > 1) == phase_symmetric
    seeds = [
        fock_state(dim, 0),
        fock_state(dim, 3),
        coherent_state(dim, 1.1 + 0.4j),
        random_density_matrix(dim, rng=np.random.default_rng(7)),
    ]
    for rho0 in seeds:
        for t in (0.3, 2.0):
            gap = np.abs(evolve(rho0, gen, t) - reference_evolve(rho0, gen, t)).max()
            assert gap < 1e-11


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve(fock_state(10, 0), liouvillian(NI, 10), -1.0)


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
    adj = liouvillian(params, dim).conj().T
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


# ---------------------------------------------------------------------------
# time reversal: T|n> = |n> transposes operators and conjugates the generator,
# which flips only the free rotation (``detailed_balance_residual`` relies on it)
# ---------------------------------------------------------------------------

def test_time_reversal_swaps_ladder_operators():
    a, ad = build_ladder(16)
    assert np.array_equal(a.T, ad)
    assert np.array_equal(ad.T, a)


def test_time_reversal_is_involution():
    for params in (ModelParams(omega0=0.7, kappa_down=1.3, kappa_up2=0.4),
                   replace(CONV, omega0=0.7)):
        reversed_params = params.rotation_reversed()
        assert abs(liouvillian(params, 18).conj() - liouvillian(reversed_params, 18)).max() == 0.0
        assert abs(liouvillian(reversed_params, 18).conj() - liouvillian(params, 18)).max() == 0.0


def test_time_reversal_fixes_generator_without_rotation():
    params = ModelParams(omega0=0.0, kappa_down=1.0, kappa_up2=0.3)
    gap = liouvillian(params, 20).conj() - liouvillian(params, 20)
    assert abs(gap).max() == 0.0


@pytest.mark.parametrize("params", [NI, CONV])
def test_time_reversal_defining_property(params):
    rng = np.random.default_rng(23)
    dim = 24
    gen = liouvillian(params, dim)
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
    rho = steady_states(liouvillian(CONV, 20)).states[0]
    assert detailed_balance_residual(CONV, rho) > 1e-3


def test_detailed_balance_requires_stationary_state():
    with pytest.raises(StationarityError):
        detailed_balance_residual(NI, coherent_state(40, 1.0))


# ---------------------------------------------------------------------------
# conserved-quantity reconstruction
# ---------------------------------------------------------------------------

def test_decomposition_orthogonality():
    dec = conserved_decomposition(0.4, 60)
    assert abs(np.trace(dec.m0.conj().T @ dec.m1)) < 1e-10
    # biorthogonality against the conserved pair
    for i, c in enumerate((dec.c0, dec.c1)):
        for j, m in enumerate((dec.m0, dec.m1)):
            overlap = np.trace(c.conj().T @ m).real
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_conserved_quantities_are_conserved():
    dim = 60
    adj = liouvillian(ModelParams(1.0, 1.0, 0.4), dim).conj().T
    dec = conserved_decomposition(0.4, dim)
    for c in (dec.c0, dec.c1):
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
    numeric = wigner_numeric_grid(rho, axis, axis)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
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


def test_wigner_numeric_square_grid_matches_per_point_reference():
    # the mirror images of each point share its radius
    rng = np.random.default_rng(6)
    rho = random_density_matrix(24, support=8, rng=rng)
    xs = np.linspace(-1.5, 1.5, 9)
    pts = np.array([(x, y) for x in xs for y in xs])
    assert np.unique(np.hypot(pts[:, 0], pts[:, 1])).size < len(pts) // 4
    assert np.abs(wigner_numeric(rho, pts) - reference_wigner_numeric(rho, pts)).max() < 1e-12


def test_wigner_numeric_raises_beyond_safe_radius():
    with pytest.raises(DisplacementRangeError):
        wigner_numeric(coherent_state(16, 2.0), np.array([[6.0, 0.0]]))
