"""Classical ensemble statistics, grid operators, drift conversion, detailed balance."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import ks_2samp, kstest

import noisecycle.sde as sde_module
from noisecycle.sde import (
    AnalyticPdfs,
    DivergenceError,
    GridRefinementError,
    SdeConfig,
    SdeError,
    THREADS_ENV,
    _block_rng,
    analytic_pdfs,
    circulation_classical,
    classical_detailed_balance,
    fokker_planck_residual,
    noise_induced_drift_check,
    simulate_ensemble,
    step_cartesian,
    step_polar,
)


# ---------------------------------------------------------------------------
# configuration and steps
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(SdeError):
        SdeConfig(kappa=0.0, delta=1.0)
    with pytest.raises(SdeError):
        SdeConfig(kappa=1.0, delta=1.0, coordinates="spherical")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["kappa", "delta", "omega0", "dt"])
def test_config_rejects_non_finite_rates(field, value):
    with pytest.raises(SdeError) as err:
        SdeConfig(**{"kappa": 1.0, "delta": 1.0, field: value})
    assert err.value.field == field


def test_config_warns_on_big_step():
    with pytest.warns(UserWarning):
        SdeConfig(kappa=1.0, delta=1.0, dt=0.05)


def test_polar_drift_fixed_point():
    cfg = SdeConfig(kappa=1.0, delta=1.0, dt=1e-3, seed=0)
    r0 = math.sqrt(3.0)  # 3 kappa r = delta r^3
    r1, _ = step_polar((r0, 0.0), cfg, (0.0, 0.0))
    assert r1 == pytest.approx(r0, abs=1e-15)


def test_polar_phase_advances_linearly_without_noise():
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=2.5, dt=1e-3, seed=0)
    phi = 0.0
    for _ in range(100):
        _, phi = step_polar((1.0, phi), cfg, (0.0, 0.0))
    assert phi == pytest.approx(-2.5 * 0.1, rel=1e-12)


def test_polar_reflects_at_origin():
    cfg = SdeConfig(kappa=1.0, delta=1.0, dt=1e-3, seed=0)
    r1, _ = step_polar((1e-4, 0.0), cfg, (-1.0, 0.0))
    assert r1 >= 0.0


def test_cartesian_radial_drift_balance():
    cfg = SdeConfig(kappa=1.0, delta=1.0, dt=1e-3, seed=0)
    radius = 2.0 * math.sqrt(2.0)  # x^2 + y^2 = 8 kappa / delta
    x1, y1 = step_cartesian((radius, 0.0), cfg, (0.0, 0.0))
    assert math.hypot(x1, y1) == pytest.approx(radius, abs=1e-6)


def test_cartesian_rotation_preserves_radius_to_dt_sq():
    cfg = SdeConfig(kappa=1e-12, delta=1e-12, omega0=1.0, dt=1e-4, seed=0)
    x, y = 1.0, 0.0
    x1, y1 = step_cartesian((x, y), cfg, (0.0, 0.0))
    assert x1 ** 2 + y1 ** 2 == pytest.approx(1.0, abs=1e-7)  # O(dt^2) growth


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def polar_ensemble():
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=10.0, dt=0.002, n_steps=100,
                    burn_in=2500, n_paths=30_000, seed=7, coordinates="polar")
    return cfg, simulate_ensemble(cfg)


def test_rayleigh_moments(polar_ensemble):
    cfg, result = polar_ensemble
    n = result.n_total
    mean_target = math.sqrt(math.pi / 2)
    sd_mean = math.sqrt((4 - math.pi) / 2) / math.sqrt(n)
    assert abs(result.mean_r - mean_target) < 3 * sd_mean + 2e-3  # 3 sigma + step bias
    assert abs(result.var_r - (4 - math.pi) / 2) < 0.02 * (4 - math.pi) / 2


def test_sample_ranges(polar_ensemble):
    _, result = polar_ensemble
    assert result.r.min() >= 0.0
    assert result.phi.min() >= 0.0 and result.phi.max() < 2 * math.pi
    assert result.n_diverged == 0


def test_divergence_budget():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SdeConfig(kappa=1.0, delta=1.0, dt=0.5, n_steps=10, burn_in=300,
                        n_paths=500, seed=3)
    from noisecycle.sde import DivergenceError

    with pytest.raises(DivergenceError):
        simulate_ensemble(cfg)


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_diverging_ensemble_is_quiet(coordinates):
    # inf/nan paths, and their rotation, stay inside the block's errstate
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SdeConfig(kappa=1.0, delta=1.0, dt=0.5, n_steps=10, burn_in=300,
                        n_paths=500, seed=3, coordinates=coordinates)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError):
            simulate_ensemble(cfg)


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_bad_thread_count_is_rejected(value, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was built")

    monkeypatch.setattr(sde_module, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv(THREADS_ENV, value)
    with pytest.raises(SdeError, match=f"{THREADS_ENV}.*{value!r}"):
        simulate_ensemble(SdeConfig(kappa=1.0, delta=1.0, n_paths=10, burn_in=1))


def test_phi_of_a_tiny_negative_angle_is_zero(monkeypatch):
    # mod(arctan2(-1e-20, 1), 2 pi) rounds up to exactly 2 pi, outside [0, 2 pi)
    monkeypatch.setattr(sde_module, "_run_block",
                        lambda cfg, block, size: (np.array([1.0]), np.array([-1e-20])))
    result = simulate_ensemble(SdeConfig(kappa=1.0, delta=1.0, n_paths=1, seed=0))
    assert result.phi.tolist() == [0.0]


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_thread_count_does_not_change_results(coordinates, monkeypatch):
    # two full blocks and a one-path remainder
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=10.0, dt=0.002, n_steps=10,
                    burn_in=100, n_paths=2 * 4096 + 1, seed=7, coordinates=coordinates)
    monkeypatch.setenv(THREADS_ENV, "1")
    serial = simulate_ensemble(cfg)
    monkeypatch.setenv(THREADS_ENV, "4")
    threaded = simulate_ensemble(cfg)
    for name in ("r", "phi", "x", "y"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_ensemble_matches_reference_step(coordinates):
    # the block's own stream fed through the public Euler step at omega0 = 0,
    # then rotated by -omega0 T; in polar the phase is one draw after the loop
    cfg = SdeConfig(kappa=0.7, delta=1.3, omega0=3.0, dt=2e-3, n_steps=5, burn_in=20,
                    n_paths=300, seed=5, coordinates=coordinates)
    still = replace(cfg, omega0=0.0)
    rng = _block_rng(cfg.seed, 0)
    n, total = cfg.n_paths, cfg.burn_in + cfg.n_steps
    angle = cfg.omega0 * total * cfg.dt
    if coordinates == "polar":
        r = np.full(n, math.sqrt(2.0 * cfg.kappa / cfg.delta))
        for _ in range(total):
            r, _ = step_polar((r, 0.0), still, (cfg.noise_std * rng.standard_normal(n), 0.0))
        phi = math.sqrt(2.0 * cfg.kappa * total * cfg.dt) * rng.standard_normal(n) - angle
        x, y = 2.0 * r * np.cos(phi), 2.0 * r * np.sin(phi)
    else:
        x, y = np.full(n, 2.0 * math.sqrt(cfg.kappa / cfg.delta)), np.zeros(n)
        for _ in range(total):
            x, y = step_cartesian((x, y), still, cfg.noise_std * rng.standard_normal((2, n)))
        x, y = math.cos(angle) * x + math.sin(angle) * y, math.cos(angle) * y - math.sin(angle) * x
    result = simulate_ensemble(cfg)
    assert result.n_diverged == 0
    assert np.all(np.hypot(result.x - x, result.y - y) <= 1e-12 * np.hypot(x, y))


def test_cartesian_fast_rotation_leaves_radius_unbiased():
    # an Euler step of the rotation itself inflates the radius by O(omega0^2 dt):
    # about 14 standard errors at this step
    cfg = SdeConfig(kappa=0.5, delta=2.0, omega0=10.0, dt=0.004, n_steps=200, burn_in=3000,
                    n_paths=4096, coordinates="cartesian")
    result = simulate_ensemble(cfg)
    scale_sq = cfg.kappa / cfg.delta
    std_error = math.sqrt((4.0 - math.pi) / 2.0 * scale_sq / result.r.size)
    assert abs(result.mean_r - math.sqrt(math.pi * scale_sq / 2.0)) < 3.0 * std_error


def test_phase_uniformity(polar_ensemble):
    _, result = polar_ensemble
    assert kstest(result.phi / (2 * math.pi), "uniform").pvalue > 0.01


def test_seed_determinism(polar_ensemble):
    cfg, result = polar_ensemble
    again = simulate_ensemble(cfg)
    assert result.mean_r == again.mean_r
    assert result.var_r == again.var_r
    assert np.array_equal(result.r, again.r)


def test_polar_cartesian_distributional_equivalence():
    # the two coordinate systems carry different O(dt) biases: the step and
    # sample count are chosen so the bias gap sits below the KS resolution
    common = dict(kappa=1.0, delta=1.0, omega0=10.0, dt=1e-3, n_steps=100,
                  burn_in=6_000, n_paths=10_000)
    polar = simulate_ensemble(SdeConfig(coordinates="polar", seed=7, **common))
    cart = simulate_ensemble(SdeConfig(coordinates="cartesian", seed=8, **common))
    assert ks_2samp(polar.r, cart.r).pvalue > 0.01


def test_circulation_scaling(polar_ensemble):
    cfg, result = polar_ensemble
    empirical, formula = circulation_classical(cfg, result)
    assert formula == pytest.approx(80.0)
    assert abs(empirical - formula) / formula < 0.02
    doubled = SdeConfig(kappa=2.0, delta=1.0, omega0=10.0, seed=0)
    assert circulation_classical(doubled, result)[1] == pytest.approx(160.0)
    # classically the circulation can vanish outright
    still = SdeConfig(kappa=1.0, delta=1.0, omega0=0.0, seed=0)
    assert circulation_classical(still, result) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# stationary densities
# ---------------------------------------------------------------------------

def test_pdf_normalizations():
    pdfs = AnalyticPdfs(kappa=0.7, delta=1.3)
    radial_total, _ = quad(pdfs.radial, 0, 30)
    assert abs(radial_total - 1.0) < 1e-10
    phase_total, _ = quad(pdfs.phase, 0, 2 * math.pi)
    assert abs(phase_total - 1.0) < 1e-10
    plane_total, _ = dblquad(lambda y, x: pdfs.plane(x, y), -15, 15, -15, 15)
    assert abs(plane_total - 1.0) < 1e-8


def test_pdf_modes_and_variance():
    pdfs = AnalyticPdfs(kappa=2.0, delta=0.5)
    assert pdfs.radial_mode == pytest.approx(2.0)
    assert pdfs.coordinate_variance == pytest.approx(16.0)
    # plane density peaks at the origin for any rates
    xs = np.linspace(-10, 10, 201)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    idx = np.unravel_index(np.argmax(pdfs.plane(X, Y)), (201, 201))
    assert idx == (100, 100)


# ---------------------------------------------------------------------------
# Fokker-Planck residuals
# ---------------------------------------------------------------------------

def test_radial_residual_second_order():
    cfg = SdeConfig(kappa=1.0, delta=1.0, seed=0)
    coarse = fokker_planck_residual("radial", cfg, np.linspace(0, 5, 501))
    fine = fokker_planck_residual("radial", cfg, np.linspace(0, 5, 1001))
    assert 3.0 < coarse / fine < 5.3  # order 2 +- 0.3 between the two grids


def test_phase_residual_exactly_zero():
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=3.0, seed=0)
    assert fokker_planck_residual("phase", cfg, np.linspace(0, 2 * math.pi, 101)) == 0.0


def test_cartesian_residual_second_order():
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=2.0, seed=0)
    xs = np.linspace(-8, 8, 161)
    residual = fokker_planck_residual("cartesian", cfg, (xs, xs))
    assert residual < 1e-3


def test_cartesian_residual_on_unequal_spacings():
    # each axis is differentiated with its own spacing
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=2.0, seed=0)
    square = fokker_planck_residual("cartesian", cfg, (np.linspace(-8, 8, 161),) * 2)
    wide = fokker_planck_residual(
        "cartesian", cfg, (np.linspace(-8, 8, 161), np.linspace(-8, 8, 121)))
    assert square < wide < 2.0 * square


def test_too_coarse_grid_raises():
    cfg = SdeConfig(kappa=1.0, delta=1.0, seed=0)
    with pytest.raises(GridRefinementError):
        fokker_planck_residual("radial", cfg, np.linspace(0, 5, 7))


# ---------------------------------------------------------------------------
# Stratonovich vs Ito
# ---------------------------------------------------------------------------

def test_drift_gap_converges():
    cfg = SdeConfig(kappa=0.5, delta=1.0, omega0=3.0, seed=11)
    report = noise_induced_drift_check(cfg, state=(1.0, 0.0), n_draws=200_000)
    gx, gy = report.gaps[-1]
    assert gx == pytest.approx(1.0, abs=0.05)
    assert gy == pytest.approx(0.0, abs=0.05)
    # gap shrinks toward the target as dt halves
    errors = np.abs(report.gaps[:, 0] - 1.0)
    assert errors[-1] < errors[0]


def test_drift_gap_vanishes_without_noise():
    # kappa -> 0 shrinks the increments; the discretizations share the drift,
    # so the gap collapses to the sampling floor, far below the rate scale
    cfg = SdeConfig(kappa=1e-12, delta=1.0, omega0=3.0, seed=4)
    report = noise_induced_drift_check(cfg, state=(1.0, 0.5), n_draws=2_000)
    assert np.abs(report.gaps).max() < 1e-8


def test_drift_gap_independent_of_nonlinearity():
    a = noise_induced_drift_check(SdeConfig(kappa=0.5, delta=1.0, seed=3), n_draws=100_000)
    b = noise_induced_drift_check(SdeConfig(kappa=0.5, delta=3.0, seed=3), n_draws=100_000)
    # conversion term involves only the noise coefficients
    assert np.abs(a.gaps[-1] - b.gaps[-1]).max() < 5e-3


# ---------------------------------------------------------------------------
# classical detailed balance
# ---------------------------------------------------------------------------

def test_classical_detailed_balance_orders():
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=2.0, seed=0)
    report = classical_detailed_balance(cfg)
    assert 1.7 <= report.order_irreversible <= 2.3
    assert 1.7 <= report.order_divergence <= 2.3
    assert report.diffusion_time_reversal_exact
    assert report.max_irreversible_flux < 1e-3
    assert report.max_reversible_divergence < 1e-3


def test_classical_detailed_balance_without_rotation():
    # omega0 defaults to 0: the rotational flux vanishes identically, so no
    # divergence order exists
    report = classical_detailed_balance(SdeConfig(kappa=1.0, delta=1.0))
    assert report.max_reversible_divergence == 0.0
    assert report.order_divergence is None
    assert 1.7 <= report.order_irreversible <= 2.3


def test_diffusion_time_reversal_check_can_fail(monkeypatch):
    # an extra c y dX term in the x noise makes D_xx depend on the sign of y
    noise = sde_module._cartesian_noise

    def skewed(x, y, d_x, d_y):
        n_x, n_y = noise(x, y, d_x, d_y)
        return n_x + 0.3 * y * d_x, n_y

    monkeypatch.setattr(sde_module, "_cartesian_noise", skewed)
    report = classical_detailed_balance(SdeConfig(kappa=1.0, delta=1.0, omega0=2.0))
    assert not report.diffusion_time_reversal_exact
