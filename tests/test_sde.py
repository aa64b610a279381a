"""Classical ensemble statistics, grid operators, drift conversion, detailed balance."""

import math
import tracemalloc
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
    _block_rng,
    _draw_steps,
    _run_block,
    _two_point_increments,
    analytic_pdfs,
    circulation_classical,
    classical_detailed_balance,
    fokker_planck_residual,
    noise_induced_drift_check,
    simulate_ensemble,
)
from noisecycle.wignerflux import divergence, dx, dxx, interior, make_grid, observed_order, refine


# ---------------------------------------------------------------------------
# per-step references, which ``sde._run_block`` inlines
# ---------------------------------------------------------------------------

def step_polar(state, cfg, noise):
    """Euler update of (r, phi) by the increments (dW_r, dW_phi); a negative radius reflects.

    Gaussian increments make it Euler-Maruyama; ``simulate_ensemble`` feeds
    two-point ones, +-sqrt(8 kappa dt), the simplified weak Euler scheme.
    """
    r, phi = state
    d_r, d_phi = noise
    r_new = r + (3.0 * cfg.kappa * r - cfg.delta * r ** 3) * cfg.dt + 0.5 * r * d_r
    phi_new = phi - cfg.omega0 * cfg.dt + 0.5 * d_phi
    return np.abs(r_new), phi_new


def step_cartesian(state, cfg, noise):
    """Euler update of (x, y) by the increments (dX, dY) of the mixed multiplicative noise."""
    x, y = state
    a_x, a_y = sde_module._cartesian_drift(x, y, cfg)
    n_x, n_y = sde_module._cartesian_noise(x, y, *noise)
    return x + a_x * cfg.dt + n_x, y + a_y * cfg.dt + n_y


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


def test_phi_of_a_tiny_negative_angle_is_zero(monkeypatch):
    # mod(arctan2(-1e-20, 1), 2 pi) rounds up to exactly 2 pi, outside [0, 2 pi)
    monkeypatch.setattr(sde_module, "_run_block",
                        lambda cfg, block, size: (np.array([1.0]), np.array([-1e-20]), 0))
    result = simulate_ensemble(SdeConfig(kappa=1.0, delta=1.0, n_paths=1, seed=0))
    assert result.phi.tolist() == [0.0]


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_ensemble_is_its_blocks_in_order(coordinates):
    # two full blocks and a one-path remainder, each block on its own stream
    cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=10.0, dt=0.002, n_steps=10,
                    burn_in=100, n_paths=2 * 4096 + 1, seed=7, coordinates=coordinates)
    result = simulate_ensemble(cfg)
    blocks = [_run_block(cfg, block, size) for block, size in enumerate([4096, 4096, 1])]
    assert result.n_diverged == 0
    assert np.array_equal(result.x, np.concatenate([b[0] for b in blocks]))
    assert np.array_equal(result.y, np.concatenate([b[1] for b in blocks]))
    assert result.increment_words == sum(b[2] for b in blocks)


def _reference_paths(cfg):
    """The block's own two-point increments fed through the public Euler step at
    omega0 = 0, then rotated by -omega0 T; in polar the phase is one draw after the loop.

    Also returns how many polar factors 1 + (3 kappa - delta r^2) dt + dW / 2
    were negative, i.e. how often ``step_polar`` reflected a radius.
    """
    still = replace(cfg, omega0=0.0)
    rng = _block_rng(cfg.seed, 0)
    n, total = cfg.n_paths, cfg.burn_in + cfg.n_steps
    half_std = 0.5 * cfg.noise_std
    angle = cfg.omega0 * total * cfg.dt
    negative_factors = 0
    if cfg.coordinates == "polar":
        r = np.full(n, math.sqrt(2.0 * cfg.kappa / cfg.delta))
        for steps in _draw_steps(total, n):
            for half_d_r in _two_point_increments(rng, (steps, n), half_std):
                factor = 1.0 + (3.0 * cfg.kappa - cfg.delta * r ** 2) * cfg.dt + half_d_r
                negative_factors += int(np.count_nonzero(factor < 0.0))
                r, _ = step_polar((r, 0.0), still, (2.0 * half_d_r, 0.0))
        phi = math.sqrt(2.0 * cfg.kappa * total * cfg.dt) * rng.standard_normal(n) - angle
        return 2.0 * r * np.cos(phi), 2.0 * r * np.sin(phi), negative_factors
    x, y = np.full(n, 2.0 * math.sqrt(cfg.kappa / cfg.delta)), np.zeros(n)
    for steps in _draw_steps(total, 2 * n):
        for half_d in _two_point_increments(rng, (steps, 2, n), half_std):
            x, y = step_cartesian((x, y), still, 2.0 * half_d)
    return (math.cos(angle) * x + math.sin(angle) * y,
            math.cos(angle) * y - math.sin(angle) * x, negative_factors)


def _assert_matches_reference(burn_in, coordinates):
    cfg = SdeConfig(kappa=0.7, delta=1.3, omega0=3.0, dt=2e-3, n_steps=5, burn_in=burn_in,
                    n_paths=300, seed=5, coordinates=coordinates)
    x, y, _ = _reference_paths(cfg)
    result = simulate_ensemble(cfg)
    assert result.n_diverged == 0
    assert np.all(np.hypot(result.x - x, result.y - y) <= 1e-12 * np.hypot(x, y))


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_ensemble_matches_reference_step(coordinates):
    _assert_matches_reference(20, coordinates)


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_ensemble_matches_reference_step_across_draws(coordinates):
    # 300 paths of 135 steps take draws of 109 and 26 steps in polar and of
    # 54, 54 and 27 in cartesian; a draw that ends mid-word skips the bits left
    _assert_matches_reference(130, coordinates)


def test_polar_radius_sign_dropped_once_matches_per_step_reflection():
    # the ensemble takes |r| once after the loop; at this coarse step the
    # reference reflects a radius along the way: after an up-step the second
    # factor is -7.0 or -4.8 (the reference rebuilds the config, which warns again)
    with pytest.warns(UserWarning, match="time step is large"):
        cfg = SdeConfig(kappa=1.0, delta=1.0, omega0=3.0, dt=0.6, n_steps=1, burn_in=1,
                        n_paths=300, seed=5, coordinates="polar")
        x, y, negative_factors = _reference_paths(cfg)
    assert negative_factors > 0
    result = simulate_ensemble(cfg)
    assert result.n_diverged == 0
    assert np.all(np.hypot(result.x - x, result.y - y) <= 1e-12 * np.hypot(x, y))
    assert result.r.min() >= 0.0


def test_two_point_increments_are_the_stream_bits():
    half_std = 0.5 * math.sqrt(8.0 * 0.7 * 2e-3)
    shape = (5, 2, 777)
    n = math.prod(shape)
    values = _two_point_increments(_block_rng(11, 0), shape, half_std)
    assert values.shape == shape
    assert set(np.unique(values).tolist()) == {-half_std, half_std}
    plus = int(np.count_nonzero(values > 0.0))
    assert abs(plus - n / 2) < 5.0 * math.sqrt(n / 4)
    # least significant bit first: the first 64 values spell the first raw word
    word = int(_block_rng(11, 0).bit_generator.random_raw())
    first = values.reshape(-1)[:64]
    assert [int(v > 0.0) for v in first] == [(word >> i) & 1 for i in range(64)]
    again = _two_point_increments(_block_rng(11, 0), shape, half_std)
    assert np.array_equal(values, again)


def test_two_point_increments_take_the_offset():
    values = _two_point_increments(_block_rng(3, 1), (4, 100), 0.25, offset=1.0)
    assert set(np.unique(values).tolist()) == {0.75, 1.25}


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_increment_words_are_the_words_the_stream_gave(coordinates, monkeypatch):
    # one block of 101 paths, 400 steps: draws of 324 and 76 steps in polar and of
    # 162, 162 and 76 in cartesian, each ending mid-word
    streams = []

    def recording_rng(seed, block):
        streams.append(_block_rng(seed, block))
        return streams[-1]

    monkeypatch.setattr(sde_module, "_block_rng", recording_rng)
    cfg = SdeConfig(kappa=1.0, delta=1.0, dt=2e-3, n_steps=10, burn_in=390, n_paths=101,
                    seed=2, coordinates=coordinates)
    result = simulate_ensemble(cfg)
    assert result.increment_words == {"polar": 512 + 120, "cartesian": 512 + 512 + 240}[coordinates]
    fresh = _block_rng(cfg.seed, 0)
    fresh.bit_generator.advance(result.increment_words)
    if coordinates == "polar":
        fresh.standard_normal(101)  # the phase, after the increments
    assert fresh.bit_generator.state == streams[0].bit_generator.state


@pytest.mark.parametrize("coordinates", ["polar", "cartesian"])
def test_weak_order_of_the_stationary_second_moment(coordinates):
    # the bias of <r^2> at T = 6.4 against its stationary value 2 kappa / delta
    # must shrink at first order as dt halves (Talay & Tubaro 1990)
    biases = []
    for dt in (0.04, 0.02):
        with pytest.warns(UserWarning, match="time step is large"):
            cfg = SdeConfig(kappa=1.0, delta=1.0, dt=dt, n_steps=1,
                            burn_in=round(6.4 / dt) - 1, n_paths=400_000, seed=5,
                            coordinates=coordinates)
        result = simulate_ensemble(cfg)
        assert result.n_diverged == 0
        biases.append(float(np.mean(result.r ** 2)) / 2.0 - 1.0)
    assert biases[0] * biases[1] > 0.0
    assert 0.7 <= observed_order(*biases) <= 1.6


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


def _whole_grid_residual(cfg, xs, ys):
    """Largest |cartesian residual| off the grid edge, on whole-grid arrays."""
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    p = analytic_pdfs(cfg).plane(X, Y)
    a_x, a_y = sde_module._cartesian_drift(X, Y, cfg)
    diff = cfg.kappa * (X ** 2 + Y ** 2) * p
    res = -dx(a_x * p, hx, 0) - dx(a_y * p, hy, 1) + dxx(diff, hx, 0) + dxx(diff, hy, 1)
    return float(np.abs(interior(res, 2)).max())


def _whole_grid_balance(cfg):
    """``classical_detailed_balance`` on whole-grid arrays."""
    xs = make_grid(8.0 * math.sqrt(cfg.kappa / cfg.delta), 0.1)
    maxima = []
    for g in (xs, refine(xs)):
        h = g[1] - g[0]
        X, Y = np.meshgrid(g, g, indexing="ij")
        s = X ** 2 + Y ** 2
        p = analytic_pdfs(cfg).plane(X, Y)
        irr_x = (2.0 * cfg.kappa * X - 0.25 * cfg.delta * s * X) * p - cfg.kappa * dx(s * p, h, 0)
        irr_y = (2.0 * cfg.kappa * Y - 0.25 * cfg.delta * s * Y) * p - cfg.kappa * dx(s * p, h, 1)
        div_rev = divergence(cfg.omega0 * Y * p, -cfg.omega0 * X * p, h)
        maxima.append((float(np.hypot(interior(irr_x, 2), interior(irr_y, 2)).max()),
                       float(np.abs(interior(div_rev, 2)).max())))
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    eps = np.diag([1.0, -1.0])
    d_reversed = np.einsum("ij,jk...,kl->il...", eps, sde_module._diffusion_matrix(X, -Y), eps)
    (irr_c, div_c), (irr_f, div_f) = maxima
    return sde_module.DetailedBalanceReport(
        max_irreversible_flux=irr_c,
        max_reversible_divergence=div_c,
        order_irreversible=observed_order(irr_c, irr_f),
        order_divergence=observed_order(div_c, div_f),
        diffusion_time_reversal_exact=bool(np.array_equal(sde_module._diffusion_matrix(X, Y),
                                                          d_reversed)),
        spacing=0.1,
    )


@pytest.mark.parametrize("kappa, delta, omega0, rows, cols", [
    (1.0, 1.0, 2.0, 161, 161),   # blocks of 48 inner rows and one of 13; balance grid 161
    (0.7, 1.3, 0.0, 203, 121),   # omega0 = 0: no divergence order
    (2.0, 0.5, 6.5, 321, 77),    # balance grids of 321 and 641 rows
    (0.5, 2.0, 1.5, 41, 41),     # one block; the balance grid of 81 rows is one block too
])
def test_grid_checks_in_row_blocks_match_the_whole_grid(kappa, delta, omega0, rows, cols):
    cfg = SdeConfig(kappa=kappa, delta=delta, omega0=omega0)
    half_width = 8.0 * math.sqrt(kappa / delta)
    xs, ys = np.linspace(-half_width, half_width, rows), np.linspace(-half_width, half_width, cols)
    assert sde_module._MAX_RESIDUALS["cartesian"](cfg, xs, ys) == _whole_grid_residual(cfg, xs, ys)
    fine = [refine(xs), refine(ys)]
    assert sde_module._MAX_RESIDUALS["cartesian"](cfg, *fine) == _whole_grid_residual(cfg, *fine)
    report = classical_detailed_balance(cfg)
    assert report == _whole_grid_balance(cfg)
    assert (report.order_divergence is None) == (omega0 == 0.0)


@pytest.mark.parametrize("rows, cols", [(161, 161), (203, 121), (41, 41), (6, 9000)])
def test_row_blocks_partition_the_grid_interior(rows, cols):
    # every row off the two-cell edge is an inner row of exactly one block, and a
    # block holds at most 32 KiB a field, or three rows when one row is wider
    inner = []

    def fields(block):
        assert block.size * cols <= sde_module._GRID_BLOCK_VALUES or block.size == 3
        inner.extend(block[1:-1].tolist())
        return [np.ones((block.size, cols))]

    assert sde_module._interior_maxima(fields, np.arange(rows, dtype=float), cols)[0] == 1.0
    assert inner == list(range(2, rows - 2))


def test_grid_checks_hold_no_whole_grid_temporaries():
    # at kappa 2, delta 0.5 a whole refined grid of the balance check is 3.3 MB an array
    cfg = SdeConfig(kappa=2.0, delta=0.5, omega0=3.0)
    grid = np.linspace(-16.0, 16.0, 161)
    for check in (lambda: fokker_planck_residual("cartesian", cfg, (grid, grid)),
                  lambda: classical_detailed_balance(cfg)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


# ---------------------------------------------------------------------------
# Stratonovich vs Ito
# ---------------------------------------------------------------------------

def test_drift_gap_converges():
    cfg = SdeConfig(kappa=0.5, delta=1.0, omega0=3.0, seed=11)
    n_draws, (x0, y0) = 200_000, (1.0, 0.0)
    report = noise_induced_drift_check(cfg, state=(x0, y0), n_draws=n_draws)
    gx, gy = report.gaps[-1]
    assert gx == pytest.approx(1.0, abs=0.05)
    assert gy == pytest.approx(0.0, abs=0.05)
    # the gap's mean is the target 2 kappa (x0, y0) at every dt; only its
    # first-moment term, of variance kappa dt (a_x^2 + a_y^2) / 2 / n, depends on dt
    a_x, a_y = sde_module._cartesian_drift(x0, y0, cfg)
    for dt, gap in zip(report.dts, report.gaps):
        first = 0.5 * cfg.kappa * dt * (a_x ** 2 + a_y ** 2)
        for g, target, state in zip(gap, report.target, (x0, y0)):
            sigma = math.sqrt((4.0 * cfg.kappa ** 2 * state ** 2 + first) / n_draws)
            assert abs(g - target) < 5.0 * sigma


def test_drift_gap_vanishes_without_noise():
    # kappa -> 0 shrinks the increments; the discretizations share the drift,
    # so the gap collapses to the sampling floor, far below the rate scale
    cfg = SdeConfig(kappa=1e-12, delta=1.0, omega0=3.0, seed=4)
    report = noise_induced_drift_check(cfg, state=(1.0, 0.5), n_draws=2_000)
    assert np.abs(report.gaps).max() < 1e-8


def _drift_gaps_per_draw(cfg, state, z):
    """The drift check evaluated draw by draw: noise at the Ito increment, averaged."""
    x0, y0 = state
    a_x, a_y = sde_module._cartesian_drift(x0, y0, cfg)
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3):
        d_x, d_y = math.sqrt(8.0 * cfg.kappa * dt) * z
        n_x, n_y = sde_module._cartesian_noise(x0, y0, d_x, d_y)
        gap_x, gap_y = sde_module._cartesian_noise(a_x * dt + n_x, a_y * dt + n_y, d_x, d_y)
        gaps.append([0.5 * np.mean(gap_x) / dt, 0.5 * np.mean(gap_y) / dt])
    return np.array(gaps)


def _explicit_moments(z):
    """m0, m1 and m2 of explicit normal pairs z, shape (..., 2, n)."""
    m0, m1 = np.moveaxis(z.mean(axis=-1), -1, 0)
    return m0, m1, np.einsum("...ij,...ij->...", z, z) / z.shape[-1]


@pytest.mark.parametrize("kappa, delta, omega0, seed, state", [
    (0.5, 1.0, 3.0, 11, (1.0, 0.5)),
    (1e-12, 1.0, 3.0, 4, (1.0, 0.5)),
    (0.7, 2.0, -1.0, 2, (-0.8, 1.3)),
    (2.0, 0.5, 0.0, 9, (0.3, -2.0)),
])
def test_drift_gap_moments_match_per_draw_evaluation(kappa, delta, omega0, seed, state):
    cfg = SdeConfig(kappa=kappa, delta=delta, omega0=omega0, seed=seed)
    z = np.random.default_rng(seed).standard_normal((2, 50_000))
    dts = np.array([4e-3, 2e-3, 1e-3])
    gaps = sde_module._drift_gaps(cfg, state, dts, *map(float, _explicit_moments(z)))
    np.testing.assert_allclose(gaps, _drift_gaps_per_draw(cfg, state, z), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n_draws", [0, -3, 2.5, 3.0, True])
def test_drift_check_needs_a_draw(n_draws, monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    with pytest.raises(SdeError, match=f"n_draws.*{n_draws}") as err:
        noise_induced_drift_check(SdeConfig(kappa=1.0, delta=1.0), n_draws=n_draws)
    assert err.value.field == "n_draws"


@pytest.mark.parametrize("n", [1, 2, 50])
def test_drift_moments_follow_their_exact_law(n):
    # sqrt(n) m0 and sqrt(n) m1 are standard normal, c = n m2 - n (m0^2 + m1^2) is
    # chi-square with 2n - 2 degrees of freedom, and the three are independent
    reps = 20_000
    rng = np.random.default_rng(17)
    m0, m1, m2 = np.array([sde_module._drift_moments(rng, n) for _ in range(reps)]).T
    c = n * m2 - n * (m0 ** 2 + m1 ** 2)
    if n == 1:
        assert np.array_equal(m2, m0 * m0 + m1 * m1)
    k = 2 * n - 2
    # (sample, mean, variance, fourth central moment)
    laws = [(math.sqrt(n) * m0, 0.0, 1.0, 3.0), (math.sqrt(n) * m1, 0.0, 1.0, 3.0)]
    if n > 1:
        laws.append((c, k, 2.0 * k, 12.0 * k ** 2 + 48.0 * k))
    for sample, mean, var, fourth in laws:
        assert abs(sample.mean() - mean) < 5.0 * math.sqrt(var / reps)
        assert abs(sample.var() - var) < 5.0 * math.sqrt((fourth - var ** 2) / reps)
    corr = np.corrcoef([sample for sample, *_ in laws])
    assert np.abs(corr[np.triu_indices(len(laws), 1)]).max() < 5.0 / math.sqrt(reps)


def test_drift_moments_match_explicit_draws_in_distribution():
    n, reps = 50, 10_000
    rng = np.random.default_rng(23)
    drawn = np.array([sde_module._drift_moments(rng, n) for _ in range(reps)]).T
    explicit = _explicit_moments(rng.standard_normal((reps, 2, n)))
    for a, b in zip(drawn, explicit):
        assert ks_2samp(a, b).pvalue > 1e-3


@pytest.mark.parametrize("n_draws", [1, 400_000, 40_000_000])
def test_drift_check_draws_a_fixed_number_of_values(n_draws, monkeypatch):
    made = []
    real_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(real_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    cfg = SdeConfig(kappa=0.5, delta=1.0, omega0=3.0, seed=11)
    report = noise_induced_drift_check(cfg, state=(1.0, 0.5), n_draws=n_draws)
    # the raw 64-bit words its one generator gave: two normals and a chi-square
    fresh = real_rng(cfg.seed)
    words = 0
    while fresh.bit_generator.state != made[0].bit_generator.state:
        fresh.bit_generator.advance(1)
        words += 1
        assert words <= 16
    assert len(made) == 1
    moments = sde_module._drift_moments(real_rng(cfg.seed), n_draws)
    assert np.array_equal(report.gaps,
                          sde_module._drift_gaps(cfg, (1.0, 0.5), report.dts, *moments))


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


def test_diffusion_time_reversal_check_reaches_the_last_row(monkeypatch):
    # the skew of the test above, only on the grid's last row x = 8
    noise = sde_module._cartesian_noise

    def skewed_at_the_edge(x, y, d_x, d_y):
        n_x, n_y = noise(x, y, d_x, d_y)
        return n_x + np.where(x >= 7.95, 0.3 * y * d_x, 0.0), n_y

    monkeypatch.setattr(sde_module, "_cartesian_noise", skewed_at_the_edge)
    report = classical_detailed_balance(SdeConfig(kappa=1.0, delta=1.0, omega0=2.0))
    assert not report.diffusion_time_reversal_exact
