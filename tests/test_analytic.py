"""Closed-form steady state, phase-space functions, phase diagram, statistics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from noisecycle import analytic
from noisecycle.analytic import (
    AnalyticError,
    BoundaryCrossError,
    Phase,
    coherent_cycle_threshold,
    coherent_even_weight,
    hopf_scaling,
    limit_cycle_radius,
    mandel_q,
    mean_n_ss,
    nonclassical_region,
    phase_boundary,
    phase_classify,
    rho_ss_analytic,
    scan_radius,
    sigmoid,
    wigner_origin,
    wigner_radial,
    wigner_ss,
)


def wigner_ss_complex(alpha, k_ratio: float, wp_plus: float):
    """Same state over the complex plane, alpha = (x + iy)/2; equals 4 W(x, y)."""
    alpha = np.asarray(alpha, dtype=complex)
    return 4.0 * wigner_ss(2.0 * alpha.real, 2.0 * alpha.imag, k_ratio, wp_plus)


def wigner_ss_polar(r, phi, k_ratio: float, wp_plus: float):
    """Polar measure r * Wbar(r e^{i phi}); integrates to 1 over dr dphi."""
    r = np.asarray(r, dtype=float)
    return r * wigner_radial(r, k_ratio, wp_plus)


def coherent_thresholds(alpha_sq: float, k_ratio: float) -> tuple[float, bool]:
    """Even weight of a coherent seed and whether it lands on the cycle side.

    Coherent states always have even weight above 1/2, so the
    negative-quasiprobability phase is unreachable from them.
    """
    wp = coherent_even_weight(alpha_sq)
    return wp, alpha_sq > coherent_cycle_threshold(k_ratio)


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

def test_rho_ss_zero_ratio_even():
    rho = rho_ss_analytic(0.0, 1.0, 12)
    assert np.allclose(rho, np.diag([1.0] + [0.0] * 11))


def test_rho_ss_geometric_populations():
    rho = rho_ss_analytic(0.5, 1.0, 200)
    pops = np.diag(rho).real
    assert pops[0] == pytest.approx(0.5, abs=1e-12)
    assert pops[2] == pytest.approx(0.25, abs=1e-12)
    assert pops[4] == pytest.approx(0.125, abs=1e-12)
    assert np.all(pops[1::2] == 0)


@pytest.mark.parametrize("k, wp, dim", [(0.3, 0.2, 7), (0.5, 0.9, 8), (0.9, 0.0, 9), (0.0, 0.4, 3)])
def test_populations_are_the_normalized_ladders_cut_at_dim(k, wp, dim):
    """Weight wp or 1 - wp, by parity, times (1 - k) k^(n // 2) sums to 1 over every
    level; the levels from dim up hold at most k^(dim // 2) of it."""
    n = np.arange(dim)
    ladders = np.where(n % 2 == 0, wp, 1.0 - wp) * (1.0 - k) * k ** (n // 2)
    dropped = 1.0 - ladders.sum()
    assert -1e-15 <= dropped <= k ** (dim // 2) + 1e-15
    assert analytic.populations_ss(k, wp, dim) == pytest.approx(ladders / ladders.sum(), rel=1e-14)


def test_rho_ss_mean_photon_number():
    rho = rho_ss_analytic(0.5, 1.0, 200)
    n = np.arange(200)
    assert n @ np.diag(rho).real == pytest.approx(2.0, abs=1e-10)
    assert mean_n_ss(0.5, 1.0) == pytest.approx(2.0)


def test_rho_ss_rejects_saturated_ratio():
    with pytest.raises(AnalyticError):
        rho_ss_analytic(1.0, 0.5, 20)


# ---------------------------------------------------------------------------
# quasiprobability
# ---------------------------------------------------------------------------

def test_closed_forms_validate_before_computing():
    # each call names a weight or ratio outside its range and must not return a number
    calls = [
        lambda: wigner_ss(0.0, 0.0, 0.5, 1.2),
        lambda: wigner_ss(0.0, 0.0, 0.5, -3.0),
        lambda: wigner_ss(0.5, 0.0, -0.5, 0.0),  # below the series-limit threshold
    ]
    for call in calls:
        with pytest.raises(AnalyticError):
            call()
    closed_forms = [mean_n_ss, mandel_q, wigner_origin,
                    lambda k, wp: analytic.populations_ss(k, wp, 8),
                    lambda k, wp: wigner_ss(0.0, 0.0, k, wp)]
    # points off the square 0 <= k < 1, 0 <= wp <= 1: past each edge, on the open one, and NaN
    off_square = [(1.5, 0.5), (1.0, 0.5), (-0.1, 0.5), (math.nan, 0.5),
                  (0.3, 2.0), (0.3, -0.1), (0.3, math.nan)]
    for k, wp in off_square:
        on_ratio = 0.0 < k < 1.0
        for closed_form in closed_forms:
            with pytest.raises(AnalyticError, match="even weight" if on_ratio else "gain/loss"):
                closed_form(k, wp)
        # the radius reads its own ratio rule, k > 0 included, first
        with pytest.raises(AnalyticError, match="even weight" if on_ratio else "radius needs"):
            limit_cycle_radius(k, wp)


def test_wigner_origin_value():
    for k, wp in [(0.2, 0.4), (0.5, 0.55), (0.7, 0.9)]:
        assert wigner_ss(0.0, 0.0, k, wp) == pytest.approx((2 * wp - 1) / (2 * math.pi), rel=1e-12)
        assert wigner_origin(k, wp) == pytest.approx((2 * wp - 1) / (2 * math.pi))


def test_vacuum_limit():
    xs = np.linspace(-3, 3, 11)
    expected = np.exp(-(xs ** 2) / 2) / (2 * math.pi)
    assert np.allclose(wigner_ss(xs, 0.0, 0.0, 1.0), expected, atol=1e-12)


def test_small_ratio_series_continuous():
    # the odd sector switches to its first-order series below 1e-8; the seam
    # gap is the O(ratio) series remainder, a few parts in 1e9 at the switch
    xs = np.linspace(0, 6, 61)
    below = wigner_ss(xs, 0.0, 0.999e-8, 0.3)
    above = wigner_ss(xs, 0.0, 1.001e-8, 0.3)
    assert np.abs(below - above).max() < 5e-9


def test_coordinate_consistency():
    rng = np.random.default_rng(7)
    k, wp = 0.3, 0.45
    for _ in range(100):
        x, y = rng.uniform(-4, 4, size=2)
        alpha = 0.5 * (x + 1j * y)
        assert wigner_ss_complex(alpha, k, wp) == pytest.approx(
            4.0 * wigner_ss(x, y, k, wp), rel=1e-14
        )


def test_polar_measure_normalization():
    for k, wp in [(0.2, 0.4), (0.5, 0.55)]:
        total, err = quad(lambda r: 2 * math.pi * wigner_ss_polar(r, 0.0, k, wp), 0, 40)
        assert abs(total - 1.0) < 1e-8
        assert err < 1e-9


def test_cartesian_normalization_by_quadrature():
    # radial reduction of the plane integral: 2 pi r W(r along an axis)
    k, wp = 0.35, 0.6
    total, _ = quad(lambda t: 2 * math.pi * t * wigner_ss(t, 0.0, k, wp), 0, 40)
    assert abs(total - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# limit-cycle radius and phases
# ---------------------------------------------------------------------------

def test_boundary_examples():
    # even weight 0.6 sits on the boundary at ratio 3/7
    assert phase_boundary(3.0 / 7.0) == pytest.approx(0.6, abs=1e-12)
    assert limit_cycle_radius(3.0 / 7.0, 0.6) == 0.0


def test_radius_zero_in_stable_phase():
    assert limit_cycle_radius(0.6, 0.9) == 0.0


def test_radius_matches_scan(monkeypatch):
    monkeypatch.setattr(analytic, "SCAN_POINTS", 1 << 17)
    for k, wp in [(0.1, 0.55), (0.2, 0.4), (0.5, 0.55), (0.6, 0.53), (0.9, 0.1)]:
        r_formula = limit_cycle_radius(k, wp)
        r_scan = scan_radius(k, wp)
        spacing = 2.0 * math.sqrt(mean_n_ss(k, wp) + 3.0) / ((1 << 17) - 1)
        assert abs(r_formula - r_scan) <= spacing
        if k == 0.1 and wp == 0.55:
            assert abs(r_formula - r_scan) < 1e-4  # fine-scan agreement


def test_phase_reference_points():
    assert phase_classify(0.6, 0.9).phase is Phase.STABLE_ORIGIN
    assert phase_classify(0.1, 0.55).phase is Phase.POSITIVE_CYCLE
    assert phase_classify(0.2, 0.4).phase is Phase.NEGATIVE_CYCLE
    assert phase_classify(0.6, 0.53).phase is Phase.POSITIVE_CYCLE


def test_phase_boundary_ties():
    k = 0.25
    at_boundary = phase_classify(k, phase_boundary(k))
    assert at_boundary.phase is Phase.STABLE_ORIGIN
    assert at_boundary.r_star == 0.0
    at_half = phase_classify(k, 0.5)
    assert at_half.phase is Phase.POSITIVE_CYCLE
    assert at_half.w0 == pytest.approx(0.0, abs=1e-15)


def test_radial_negativity_equivalence():
    # min of W(r) dips negative exactly when the origin value is negative
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 12.0, 1500)
    for _ in range(1000):
        k = rng.uniform(0.01, 0.99)
        wp = rng.uniform(0.0, 1.0)
        profile = wigner_radial(grid, k, wp)
        assert (profile.min() < 0) == (wigner_radial(0.0, k, wp) < 0)


# ---------------------------------------------------------------------------
# amplitude scaling at cycle birth
# ---------------------------------------------------------------------------

def test_hopf_slope_is_square_root():
    k_c = 0.25
    wp_c = phase_boundary(k_c)
    offsets = np.geomspace(1e-5, 1e-3, 9)
    for direction in ("wp_plus", "k_ratio"):
        fit = hopf_scaling(k_c, wp_c, direction, offsets)
        assert abs(fit.slope - 0.5) < 0.02


def test_hopf_coefficient_consistent_with_brute_force(monkeypatch):
    # the fitted prefactor must agree with a scan-based fit, closing the loop
    # on the closed-form radius independently of any quoted constant
    k_c = 0.25
    wp_c = phase_boundary(k_c)
    offsets = np.geomspace(1e-4, 1e-3, 5)
    fit = hopf_scaling(k_c, wp_c, "wp_plus", offsets)
    monkeypatch.setattr(analytic, "SCAN_POINTS", 1 << 16)
    scan_radii = np.array([scan_radius(k_c, wp_c - d) for d in offsets])
    root = np.sqrt(offsets)
    scan_coeff = float(root @ scan_radii / (root @ root))
    assert fit.coefficient == pytest.approx(scan_coeff, rel=2e-3)
    # local linearization of the closed form: 2 (1 + k) / (1 - k)
    assert fit.coefficient == pytest.approx(2 * (1 + k_c) / (1 - k_c), rel=1e-2)


def test_hopf_k_coefficient_local_value():
    k_c = 0.25
    fit = hopf_scaling(k_c, phase_boundary(k_c), "k_ratio", np.geomspace(1e-5, 1e-4, 5))
    assert fit.coefficient == pytest.approx(math.sqrt(2) / (1 - k_c), rel=1e-2)


def test_hopf_rejects_off_boundary_start():
    with pytest.raises(AnalyticError):
        hopf_scaling(0.25, 0.6, "wp_plus", np.array([1e-4, 1e-3]))


def test_hopf_rejects_bad_offsets():
    k_c = 0.25
    wp_c = phase_boundary(k_c)
    with pytest.raises(AnalyticError):
        hopf_scaling(k_c, wp_c, "wp_plus", np.array([1e-4, 5e-2]))  # too large
    with pytest.raises(AnalyticError):
        hopf_scaling(k_c, wp_c, "wp_plus", np.array([-1e-3, 1e-3]))  # signed


def test_hopf_offset_that_leaves_its_parameter_unchanged_is_refused():
    # wp_c - 1e-18 == wp_c: the step stays on the boundary, and crosses nothing
    wp_c = phase_boundary(0.25)
    assert wp_c - 1e-18 == wp_c
    with pytest.raises(AnalyticError, match="offset 1e-18 leaves wp_plus unchanged") as err:
        hopf_scaling(0.25, wp_c, "wp_plus", [1e-18, 1e-3])
    assert not isinstance(err.value, BoundaryCrossError)


def test_hopf_offset_that_rounds_the_radius_to_zero_crosses_the_boundary():
    # two float spacings below k_c the ratio moves, but phase_boundary(k) still rounds to wp_c
    wp_c = phase_boundary(0.25)
    assert limit_cycle_radius(0.25 - 2 * np.spacing(0.25), wp_c) == 0.0
    with pytest.raises(BoundaryCrossError,
                       match=r"to \(0.2499999999999999, 0.65\), but the radius there rounds to 0"):
        hopf_scaling(0.25, wp_c, "k_ratio", [2 * np.spacing(0.25), 1e-3])
    # a start inside the 1e-9 tolerance but above the boundary: the step does not leave it
    with pytest.raises(BoundaryCrossError, match=r"0.6500000004\), but the radius there rounds"):
        hopf_scaling(0.25, wp_c + 5e-10, "wp_plus", [1e-10, 1e-3])


# ---------------------------------------------------------------------------
# photon statistics
# ---------------------------------------------------------------------------

def test_mandel_floor():
    assert mandel_q(0.0, 0.0) == -1.0


def test_mandel_half_mixture():
    assert mandel_q(0.0, 0.5) == pytest.approx(-0.5, abs=1e-14)
    rho = rho_ss_analytic(0.0, 0.5, 10)
    n = np.arange(10)
    pops = np.diag(rho).real
    mean = n @ pops
    var = (n ** 2) @ pops - mean ** 2
    assert var / mean - 1.0 == pytest.approx(-0.5, abs=1e-14)


def test_mandel_diverges_toward_unit_ratio():
    q = mandel_q(1 - 1e-9, 0.5)
    assert q > 1e8
    assert sigmoid(q) == pytest.approx(1.0)


def test_mandel_undefined_marker():
    assert math.isnan(mandel_q(0.0, 1.0))


def test_region_matches_q_sign():
    rng = np.random.default_rng(13)
    for _ in range(500):
        k = rng.uniform(0.0, 0.999)
        wp = rng.uniform(0.0, 0.999)
        q = mandel_q(k, wp)
        if abs(q) > 1e-12:
            assert nonclassical_region(k, wp) == (q < 0)


@pytest.mark.parametrize("k, wp, sub_poissonian, least_w", [
    (0.3, 0.3, False, -0.0637),  # Wigner-negative, yet super-Poissonian
    (0.05, 0.6, True, 0.0),      # sub-Poissonian, yet W >= 0
])
def test_region_is_not_where_the_wigner_function_is_negative(k, wp, sub_poissonian, least_w):
    r = np.linspace(0.0, 12.0, 1201)
    assert nonclassical_region(k, wp) == sub_poissonian
    assert wigner_ss(r, 0.0, k, wp).min() == pytest.approx(least_w, abs=1e-4)


def test_region_boundary_is_q_zero_level_set():
    for wp in np.linspace(0.0, 0.95, 20):
        bound = (math.sqrt(5 - 4 * wp * (2 - wp)) - 3) / (1 + wp * (2 - wp)) + 1
        if bound > 1e-8:
            assert abs(mandel_q(bound, wp)) < 1e-10


# ---------------------------------------------------------------------------
# coherent thresholds and tail
# ---------------------------------------------------------------------------

def test_coherent_zero_energy():
    wp, cycles = coherent_thresholds(0.0, 0.3)
    assert wp == 1.0
    assert not cycles


def test_coherent_threshold_zero_ratio_limit():
    # threshold at vanishing ratio: ln(2)/2
    assert coherent_cycle_threshold(1e-12) == pytest.approx(0.5 * math.log(2), rel=1e-9)


def test_coherent_threshold_diverges():
    assert coherent_cycle_threshold(1 - 1e-12) > 10.0


def test_coherent_never_reaches_negative_phase():
    for v in np.linspace(0.0, 15.0, 100):
        assert coherent_even_weight(v) > 0.5
    # saturates the bound from above at high energy, past the float range of cosh too
    assert coherent_even_weight(200.0) >= 0.5
    assert coherent_even_weight(800.0) == coherent_even_weight(1000.0) == 0.5


def test_coherent_threshold_consistent_with_boundary():
    # crossing the energy threshold is exactly crossing the phase boundary
    k = 0.4
    v = coherent_cycle_threshold(k)
    assert coherent_even_weight(v) == pytest.approx(phase_boundary(k), rel=1e-12)
