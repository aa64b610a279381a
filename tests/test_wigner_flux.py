"""Grid generator residuals, current assembly, and the flux decomposition."""

import math

import numpy as np
import pytest

from noisecycle.analytic import rho_ss_analytic, wigner_ss
from noisecycle.fock import Generator, ModelKind, ModelParams, fock_state
from noisecycle.lindblad import evolve, wigner_numeric
from noisecycle.wignerflux import (
    BoundaryContaminationError,
    _dx4,
    _dxxx,
    FluxDecomposition,
    WignerField,
    WignerGridError,
    default_extent,
    divergence,
    dx,
    dxx,
    field_to_csv,
    flux_decompose,
    interior,
    make_grid,
    max_flux_norm,
    sample_steady_field,
    wigner_current,
    wigner_generator_apply,
)

NI = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)


def gaussian_field(extent=6.0, h=0.05, width=3.0):
    grid = make_grid(extent, h)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    return WignerField(x=grid, y=grid, w=np.exp(-(X ** 2 + Y ** 2) / width))


# ---------------------------------------------------------------------------
# field plumbing
# ---------------------------------------------------------------------------

def test_field_rejects_non_uniform_grid():
    x = np.array([0.0, 0.1, 0.3])
    with pytest.raises(WignerGridError):
        WignerField(x=x, y=x, w=np.zeros((3, 3)))


def test_steady_field_mass():
    field = sample_steady_field(0.5, 0.55, extent=16.0, h=0.05)
    assert abs(field.mass() - 1.0) < 1e-4


def test_default_extent_covers_bulk():
    # the default extent rule tracks the tail-Gaussian support: it always
    # contains the cycle and the bulk of the mass; slow tails need more room
    from noisecycle.analytic import limit_cycle_radius

    for k, wp in [(0.2, 0.4), (0.5, 0.55), (0.8, 0.4)]:
        extent = default_extent(k, wp)
        assert extent > 2.0 * limit_cycle_radius(k, wp) + 2.0
        field = sample_steady_field(k, wp, extent=extent, h=0.1)
        assert field.mass() > 0.95


def test_boundary_contamination_raises():
    field = sample_steady_field(0.5, 0.55, extent=6.0, h=0.1)
    with pytest.raises(BoundaryContaminationError):
        wigner_generator_apply(field, NI)


def test_generator_requires_noise_induced_params():
    conv = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up1=0.2, kind=ModelKind.CONVENTIONAL)
    with pytest.raises(WignerGridError):
        wigner_generator_apply(gaussian_field(), conv, boundary_tol=1.0)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stencil, derivative, degree, ring", [
    (dx, 1, 2, 1), (dxx, 2, 3, 1), (_dx4, 1, 4, 2), (_dxxx, 3, 6, 3),
], ids=["dx", "dxx", "dx4", "dxxx"])
def test_stencil_exact_on_polynomials(stencil, derivative, degree, ring):
    # exact up to rounding on polynomials up to the stencil's degree, not one
    # degree higher, along either axis; the outer ring along that axis is zero
    h = 0.25
    t = make_grid(2.0, h)
    other = np.linspace(0.5, 1.5, 11)
    for axis in (0, 1):
        for deg, exact in ((degree, True), (degree + 1, False)):
            poly = np.polynomial.Polynomial(np.arange(1.0, deg + 2.0))
            f = np.moveaxis(np.multiply.outer(poly(t), other), 0, axis)
            got = np.moveaxis(stencil(f, h, axis), axis, 0)
            want = np.multiply.outer(poly.deriv(derivative)(t), other)
            assert not got[:ring].any() and not got[-ring:].any()
            gap = np.abs(got - want)[ring:-ring].max()
            assert (gap <= 1e-9 * np.abs(want).max()) == exact


# ---------------------------------------------------------------------------
# generator residual
# ---------------------------------------------------------------------------

def test_steady_state_residual_refines_second_order():
    results = {}
    for h in (0.1, 0.05):
        field = sample_steady_field(0.3, 0.6, extent=14.0, h=h)
        res = wigner_generator_apply(field, ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3))
        results[h] = float(np.abs(interior(res)).max())
    order = math.log2(results[0.1] / results[0.05])
    assert 1.7 <= order <= 2.3


def test_rotation_only_generator_on_radial_field():
    # pure rotation annihilates radial fields; the discrete residual is the
    # stencil's own O(h^2) remainder and vanishes exactly on the axes
    params = ModelParams(omega0=1.5, kappa_down=1e-300)  # loss must be positive
    field = gaussian_field(extent=6.0, h=0.05)
    res = wigner_generator_apply(field, params, boundary_tol=1e-4)
    center = field.x.size // 2
    # on the symmetry axes the stencil cancellation is exact up to grid roundoff
    assert np.abs(res[center, :]).max() < 1e-13
    assert np.abs(res[:, center]).max() < 1e-13
    assert np.abs(interior(res)).max() < 5e-3 * params.omega0
    fine = gaussian_field(extent=6.0, h=0.025)
    res_fine = wigner_generator_apply(fine, params, boundary_tol=1e-4)
    order = math.log2(np.abs(interior(res)).max() / np.abs(interior(res_fine)).max())
    assert 1.7 <= order <= 2.3


def test_generator_matches_matrix_side_time_derivative():
    # two-route consistency: grid generator on the vacuum Gaussian vs the
    # time derivative of the displaced-parity values under matrix evolution
    params = ModelParams(omega0=0.6, kappa_down=1.0, kappa_up2=0.0)
    dim = 24
    gen = Generator(params, dim)
    rho0 = fock_state(dim, 0)

    h = 0.025
    field = sample_steady_field(0.0, 1.0, extent=5.0, h=h)  # vacuum Gaussian
    grid_rate = wigner_generator_apply(field, params, boundary_tol=1e-4)

    rng = np.random.default_rng(2)
    idx = field.x.size
    picks = [(rng.integers(4, idx - 4), rng.integers(4, idx - 4)) for _ in range(25)]
    pts = np.array([(field.x[i], field.y[j]) for i, j in picks])

    dt = 5e-3
    w0 = wigner_numeric(rho0, pts)
    w1 = wigner_numeric(evolve(rho0, gen, dt), pts)
    w2 = wigner_numeric(evolve(rho0, gen, 2 * dt), pts)
    matrix_rate = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * dt)

    grid_vals = np.array([grid_rate[i, j] for i, j in picks])
    assert np.abs(grid_vals - matrix_rate).max() < 1e-4


# ---------------------------------------------------------------------------
# current and decomposition
# ---------------------------------------------------------------------------

def test_divergence_identity_on_smooth_field():
    field = gaussian_field(extent=6.0, h=0.05, width=3.0)
    gen = wigner_generator_apply(field, NI, boundary_tol=1e-4)
    jx, jy = wigner_current(field, NI, boundary_tol=1e-4)
    div = divergence(jx, jy, field.h)
    mismatch = np.abs(interior(div + gen, cells=6)).max()
    assert mismatch < 2e-2 * np.abs(interior(gen, cells=6)).max()
    fine = gaussian_field(extent=6.0, h=0.025, width=3.0)
    gen_f = wigner_generator_apply(fine, NI, boundary_tol=1e-4)
    jx_f, jy_f = wigner_current(fine, NI, boundary_tol=1e-4)
    mismatch_f = np.abs(interior(divergence(jx_f, jy_f, fine.h) + gen_f, cells=12)).max()
    order = math.log2(mismatch / mismatch_f)
    assert 1.5 <= order <= 2.5


def test_steady_current_is_rotational():
    field = sample_steady_field(0.5, 0.55, extent=16.0, h=0.05)
    jx, jy = wigner_current(field, NI)
    X, Y = np.meshgrid(field.x, field.y, indexing="ij")
    expected_x = NI.omega0 * Y * field.w
    expected_y = -NI.omega0 * X * field.w
    scale = np.hypot(expected_x, expected_y).max()
    assert np.abs(interior(jx - expected_x)).max() < 1e-3 * scale
    assert np.abs(interior(jy - expected_y)).max() < 1e-3 * scale


def test_steady_flux_decomposition_small_irreversible_part():
    # reference configuration: ratio at h=0.05 below 1e-3 (and L=8 matches)
    field = sample_steady_field(0.5, 0.55, extent=8.0, h=0.05)
    jx, jy = wigner_current(field, NI, boundary_tol=1e-2)
    decomp = flux_decompose(field, jx, jy, NI)
    ratio = max_flux_norm(decomp.j_irr_x, decomp.j_irr_y) / max_flux_norm(
        decomp.j_rev_x, decomp.j_rev_y
    )
    assert ratio < 1e-3


def test_zero_rotation_steady_current_vanishes():
    params = ModelParams(omega0=0.0, kappa_down=1.0, kappa_up2=0.5)
    norms = {}
    for h in (0.05, 0.025):
        field = sample_steady_field(0.5, 0.55, extent=16.0, h=h)
        jx, jy = wigner_current(field, params)
        norms[h] = max_flux_norm(jx, jy)
    assert norms[0.05] < 1e-4  # pure radial relaxation leaves no current
    order = math.log2(norms[0.05] / norms[0.025])
    assert 1.7 <= order <= 2.3


def test_displaced_state_has_irreversible_flux():
    grid = make_grid(7.0, 0.05)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    displaced = np.exp(-((X - 1.0) ** 2 + Y ** 2) / 2.0) / (2 * math.pi)
    field = WignerField(x=grid, y=grid, w=displaced)
    jx, jy = wigner_current(field, NI, boundary_tol=1e-4)
    decomp = flux_decompose(field, jx, jy, NI)
    irr = max_flux_norm(decomp.j_irr_x, decomp.j_irr_y)
    rev = max_flux_norm(decomp.j_rev_x, decomp.j_rev_y)
    assert irr > 0.1 * rev


def test_reversible_divergence_vanishes_on_radial_fields():
    field = sample_steady_field(0.4, 0.6, extent=14.0, h=0.05)
    X, Y = np.meshgrid(field.x, field.y, indexing="ij")
    div = divergence(NI.omega0 * Y * field.w, -NI.omega0 * X * field.w, field.h)
    assert np.abs(interior(div)).max() < 1e-3 * np.abs(field.w).max()


def test_field_csv_round_trip(tmp_path):
    field = sample_steady_field(0.3, 0.6, extent=13.0, h=0.5)
    jx, jy = wigner_current(field, ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.3),
                            boundary_tol=1e-3)
    decomp = flux_decompose(field, jx, jy, NI)
    out = tmp_path / "field.csv"
    field_to_csv(out, field, jx, jy, decomp, header_lines=["test dump"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# test dump"
    assert lines[1] == "x,y,w,jx,jy,j_irr_x,j_irr_y"
    assert len(lines) == 2 + field.x.size ** 2
    first = np.array(lines[2].split(","), dtype=float)
    assert first[0] == field.x[0] and first[1] == field.y[0]
