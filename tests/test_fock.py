"""Operator algebra, superoperator assembly, and generator symmetries."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from noisecycle.fock import (
    FockError,
    MIN_DIM,
    ModelKind,
    ModelParams,
    NoStationaryStateError,
    coherent_state,
    coherent_tail,
    Generator,
    default_dim,
    dim_for_tail,
    fock_state,
    liouvillian,
)
from noisecycle.analytic import rho_ss_analytic

NI = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.5)
CONV = ModelParams(omega0=1.0, kappa_down=1.0, kappa_up1=0.3, kind=ModelKind.CONVENTIONAL)


def build_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators on a dim-level Fock space, as dense matrices."""
    if dim < 2:
        raise FockError(f"Fock dimension must be >= 2, got {dim}")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return a, a.conj().T


def quadrature_x(dim: int) -> np.ndarray:
    a, ad = build_ladder(dim)
    return a + ad


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def parity_op(dim: int) -> np.ndarray:
    """Photon-number parity (-1)**n, diagonal and involutive."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def test_ladder_two_levels():
    a, ad = build_ladder(2)
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(ad, a.conj().T)


def test_ladder_matrix_elements():
    a, _ = build_ladder(4)
    assert a[2, 3] == pytest.approx(np.sqrt(3))
    assert np.count_nonzero(a) == 3


def test_commutator_truncation_artifact():
    a, ad = build_ladder(16)
    comm = a @ ad - ad @ a
    # truncation corrupts only the last diagonal entry: 1 - 16 = -15
    assert comm[15, 15] == pytest.approx(-15.0)
    clean = comm.copy()
    clean[15, 15] = 1.0
    assert np.allclose(clean, np.eye(16), atol=1e-14)


def test_ladder_rejects_tiny_dimension():
    with pytest.raises(FockError):
        build_ladder(1)
    with pytest.raises(FockError):
        Generator(NI, 1)


def test_parity_is_involutive():
    P = parity_op(9)
    assert np.array_equal(P @ P, np.eye(9, dtype=complex))
    assert np.array_equal(np.diag(P).real, (-1.0) ** np.arange(9))


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

def test_params_reject_mixed_gains():
    with pytest.raises(FockError):
        ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.1, kappa_up1=0.1)
    with pytest.raises(FockError):
        ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.1, kind=ModelKind.CONVENTIONAL)


def test_params_reject_saturated_gain():
    with pytest.raises(NoStationaryStateError):
        ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["omega0", "kappa_down", "kappa_up2", "kappa_up1"])
@pytest.mark.parametrize("base", [pytest.param(NI, id="noise-induced"),
                                  pytest.param(CONV, id="conventional")])
def test_params_reject_non_finite_rates(base, field, value):
    # the generator's per-grid arithmetic is exact only for finite rates
    with pytest.raises(FockError) as err:
        replace(base, **{field: value})
    assert err.value.field == field


def test_truncation_rule():
    assert dim_for_tail(0.5) == 80
    assert dim_for_tail(0.0) == MIN_DIM
    assert dim_for_tail(0.9) == 526  # no ceiling: the rule's own dim
    assert default_dim(NI) == 80
    assert default_dim(CONV) >= MIN_DIM
    # dropped tail mass is bounded as designed
    k = 0.5
    assert k ** (dim_for_tail(k) / 2) < 1e-12


def test_default_dim_of_an_overflowing_gain_ratio_is_a_fock_error():
    # both rates are finite, their ratio is not
    params = ModelParams(omega0=1.0, kappa_down=1e-300, kappa_up1=1e300,
                         kind=ModelKind.CONVENTIONAL)
    with pytest.raises(FockError) as err:
        default_dim(params)
    assert err.value.field == "kappa_up1"
    # a large finite ratio takes the rule, which has no ceiling: its mean is 5e299
    assert default_dim(replace(params, kappa_down=1.0)) >= 5e299


@pytest.mark.parametrize("k_ratio, dim", [(0.9, 526), (0.95, 1078), (0.99, 5500),
                                          (0.999, 55236)])
def test_tail_rule_has_no_ceiling(k_ratio, dim):
    # the smallest even dim with k^(dim/2) < 1e-12
    assert dim_for_tail(k_ratio) == dim
    assert k_ratio ** (dim / 2) < 1e-12 <= k_ratio ** (dim / 2 - 1)
    assert default_dim(replace(NI, kappa_up2=k_ratio)) == dim


def clamped_rule(params):
    """The old default dims, clamped to [20, 400], with the conventional sqrt rule."""
    if params.kind is ModelKind.NOISE_INDUCED:
        n = 2 * math.ceil(12.0 / -math.log10(params.k_ratio)) if params.k_ratio else 0
    else:
        n = 2 * math.ceil(4.0 * math.sqrt(params.kappa_up1 / params.kappa_down) + 6.0)
    return min(max(n, 20), 400)


def test_default_dims_in_use_keep_their_values():
    models = [
        # the benchmark's steady requests, k in [0.05, 0.5] (dims 20-80); its evolve
        # requests, k in [0.1, 0.3]; and the verify checks' tail-rule ratios, up to 0.8
        *(replace(NI, kappa_up2=float(k)) for k in np.linspace(0.0, 0.8, 161)),
        # the benchmark's conventional steady requests, kappa_up1 / kappa_down in [0.12, 1]
        *(replace(CONV, kappa_up1=float(r)) for r in np.linspace(0.12, 1.0, 45)),
    ]
    assert [p for p in models if default_dim(p) != clamped_rule(p)] == []
    assert [dim_for_tail(k) for k in (0.05, 0.1, 0.3, 0.5, 0.8)] == [20, 24, 46, 80, 248]
    assert dim_for_tail(0.8, decades=16.0) == 332


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_ratio_and_amplitude_are_rejected(value):
    with pytest.raises(FockError):
        dim_for_tail(value)
    with pytest.raises(FockError):
        coherent_state(12, complex(value, 0.0))
    with pytest.raises(FockError):
        coherent_state(12, complex(0.0, value))


@pytest.mark.parametrize("dim,alpha", [
    (20, 1e200),   # the cumulative product overflows at its second factor
    (1600, 30.0),  # every amplitude is finite, the sum of their squares is not
    (1500, 40.0),  # the cumulative product overflows on its way to the largest amplitude
])
def test_coherent_state_past_the_float_range_is_rejected(dim, alpha):
    with pytest.raises(FockError, match=re.escape(f"amplitude {alpha} ") + f".*dim {dim}"):
        coherent_state(dim, alpha)


def test_coherent_state_below_the_float_range_is_a_state():
    # the largest amplitude, near n = 400, is 1e87
    rho = coherent_state(1000, 20.0)
    assert np.all(np.isfinite(rho)) and abs(np.trace(rho).real - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------

def test_coherent_state_vacuum_is_exact():
    expected = np.zeros((12, 12), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(coherent_state(12, 0), expected)


def test_coherent_state_matches_poisson_amplitudes():
    # |alpha> = exp(-|alpha|^2 / 2) sum_n alpha^n / sqrt(n!) |n>; the tail past
    # n = 39 is far below rounding at |alpha| = 0.8
    alpha = 0.8 * np.exp(0.7j)
    rho = coherent_state(40, alpha)
    n = np.arange(40)
    pops = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / np.array(
        [math.factorial(k) for k in n], dtype=float)
    assert np.abs(np.diag(rho).real - pops).max() < 1e-14
    # phases: rho_{n0} = |c_n| |c_0| e^{i 0.7 n}
    expected = np.sqrt(pops * pops[0]) * np.exp(0.7j * n)
    assert np.abs(rho[:, 0] - expected).max() < 1e-14


@pytest.mark.parametrize("dim, alpha", [(80, 8.0), (80, 5.0), (20, 3j), (46, 1.0 + 0.5j),
                                        (100, 10.0), (60, 10.0), (12, 0.0)])
def test_coherent_tail_is_the_mass_above_the_truncation(dim, alpha):
    # the populations of the state truncated at dim 400, where less than 1e-90
    # of it is left out, summed from dim on; (60, 10) lies below the mean
    wide = np.diag(coherent_state(400, alpha)).real
    assert coherent_tail(dim, alpha) == pytest.approx(wide[dim:].sum(), rel=1e-12, abs=1e-300)


def test_coherent_tail_of_an_amplitude_far_past_the_dim_is_everything():
    assert coherent_tail(2, 1e100) == 1.0


def test_vectorize_identity_column_stacking():
    assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_vectorize_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(devectorize(vectorize(m)), m)


def test_devectorize_rejects_non_square():
    with pytest.raises(FockError):
        devectorize(np.arange(5))


def test_sandwich_identity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, rho, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                     for _ in range(3))
        direct = vectorize(a @ rho @ b)
        via_kron = sandwich(a, b) @ vectorize(rho)
        assert np.allclose(direct, via_kron, atol=1e-13)


# ---------------------------------------------------------------------------
# the CSR bridge: the grids as a dim^2 x dim^2 matrix
# ---------------------------------------------------------------------------

# The references (the Kronecker-product terms, expm_multiply, dense null
# spaces) act on column-stacked (Fortran-order) vectorizations,
# vec(A rho B) = kron(B.T, A) vec(rho), so rho[p, q] sits at vec row
# r = p + q dim, and jump k lies on the vec diagonal whose column is
# r + k (dim + 1).

def vectorize(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise FockError(f"expected a square matrix, got shape {mat.shape}")
    return mat.reshape(-1, order="F")


def devectorize(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec).reshape(-1)
    dim = math.isqrt(vec.size)
    if dim * dim != vec.size:
        raise FockError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape((dim, dim), order="F")


def tocsr(gen: Generator) -> sp.csr_matrix:
    """The grids as a CSR matrix, written diagonal by diagonal; zeros are not stored.

    A transposed grid read in C order runs over the vec rows.  Visiting the
    jumps in ascending k, with the diagonal as k = 0, leaves every row's
    columns sorted, without a sort.
    """
    dim = gen.dim
    n = dim * dim
    diag, jumps = dense_grids(gen)
    bands = [(k, grid.T) for k, grid in sorted({0: diag, **jumps}.items())]
    stored = [(grid != 0).reshape(-1) for _, grid in bands]
    # nnz is at most one entry per row and band
    index = np.int32 if len(bands) * n < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(sum(stored), out=indptr[1:])
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=index)
    fill = indptr[:-1].copy()  # next free slot of each row
    for (k, grid), mask in zip(bands, stored):
        at = fill[mask]
        data[at] = grid[mask.reshape(grid.shape)]
        indices[at] = np.flatnonzero(mask) + k * (dim + 1)
        fill += mask
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def liouvillian_csr(params: ModelParams, dim: int) -> sp.csr_matrix:
    """The model generator as a CSR matrix; byte for byte ``reference_liouvillian``."""
    return tocsr(Generator(params, dim))


# ---------------------------------------------------------------------------
# dissipator
# ---------------------------------------------------------------------------

def test_dissipator_of_zero_operator():
    d = dissipator(np.zeros((6, 6)))
    assert d.nnz == 0 or abs(d).max() == 0


def test_dissipator_single_photon_decay():
    a, _ = build_ladder(4)
    result = apply_super(dissipator(a), fock_state(4, 1))
    assert np.allclose(result, fock_state(4, 0) - fock_state(4, 1), atol=1e-14)


def test_dissipator_two_photon_decay():
    a, _ = build_ladder(6)
    result = apply_super(dissipator(a @ a), fock_state(6, 2))
    expected = 2.0 * (fock_state(6, 0) - fock_state(6, 2))
    assert np.allclose(result, expected, atol=1e-14)


def test_dissipator_traceless_hermitian_output():
    rng = np.random.default_rng(2)
    a, ad = build_ladder(8)
    d = dissipator(a @ a)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    out = apply_super(d, rho)
    assert abs(np.trace(out)) < 1e-12 * np.abs(out).max()
    assert np.linalg.norm(out - out.conj().T) < 1e-12 * np.abs(out).max()


@pytest.mark.parametrize("make_op", [
    pytest.param(lambda: build_ladder(12)[0] @ build_ladder(12)[0], id="two-photon-loss"),
    pytest.param(lambda: quadrature_x(12), id="x-quadrature"),
])
def test_dissipator_accepts_sparse_operator(make_op):
    op = make_op()
    dense, sparse = dissipator(op), dissipator(sp.csr_matrix(op))
    assert np.array_equal(dense.indptr, sparse.indptr)
    assert np.array_equal(dense.indices, sparse.indices)
    assert dense.data.tobytes() == sparse.data.tobytes()


def test_dissipator_rejects_non_square_operator():
    with pytest.raises(FockError):
        dissipator(np.zeros((3, 4)))
    with pytest.raises(FockError):
        dissipator(sp.csr_matrix(np.zeros((3, 4))))


def test_apply_super_dimension_mismatch():
    d = dissipator(np.zeros((4, 4)))
    with pytest.raises(FockError):
        apply_super(d, np.eye(5))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# general-operand superoperators, one sp.kron per product: the references for
# the per-diagonal assembly and for the detailed-balance residual

def sandwich(left_op, right_op) -> sp.csr_matrix:
    """Superoperator for rho -> left_op @ rho @ right_op; dense or sparse operands.

    One-sided products are ``sandwich(op, eye)`` and ``sandwich(eye, op)``
    with a sparse identity.
    """
    return sp.kron(sp.csr_matrix(right_op).T, sp.csr_matrix(left_op), format="csr")


def apply_super(superop: sp.spmatrix, rho: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    if superop.shape[1] != dim * dim:
        raise FockError(
            f"superoperator of size {superop.shape[1]} cannot act on a {dim}x{dim} matrix"
        )
    return devectorize(superop @ vectorize(rho))


def dissipator(c) -> sp.csr_matrix:
    """Matrix form of rho -> c rho c^dag - (c^dag c rho + rho c^dag c)/2.

    ``c`` may be dense or sparse; the products run on its sparse form, so a
    banded operator costs only its nonzeros.
    """
    shape = np.shape(c)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise FockError(f"Lindblad operator must be square, got shape {shape}")
    c = sp.csr_matrix(c, dtype=complex)
    cd = c.conj().T
    cdc = cd @ c
    eye = sp.identity(shape[0], dtype=complex, format="csr")
    return (sandwich(c, cd) - 0.5 * sandwich(cdc, eye) - 0.5 * sandwich(eye, cdc)).tocsr()


def dense_grids(gen: Generator) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The generator's dim x dim grids, the diagonal and {k: jump k}, read at every entry."""
    p, q = np.indices((gen.dim, gen.dim))
    return gen.diag(p, q), {k: gen.jump(k, p, q) for k in gen.channels}


def dense_apply(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """L(rho) on the whole matrix: the dense grids, one shifted product per jump."""
    diag, jumps = dense_grids(gen)
    out = diag * rho
    for k, grid in jumps.items():
        to, src = gen.reach(k, gen.dim)
        out[to, to] += grid[to, to] * rho[src, src]
    return out


def apply_by_order(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """L(rho) assembled from ``Generator.apply_order`` on every diagonal of rho."""
    out = np.zeros(rho.shape, dtype=complex)
    for m in range(1 - gen.dim, gen.dim):
        p = np.arange(max(-m, 0), gen.dim - max(m, 0))
        out[p, p + m] = gen.apply_order(m, np.diagonal(rho, m))
    return out


def reference_liouvillian(params: ModelParams, dim: int) -> sp.csr_matrix:
    """The generator from dense ladder products and one sp.kron per term."""
    a, ad = build_ladder(dim)
    eye = sp.identity(dim, dtype=complex)

    def left(op):
        return sp.kron(eye, sp.csr_matrix(op), format="csr")

    def right(op):
        return sp.kron(sp.csr_matrix(op).T, eye, format="csr")

    def dense_dissipator(c):
        cdc = c.conj().T @ c
        both = sp.kron(sp.csr_matrix(c.conj().T).T, sp.csr_matrix(c), format="csr")
        return (both - 0.5 * left(cdc) - 0.5 * right(cdc)).tocsr()

    rotation = (-1j * (left(number_op(dim)) - right(number_op(dim)))).tocsr()
    gen = params.omega0 * rotation + params.kappa_down * dense_dissipator(a @ a)
    if params.kappa_up2 > 0:
        gen = gen + params.kappa_up2 * dense_dissipator(ad @ ad)
    if params.kappa_up1 > 0:
        gen = gen + params.kappa_up1 * dense_dissipator(ad)
    return gen.tocsr()


# dims 2 and 3 put the two-photon terms' diagonals +-2(dim + 1) outside the vec space
@pytest.mark.parametrize("dim", [2, 3, 6, 20, 46, 80])
@pytest.mark.parametrize("omega0", [0.0, 2.7, -0.3])
@pytest.mark.parametrize("params", [
    pytest.param(NI, id="noise-induced"),
    pytest.param(replace(NI, kappa_up2=0.0), id="noise-induced-k0"),
    pytest.param(replace(NI, kappa_up2=0.95), id="noise-induced-k0.95"),
    pytest.param(CONV, id="conventional"),
    pytest.param(replace(CONV, kappa_up1=0.0), id="conventional-no-gain"),
])
def test_liouvillian_equals_dense_product_reference(params, omega0, dim):
    params = replace(params, omega0=omega0)
    got = liouvillian_csr(params, dim).sorted_indices()
    ref = reference_liouvillian(params, dim).sorted_indices()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("dim", [6, 21, 46, 248])
@pytest.mark.parametrize("omega0", [0.0, -2.7, 1e3])
@pytest.mark.parametrize("k_ratio", [0.3, 0.8])
def test_rotation_turns_each_chain_at_one_phase(k_ratio, omega0, dim):
    # the photon numbers are exact, so the imaginary diagonal of every entry
    # of order m = q - p is omega0 m, and each chain rho[p + 2 j, q + 2 j]
    # repeats it bit for bit
    gen = Generator(ModelParams(omega0=omega0, kappa_down=1.0, kappa_up2=k_ratio), dim)
    p, q = np.indices((dim, dim))
    assert np.array_equal(gen.diag(p, q).imag, omega0 * (q - p))


# dims 2 and 3 also put the two-photon diagonals outside the vec space here
@pytest.mark.parametrize("dim", [2, 3, 6, 20, 46])
@pytest.mark.parametrize("omega0", [0.0, 2.7])
@pytest.mark.parametrize("params", [
    pytest.param(NI, id="noise-induced"),
    pytest.param(replace(NI, kappa_up2=0.95), id="noise-induced-k0.95"),
    pytest.param(CONV, id="conventional"),
])
def test_generator_diagonals_apply_as_the_csr_generator(params, omega0, dim):
    params = replace(params, omega0=omega0)
    gen = liouvillian_csr(params, dim)
    rng = np.random.default_rng(dim)
    rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    model = Generator(params, dim)
    got = vectorize(apply_by_order(model, rho))
    # the same products summed in another order; a fused multiply-add in
    # either one can move a complex product by an ulp
    bound = 1e-15 * (abs(gen) @ np.abs(vectorize(rho)))
    assert np.all(np.abs(got - gen @ vectorize(rho)) <= bound)
    # along each diagonal the products and sums are those of the whole-matrix form
    assert np.array_equal(got, vectorize(dense_apply(model, rho)))


def closed_form_grids(params: ModelParams, dim: int):
    """The generator's grids written out from each channel's matrix elements.

    Channel c moves k photons, c[n, n + k] = A_n: a a with k = 2 and
    A_n = sqrt((n + 1)(n + 2)), a^dag a^dag with k = -2 and A_n = sqrt(n (n - 1)),
    a^dag with k = -1 and A_n = sqrt(n); A_n is 0 where n + k falls off.  Its
    jump grid is rate A_p A_q, and it adds -rate (N_p + N_q) / 2 to the
    diagonal with N_n = (c^dag c)[n, n]: n (n - 1), (n + 1)(n + 2) and n + 1,
    each 0 where the gain would leave the truncation.
    """
    n = np.arange(dim, dtype=float)

    def on_grid(levels):
        return (levels >= 0) & (levels < dim)

    amps = {2: np.sqrt((n + 1) * (n + 2)), -2: np.sqrt(n * (n - 1)), -1: np.sqrt(n)}
    counts = {2: n * (n - 1), -2: (n + 1) * (n + 2), -1: n + 1}
    rates = {2: params.kappa_down, -2: params.kappa_up2, -1: params.kappa_up1}
    diag = -1j * params.omega0 * (n[:, None] - n)
    jumps = {}
    for k, rate in rates.items():
        amp = np.where(on_grid(n + k), amps[k], 0.0)
        count = np.where(on_grid(n - k), counts[k], 0.0)
        diag = diag - 0.5 * rate * (count[:, None] + count)
        if rate > 0:
            jumps[k] = rate * np.outer(amp, amp)
    return diag, jumps


# at dim 2 the two-photon jumps lie wholly off the grid, at dim 3 all but one entry
@pytest.mark.parametrize("dim", [2, 3, 20, 80])
@pytest.mark.parametrize("omega0", [1.0, -0.3])
@pytest.mark.parametrize("params", [
    pytest.param(NI, id="noise-induced"),
    pytest.param(replace(NI, kappa_up2=0.0), id="noise-induced-k0"),
    pytest.param(CONV, id="conventional"),
])
def test_generator_grids_match_the_closed_form(params, omega0, dim):
    params = replace(params, omega0=omega0)
    got_diag, got_jumps = dense_grids(Generator(params, dim))
    diag, jumps = closed_form_grids(params, dim)
    assert got_jumps.keys() == jumps.keys()
    np.testing.assert_allclose(got_diag, diag, rtol=1e-14, atol=0)
    for k, jump in jumps.items():
        np.testing.assert_allclose(got_jumps[k], jump, rtol=1e-14, atol=0)


@pytest.mark.parametrize("params", [
    pytest.param(NI, id="noise-induced"),
    pytest.param(replace(NI, kappa_up2=0.0), id="noise-induced-k0"),
    pytest.param(CONV, id="conventional"),
    pytest.param(replace(CONV, kappa_up1=0.0), id="conventional-no-gain"),
])
@pytest.mark.parametrize("dim", [3, 20])
def test_nnz_counts_the_entries_the_csr_stores(params, dim):
    gen = Generator(params, dim)
    assert gen.nnz == liouvillian_csr(params, dim).nnz


def test_the_older_name_is_the_generator_class():
    assert liouvillian is Generator


@pytest.mark.parametrize("dim", [2, 3, 4, 7, 20, 46])
@pytest.mark.parametrize("omega0", [0.0, 1.3, -0.3])
@pytest.mark.parametrize("params", [
    pytest.param(NI, id="noise-induced"),
    pytest.param(replace(NI, kappa_up2=0.0), id="noise-induced-k0"),
    pytest.param(CONV, id="conventional"),
    pytest.param(replace(CONV, kappa_up1=0.0), id="conventional-no-gain"),
])
def test_nnz_from_the_factors_counts_the_dense_grids(params, omega0, dim):
    gen = Generator(replace(params, omega0=omega0), dim)
    diag, jumps = dense_grids(gen)
    assert gen.nnz == sum(np.count_nonzero(grid) for grid in (diag, *jumps.values()))


def test_generator_counts_are_the_rolled_squares():
    gen = Generator(CONV, 12)
    for k, (_, amp) in gen.channels.items():
        assert gen.counts[k].tobytes() == np.roll(amp * amp, k).tobytes()
    assert gen.counts is gen.counts  # computed once


def test_generator_is_one_of_the_two_models():
    # ModelParams checks the rates, so params and dim make a model
    with pytest.raises(FockError, match="ModelParams"):
        Generator(None, 12)
    for dim in (1, 2.5):
        with pytest.raises(FockError, match="dimension"):
            Generator(NI, dim)


def test_generator_stores_its_factors_only():
    # the dense grids, a complex diagonal and two real jumps, would take
    # 32 dim^2 bytes, about 98 GB at dim 55236
    dim = 55236
    tracemalloc.start()
    try:
        gen = Generator(ModelParams(omega0=1.0, kappa_down=1.0, kappa_up2=0.999), dim)
        n = np.arange(dim - 2)
        down, up = gen.jump(2, n, n), gen.jump(-2, n + 2, n + 2)  # the links of the m = 0 chains
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    for k, links, p in ((2, down, n), (-2, up, n + 2)):
        rate, amp = gen.channels[k]
        assert links.tobytes() == (rate * (amp[p] * amp[p])).tobytes()
    # a a and a^dag a^dag link rho[p + 2, p + 2] and rho[p, p] at (p + 1)(p + 2)
    np.testing.assert_allclose(down, (n + 1) * (n + 2), rtol=1e-14)
    np.testing.assert_allclose(up, 0.999 * (n + 1) * (n + 2), rtol=1e-14)


def test_pure_rotation_annihilates_vacuum():
    p = ModelParams(omega0=2.0, kappa_down=1e-300)  # loss must be positive; make it negligible
    gen = liouvillian_csr(p, 12)
    out = gen @ vectorize(fock_state(12, 0))
    assert np.abs(out).max() < 1e-250


@pytest.mark.parametrize("params,dim", [(NI, 40), (CONV, 40)])
def test_trace_functional_is_left_null(params, dim):
    gen = liouvillian_csr(params, dim)
    row = vectorize(np.eye(dim)).conj() @ gen
    assert np.abs(row).max() < 1e-12


def test_parity_left_null_noise_induced_only():
    dim = 40
    pi = vectorize(parity_op(dim)).conj()
    assert np.abs(pi @ liouvillian_csr(NI, dim)).max() < 1e-12
    assert np.abs(pi @ liouvillian_csr(CONV, dim)).max() > 1.0


def test_hermiticity_preservation():
    rng = np.random.default_rng(3)
    gen = liouvillian_csr(NI, 24)
    g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    herm = g + g.conj().T
    out = apply_super(gen, herm)
    assert np.linalg.norm(out - out.conj().T) < 1e-12 * np.abs(out).max()


def test_strong_symmetry_exact():
    a, ad = build_ladder(32)
    P = parity_op(32)
    assert np.abs(P @ (a @ a) - (a @ a) @ P).max() == 0.0
    assert np.abs(P @ (ad @ ad) - (ad @ ad) @ P).max() == 0.0


def rotation_super(phi: float, dim: int) -> sp.csr_matrix:
    """Superoperator of the phase-space rotation rho -> e^{-i phi n} rho e^{i phi n}."""
    p = np.exp(-1j * phi * np.arange(dim))
    rot = np.diag(p)
    return sandwich(rot, rot.conj().T)


@pytest.mark.parametrize("params", [NI, CONV])
def test_weak_rotation_symmetry(params):
    rng = np.random.default_rng(4)
    dim = 24
    gen = liouvillian_csr(params, dim)
    for phi in rng.uniform(0, 2 * np.pi, size=3):
        rot = rotation_super(phi, dim)
        comm = rot @ gen - gen @ rot
        assert sp.linalg.norm(comm) < 1e-10 * sp.linalg.norm(gen)


def cross_order_nonzeros(gen: sp.spmatrix, dim: int) -> int:
    """Stored nonzeros linking different coherence orders m = col - row."""
    coo = gen.tocoo()
    order = np.arange(dim * dim) // dim - np.arange(dim * dim) % dim
    return int(np.count_nonzero((coo.data != 0) & (order[coo.row] != order[coo.col])))


@pytest.mark.parametrize("params", [
    ModelParams(omega0=1.3, kappa_down=1.0, kappa_up2=0.4),
    ModelParams(omega0=1.3, kappa_down=1.0, kappa_up1=0.4, kind=ModelKind.CONVENTIONAL),
])
def test_liouvillian_block_diagonal_in_coherence_order(params):
    dim = 12
    assert cross_order_nonzeros(liouvillian_csr(params, dim), dim) == 0
    # a phase-breaking channel does couple orders, so the count can see it
    assert cross_order_nonzeros(dissipator(quadrature_x(dim)), dim) > 0


# ---------------------------------------------------------------------------
# adjoint (Hilbert-Schmidt: the conjugate transpose of the column-stacked matrix)
# ---------------------------------------------------------------------------

def adjoint(params, dim):
    return liouvillian_csr(params, dim).conj().T


@pytest.mark.parametrize("params", [NI, CONV])
def test_adjoint_duality_random_pairs(params):
    rng = np.random.default_rng(5)
    dim = 16
    gen = liouvillian_csr(params, dim)
    adj = adjoint(params, dim)
    for _ in range(20):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = np.trace(apply_super(gen, a).conj().T @ b)
        rhs = np.trace(a.conj().T @ apply_super(adj, b))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("params", [NI, CONV])
def test_adjoint_annihilates_identity(params):
    dim = 30
    adj = adjoint(params, dim)
    out = adj @ vectorize(np.eye(dim))
    assert np.abs(out).max() < 1e-12


def test_adjoint_annihilates_parity_noise_induced():
    dim = 30
    out = adjoint(NI, dim) @ vectorize(parity_op(dim))
    assert np.abs(out).max() < 1e-12


def test_mean_photon_number_stationary():
    dim = 80
    adj = adjoint(NI, dim)
    moved = devectorize(adj @ vectorize(number_op(dim)))
    rho = rho_ss_analytic(NI.k_ratio, 0.55, dim)
    rate = np.trace(rho @ moved).real
    assert abs(rate) < 1e-8
