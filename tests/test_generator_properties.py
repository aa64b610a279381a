"""Generator invariants as properties over random rates, ratios and dimensions.

Both models, any rotation rate, loss rate and gain ratio k in [0, 0.9), and
dimensions 6-16: the generator preserves trace and Hermiticity, the
noise-induced one commutes with parity, no entry couples different coherence
orders m - n, ``evolve`` keeps states positive, and each of the s steady
states (s the gcd of the jump shifts) is a state in the dense null space.
Over finite rates from 1e-300 to 1e300 the generator equals the dense-product
reference byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from noisecycle.fock import Generator, ModelKind, ModelParams
from noisecycle import lindblad
from noisecycle.lindblad import evolve, random_density_matrix, steady_states
from test_fock import apply_super, liouvillian_csr, parity_op, reference_liouvillian, vectorize

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def models(draw, kinds=tuple(ModelKind)):
    """A model, a dimension, and a seed for the states it is applied to."""
    kind = draw(st.sampled_from(kinds))
    omega0 = draw(st.floats(-5.0, 5.0))
    kappa_down = draw(st.floats(0.05, 5.0))
    gain = kappa_down * draw(st.floats(0.0, 0.9, exclude_max=True))
    if kind is ModelKind.NOISE_INDUCED:
        params = ModelParams(omega0=omega0, kappa_down=kappa_down, kappa_up2=gain)
    else:
        params = ModelParams(omega0=omega0, kappa_down=kappa_down, kappa_up1=gain, kind=kind)
    return params, draw(st.integers(6, 16)), draw(st.integers(0, 2 ** 32 - 1))


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def scale(params, dim):
    # entries of the generator grow like rate * dim^2
    return (abs(params.omega0) + params.kappa_down) * dim ** 2


@SETTINGS
@given(models())
def test_trace_preserved(model):
    params, dim, seed = model
    out = apply_super(liouvillian_csr(params, dim), random_matrix(dim, seed))
    assert abs(np.trace(out)) < 1e-12 * scale(params, dim)


@SETTINGS
@given(models())
def test_hermiticity_preserved(model):
    params, dim, seed = model
    gen = liouvillian_csr(params, dim)
    rho = random_matrix(dim, seed)
    gap = apply_super(gen, rho.conj().T) - apply_super(gen, rho).conj().T
    assert np.abs(gap).max() < 1e-12 * scale(params, dim)


@SETTINGS
@given(models(kinds=(ModelKind.NOISE_INDUCED,)))
def test_parity_commutes_with_noise_induced_generator(model):
    params, dim, seed = model
    gen = liouvillian_csr(params, dim)
    parity = parity_op(dim)
    rho = random_matrix(dim, seed)
    gap = (parity @ apply_super(gen, rho) @ parity
           - apply_super(gen, parity @ rho @ parity))
    assert np.abs(gap).max() < 1e-12 * scale(params, dim)


@SETTINGS
@given(models())
def test_no_entry_couples_coherence_orders(model):
    params, dim, _ = model
    gen = liouvillian_csr(params, dim).tocoo()
    # column stacking: vec index m + n dim holds rho[m, n], of coherence order m - n
    order = np.arange(dim * dim) % dim - np.arange(dim * dim) // dim
    coupled = order[gen.row] != order[gen.col]
    assert not gen.data[coupled].any()


@SETTINGS
@given(models(), st.floats(0.05, 3.0))
def test_evolve_keeps_states_positive(model, t):
    params, dim, seed = model
    rho0 = random_density_matrix(dim, rng=np.random.default_rng(seed))
    rho_t = evolve(rho0, Generator(params, dim), t)
    assert np.linalg.eigvalsh(rho_t).min() >= -1e-10
    assert abs(np.trace(rho_t) - 1.0) < 1e-10


@SETTINGS
@given(models())
def test_steady_states_are_states_in_the_dense_null_space(model):
    params, dim, _ = model
    gen = Generator(params, dim)
    result = steady_states(gen)
    assert result.kernel_dim == len(result.states) == lindblad._step(gen)
    kernel = null_space(liouvillian_csr(params, dim).toarray())
    for rho in result.states:
        pops = np.diagonal(rho).real
        assert pops.min() >= 0.0
        assert abs(np.trace(rho) - 1.0) < 1e-12
        vec = vectorize(rho)
        residual = np.linalg.norm(vec - kernel @ (kernel.conj().T @ vec)) / np.linalg.norm(vec)
        assert residual < 1e-10


def log_uniform(low=-300.0, high=300.0):
    """Positive floats 10**e with the exponent e uniform on [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def extreme_models(draw):
    """Finite rates over 600 decades, rotation 0 included, both kinds, dimensions 2-12."""
    omega0 = draw(st.just(0.0) | log_uniform() | log_uniform().map(lambda x: -x))
    kappa_down = draw(log_uniform())
    if draw(st.booleans()):
        # the ratio stays below 10**-0.01, so the product cannot round up to kappa_down
        gain = kappa_down * draw(st.just(0.0) | log_uniform(-300.0, -0.01))
        params = ModelParams(omega0=omega0, kappa_down=kappa_down, kappa_up2=gain)
    else:
        gain = draw(st.just(0.0) | log_uniform())
        params = ModelParams(omega0=omega0, kappa_down=kappa_down, kappa_up1=gain,
                             kind=ModelKind.CONVENTIONAL)
    return params, draw(st.integers(2, 12))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(extreme_models())
def test_liouvillian_equals_reference_bytes_for_any_finite_rates(model):
    params, dim = model
    got = liouvillian_csr(params, dim).sorted_indices()
    ref = reference_liouvillian(params, dim).sorted_indices()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()
