"""Acceptance gate: every verification check at its pinned tolerance.

Each test drives the corresponding check from ``noisecycle.verify`` (the same
code path as ``noisecycle verify``) and prints one summary line.  The
amplitude-scaling prefactor comparison is expected to fail: the measured
prefactors follow from the closed-form radius and sit at exactly
1/(2 sqrt 2) of the quoted reference constants (see README); the exponent
half of that check passes and is asserted separately in the analytic tests.
"""

import pytest

from noisecycle import verify
from noisecycle.verify import run_check


def _drive(name: str):
    result = run_check(name)
    print(result.summary())
    assert result.passed, result.summary()


def test_criterion_01_steady_state_oracle():
    """Null-space steady states match the closed form within 1e-8 in < 30 s."""
    _drive("steady-state-oracle")


def test_criterion_02_wigner_oracle():
    """Closed-form quasiprobability matches displaced parity within 1e-6."""
    _drive("wigner-oracle")


def test_criterion_03_phase_classification():
    """Reference points classify I/II/III; radius sign agrees with brute force."""
    _drive("phase-classification")


def test_criterion_04_hopf_scaling():
    """Square-root exponent and quoted prefactors at the cycle birth.

    Expected to fail on the prefactors (factor 2 sqrt 2, see module docstring
    and README); the measured values are reported in the failure message.
    """
    _drive("hopf-scaling")


def test_criterion_05_mandel_q():
    """Closed-form Q equals moments within 1e-10; region matches the Q sign."""
    _drive("mandel-q")


def test_criterion_06_circulation():
    """Angular momentum identity within 1e-9; steady closed form within 1e-8."""
    _drive("circulation")


def test_criterion_07_detailed_balance():
    """Residual dichotomy: < 1e-10 noise-induced, conventional above a gain-scaled floor."""
    _drive("detailed-balance")


def test_criterion_08_parity():
    """Parity frozen within 1e-9 over time 10; vacuum seeds odd mass < 1e-10; coherent
    starts relax to the steady state of their even weight, a cycle past the threshold."""
    _drive("parity")


def test_criterion_09_classical_sde():
    """Rayleigh moments, uniform phase, grid residual order, circulation."""
    _drive("classical-sde")


def test_criterion_10_noise_drift():
    """Stratonovich-minus-Ito drift gap converges to 2 kappa (x, y) within 5%."""
    _drive("noise-drift")


def test_criterion_11_wigner_flux():
    """Irreversible/reversible flux ratio < 1e-3 at h = 0.05, order 2 +- 0.3."""
    _drive("wigner-flux")


def test_criterion_12_classical_mode():
    """Classical stationary density peaks at the origin for every rate pair."""
    _drive("classical-mode")


# ---------------------------------------------------------------------------
# the checks have teeth
# ---------------------------------------------------------------------------

def _failing_rows(result) -> list[str]:
    return [k for k, v in result.details.items() if isinstance(v, dict) and not v["pass"]]


@pytest.mark.parametrize("mutation, check", sorted(verify.MUTATIONS.items()))
def test_mutation_fails_its_check(mutation, check):
    result = run_check(check, mutations=(mutation,))
    print(result.summary())
    assert "error" not in result.details, result.summary()
    assert _failing_rows(result), result.summary()
    assert not result.passed


def test_every_check_has_a_named_mutation():
    assert set(verify.MUTATIONS.values()) == set(verify.CHECKS)


def test_hopf_mutation_fails_both_slope_rows():
    """The prefactor rows fail unmutated, so the mutation must fail rows that pass without it."""
    assert not {"slope_wp_gap", "slope_k_gap"} & set(_failing_rows(run_check("hopf-scaling")))
    result = run_check("hopf-scaling", mutations=("hopf-linear-law",))
    assert {"slope_wp_gap", "slope_k_gap"} <= set(_failing_rows(result)), result.summary()


def test_runtime_budget_fails_a_slow_check(monkeypatch):
    monkeypatch.setitem(verify.RUNTIME_BUDGETS_S, "wigner-oracle", 0.0)
    result = run_check("wigner-oracle")
    assert _failing_rows(result) == ["runtime"], result.summary()
    assert result.details["runtime"]["value"] == result.duration
    assert not result.passed
