"""Acceptance gate: every verification check at its pinned tolerance.

Each test reads the corresponding check from one session-wide run of
``noisecycle.verify`` (the ``verify_results`` fixture, the same code path as
``noisecycle verify``, whose rows ``test_golden.py`` compares too) and prints
one summary line.  The
amplitude-scaling prefactor comparison is expected to fail: the measured
prefactors follow from the closed-form radius and sit at exactly
1/(2 sqrt 2) of the quoted reference constants (see README); the exponent
half of that check passes and is asserted separately in the analytic tests.
"""

import pytest

from noisecycle import analytic, verify, wignerflux
from noisecycle.verify import run_check


def _drive(result):
    print(result.summary())
    assert result.passed, result.summary()


def test_criterion_01_steady_state_oracle(verify_results):
    """Steady states from the cut recursion match the closed form within 1e-8 in < 30 s."""
    _drive(verify_results["steady-state-oracle"])


def test_criterion_02_wigner_oracle(verify_results):
    """Closed-form quasiprobability matches displaced parity within 1e-6."""
    _drive(verify_results["wigner-oracle"])


def test_criterion_03_phase_classification(verify_results):
    """Reference points classify I/II/III; radius sign agrees with brute force."""
    _drive(verify_results["phase-classification"])


def test_criterion_04_hopf_scaling(verify_results):
    """Square-root exponent and quoted prefactors at the cycle birth.

    Expected to fail on the prefactors (factor 2 sqrt 2, see module docstring
    and README); the measured values are reported in the failure message.
    """
    _drive(verify_results["hopf-scaling"])


def test_criterion_05_mandel_q(verify_results):
    """Closed-form Q equals moments within 1e-10; region matches the Q sign."""
    _drive(verify_results["mandel-q"])


def test_criterion_06_circulation(verify_results):
    """Angular momentum identity within 1e-9; steady closed form within 1e-8."""
    _drive(verify_results["circulation"])


def test_criterion_07_detailed_balance(verify_results):
    """Residual dichotomy: < 1e-10 noise-induced, conventional above the floor 0.5."""
    _drive(verify_results["detailed-balance"])


def test_criterion_08_parity(verify_results):
    """Parity frozen within 1e-9 over time 10; vacuum seeds odd mass < 1e-10; coherent
    starts relax to the steady state of their even weight, a cycle past the threshold."""
    _drive(verify_results["parity"])


def test_criterion_09_classical_sde(verify_results):
    """Rayleigh moments, uniform phase, grid residual order, circulation."""
    _drive(verify_results["classical-sde"])


def test_criterion_10_noise_drift(verify_results):
    """Stratonovich-minus-Ito drift gap converges to 2 kappa (x, y) within 5%."""
    _drive(verify_results["noise-drift"])


def test_criterion_11_wigner_flux(verify_results):
    """Irreversible/reversible flux ratio < 1e-3 at h = 0.05, order 2 +- 0.3."""
    _drive(verify_results["wigner-flux"])


def test_criterion_12_classical_mode(verify_results):
    """Classical stationary density peaks at the origin for every rate pair."""
    _drive(verify_results["classical-mode"])


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


def test_circulation_check_reads_the_mean_photon_number(monkeypatch):
    """The steady row's closed form comes from ``analytic.mean_n_ss``, not a copy of it."""
    true_mean_n = analytic.mean_n_ss
    monkeypatch.setattr(analytic, "mean_n_ss", lambda k, wp: true_mean_n(k, wp) + 1.0)
    result = run_check("circulation")
    assert _failing_rows(result) == ["steady_rel_gap"], result.summary()
    assert result.details["steady_formula"] == pytest.approx(4.0 * (2.45 + 1.0 + 0.5))


def test_wigner_flux_check_reads_the_wigner_report(monkeypatch):
    """The rows come from ``verify.wigner_report``, the summary ``noisecycle wigner`` writes,
    at h 0.05 and 0.025, not from maxima of the check's own."""
    reports, true_report = [], verify.wigner_report
    monkeypatch.setattr(verify, "wigner_report", lambda field, residual, decomp: reports.append(
        (field.h, true_report(field, residual, decomp))) or reports[-1][1])
    result = run_check("wigner-flux")
    assert result.passed, result.summary()
    (h_coarse, coarse), (h_fine, fine) = reports
    assert (h_coarse, h_fine) == pytest.approx((0.05, 0.025))
    assert result.details["irr_over_rev_at_h05"]["value"] == coarse["irr_over_rev"]
    for row, key in (("flux_order", "max_irr_flux"), ("residual_order", "max_generator_residual")):
        assert result.details[row]["value"] == wignerflux.observed_order(coarse[key], fine[key])
