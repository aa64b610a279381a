"""Noise-induced quantum limit cycles and their classical stochastic twin.

Truncated-Fock generators and steady states, closed-form phase-space
quasiprobabilities and the phase diagram, circulation and detailed balance,
grid phase-space currents, and a multiplicative-noise classical comparison
model.
"""

from .analytic import (
    HopfFit,
    Phase,
    PhasePoint,
    WignerClosedForm,
    coherent_cycle_threshold,
    coherent_even_weight,
    hopf_scaling,
    limit_cycle_radius,
    mandel_q,
    mean_n_ss,
    nonclassical_region,
    phase_boundary,
    phase_classify,
    populations_ss,
    rho_ss_analytic,
    scan_radius,
    sigmoid,
    wigner_origin,
    wigner_radial,
    wigner_ss,
)
from .fock import (
    FockError,
    Generator,
    ModelKind,
    ModelParams,
    NoStationaryStateError,
    build_ladder,
    coherent_state,
    default_dim,
    dim_for_tail,
    fock_state,
)
from .lindblad import (
    CirculationResult,
    SteadyStateResult,
    circulation,
    conserved_reconstruction,
    detailed_balance_residual,
    evolve,
    parity_expectation,
    parity_weights,
    steady_populations,
    steady_states,
    trace_distance,
    wigner_numeric,
    wigner_numeric_grid,
)
from .sde import (
    AnalyticPdfs,
    SdeConfig,
    SdeEnsembleResult,
    circulation_classical,
    classical_detailed_balance,
    fokker_planck_residual,
    noise_induced_drift_check,
    simulate_ensemble,
)
from .wignerflux import (
    FluxDecomposition,
    WignerField,
    divergence,
    flux_decompose,
    sample_steady_field,
    wigner_current,
    wigner_generator_apply,
)

__version__ = "0.1.0"
