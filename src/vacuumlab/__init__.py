"""Numerical laboratory for energy conservation in compressible flow with vacuum."""

from .errors import (
    AdmissibilityError,
    BlowupTimeError,
    ConfigError,
    DomainExhaustedError,
    EmptyOverlapError,
    ExponentRelationError,
    GridMemoryError,
    InfeasibleKernelError,
    NegativityError,
    ResolutionError,
    VacuumLabError,
    VacuumSingularityError,
)
from .grids import (
    Field,
    GridSpec,
    Mollification,
    MollifierKernel,
    from_function,
    integrate,
    load_field,
    lp_norm,
    make_mollifier,
    mollify,
    restrict,
    save_field,
)
from .pressure import C2Approximant, PressureLaw, commutator_rate, make_c2_approximant
from .rates import BesovEstimate, RateFit, besov_seminorm, fit_rate
from .synth import (
    RiemannSpec,
    WeierstrassSpec,
    constant_state,
    riemann_solution,
    shock_dissipation,
    shock_states,
    simple_wave,
    vacuum_profile,
    weierstrass_field,
)
from .testfn import TestFunction, boundary_cutoff, spacetime_bump, time_bump, time_window
from .commutators import (
    CommutatorReport,
    R_S_terms,
    degenerate_viscosity_commutator,
    divmeasure_pressure_term,
    energy_commutators,
    pointwise_decomposition_check,
)
from .vacuum import (
    VacuumSets,
    build_vacuum_sets,
    counterexample_blowup,
    counterexample_field,
    l1_ratio_lemma_check,
    qns_check,
    qns_mollifier_equivalence,
    ratio_condition,
    reciprocal_integrability_rate,
)
from .energy import (
    EnergyBudget,
    energy_density,
    energy_flux,
    global_energy_balance_bounded,
    local_energy_residual,
    mollified_energy_balance,
    ns_energy_residual,
)

__version__ = "0.1.0"
