"""Arbitrary-precision laboratory for canards in discretized planar fast-slow systems.

Quantifies delayed loss of stability across one-step discretizations of the
canonical transcritical, pitchfork, and fold singularities: explicit
Runge-Kutta maps can delay the loss of stability arbitrarily long, while the
Kahan discretization (and part of the symmetric implicit family) keeps the
delay exactly symmetric.
"""

from .precision import (
    ANALYSIS_DIGITS,
    InvalidPrecision,
    MIN_DIGITS,
    PrecisionContext,
    SIMULATE_DIGITS,
    make_context,
)
from .systems import (
    NoCanard,
    PlanarPoint,
    SingularityKind,
    SystemParams,
    fold_first_integral,
    fold_kahan_parabola_offset,
    fold_rk_reduced_gap,
    fold_slow_solutions,
    vector_field,
)
from .schemes import (
    EULER,
    HEUN2,
    HEUN3,
    KUTTA3,
    RALSTON3,
    SHIPPED_TABLEAUX,
    SSPRK3,
    SURFACE_TABLEAUX,
    BranchInfo,
    ButcherTableau,
    NoRealBranch,
    PoleError,
    QuadraticField,
    StepResult,
    a_family_step_pitchfork,
    kahan_step_fold,
    kahan_step_general,
    kahan_step_transcritical,
    load_tableau_file,
    rk_step,
)
from .linearization import (
    AFamily,
    KAHAN,
    finite_difference_factor,
    jacobian_factor,
    q_s,
    symmetry_defect,
)
from .analysis import (
    BisectionBracket,
    CriticalTriplet,
    JumpClass,
    JumpResult,
    NoBracket,
    NotContracting,
    OutOfDomain,
    PastCriticality,
    SweepCell,
    Unresolved,
    WayOutResult,
    classify_jump,
    critical_h_bisection,
    critical_triplet_linearized,
    kstar_pitchfork_euler,
    kstar_rk,
    kstar_transcritical_euler,
    lambert_w0,
    linearized_critical_h,
    rk_cbar,
    rk_theta0,
    sweep_surface,
    wayout,
)

__version__ = "0.1.0"
