"""Numerical toolkit for stochastic optimal advertising under delay.

Goodwill dynamics with delayed carryover in both the state and the
control, simulated directly as an SDDE and through its lifting to
R x L2([-r, 0]); closed-form linear-quadratic policies via a backward
costate sweep; Monte Carlo policy evaluation with common random
numbers; feedback maps for the state-delay-only model; and the
regularization schemes used in the approximation study.
"""

from .hilbert import (
    ConstantKernel,
    DimensionError,
    DomainError,
    ExponentialKernel,
    ProfileX,
    SampledKernel,
    SegmentGrid,
    ZeroKernel,
    inner_product,
    kernel_eval,
    kernel_from_json,
    kernel_is_zero,
    kernel_to_json,
    norm,
    order_leq,
    profile_from_callable,
    zero_profile,
)
from .sdde import (
    BlowupError,
    ConfigurationError,
    FeedbackPolicy,
    GapEstimate,
    HistoryPair,
    LinearReward,
    MCEstimate,
    Memoryless,
    ModelParams,
    ObjectiveSpec,
    OpenLoop,
    PathEnsemble,
    QuadraticCost,
    evaluate_policy,
    objective_estimate,
    path_normals,
    relative_gap,
    simulate_paths,
)
from .lifting import (
    DelayODEProblem,
    PointDelay,
    adjoint_semigroup_apply,
    lift_M,
    solve_delay_ode,
    state_semigroup_apply,
)
from .lq import (
    CostateSolution,
    memoryless_policy,
    optimal_policy_lq,
    sensitivity_dV_dr,
    solve_costate,
    trajectory_mean,
    trajectory_variance,
    value_lq,
)
from .state_delay import (
    ConditionReport,
    HamiltonianSpec,
    bangbang_feedback_policy,
    bangbang_threshold,
    feedback_bangbang,
    feedback_quadratic,
    hamiltonian_H,
    hamiltonian_H0,
    invariant_measure_condition,
    quadratic_feedback_policy,
    simulate_feedback,
)
from .approximation import (
    ConvergenceRow,
    LiftedEnsemble,
    convergence_rows_to_csv,
    convergence_study,
    mollify_h,
    mollify_phi,
    simulate_lifted_perturbed,
    sup_inf_convolution,
)

__version__ = "0.1.0"
