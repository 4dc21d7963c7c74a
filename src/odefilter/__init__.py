"""Gaussian ODE filter: a Kalman-filter solver for initial value problems.

Models the solution and its first q derivatives as an integrated
Brownian-motion (or Ornstein-Uhlenbeck) process and conditions it on
vector-field evaluations step by step.  Ships exact prior
transitions, configurable measurement-noise models, steady-state
analysis of the covariance recursion, benchmark problems, and an
experiment harness for convergence-order and calibration studies.
"""

from .diagnostics import (
    CredibleWidth,
    DegenerateFit,
    ErrorSeries,
    MissingExact,
    OrderFit,
    credible_width,
    fit_order,
    global_error,
    h_norm,
    loglog_slope,
    misalignment,
)
from .filtering import (
    Belief,
    DivergedEvaluation,
    ExactInit,
    NonIntegerMesh,
    PerturbedInit,
    SingularInnovation,
    StepRecord,
    Trajectory,
    evaluate_data,
    gain,
    initialize,
    predict,
    solve,
    update,
)
from .noise import (
    ConstantNoise,
    NoiseModel,
    PowerLawNoise,
    ZeroNoise,
    format_noise,
    parse_noise,
)
from .priors import (
    IBM,
    IOUP,
    DimensionMismatch,
    MultiDimDrift,
    PriorSpec,
    TransitionModel,
    companion_matrix,
    ibm_transition,
    ioup_transition,
    kron_extend,
    lti_transition,
    transition_oracle,
)
from .problems import (
    IVProblem,
    MissingDerivative,
    OracleNotConverged,
    PROBLEMS,
    get_problem,
    linear_rotation,
    logistic,
    reference_solve,
    riccati,
)
from .steady_state import (
    InsufficientGrid,
    OrderBoundFit,
    SteadyState,
    closed_form,
    dare_orbit,
    orbit_limit,
    verify_order_bounds,
)

__version__ = "0.1.0"
