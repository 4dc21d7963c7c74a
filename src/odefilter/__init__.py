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
    covariance_pass,
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
    PriorSpec,
    TransitionModel,
    companion_matrix,
    ibm_transition,
    ioup_transition,
    lti_transition,
)
from .problems import (
    IVProblem,
    MissingDerivative,
    PROBLEMS,
    get_problem,
    linear_rotation,
    logistic,
    riccati,
)
from .steady_state import (
    InsufficientGrid,
    OrbitCycle,
    OrderBoundFit,
    SteadyState,
    closed_form,
    dare_orbit,
    orbit_limit,
    verify_order_bounds,
)

__version__ = "0.1.0"
