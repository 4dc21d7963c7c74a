"""Gaussian ODE filter: a Kalman-filter solver for initial value problems.

Models the solution and its first q derivatives as an integrated
Brownian-motion (or Ornstein-Uhlenbeck) process and conditions it on
vector-field evaluations step by step.  Ships exact prior
transitions, a power-law measurement-noise model R = K_R h^p (noiseless
data is p = inf, a constant variance p = 0), steady-state
analysis of the covariance recursion, benchmark problems, and an
experiment harness for convergence-order and calibration studies.
"""

from .diagnostics import (
    CredibleWidth,
    ErrorSeries,
    MissingExact,
    credible_width,
    global_error,
    misalignment,
)
from .filtering import (
    Belief,
    NonIntegerMesh,
    PerturbedInit,
    SingularInnovation,
    Trajectory,
    gain,
    initialize,
    solve,
    solve_cells,
)
from .noise import PowerLawNoise, parse_noise
from .priors import (
    IBM,
    IOUP,
    PriorSpec,
    TransitionModel,
    ibm_transition,
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
    OrbitUnsettled,
    OrderBoundFit,
    SteadyState,
    closed_form,
    orbit_limit,
    verify_order_bounds,
)

__version__ = "0.1.0"
