"""Online A-optimal design for actively sampled linear regression.

The package covers the full loop: problem containers and exact design
objectives (:mod:`.core`), variance confidence intervals
(:mod:`.estimation`), simulated data sources (:mod:`.environment`), a
simplex solver for the offline optimum (:mod:`.solver`), optimality
certificates (:mod:`.geometry`), sampling policies with regret tracking
(:mod:`.policies`), and the experiment harness plus CLI
(:mod:`.harness`, :mod:`.cli`).
"""

from .core import (
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    ProblemConstants,
    SimplexWeights,
    gradient,
    info_matrix,
    loss,
    loss_closed_form,
    ols_fit,
    optimal_weights_closed_form,
    problem_constants,
    regret,
)
from .environment import Environment, make_env, make_hard_instance, make_random_instance
from .estimation import (
    ConfidenceParams,
    halving_sample_count,
    lcb_variance,
    variance_radius,
)
from .geometry import DualReport, EllipsoidCertificate, dual_feasibility, kkt_certificate
from .harness import (
    ExperimentConfig,
    SlopeFit,
    SweepResult,
    build_problem,
    fit_slope,
    load_config,
    load_instance,
    run_sweep,
    verify_concentration,
    write_instance,
)
from .policies import (
    POLICY_NAMES,
    Episode,
    RegretTrace,
    kd_presample,
    make_policy,
    presample_plan,
    run_episode,
)
from .solver import SolverConfig, SolverResult, minimize, reference_optimum

__version__ = "0.1.0"

__all__ = [
    "ConfidenceParams",
    "CovariateSet",
    "DesignProblem",
    "DualReport",
    "EllipsoidCertificate",
    "Environment",
    "Episode",
    "ExperimentConfig",
    "NoiseSpec",
    "POLICY_NAMES",
    "ProblemConstants",
    "RegretTrace",
    "SimplexWeights",
    "SlopeFit",
    "SolverConfig",
    "SolverResult",
    "SweepResult",
    "build_problem",
    "dual_feasibility",
    "fit_slope",
    "gradient",
    "halving_sample_count",
    "info_matrix",
    "kd_presample",
    "kkt_certificate",
    "lcb_variance",
    "load_config",
    "load_instance",
    "loss",
    "loss_closed_form",
    "make_env",
    "make_hard_instance",
    "make_policy",
    "make_random_instance",
    "minimize",
    "ols_fit",
    "optimal_weights_closed_form",
    "presample_plan",
    "problem_constants",
    "reference_optimum",
    "regret",
    "run_episode",
    "run_sweep",
    "variance_radius",
    "verify_concentration",
    "write_instance",
]
