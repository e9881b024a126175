"""Online A-optimal design for actively sampled linear regression.

The package covers the full loop: problem containers and exact design
objectives (:mod:`.core`), variance confidence intervals
(:mod:`.estimation`), simulated data sources (:mod:`.environment`), a
simplex solver for the offline optimum (:mod:`.solver`), optimality
certificates (:mod:`.geometry`), sampling policies with regret tracking
(:mod:`.policies`), and the experiment harness plus CLI
(:mod:`.harness`, :mod:`.cli`). The package root exports only the seven
names the README's Library example imports; every other name is imported
from its module.
"""

from .core import CovariateSet, DesignProblem, NoiseSpec, loss
from .environment import make_env
from .policies import run_episode
from .solver import reference_optimum

__version__ = "0.1.0"
