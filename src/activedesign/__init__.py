"""Online A-optimal design for actively sampled linear regression.

The package root exports the seven names of the README's Library
example; every other name is imported from its module.
"""

from .core import CovariateSet, DesignProblem, NoiseSpec, loss
from .environment import make_env
from .policies import run_episode
from .solver import reference_optimum

__version__ = "0.1.0"
