"""Simulation environments: query arms, receive noisy linear responses.

An environment owns a design problem with a known truth vector beta and a
seeded random generator.  Querying arm k returns <X_k, beta> + eps with
eps drawn from one of three centered noise families:

* ``gaussian``: N(0, sigma_k^2), proxy kappa_k^2 = sigma_k^2;
* ``uniform``: uniform on [-a_k, a_k] with a_k = sqrt(3) sigma_k, proxy
  kappa_k^2 = a_k^2 (bounded-range sub-Gaussian parameter);
* ``rademacher``: +/- sigma_k with equal probability, proxy sigma_k^2.

Each query advances the generator by exactly one logical draw, and block
queries consume the stream identically to repeated single queries, so a
(seed, query sequence) pair fully determines every observation.
"""

from __future__ import annotations

import numpy as np

from .core import CovariateSet, DesignProblem, NoiseSpec

NOISE_MODELS = ("gaussian", "uniform", "rademacher")


def noise_proxy(model: str, sigma2) -> np.ndarray:
    """Sub-Gaussian proxy kappa^2 implied by a noise model at variance sigma^2."""
    s2 = np.asarray(sigma2, dtype=np.float64)
    if model == "gaussian" or model == "rademacher":
        return s2.copy()
    if model == "uniform":
        return 3.0 * s2
    raise ValueError(f"unknown noise model {model!r}")


class Environment:
    """Stateful sampling oracle for a design problem.

    The generator is seeded from ``seed`` on a dedicated stream
    (spawn key 0), leaving sibling streams of the same seed free for
    policy randomness.
    """

    def __init__(self, problem: DesignProblem, seed: int, model: str = "gaussian"):
        if model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {model!r}")
        if problem.beta is None:
            raise ValueError("environment needs a problem with a truth vector beta")
        self.problem = problem
        self.model = model
        self.seed = int(seed)
        self.rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))
        self.draws = 0
        self._n_arms = problem.n_arms
        self._means = problem.covariates.columns.T @ problem.beta
        self._sigma = problem.noise.sigma
        # uniform half-range with matching variance: a = sqrt(3) sigma
        self._half_range = np.sqrt(3.0) * self._sigma

    @property
    def n_arms(self) -> int:
        return self._n_arms

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self._n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self._n_arms})")

    def query(self, arm: int) -> float:
        """One observation of arm ``arm``; advances the RNG by one draw."""
        self._check_arm(arm)
        self.draws += 1
        if self.model == "gaussian":
            eps = self._sigma[arm] * self.rng.standard_normal()
        elif self.model == "uniform":
            a = self._half_range[arm]
            eps = self.rng.uniform(-a, a)
        else:
            eps = self._sigma[arm] * (2.0 * self.rng.integers(0, 2) - 1.0)
        return float(self._means[arm] + eps)

    def query_block(self, arm: int, n: int) -> np.ndarray:
        """n observations of one arm, stream-identical to n single queries."""
        self._check_arm(arm)
        if n < 0:
            raise ValueError("block size must be nonnegative")
        if n == 0:
            return np.empty(0)
        self.draws += n
        if self.model == "gaussian":
            eps = self._sigma[arm] * self.rng.standard_normal(n)
        elif self.model == "uniform":
            a = self._half_range[arm]
            eps = self.rng.uniform(-a, a, n)
        else:
            eps = self._sigma[arm] * (2.0 * self.rng.integers(0, 2, n) - 1.0)
        return self._means[arm] + eps


def make_env(problem: DesignProblem, seed: int, model: str = "gaussian") -> Environment:
    return Environment(problem, seed, model)


def make_hard_instance(delta: float, model: str = "gaussian") -> DesignProblem:
    """Two identical scalar arms split only by noise: sigma^2 = (1, 1 + delta).

    The loss reduces to L(p) = (1 + delta) / (1 + delta p_1) with optimum
    p* = (1, 0) and L(p*) = 1; the gap between the arms is invisible
    until the variances are resolved, which is what makes the instance
    adversarial for adaptive samplers.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    covs = CovariateSet(np.array([[1.0, 1.0]]))
    sigma2 = np.array([1.0, 1.0 + delta])
    noise = NoiseSpec(sigma2=sigma2, kappa2=noise_proxy(model, sigma2))
    return DesignProblem(covs, noise, beta=np.array([1.0]))


def make_random_instance(
    d: int,
    k: int,
    seed: int,
    sigma2_range: tuple[float, float] = (0.5, 2.0),
    model: str = "gaussian",
    canonical: bool = False,
) -> DesignProblem:
    """Random unit covariates with iid variances and a Gaussian truth.

    Covariate columns are drawn uniformly on the sphere and the whole set
    is redrawn until its smallest singular value clears 0.1, so generated
    instances are uniformly well conditioned.  ``canonical`` swaps the
    random directions for the standard basis (requires k = d).
    """
    if d < 1 or k < d:
        raise ValueError("need k >= d >= 1 to span R^d")
    lo, hi = sigma2_range
    if not 0.0 < lo <= hi:
        raise ValueError("sigma2_range must be positive and ordered")
    rng = np.random.default_rng(seed)
    if canonical:
        if k != d:
            raise ValueError("canonical instances require k = d")
        cols = np.eye(d)
    else:
        while True:
            cols = rng.standard_normal((d, k))
            cols /= np.linalg.norm(cols, axis=0)
            if np.linalg.svd(cols, compute_uv=False)[-1] > 0.1:
                break
    sigma2 = rng.uniform(lo, hi, k)
    beta = rng.standard_normal(d)
    noise = NoiseSpec(sigma2=sigma2, kappa2=noise_proxy(model, sigma2))
    return DesignProblem(CovariateSet(cols), noise, beta=beta)
