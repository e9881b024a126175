"""Simulation environments: query arms, receive noisy linear responses.

An environment owns a design problem with a known truth vector beta and a
seeded random generator.  Querying arm k returns <X_k, beta> + eps with
Gaussian noise eps ~ N(0, sigma_k^2); the policies see only the problem's
proxies kappa_k^2, which default to sigma_k^2 (``NoiseSpec``).

Standard normals are drawn from the generator in fixed chunks into one
buffer, and served from it in order to single queries, one arm's blocks
and arm sequences alike.  The n-th observation is the value it would be if
each query drew its own noise, the arm queried only picks the mean and
scale applied to it, and a (seed, query sequence) pair fully determines
every observation.  ``draws`` counts the observations served.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_DIMENSION, CovariateSet, DesignProblem, NoiseSpec

# Standard normals taken from the generator per refill of the query buffer.
NOISE_CHUNK = 1024

# ``make_random_instance`` redraws a covariate set until its smallest
# singular value exceeds RANDOM_SIGMA_MIN, at most RANDOM_DRAWS times; no
# shape up to d = K = 12 needs more than 16 draws (seeds 0-39).
RANDOM_SIGMA_MIN = 0.1
RANDOM_DRAWS = 1000


class Environment:
    """Stateful sampling oracle for a design problem.

    The generator is seeded from ``seed`` on a dedicated stream
    (spawn key 0), leaving sibling streams of the same seed free for
    policy randomness.  Observation n is mean + sigma * z_n, with the
    standard normals z taken from the stream in order: ``query`` serves
    one arm, ``query_block`` n of one arm and ``query_arms`` a sequence
    of arms, one draw each.
    """

    def __init__(self, problem: DesignProblem, seed: int):
        if problem.beta is None:
            raise ValueError("environment needs a problem with a truth vector beta")
        self.problem = problem
        self.seed = int(seed)
        self.rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))
        self.draws = 0
        self.n_arms = problem.n_arms
        self._means = (problem.covariates.columns.T @ problem.beta).tolist()
        self._scale = problem.noise.sigma.tolist()
        self._buffer: list = []
        self._next = 0

    def query(self, arm: int) -> float:
        """One observation of arm ``arm``."""
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        i = self._next
        if i == len(self._buffer):
            self._buffer = self.rng.standard_normal(NOISE_CHUNK).tolist()
            i = 0
        self._next = i + 1
        self.draws += 1
        return self._means[arm] + self._scale[arm] * self._buffer[i]

    def query_arms(self, arms) -> np.ndarray:
        """One observation of each of ``arms``, in order, as successive
        ``query`` calls give them and leaving ``draws``, the buffer and the
        generator as they would; an arm out of range raises before any draw."""
        arms = np.asarray(arms, dtype=np.intp)
        bad = arms[(arms < 0) | (arms >= self.n_arms)]
        if bad.size:
            raise ValueError(f"arm {bad[0]} out of range [0, {self.n_arms})")
        n, i = arms.size, self._next
        raw = np.array(self._buffer[i : i + n], dtype=np.float64)
        self._next = i + n
        short = n - raw.size
        if short > 0:
            # the chunks successive refills would draw, in one call; the last
            # becomes the buffer
            chunks = -(-short // NOISE_CHUNK)
            fresh = self.rng.standard_normal(chunks * NOISE_CHUNK)
            self._buffer = fresh[-NOISE_CHUNK:].tolist()
            self._next = short - (chunks - 1) * NOISE_CHUNK
            raw = np.concatenate((raw, fresh[:short]))
        self.draws += n
        return np.array(self._means)[arms] + np.array(self._scale)[arms] * raw

    def query_block(self, arm: int, n: int) -> np.ndarray:
        """n observations of one arm: ``query_arms`` of n copies of ``arm``."""
        if n < 0:
            raise ValueError("block size must be nonnegative")
        return self.query_arms(np.full(n, arm, dtype=np.intp))


def make_env(problem: DesignProblem, seed: int) -> Environment:
    return Environment(problem, seed)


def make_hard_instance(delta: float) -> DesignProblem:
    """Two identical scalar arms split only by noise: sigma^2 = (1, 1 + delta).

    The loss reduces to L(p) = (1 + delta) / (1 + delta p_1) with optimum
    p* = (1, 0) and L(p*) = 1; the gap between the arms is invisible
    until the variances are resolved, which is what makes the instance
    adversarial for adaptive samplers.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    covs = CovariateSet(np.array([[1.0, 1.0]]))
    noise = NoiseSpec(sigma2=np.array([1.0, 1.0 + delta]))
    return DesignProblem(covs, noise, beta=np.array([1.0]))


def make_random_instance(d: int, k: int, seed: int) -> DesignProblem:
    """Random unit covariates with iid U(0.5, 2) variances and a Gaussian truth.

    Covariate columns are drawn uniformly on the sphere and the whole set
    is redrawn until its smallest singular value clears ``RANDOM_SIGMA_MIN``,
    so generated instances are uniformly well conditioned; a shape and
    seed that no ``RANDOM_DRAWS`` draws clear raise ``ValueError``.
    """
    if d < 1 or k < d:
        raise ValueError("need k >= d >= 1 to span R^d")
    if d > MAX_DIMENSION:  # before any draw: each costs an SVD of the d x K set
        raise ValueError(f"dimension {d} exceeds the supported cap {MAX_DIMENSION}")
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_DRAWS):
        cols = rng.standard_normal((d, k))
        cols /= np.linalg.norm(cols, axis=0)
        if np.linalg.svd(cols, compute_uv=False)[-1] > RANDOM_SIGMA_MIN:
            break
    else:
        raise ValueError(
            f"no random d={d}, K={k} covariate set of seed {seed} has its smallest "
            f"singular value above {RANDOM_SIGMA_MIN} within {RANDOM_DRAWS} draws"
        )
    sigma2 = rng.uniform(0.5, 2.0, k)
    beta = rng.standard_normal(d)
    return DesignProblem(CovariateSet(cols), NoiseSpec(sigma2=sigma2), beta=beta)
