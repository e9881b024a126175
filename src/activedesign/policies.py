"""Sequential sampling policies and the episode runner.

Five ways to spend a budget of T arm queries:

* ``uniform``: round-robin, the non-adaptive baseline.
* ``randomized``: each round, re-solve the design problem under lower
  confidence bounds on the variances and draw the next arm at random so
  the empirical proportions track that optimistic design.
* ``gradient_ucb``: greedy Frank-Wolfe flavored choice, the arm with the
  lowest bonus-adjusted loss-gradient estimate under plug-in variances.
* ``thompson``: per-arm normal-inverse-gamma posteriors; sample variances
  and descend the sampled gradient.
* ``oracle``: knows the true optimal design and tracks it by largest
  deficit; a lower-bound reference, not a learner.

Adaptive policies start with a short estimation phase (enough samples per
arm to define variances) followed by presampling: for square problems,
half the budget laid out at the plug-in optimal proportions, which both
keeps every later information matrix invertible and floors the empirical
proportions; otherwise a T^(3/4)-per-arm schedule.  The runner executes
those phases, drives the policy loop, and records regret checkpoints.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DesignProblem,
    SINGULARITY_RTOL,
    SimplexWeights,
    loss,
    problem_constants,
    regret,
)
from .environment import Environment
from .estimation import ArmStats, ConfidenceParams, lcb_variance
from .solver import SolverConfig, minimize, reference_optimum

logger = logging.getLogger(__name__)

POLICY_NAMES = ("uniform", "randomized", "gradient_ucb", "thompson", "oracle")

# Policies that need variance estimates and therefore a presampling plan.
_ADAPTIVE = ("randomized", "gradient_ucb")


def default_estimation_count(horizon: int) -> int:
    """Phase-0 samples per arm: max(2, ceil(10 log(2T)))."""
    return max(2, math.ceil(10.0 * math.log(2.0 * horizon)))


@dataclass(frozen=True)
class PresamplePlan:
    """Initial allocation executed before the policy loop.

    ``counts`` are per-arm target totals (phase-0 samples count toward
    them), ``estimation_count`` the phase-0 samples per arm, ``origin``
    the design proportions the counts were derived from, when any.
    """

    counts: np.ndarray
    estimation_count: int = 0
    origin: SimplexWeights | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if np.any(c < 0) or self.estimation_count < 0:
            raise ValueError("plan counts must be nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def total(self) -> int:
        per_arm = np.maximum(self.counts, self.estimation_count)
        return int(per_arm.sum())


def presample_plan(
    sigma2_estimates,
    constants,
    horizon: int,
    estimation_count: int = 0,
) -> PresamplePlan:
    """Square-case presampling at half budget: N_k = ceil(p^o_k T / 2).

    ``p^o`` are the plug-in optimal proportions computed from the
    variance estimates and the Gram cofactors in ``constants``.  Counts
    are floored at 2 so every arm has a defined variance, and trimmed
    (largest first) in the rare case the total would exceed
    ceil(T/2) + K.
    """
    sbar2 = np.asarray(sigma2_estimates, dtype=np.float64).reshape(-1)
    if np.any(sbar2 <= 0.0):
        raise ValueError("variance estimates must be positive")
    if constants.cofactors is None:
        raise ValueError("presample_plan needs square-case constants with cofactors")
    raw = np.sqrt(sbar2) * np.sqrt(constants.cofactors)
    origin = SimplexWeights(raw / raw.sum())
    counts = np.maximum(np.ceil(origin.values * horizon / 2.0).astype(np.int64), 2)
    cap = math.ceil(horizon / 2) + counts.shape[0]
    while counts.sum() > cap and counts.max() > 2:
        counts[np.argmax(counts)] -= 1
    return PresamplePlan(counts=counts, estimation_count=estimation_count, origin=origin)


def kd_presample(k: int, horizon: int) -> PresamplePlan:
    """Non-square presampling: ceil(T^(3/4)) samples of every arm.

    Exact integer fourth root so budgets like T = 10^4 give exactly
    T^(3/4) = 1000.  Errors when the schedule would consume the whole
    budget.
    """
    if k < 1 or horizon < 1:
        raise ValueError("need positive arm count and horizon")
    cube = horizon**3
    root = math.isqrt(math.isqrt(cube))
    n = root if root**4 == cube else root + 1
    if k * n >= horizon:
        raise ValueError(
            f"presampling {k} arms at {n} samples each needs {k * n} >= budget {horizon}"
        )
    return PresamplePlan(
        counts=np.full(k, n, dtype=np.int64),
        estimation_count=0,
        origin=SimplexWeights.uniform(k),
    )


def _loss_given(x: np.ndarray, sigma2: np.ndarray, p: np.ndarray) -> float:
    omega = (x * (p / sigma2)) @ x.T
    eigs = np.linalg.eigvalsh(omega)
    top = eigs[-1]
    if top <= 0.0 or eigs[0] <= SINGULARITY_RTOL * top:
        return math.inf
    return float(np.sum(1.0 / eigs))


def _gradient_given(x: np.ndarray, sigma2: np.ndarray, p: np.ndarray) -> np.ndarray:
    omega = (x * (p / sigma2)) @ x.T
    a = np.linalg.solve(omega, x)
    return -np.einsum("ij,ij->j", a, a) / sigma2


def _square_gradient(inv_gram_diag: np.ndarray, sigma2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closed-form loss gradient for K = d: -(Gamma^-1)_kk sigma_k^2 / p_k^2.

    With the covariates X square and invertible,
    Omega(p) = X diag(p / sigma^2) X^T, so
    Omega^-1 X_k = X^-T diag(sigma^2 / p) X^-1 X_k = X^-T e_k sigma_k^2 / p_k
    and ||Omega^-1 X_k||^2 = (X^-1 X^-T)_kk sigma_k^4 / p_k^2.  Since
    X^-1 X^-T = (X^T X)^-1 is the inverse Gram matrix Gamma^-1, the mark
    divided by sigma_k^2 needs only the fixed diagonal ``inv_gram_diag``.
    """
    return -inv_gram_diag * sigma2 / (p * p)


def _gradient_kernel(problem: DesignProblem):
    """dL/dp as a function of (sigma2, p) on this problem's covariates.

    Square problems get the closed form, with (Gamma^-1)_kk computed
    once here; K > d problems solve Omega(p) every call.
    """
    if problem.is_square:
        inv_gram_diag = np.diag(np.linalg.inv(problem.covariates.gram())).copy()
        return functools.partial(_square_gradient, inv_gram_diag)
    return functools.partial(_gradient_given, problem.covariates.columns)


class Policy:
    """Shared bookkeeping: counts, streaming moments, plug-in variances.

    ``round`` is the number of observations so far; ``proportions`` the
    exact empirical frequencies.
    """

    name = "?"

    def __init__(
        self,
        problem: DesignProblem,
        rng: np.random.Generator | None,
        horizon: int,
    ):
        self.problem = problem
        self.rng = rng
        self.horizon = int(horizon)
        k = problem.n_arms
        self.counts = np.zeros(k, dtype=np.float64)
        self.round = 0
        self.stats = [ArmStats() for _ in range(k)]
        self.sig2hat = np.full(k, np.nan)

    @property
    def n_arms(self) -> int:
        return self.problem.n_arms

    @property
    def proportions(self) -> np.ndarray:
        if self.round == 0:
            raise ValueError("no observations yet")
        return self.counts / self.round

    def select(self, t: int) -> int:
        raise NotImplementedError

    def observe(self, arm: int, y: float) -> None:
        self.round += 1
        self.counts[arm] += 1.0
        s = self.stats[arm]
        s.update(y)
        if s.count >= 2:
            self.sig2hat[arm] = s.m2 / s.count

    def presample_done(self, t: int) -> None:
        """Hook called once after the presampling plan has executed."""


class UniformPolicy(Policy):
    name = "uniform"

    def select(self, t: int) -> int:
        return self.round % self.n_arms


class OracleTrackingPolicy(Policy):
    """Largest-deficit tracking of a known target design."""

    name = "oracle"

    def __init__(self, problem, rng, horizon, p_star=None):
        super().__init__(problem, rng, horizon)
        if p_star is None:
            p_star, _ = reference_optimum(problem)
        self.p_star = np.asarray(p_star, dtype=np.float64)

    def select(self, t: int) -> int:
        if self.round == 0:
            return int(np.argmax(self.p_star))
        return int(np.argmax(self.p_star - self.counts / self.round))


class RandomizedDesignPolicy(Policy):
    """Draw each arm from the re-solved optimistic design.

    Variances enter through their lower confidence bounds at per-arm
    failure share delta' = 1 / (T^2 K).  The design argmin is the closed
    form for square problems and a Frank-Wolfe solve otherwise (the
    latter is extension behavior beyond the square-case guarantees and
    is logged as such).  After presampling, draws target the residual
    between the optimistic design and the mass already laid out, so the
    final proportions converge to the design rather than to a mixture
    with the presampling origin; without presampling this reduces to
    drawing from the design itself.
    """

    name = "randomized"

    def __init__(
        self,
        problem,
        rng,
        horizon,
        stride: int = 1,
        fixed_variances=None,
        solver_config: SolverConfig | None = None,
        design_delta: float | None = None,
    ):
        super().__init__(problem, rng, horizon)
        if stride < 1:
            raise ValueError("stride must be positive")
        self.stride = int(stride)
        k = problem.n_arms
        # The union-bound schedule 1/(T^2 K) is what the regret analysis
        # uses, but its radius only drops below sigma^2 after ~2600 pulls
        # per arm, far beyond what presampling provides at small budgets;
        # design_delta lets experiment configs run the confidence bound at
        # a practical level instead.
        self.delta_arm = (
            float(design_delta) if design_delta is not None else 1.0 / (float(horizon) ** 2 * k)
        )
        if not 0.0 < self.delta_arm < 1.0:
            raise ValueError("design_delta must lie in (0, 1)")
        self._params = [ConfidenceParams(self.delta_arm, k2) for k2 in problem.noise.kappa2]
        self.fixed_variances = (
            None if fixed_variances is None else np.asarray(fixed_variances, dtype=np.float64)
        )
        self._lcb = np.full(k, np.nan)
        self._anchor = np.zeros(k)
        self._anchor_mass = 0.0
        self._design = np.full(k, 1.0 / k)
        self._selects = 0
        if problem.is_square:
            self._root_cof = np.sqrt(problem_constants(problem).cofactors)
            self._solver_config = None
        else:
            self._root_cof = None
            self._solver_config = solver_config or SolverConfig(max_iters=2000, gap_tol=1e-7)
            logger.warning(
                "randomized policy with K > d is extension behavior; "
                "re-solving the design by Frank-Wolfe each recompute"
            )

    def observe(self, arm: int, y: float) -> None:
        super().observe(arm, y)
        s = self.stats[arm]
        if s.count >= 2:
            self._lcb[arm] = lcb_variance(s, self._params[arm])

    def presample_done(self, t: int) -> None:
        self._anchor = self.counts / self.horizon
        self._anchor_mass = t / self.horizon

    def _optimistic_design(self) -> np.ndarray:
        sig2 = self.fixed_variances if self.fixed_variances is not None else self._lcb
        if np.any(np.isnan(sig2)):
            raise ValueError("variance bounds undefined; presample every arm first")
        if self._root_cof is not None:
            raw = np.sqrt(sig2) * self._root_cof
            return raw / raw.sum()
        x = self.problem.covariates.columns
        res = minimize(
            lambda p: _loss_given(x, sig2, p),
            lambda p: _gradient_given(x, sig2, p),
            self.n_arms,
            self._solver_config,
        )
        return res.weights.values

    def select(self, t: int) -> int:
        if self._selects % self.stride == 0:
            self._design = self._optimistic_design()
        self._selects += 1
        residual = np.maximum(self._design - self._anchor, 0.0)
        total = residual.sum()
        q = residual / total if total > 0.0 else self._design
        u = self.rng.random()
        arm = int(np.searchsorted(np.cumsum(q), u, side="right"))
        return min(arm, self.n_arms - 1)


class GradientUcbPolicy(Policy):
    """Pick the arm with the lowest bonus-adjusted gradient estimate.

    g_hat_k = dL/dp_k at the empirical proportions under plug-in
    variances, minus scale * sqrt(coeff * log(t) / T_k).  Ties break to
    the lowest index.  On square problems (K = d) the gradient is the
    closed form -(Gamma^-1)_kk sigma_k^2 / p_k^2 with no linear solve
    per step; K > d solves Omega(p) each step.  ``use_lcb`` swaps
    plug-in variances for their lower confidence bounds;
    ``fixed_variances`` bypasses estimation entirely (testing hook).
    """

    name = "gradient_ucb"

    def __init__(
        self,
        problem,
        rng,
        horizon,
        bonus_scale: float = 2.0,
        bonus_log_coeff: float = 3.0,
        use_lcb: bool = False,
        fixed_variances=None,
    ):
        super().__init__(problem, rng, horizon)
        if bonus_scale < 0.0 or bonus_log_coeff < 0.0:
            raise ValueError("bonus parameters must be nonnegative")
        self.bonus_scale = float(bonus_scale)
        self.bonus_log_coeff = float(bonus_log_coeff)
        self.use_lcb = bool(use_lcb)
        k = problem.n_arms
        self.fixed_variances = (
            None if fixed_variances is None else np.asarray(fixed_variances, dtype=np.float64)
        )
        self.delta_arm = 1.0 / (float(horizon) ** 2 * k)
        self._params = [ConfidenceParams(self.delta_arm, k2) for k2 in problem.noise.kappa2]
        self._lcb = np.full(k, np.nan)
        self._gradient = _gradient_kernel(problem)
        self._var_floor = 1e-12 * problem.noise.kappa2

    def observe(self, arm: int, y: float) -> None:
        super().observe(arm, y)
        if self.use_lcb:
            s = self.stats[arm]
            if s.count >= 2:
                self._lcb[arm] = lcb_variance(s, self._params[arm])

    def select(self, t: int) -> int:
        if self.fixed_variances is not None:
            sig2 = self.fixed_variances
        elif self.use_lcb:
            sig2 = self._lcb
        else:
            # numerical guard: a degenerate sample set must not zero a weight
            sig2 = np.maximum(self.sig2hat, self._var_floor)
        g = self._gradient(sig2, self.counts / self.round)
        if self.bonus_scale > 0.0:
            g = g - self.bonus_scale * np.sqrt(
                self.bonus_log_coeff * math.log(t) / self.counts
            )
        return int(np.argmin(g))


class ThompsonPolicy(Policy):
    """Normal-inverse-gamma posterior sampling on the noise variances.

    Every arm keeps NIG(mu, nu, alpha, beta) hyperparameters (default
    prior (0, 1, 1, 1)); a round samples sigma~_k^2 from each marginal
    inverse-gamma and descends the loss gradient computed with the
    sampled variances (on square problems the closed form
    -(Gamma^-1)_kk sigma~_k^2 / p_k^2, with no linear solve per step).
    Sampled values are clipped to a wide band around the noise proxies
    as a numerical guard.
    """

    name = "thompson"

    def __init__(
        self,
        problem,
        rng,
        horizon,
        prior: tuple[float, float, float, float] = (0.0, 1.0, 1.0, 1.0),
    ):
        super().__init__(problem, rng, horizon)
        mu0, nu0, alpha0, beta0 = prior
        if nu0 <= 0.0 or alpha0 <= 0.0 or beta0 <= 0.0:
            raise ValueError("nu, alpha, beta must be positive")
        k = problem.n_arms
        self.post_mu = np.full(k, float(mu0))
        self.post_nu = np.full(k, float(nu0))
        self.post_alpha = np.full(k, float(alpha0))
        self.post_beta = np.full(k, float(beta0))
        self._gradient = _gradient_kernel(problem)
        kap2 = problem.noise.kappa2
        self._clip_lo = 1e-8 * kap2
        self._clip_hi = 1e8 * float(kap2.max())

    def observe(self, arm: int, y: float) -> None:
        super().observe(arm, y)
        mu, nu = self.post_mu[arm], self.post_nu[arm]
        self.post_nu[arm] = nu + 1.0
        self.post_mu[arm] = (nu * mu + y) / (nu + 1.0)
        self.post_alpha[arm] += 0.5
        self.post_beta[arm] += nu * (y - mu) ** 2 / (2.0 * (nu + 1.0))

    def sample_variances(self) -> np.ndarray:
        # same stream and values as gamma(alpha) and np.clip, which add
        # per-call wrapper cost on this per-step path
        draws = self.post_beta / self.rng.standard_gamma(self.post_alpha)
        return np.minimum(np.maximum(draws, self._clip_lo), self._clip_hi)

    def select(self, t: int) -> int:
        g = self._gradient(self.sample_variances(), self.counts / self.round)
        return int(np.argmin(g))


def make_policy(
    name: str,
    problem: DesignProblem,
    rng: np.random.Generator | None,
    horizon: int,
    options: dict | None = None,
) -> Policy:
    options = dict(options or {})
    if name == "uniform":
        cls = UniformPolicy
    elif name == "randomized":
        cls = RandomizedDesignPolicy
    elif name == "gradient_ucb":
        cls = GradientUcbPolicy
    elif name == "thompson":
        cls = ThompsonPolicy
    elif name == "oracle":
        cls = OracleTrackingPolicy
    else:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    return cls(problem, rng, horizon, **options)


@dataclass(frozen=True)
class CheckpointRow:
    t: int
    regret: float
    loss_gap: float
    p_min: float
    counts: tuple[int, ...]


@dataclass(frozen=True)
class RegretTrace:
    """Per-episode record: checkpoint rows plus the plan that preceded them."""

    policy: str
    seed: int
    horizon: int
    noise: str
    rows: tuple[CheckpointRow, ...]
    origin: np.ndarray | None
    presample_end: int
    estimation_count: int
    final_counts: tuple[int, ...]
    elapsed: float

    @property
    def final_regret(self) -> float:
        return self.rows[-1].regret


def checkpoint_schedule(start: int, horizon: int, ratio: float = 1.2) -> list[int]:
    """Geometric checkpoint times from ``start`` to ``horizon`` inclusive."""
    if ratio <= 1.0:
        raise ValueError("checkpoint ratio must exceed 1")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    start = max(int(start), 1)
    ts = {horizon}
    v = float(start)
    while v < horizon:
        ts.add(int(round(v)))
        v *= ratio
    return sorted(t for t in ts if start <= t <= horizon)


def _feed(env: Environment, policy: Policy, arm: int, m: int) -> None:
    if m <= 0:
        return
    for y in env.query_block(arm, m):
        policy.observe(arm, float(y))


def run_episode(
    policy_name: str,
    env: Environment,
    horizon: int,
    plan: PresamplePlan | None = None,
    checkpoint_ratio: float = 1.2,
    estimation_count: int | None = None,
    options: dict | None = None,
    reference: tuple | None = None,
) -> RegretTrace:
    """Run one policy for ``horizon`` queries and record regret checkpoints.

    ``plan`` overrides the policy's default presampling (pass a plan
    whose counts sum to the horizon to study presampling alone).
    ``reference`` is an optional (optimal weights, optimal loss) pair;
    computed from the problem when omitted.  Episode randomness comes
    from two streams of the environment seed: the environment itself
    (spawn key 0) and the policy (spawn key 1).
    """
    t0 = time.perf_counter()
    problem = env.problem
    if horizon < 1:
        raise ValueError("horizon must be positive")
    k = problem.n_arms

    if reference is None:
        p_star, loss_star = reference_optimum(problem)
    else:
        p_star, loss_star = reference
    loss_star = float(loss_star)

    rng = np.random.default_rng(np.random.SeedSequence(env.seed, spawn_key=(1,)))
    opts = dict(options or {})
    if policy_name == "oracle":
        opts.setdefault("p_star", np.asarray(p_star, dtype=np.float64))
    policy = make_policy(policy_name, problem, rng, horizon, opts)

    # --- presampling ------------------------------------------------
    n0 = 0
    if plan is not None:
        n0 = plan.estimation_count
        if plan.total() > horizon:
            raise ValueError("presampling plan exceeds the budget")
        for arm in range(k):
            _feed(env, policy, arm, n0)
        for arm in range(k):
            _feed(env, policy, arm, int(plan.counts[arm]) - policy.stats[arm].count)
        origin = None if plan.origin is None else np.asarray(plan.origin, dtype=np.float64)
    elif policy_name in _ADAPTIVE and problem.is_square:
        n0 = estimation_count if estimation_count is not None else default_estimation_count(horizon)
        n0 = max(2, n0)
        if k * n0 > horizon:
            raise ValueError("estimation phase alone exceeds the budget")
        for arm in range(k):
            _feed(env, policy, arm, n0)
        concrete = presample_plan(policy.sig2hat, problem_constants(problem), horizon, n0)
        if concrete.total() > horizon:
            raise ValueError("presampling plan exceeds the budget")
        for arm in range(k):
            _feed(env, policy, arm, int(concrete.counts[arm]) - policy.stats[arm].count)
        origin = np.asarray(concrete.origin, dtype=np.float64)
    elif policy_name in _ADAPTIVE:
        concrete = kd_presample(k, horizon)
        for arm in range(k):
            _feed(env, policy, arm, int(concrete.counts[arm]))
        origin = np.asarray(concrete.origin, dtype=np.float64)
    elif policy_name == "thompson":
        # two observations per arm so posteriors and proportions are sane
        for arm in range(k):
            _feed(env, policy, arm, min(2, horizon - policy.round))
        origin = None
    else:
        origin = None

    t = policy.round
    presample_end = t
    policy.presample_done(t)

    # --- checkpoints and policy loop --------------------------------
    schedule = checkpoint_schedule(min(max(t, 2 * k, 1), horizon), horizon, checkpoint_ratio)
    pending = set(schedule)
    rows: list[CheckpointRow] = []

    def record(now: int) -> None:
        p = policy.counts / now
        gap = loss(problem, p) - loss_star
        r = regret(problem, p, now, loss_star)
        rows.append(
            CheckpointRow(
                t=now,
                regret=r,
                loss_gap=gap,
                p_min=float(p.min()),
                counts=tuple(int(c) for c in policy.counts),
            )
        )

    if t in pending:
        record(t)
        pending.discard(t)

    while t < horizon:
        t += 1
        arm = policy.select(t)
        y = env.query(arm)
        policy.observe(arm, y)
        if t in pending:
            record(t)
            pending.discard(t)

    return RegretTrace(
        policy=policy_name,
        seed=env.seed,
        horizon=horizon,
        noise=env.model,
        rows=tuple(rows),
        origin=origin,
        presample_end=presample_end,
        estimation_count=n0,
        final_counts=tuple(int(c) for c in policy.counts),
        elapsed=time.perf_counter() - t0,
    )
