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

Each policy class declares its presampling (``Policy.presample``).
``gradient_ucb`` and ``randomized`` take a short estimation phase (enough
samples per arm to define variances), then on square problems half the
budget at the plug-in optimal proportions, which keeps every later
information matrix invertible and floors the empirical proportions, and
otherwise ceil(T^(3/4)) per arm; ``thompson`` two per arm; ``uniform``
and ``oracle`` none.  The runner executes it, drives the policy loop,
and records regret checkpoints.

On square problems (K = d) an episode is one seed, its per-arm state
(counts, moments, posteriors) is kept in lists of Python floats, and a
step -- ``select`` and ``observe`` -- runs on those floats with no numpy
call except the random generator's.  It does the IEEE operations of the
array formulas in the same order, so its choices are bit-for-bit theirs.
On K > d one policy steps every seed of an ``Episode`` as a row of
(S, K) arrays, as the README's lock-step paragraph describes.

``uniform``, ``oracle`` and ``thompson`` are horizon-free: their choices
never read T, so at budgets of 2K or more (past thompson's warm-up and
the first checkpoint) a shorter episode with the same seed is an exact
prefix of a longer one, and an ``Episode`` can be advanced from one
budget to the next.  ``gradient_ucb`` is not: its confidence level
1/(T^2 K) and its presampling depend on T.  Nor is ``randomized``: its
presampling does, and its draws are anchored at counts / T.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DesignProblem,
    NoiseSpec,
    SimplexWeights,
    loss,
    marks,
    problem_constants,
)
# a checkpoint's two core calls, under the names perfbench's layer probes patch
from .core import regret_from_loss as regret
from .environment import Environment
from .estimation import ConfidenceParams, lcb_variance
from .solver import reference_optimum

# perfbench's layer probes patch ``policies.minimize``; not called here
from .solver import minimize  # noqa: F401

logger = logging.getLogger(__name__)

# fixed-point sweeps of randomized's K > d design solve, at most; under
# floored bounds many solves certify only at the cap, so it stays small
_DESIGN_SWEEPS = 200


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

    def lay_out(self, feed, done: int):
        """Feed each arm its count less the ``done`` samples it has had; the origin as an array."""
        for arm, count in enumerate(self.counts.tolist()):
            feed(arm, count - done)
        return None if self.origin is None else np.asarray(self.origin, dtype=np.float64)


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
        origin=SimplexWeights.uniform(k),
    )


def kd_budget_floor(policy_name: str, problem: DesignProblem, horizon: int) -> int | None:
    """The smallest budget from ``horizon`` up that fits ``policy_name``'s
    K > d presampling (``kd_presample``), or None if ``horizon`` does.
    K ceil(T^(3/4)) < T needs T > K^4, so the search starts there.
    """
    if not issubclass(policy_class(policy_name), _Moments) or problem.is_square:
        return None
    t, k = horizon, problem.n_arms
    while True:
        try:
            kd_presample(k, t)
            return None if t == horizon else t
        except ValueError:
            t = max(t + 1, k**4 + 1)


def _finite(name: str, value) -> float:
    """``value`` as a float; a bool, a non-number or a NaN or infinity raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _closed_form_argmin(neg_diag: list, sigma2, floor, counts, n: int, scale=0.0, c=0.0) -> int:
    """``np.argmin`` of the K = d gradient less its bonus, in one pass over the arms.

    With the covariates X square and invertible,
    Omega(p) = X diag(p / sigma^2) X^T, so
    Omega^-1 X_k = X^-T diag(sigma^2 / p) X^-1 X_k = X^-T e_k sigma_k^2 / p_k
    and ||Omega^-1 X_k||^2 = (X^-1 X^-T)_kk sigma_k^4 / p_k^2.  Since
    X^-1 X^-T = (X^T X)^-1 is the inverse Gram matrix Gamma^-1, the
    gradient -(Gamma^-1)_kk sigma_k^2 / p_k^2 needs only the fixed
    diagonal, passed negated (``_neg_inv_gram_diag``).  Here sigma_k^2 is
    raised to ``floor``_k, p_k = counts_k / n, and with ``scale`` > 0 the
    bonus scale sqrt(c / counts_k) is subtracted, all in the array
    formulas' IEEE operation order; an arm with no count runs on numpy's
    float64, so that p = 0 divides to inf or NaN as it did there.  The
    first NaN wins, else the first least value.
    """
    best, low, k = 0, math.inf, 0
    for a, s, f, m in zip(neg_diag, sigma2, floor, counts):
        if not m:
            m = np.float64(m)
        p = m / n
        g = a * (f if s < f else s) / (p * p)
        if scale > 0.0:
            g -= scale * math.sqrt(c / m)
        if g < low:
            best, low = k, g
        elif g != g:
            return k
        k += 1
    return best


def _neg_inv_gram_diag(problem: DesignProblem) -> list:
    """-(Gamma^-1)_kk of a square problem, the fixed factor of its gradient."""
    return (-np.diag(np.linalg.inv(problem.covariates.gram()))).tolist()


def _float_sum(values: list) -> float:
    """Sum in the order of numpy's float64 ``add.reduce``: bit-equal to ``np.sum``.

    numpy adds a pairwise sum of the values to its identity 0.0; the
    pairwise sum is sequential below 8 values, runs 8 accumulators up to
    128 and splits larger blocks in two at a multiple of 8.
    """
    return 0.0 + _pairwise_sum(values)


def _pairwise_sum(a: list) -> float:
    n = len(a)
    if n < 8:
        res = -0.0
        for v in a:
            res += v
        return res
    if n <= 128:
        r = a[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += a[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[end:]:
            res += v
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a[:n2]) + _pairwise_sum(a[n2:])


def _stacked_gradients(x: np.ndarray, sigma2: np.ndarray, p: np.ndarray, arms: list):
    """The gradients -``marks`` for the S rows of ``p`` at once.

    If the stacked inverse raises ``LinAlgError``, the rows are redone one
    by one on the same inputs, and a row whose own inverse raises gets that
    error in ``arms``; rows whose entry in ``arms`` is already set are
    skipped.  ``sigma2`` is (S, K), or (K,) shared by every row.
    """
    try:
        return -marks(x, sigma2, p)
    except np.linalg.LinAlgError:
        sigma2 = np.broadcast_to(sigma2, p.shape)
        g = np.zeros(p.shape)
        for i, arm in enumerate(arms):
            if arm is None:
                try:
                    g[i] = -marks(x, sigma2[i], p[i])
                except np.linalg.LinAlgError as exc:
                    arms[i] = exc
        return g


def _fill_argmin(g: np.ndarray, arms: list) -> list:
    """``arms`` with each unset (None) entry set to its row's argmin."""
    best = g.argmin(axis=1).tolist()
    if not any(arms):
        return best
    return [b if arm is None else arm for arm, b in zip(arms, best)]


# the per-row state a K > d policy may hold, deleted with a row that fails
_ROW_STATE = (
    "counts", "_mean", "_m2", "sig2hat", "_lcb", "_anchor",
    "post_mu", "post_nu", "post_alpha", "post_beta",
)


class Policy:
    """Shared bookkeeping: the round and the per-arm counts.

    ``round`` is the number of observations so far; ``proportions`` the
    exact empirical frequencies.  On square problems per-arm state is a
    list of Python floats, and ``select(t)`` returns one arm and
    ``observe(arm, y)`` takes one observation.  On K > d the policy owns
    S rows, one per seed: ``rng`` is a list of S generators (a single
    generator, or None, is one row), per-row state is an (S, K) array,
    per-problem values are arrays every row shares, ``select(t)``
    returns S entries (an arm, or the exception that row raised) and
    ``observe`` takes one arm and response per row.  Only
    ``gradient_ucb`` and ``randomized`` read variance estimates, so only
    they keep per-arm moments and plug-in variances (``sig2hat``);
    thompson keeps its posteriors.  ``horizon_free`` marks a policy
    whose choices never read the horizon T; ``presample`` runs the
    policy's own presampling, which by default takes no samples.
    """

    name = "?"
    horizon_free = False

    def __init__(
        self,
        problem: DesignProblem,
        rng: np.random.Generator | list | None,
        horizon: int,
    ):
        self.problem = problem
        self.horizon = int(horizon)
        self.n_arms = problem.n_arms
        self._square = problem.is_square
        self.rng = rng if self._square or isinstance(rng, list) else [rng]
        self.counts = self._per_arm(0.0, rows=True)
        self.round = 0

    def _per_arm(self, values, rows: bool = False):
        """Per-arm values (a scalar or K of them) in this policy's container.

        A list of floats on square problems; otherwise a (K,) array, or
        with ``rows`` an (S, K) array holding them in every row.
        """
        shape = (len(self.rng), self.n_arms) if rows and not self._square else self.n_arms
        values = np.full(shape, values, dtype=np.float64)
        return values.tolist() if self._square else values

    @property
    def proportions(self) -> np.ndarray:
        if self.round == 0:
            raise ValueError("no observations yet")
        return np.asarray(self.counts) / self.round

    def select(self, t: int):
        raise NotImplementedError

    def observe(self, arm, y) -> None:
        self.round += 1
        if self._square:
            self.counts[arm] += 1.0
        else:
            for key in enumerate(arm):
                self.counts[key] += 1.0

    def observe_block(self, arm: int, ys: np.ndarray) -> None:
        """Observations ``ys`` of one arm, in order; same as observing each.

        On K > d ``ys`` is (S, m): every row observes ``arm`` m times.
        """
        if self._square:
            for y in ys.tolist():
                self.observe(arm, y)
        else:
            arms = [arm] * len(ys)
            for y in ys.T.tolist():
                self.observe(arms, y)

    def _fixed_variances(self, values):
        """``values`` as per-arm variances, or None; each must be positive and finite."""
        if values is not None:
            values = self._per_arm(values)
            if not all(0.0 < v < math.inf for v in values):
                raise ValueError("fixed_variances must be positive and finite")
        return values

    def presample(self, feed, estimation_count: int | None) -> tuple:
        """Feed this policy's presampling through ``feed(arm, m)``; returns the
        phase-0 samples per arm (``estimation_count``, None for the default)
        and the design laid out as an array, or (0, None).  The base takes none."""
        return 0, None

    def presample_done(self, t: int) -> None:
        """Hook called once after the presampling has executed."""

    def drop(self, rows: list) -> None:
        """Delete the K > d ``rows`` from the per-row state and the generators."""
        for name in _ROW_STATE:
            if name in vars(self):
                setattr(self, name, np.delete(getattr(self, name), rows, axis=0))
        self.rng = [g for i, g in enumerate(self.rng) if i not in rows]


class _Moments:
    """Per-arm Welford moments, plug-in variances and, if asked, their LCBs.

    Mixed into a ``Policy`` subclass, whose ``__init__`` calls
    ``_init_moments``.  The arm's count is the policy's ``counts``; the
    running mean and m2 are kept beside it.  ``sig2hat`` is the
    population variance m2 / n, NaN until the arm has two observations;
    with ``track_lcb`` the lower confidence bounds ``_lcb`` (at per-arm
    failure share ``delta_arm``) are kept beside it.  Presampling: the
    estimation phase, then ``presample_plan`` on K = d; ``kd_presample`` on K > d.
    """

    def presample(self, feed, estimation_count: int | None) -> tuple:
        k, horizon, n0 = self.n_arms, self.horizon, 0
        if self._square:
            n0 = default_estimation_count(horizon) if estimation_count is None else estimation_count
            n0 = max(2, n0)
            if k * n0 > horizon:
                raise ValueError("estimation phase alone exceeds the budget")
            for arm in range(k):
                feed(arm, n0)
            plan = presample_plan(self.sig2hat, problem_constants(self.problem), horizon, n0)
            if plan.total() > horizon:
                raise ValueError("presampling plan exceeds the budget")
        else:
            plan = kd_presample(k, horizon)
        return n0, plan.lay_out(feed, n0)

    def _init_moments(self, delta_arm: float, track_lcb: bool) -> None:
        self._mean = self._per_arm(0.0, rows=True)
        self._m2 = self._per_arm(0.0, rows=True)
        self.sig2hat = self._per_arm(np.nan, rows=True)
        self._track_lcb = track_lcb
        self._params = [ConfidenceParams(delta_arm, k2) for k2 in self.problem.noise.kappa2]
        self._lcb = self._per_arm(np.nan, rows=True)

    def _update(self, key, arm: int, ys) -> None:
        """Welford over ``ys`` of ``arm``, at ``key``: the arm, or (row, arm) on K > d."""
        n, mean, m2 = self.counts[key], self._mean[key], self._m2[key]
        for y in ys:
            n += 1.0
            delta = y - mean
            mean += delta / n
            m2 += delta * (y - mean)
        self.counts[key], self._mean[key], self._m2[key] = n, mean, m2
        if n >= 2.0:
            var = m2 / n
            self.sig2hat[key] = var
            if self._track_lcb:
                self._lcb[key] = lcb_variance(n, var, self._params[arm])

    def observe(self, arm, y) -> None:
        if self._square:
            self._update(arm, arm, (y,))
        else:
            for i, a in enumerate(arm):
                self._update((i, a), a, (y[i],))
        self.round += 1

    def observe_block(self, arm: int, ys: np.ndarray) -> None:
        """Welford over the block in order; variances and LCB set once."""
        if self._square:
            self._update(arm, arm, ys.tolist())
        else:
            for i, row in enumerate(ys.tolist()):
                self._update((i, arm), arm, row)
        self.round += ys.shape[-1]


class UniformPolicy(Policy):
    name = "uniform"
    horizon_free = True

    def select(self, t: int):
        arm = self.round % self.n_arms
        return arm if self._square else [arm] * len(self.rng)


class OracleTrackingPolicy(Policy):
    """Largest-deficit tracking of a known target design."""

    name = "oracle"
    horizon_free = True

    def __init__(self, problem, rng, horizon, p_star=None):
        super().__init__(problem, rng, horizon)
        if p_star is None:
            p_star, _ = reference_optimum(problem)
        p_star = self._per_arm(p_star)  # a (1, K) row on K > d, as ``_var_floor``
        self.p_star = p_star if self._square else p_star[None]

    def select(self, t: int):
        n = self.round
        if not self._square:
            if n == 0:
                return [int(self.p_star.argmax())] * len(self.rng)
            return (self.p_star - self.counts / n).argmax(axis=1).tolist()
        # the largest deficit p*_k - counts_k / n is the first smallest
        # counts_k / n - p*_k (IEEE subtraction is exactly antisymmetric),
        # found in one pass as ``_closed_form_argmin`` finds its least arm
        best, low, k = 0, math.inf, 0
        for c, p in zip(self.counts, self.p_star):
            v = c / n - p if n else -p
            if v < low:
                best, low = k, v
            elif v != v:
                return k
            k += 1
        return best


class RandomizedDesignPolicy(_Moments, Policy):
    """Draw each arm from the re-solved optimistic design.

    Variances enter through their lower confidence bounds at per-arm
    failure share delta' = 1 / (T^2 K).  The design is re-solved every
    round: for square problems the closed form, p_k proportional to
    sigma_k sqrt(cofactor_k), and otherwise ``reference_optimum`` under
    the bounds, capped at ``_DESIGN_SWEEPS`` fixed-point sweeps (the
    latter is extension behavior beyond the square-case guarantees and
    is logged as such).  After presampling, draws target
    the residual between the optimistic design and the mass already laid
    out, so the final proportions converge to the design rather than to
    a mixture with the presampling origin; without presampling this
    reduces to drawing from the design itself.  The residual and the
    draw run on Python floats, with sums in numpy's order, as does the
    design on square problems; a K > d row solves its own design and
    draws from its own generator.  The bounds are read only once
    ``presample_done`` has found every arm's bound defined;
    ``fixed_variances`` replace them.
    """

    name = "randomized"

    def __init__(
        self,
        problem,
        rng,
        horizon,
        fixed_variances=None,
        design_delta: float | None = None,
    ):
        super().__init__(problem, rng, horizon)
        k = self.n_arms
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
        self._init_moments(self.delta_arm, track_lcb=True)
        self.fixed_variances = self._fixed_variances(fixed_variances)
        self._bounds_ready = False  # whether every arm's bound is defined
        self._anchor = self._per_arm(0.0, rows=True)
        if problem.is_square:
            self._root_cof = np.sqrt(problem_constants(problem).cofactors).tolist()
        else:
            self._root_cof = None
            logger.warning(
                "randomized policy with K > d is extension behavior; "
                "re-solving the design by the reference solver every round"
            )

    def presample_done(self, t: int) -> None:
        self._anchor = self._per_arm(np.asarray(self.counts) / self.horizon, rows=True)
        # the bounds only ever go from NaN to defined, so one scan here
        # covers every later round
        self._bounds_ready = not np.any(np.isnan(self._lcb))

    def _optimistic_design(self, row: int = 0) -> tuple:
        """The optimistic design as weights and their total: sigma_k sqrt(cofactor_k)
        on K = d, the reference solver's proportions and 1.0 on K > d."""
        sig2 = self.fixed_variances
        if sig2 is None:
            if not self._bounds_ready:
                raise ValueError("variance bounds undefined; presample every arm first")
            sig2 = self._lcb if self._square else self._lcb[row]
        if self._root_cof is not None:
            raw = [math.sqrt(s) * r for s, r in zip(sig2, self._root_cof)]
            return raw, _float_sum(raw)
        design = DesignProblem(self.problem.covariates, NoiseSpec(sig2))
        weights, _ = reference_optimum(design, max_iters=_DESIGN_SWEEPS)
        return weights.values.tolist(), 1.0

    def _draw(self, row: int, rng) -> int:
        """An arm of ``row`` from the design's residual over the anchor, else from the design."""
        weights, total = self._optimistic_design(row)
        anchor = self._anchor if self._square else self._anchor[row].tolist()
        residual = [0.0 if (r := w / total - a) < 0.0 else r for w, a in zip(weights, anchor)]
        mass = _float_sum(residual)
        if not mass > 0.0:
            residual, mass = weights, total
        u = rng.random()
        # the first arm whose cumulative mass exceeds u
        cum = 0.0
        for arm, r in enumerate(residual):
            cum += r / mass
            if u < cum:
                return arm
        return self.n_arms - 1

    def select(self, t: int):
        if self._square:
            return self._draw(0, self.rng)
        arms = []
        for row, rng in enumerate(self.rng):
            try:
                arms.append(self._draw(row, rng))
            except Exception as exc:
                arms.append(exc)
        return arms


class GradientUcbPolicy(_Moments, Policy):
    """Pick the arm with the lowest bonus-adjusted gradient estimate.

    g_hat_k = dL/dp_k at the empirical proportions under plug-in
    variances, minus scale * sqrt(coeff * log(t) / T_k).  Ties break to
    the lowest index.  On square problems (K = d) the gradient is the
    closed form -(Gamma^-1)_kk sigma_k^2 / p_k^2, and the whole step runs
    on Python floats with no numpy call; K > d inverts every row's
    Omega(p) in one stacked ``marks`` call each step.
    ``use_lcb`` swaps plug-in variances for their lower confidence
    bounds; ``fixed_variances`` bypasses estimation entirely (testing
    hook).
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
        self.bonus_scale = _finite("bonus_scale", bonus_scale)
        self.bonus_log_coeff = _finite("bonus_log_coeff", bonus_log_coeff)
        if self.bonus_scale < 0.0 or self.bonus_log_coeff < 0.0:
            raise ValueError("bonus parameters must be nonnegative")
        if not isinstance(use_lcb, bool):
            raise ValueError(f"use_lcb must be true or false, got {use_lcb!r}")
        self.use_lcb = use_lcb
        self.fixed_variances = self._fixed_variances(fixed_variances)
        self.delta_arm = 1.0 / (float(horizon) ** 2 * self.n_arms)
        self._init_moments(self.delta_arm, track_lcb=self.use_lcb)
        floor = 1e-12 * problem.noise.kappa2
        if self._square:
            self._neg_inv_gram = _neg_inv_gram_diag(problem)
            # a floor of -inf raises no fixed or LCB variance in select's loop
            plug_in = self.fixed_variances is None and not use_lcb
            self._var_floor = floor.tolist() if plug_in else [-math.inf] * self.n_arms
        else:
            self._x = problem.covariates.columns
            # shared by the rows, and held as one (1, K) row so that a one-row
            # episode's (1, K) plug-ins meet it without a numpy broadcast
            self._var_floor = floor[None]

    def _variances(self):
        """The variances a step reads; on K = d, before ``_var_floor`` raises them."""
        if self.fixed_variances is not None:
            return self.fixed_variances
        if self.use_lcb:
            return self._lcb
        if self._square:
            return self.sig2hat
        # numerical guard: a degenerate sample set must not zero a weight
        return np.maximum(self.sig2hat, self._var_floor)

    def select(self, t: int):
        scale = self.bonus_scale
        c = self.bonus_log_coeff * math.log(t) if scale > 0.0 else 0.0
        if self._square:
            # NaN, an arm below two observations, passes the floor as in np.maximum
            return _closed_form_argmin(
                self._neg_inv_gram, self._variances(), self._var_floor, self.counts, self.round,
                scale, c,
            )
        counts, arms = self.counts, [None] * len(self.rng)
        g = _stacked_gradients(self._x, self._variances(), counts / self.round, arms)
        if scale > 0.0:
            g = g - scale * np.sqrt(c / counts)
        return _fill_argmin(g, arms)


class ThompsonPolicy(Policy):
    """Normal-inverse-gamma posterior sampling on the noise variances.

    Every arm keeps NIG(mu, nu, alpha, beta) hyperparameters (default
    prior (0, 1, 1, 1)); a round samples sigma~_k^2 from each marginal
    inverse-gamma and descends the loss gradient computed with the
    sampled variances.  On square problems that gradient is the closed
    form -(Gamma^-1)_kk sigma~_k^2 / p_k^2 and the variances are drawn
    arm by arm, so the step runs on Python floats with no numpy call but
    the generator's; a K > d row draws them in one call on its own
    generator, and the rows' Omega(p) are inverted together.  Sampled
    values are clipped to a wide band around the noise proxies as a
    numerical guard.
    """

    name = "thompson"
    horizon_free = True

    def __init__(
        self,
        problem,
        rng,
        horizon,
        prior: tuple[float, float, float, float] = (0.0, 1.0, 1.0, 1.0),
    ):
        super().__init__(problem, rng, horizon)
        mu0, nu0, alpha0, beta0 = (_finite("each prior entry", v) for v in prior)
        if nu0 <= 0.0 or alpha0 <= 0.0 or beta0 <= 0.0:
            raise ValueError("nu, alpha, beta must be positive")
        self.post_mu = self._per_arm(mu0, rows=True)
        self.post_nu = self._per_arm(nu0, rows=True)
        self.post_alpha = self._per_arm(alpha0, rows=True)
        self.post_beta = self._per_arm(beta0, rows=True)
        kap2 = problem.noise.kappa2
        clip_lo = 1e-8 * kap2  # a (1, K) row on K > d, as ``_var_floor``
        self._clip_lo = clip_lo.tolist() if self._square else clip_lo[None]
        self._clip_hi = 1e8 * float(kap2.max())
        if self._square:
            self._neg_inv_gram = _neg_inv_gram_diag(problem)
        else:
            self._x = problem.covariates.columns

    def presample(self, feed, estimation_count: int | None) -> tuple:
        # two observations per arm so posteriors and proportions are sane
        for arm in range(self.n_arms):
            feed(arm, min(2, self.horizon - self.round))
        return 0, None

    def observe(self, arm, y) -> None:
        super().observe(arm, y)
        if self._square:
            self._posterior(arm, y)
        else:
            for i, a in enumerate(arm):
                self._posterior((i, a), y[i])

    def _posterior(self, key, y: float) -> None:
        """The conjugate update at ``key``: the arm, or (row, arm) on K > d."""
        mu, nu = self.post_mu[key], self.post_nu[key]
        self.post_nu[key] = nu + 1.0
        self.post_mu[key] = (nu * mu + y) / (nu + 1.0)
        self.post_alpha[key] += 0.5
        self.post_beta[key] += nu * (y - mu) ** 2 / (2.0 * (nu + 1.0))

    def sample_variances(self) -> list:
        """beta_k / Gamma(alpha_k), clipped to [clip_lo_k, clip_hi], on K = d.

        Drawn arm by arm, in index order: that consumes the same stream,
        and gives the same values, as one ``standard_gamma`` call on the
        alpha array, which is how a K > d row draws.
        """
        gamma, hi = self.rng.standard_gamma, self._clip_hi
        draws = []
        for a, b, lo in zip(self.post_alpha, self.post_beta, self._clip_lo):
            g = gamma(a)
            # a zero draw divides as in numpy: beta / 0 is inf, clipped to hi
            s = b / g if g else np.float64(b) / g
            s = lo if s < lo else s
            draws.append(hi if s > hi else s)
        return draws

    def select(self, t: int):
        if self._square:
            # the draws are clipped already: the floor clip_lo raises none
            return _closed_form_argmin(
                self._neg_inv_gram, self.sample_variances(), self._clip_lo, self.counts, self.round
            )
        arms = [None] * len(self.rng)
        gamma = np.ones_like(self.post_alpha)
        for i, rng in enumerate(self.rng):
            # each row draws from its own generator, in row order
            try:
                gamma[i] = rng.standard_gamma(self.post_alpha[i])
            except Exception as exc:
                arms[i] = exc
        # np.minimum and np.maximum: np.clip's values, without its wrapper cost
        sig2 = np.minimum(np.maximum(self.post_beta / gamma, self._clip_lo), self._clip_hi)
        g = _stacked_gradients(self._x, sig2, self.counts / self.round, arms)
        return _fill_argmin(g, arms)


_POLICY_CLASSES = {
    cls.name: cls
    for cls in (
        UniformPolicy,
        RandomizedDesignPolicy,
        GradientUcbPolicy,
        ThompsonPolicy,
        OracleTrackingPolicy,
    )
}
POLICY_NAMES = tuple(_POLICY_CLASSES)


def policy_class(name: str) -> type[Policy]:
    try:
        return _POLICY_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}") from None


def make_policy(
    name: str,
    problem: DesignProblem,
    rng: np.random.Generator | list | None,
    horizon: int,
    options: dict | None = None,
) -> Policy:
    return policy_class(name)(problem, rng, horizon, **dict(options or {}))


@dataclass(frozen=True)
class CheckpointRow:
    t: int
    regret: float
    loss_gap: float
    p_min: float
    counts: tuple[int, ...]


@dataclass(frozen=True)
class RegretTrace:
    """Per-episode record: checkpoint rows plus the plan that preceded them.

    ``elapsed`` is the wall time spent on this budget: an ``Episode``
    advanced through several budgets charges each one its increment, and
    a lock-step group's time for a budget (set-up included on the first)
    is split evenly across the members whose traces it returns.
    """

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
    if horizon * (ratio - 1.0) < 1.0:
        # v then grows by under 1 a step, so round() skips no integer
        return list(range(start, horizon + 1))
    ts = {horizon}
    v = float(start)
    while v < horizon:
        ts.add(int(round(v)))
        v *= ratio
    return sorted(t for t in ts if start <= t <= horizon)


def extends_past(policy_name: str, n_arms: int, horizon: int) -> bool:
    """Whether a ``horizon``-step episode is the prefix of every longer one.

    True for horizon-free policies once ``horizon`` reaches 2K: below
    that, thompson's 2-per-arm warm-up and the start of the checkpoint
    schedule, min(max(t, 2K, 1), T), still depend on T.
    """
    return policy_class(policy_name).horizon_free and horizon >= 2 * n_arms


class _Member:
    """One seed of an ``Episode``: its environment, checkpoint rows and
    the exception that dropped it, if any."""

    __slots__ = ("env", "rows", "error")

    def __init__(self, env: Environment):
        self.env = env
        self.rows: dict = {}
        self.error: Exception | None = None


class Episode:
    """Seeded episodes of one policy, run budget by budget in lock-step.

    ``envs`` is one ``Environment`` or a list of them, one per member
    (seed), on one problem; on K = d an episode has one member.
    Construction builds the policy for ``horizon`` (on K > d one row per
    member, see ``Policy``) and runs its ``presample``, or lays out
    ``plan``; ``advance_all(T)`` continues the step loop to T and returns
    each member's T-step trace, and ``advance(T)`` does so for a
    one-member episode.  Every per-member call (a presampling query, a
    K > d step's query, a checkpoint) runs through ``_each``: a member
    whose call raises, or whose ``select`` entry is an exception, loses
    its row and keeps its error; the others run on, their streams
    untouched, so each member's trace is the one it records alone.  An
    error no row owns (from building the policy or its presampling plan,
    or from ``observe``, which updates every row) is every running
    member's.

    ``budgets`` names the later horizons the episode may be advanced to;
    that needs a horizon-free policy (see ``extends_past``), whose T-step
    episode is a prefix of every longer one.  Checkpoints are recorded on
    the union of the horizons' schedules, and each trace keeps the rows
    of its own schedule.  Other arguments are those of ``run_episode``.
    """

    def __init__(
        self,
        policy_name: str,
        envs,
        horizon: int,
        plan: PresamplePlan | None = None,
        checkpoint_ratio: float = 1.2,
        estimation_count: int | None = None,
        options: dict | None = None,
        reference: tuple | None = None,
        budgets=(),
    ):
        self._setup_start = time.perf_counter()
        envs = [envs] if isinstance(envs, Environment) else list(envs)
        if not envs:
            raise ValueError("an episode needs at least one environment")
        problem = envs[0].problem
        if any(env.problem is not problem for env in envs):
            raise ValueError("an episode's environments must share one problem")
        if problem.is_square and len(envs) > 1:
            raise ValueError("a K = d episode has one seed; run the seeds as separate episodes")
        if horizon < 1:
            raise ValueError("horizon must be positive")
        k = problem.n_arms
        horizons = sorted({horizon, *budgets})
        if horizons[0] != horizon:
            raise ValueError("later budgets must exceed the horizon")
        if len(horizons) > 1 and not extends_past(policy_name, k, horizon):
            raise ValueError(
                f"a {policy_name} episode of {horizon} steps cannot be extended to later budgets"
            )

        _, loss_star = reference_optimum(problem) if reference is None else reference
        self._problem = problem
        self._loss_star = float(loss_star)
        if plan is not None and plan.total() > horizon:
            raise ValueError("presampling plan exceeds the budget")

        self._members = [_Member(env) for env in envs]
        self._live = list(self._members)  # the members still running, in row order
        self.policy = self.origin = None
        n0 = 0
        try:
            rngs = [
                np.random.default_rng(np.random.SeedSequence(env.seed, spawn_key=(1,)))
                for env in envs
            ]
            rng = rngs[0] if problem.is_square else rngs
            self.policy = make_policy(policy_name, problem, rng, horizon, options)
            if plan is None:
                n0, self.origin = self.policy.presample(self._feed, estimation_count)
            else:
                n0 = plan.estimation_count
                for arm in range(k):
                    self._feed(arm, n0)
                self.origin = plan.lay_out(self._feed, n0)
            self.policy.presample_done(self.policy.round)
        except Exception as exc:
            self._fail(exc)
        t = self.policy.round if self._live else 0

        self.policy_name = policy_name
        self.t = t
        self.presample_end = t
        self.estimation_count = n0
        self._schedules = {
            h: checkpoint_schedule(min(max(t, 2 * k, 1), h), h, checkpoint_ratio)
            for h in horizons
        }
        self._pending = set().union(*self._schedules.values())
        if t in self._pending:
            try:
                self._record(t)
            except Exception as exc:  # raised once no member is left
                self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        """End every running member with ``exc``."""
        for member in self._live:
            member.error = exc
        self._live = []

    def _each(self, call, entries: list) -> list:
        """``call(member, entry)`` for every running member and its entry, in row order.

        Returns the running members' results.  A member whose entry is an
        exception, or whose call raises, keeps that error and loses its
        row, here in ``entries`` and in the policy; when no member is left
        the last one's error is raised, which ends the set-up or the step
        loop.
        """
        results, failed = [], []
        for i, (member, entry) in enumerate(zip(self._live, entries)):
            try:
                if isinstance(entry, Exception):
                    raise entry
                results.append(call(member, entry))
            except Exception as exc:
                member.error = exc
                failed.append(i)
        if failed:
            if not self._problem.is_square:
                self.policy.drop(failed)
            for i in reversed(failed):
                del entries[i]
            last = self._live[failed[-1]]
            self._live = [m for m in self._live if m.error is None]
            if not self._live:
                raise last.error
        return results

    def _feed(self, arm: int, m: int) -> None:
        """Presample: every member observes ``arm`` m times from its environment."""
        if m > 0:
            ys = self._each(lambda member, a: member.env.query_block(a, m), [arm] * len(self._live))
            self.policy.observe_block(arm, ys[0] if self._problem.is_square else np.array(ys))

    def _query_rows(self, arms: list) -> list:
        """The K > d step's responses to ``arms``, one per running row."""
        return self._each(lambda member, arm: member.env.query(arm), arms)

    def _record(self, now: int) -> None:
        """Record checkpoint ``now`` of every running member."""

        def checkpoint(member, counts):
            p = np.asarray(counts) / now
            value = loss(self._problem, p)
            member.rows[now] = CheckpointRow(
                t=now,
                regret=regret(value, now, self._loss_star),
                loss_gap=value - self._loss_star,
                p_min=float(p.min()),
                counts=tuple(int(c) for c in counts),
            )

        counts = self.policy.counts
        self._each(checkpoint, [counts] if self._problem.is_square else list(counts))

    def advance_all(self, horizon: int) -> list:
        """Run every member on to ``horizon`` queries; one outcome per member.

        A member's outcome is its ``horizon``-step trace, or the exception
        that dropped it, at this call and every later one.  The traces
        share the call's time, plus the set-up on the first call.
        """
        if horizon not in self._schedules or horizon < self.t:
            raise ValueError(f"episode at t={self.t} cannot be advanced to {horizon}")
        start = self._setup_start if self._setup_start is not None else time.perf_counter()
        self._setup_start = None
        if self._live:
            select, observe = self.policy.select, self.policy.observe
            query = self._live[0].env.query if self._problem.is_square else self._query_rows
            pending, t = self._pending, self.t
            try:
                while t < horizon:
                    t += 1
                    arm = select(t)
                    observe(arm, query(arm))
                    if t in pending:
                        self._record(t)
            except Exception as exc:
                # a member that raised alone has lost its row already; this
                # error is every remaining member's, or the last one's
                self._fail(exc)
        self.t = horizon
        elapsed = (time.perf_counter() - start) / max(len(self._live), 1)
        return [
            member.error if member.error is not None else self._trace(member, horizon, elapsed)
            for member in self._members
        ]

    def _trace(self, member: _Member, horizon: int, elapsed: float) -> RegretTrace:
        rows = tuple(member.rows[s] for s in self._schedules[horizon])
        return RegretTrace(
            policy=self.policy_name,
            seed=member.env.seed,
            horizon=horizon,
            noise=member.env.model,
            rows=rows,
            origin=self.origin,
            presample_end=self.presample_end,
            estimation_count=self.estimation_count,
            final_counts=rows[-1].counts,
            elapsed=elapsed,
        )

    def advance(self, horizon: int) -> RegretTrace:
        """``advance_all`` for a one-member episode: its trace, or its error raised.

        An episode whose ``advance`` raised must be discarded.
        """
        if len(self._members) != 1:
            raise ValueError("advance runs a one-member episode; use advance_all")
        (outcome,) = self.advance_all(horizon)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


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

    ``plan`` replaces the policy's ``presample`` (pass a plan whose counts
    sum to the horizon to study presampling alone); ``estimation_count``
    is the K = d phase-0 count that ``presample`` takes.  A presampling
    error, such as an estimation phase over the budget, is raised here.
    ``reference`` is an optional (optimal weights, optimal loss) pair, of
    which regret reads the loss; computed from the problem when omitted.
    ``oracle`` tracks ``reference_optimum(problem)`` unless its options
    give ``p_star``.  Episode randomness comes from two streams of the
    environment seed: the environment itself (spawn key 0) and the
    policy (spawn key 1).  This is a one-member, one-horizon ``Episode``;
    a sweep runs a horizon-free policy's seed once, to its largest
    budget, and cuts the smaller budgets' traces from that run, and
    steps a K > d cell's seeds in lock-step.
    """
    episode = Episode(
        policy_name, env, horizon, plan, checkpoint_ratio, estimation_count, options, reference
    )
    return episode.advance(horizon)
