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

Each policy class declares its presampling (``Policy.presample``), the
only source of presampled samples (see the README).  The runner executes
it, calls ``Policy.run`` from one regret checkpoint to the next, and
records them.  ``uniform`` and ``oracle`` never read a response: their
``run`` plans a segment's arms, queries them as one block and counts
them once (``_OpenLoop``).  Every per-arm state is an (S, K) float64
array, one row per seed of an ``Episode`` (the README's lock-step
paragraph); a square problem (K = d) has one seed, so S = 1.  On K > d,
and in presampling, observations reach ``_update``; on K = d the other
three step in one loop per class on Python floats unpacked from row 0,
with the IEEE operations of the array formulas in their order.

``uniform``, ``oracle`` and ``thompson`` are horizon-free (see
``extends_past``): an ``Episode`` can be advanced from one budget to the
next.  ``gradient_ucb`` and ``randomized`` are not: their presampling,
and ``randomized``'s confidence level 1/(T^2 K) and anchor, depend on T.
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
    gram_cofactors,
    loss,
    marks,
    optimal_weights_closed_form,
    regret,
)
from .environment import NOISE_CHUNK, Environment
from .estimation import ConfidenceParams, lcb_variance
from .solver import reference_optimum

# perfbench's layer probes patch ``policies.minimize``; not called here
from .solver import minimize  # noqa: F401

logger = logging.getLogger(__name__)

# fixed-point sweeps of randomized's K > d design solve, at most; under
# floored bounds many solves certify only at the cap, so it stays small
_DESIGN_SWEEPS = 200

# successive regret checkpoints are this factor apart, rounded to steps
CHECKPOINT_RATIO = 1.2


def default_estimation_count(horizon: int) -> int:
    """Phase-0 samples per arm: max(2, ceil(10 log(2T)))."""
    return max(2, math.ceil(10.0 * math.log(2.0 * horizon)))


def estimation_phase(k: int, horizon: int) -> int:
    """K = d phase-0 samples per arm, ``default_estimation_count``; errors
    when the K arms' phase alone would exceed the budget."""
    n0 = default_estimation_count(horizon)
    if k * n0 > horizon:
        raise ValueError("estimation phase alone exceeds the budget")
    return n0


def presample_plan(sigma2_estimates, problem: DesignProblem, horizon: int, n0: int) -> tuple:
    """Square-case presampling at half budget: N_k = ceil(p^o_k T / 2).

    ``p^o`` is the plug-in optimal design: ``optimal_weights_closed_form``
    of ``problem``'s covariates under the variance estimates, which must
    be positive and finite.  Counts are floored at 2 so every arm has a
    defined variance, and trimmed (largest first) in the rare case the
    total would exceed ceil(T/2) + K, then until the plan fits the
    budget beside the ``n0`` phase-0 samples per arm:
    sum_k max(N_k, n0) <= T, which K n0 <= T (``estimation_phase``)
    makes reachable.  Returns the per-arm target totals N and ``p^o``.
    """
    design = DesignProblem(problem.covariates, NoiseSpec(sigma2_estimates))
    origin = optimal_weights_closed_form(design).values
    counts = np.maximum(np.ceil(origin * horizon / 2.0).astype(np.int64), 2)
    cap = math.ceil(horizon / 2) + counts.shape[0]
    while counts.sum() > cap and counts.max() > 2:
        counts[np.argmax(counts)] -= 1
    while np.maximum(counts, n0).sum() > horizon and counts.max() > n0:
        counts[np.argmax(counts)] -= 1
    return counts, origin


def kd_presample(k: int, horizon: int) -> int:
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
    return n


def budget_floor(policy_name: str, problem: DesignProblem, horizon: int) -> int | None:
    """The smallest budget from ``horizon`` up that fits ``policy_name``'s
    presampling as far as it is known before any sample (``estimation_phase``
    on K = d, ``kd_presample`` on K > d), or None if ``horizon`` does.  No
    budget below K n0 fits the phase, and none up to K^4 fits the schedule.
    """
    if not issubclass(policy_class(policy_name), _Moments):
        return None
    t, k, square = horizon, problem.n_arms, problem.is_square
    while True:
        try:
            if square:
                estimation_phase(k, t)
            else:
                kd_presample(k, t)
            return None if t == horizon else t
        except ValueError:
            t = max(t + 1, 2 * k if square else k**4 + 1)


def _finite(name: str, value) -> float:
    """``value`` as a float; a bool, a non-number or a NaN or infinity raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _uniforms(rng):
    """Successive ``rng.random()`` values, drawn ``NOISE_CHUNK`` at a time:
    ``rng.random(n)`` gives the n values, and leaves the generator in the
    state, of n scalar calls."""
    while True:
        yield from rng.random(NOISE_CHUNK).tolist()


def _residual_arm(weights: list, total: float, anchor: list, u: float) -> int:
    """The arm the uniform ``u`` draws from the residual weights / total -
    anchor, clamped at 0, or from the weights when no residual mass is
    left: the first arm whose cumulative share exceeds ``u``, else the
    last.  On Python floats, with sums in numpy's order."""
    residual = [0.0 if (r := w / total - a) < 0.0 else r for w, a in zip(weights, anchor)]
    mass = _float_sum(residual)
    if not mass > 0.0:
        residual, mass = weights, total
    cum = 0.0
    for arm, r in enumerate(residual):
        cum += r / mass
        if u < cum:
            return arm
    return len(residual) - 1


def _neg_inv_gram_diag(problem: DesignProblem) -> list:
    """-(Gamma^-1)_kk of a square problem, the fixed factor of its gradient:
    with X square, Omega^-1 X_k = X^-T e_k sigma_k^2 / p_k and X^-1 X^-T = Gamma^-1,
    so the gradient -||Omega^-1 X_k||^2 / sigma_k^2 is -(Gamma^-1)_kk sigma_k^2 / p_k^2."""
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


def _stacked_gradients(x: np.ndarray, sigma2: np.ndarray, p: np.ndarray) -> tuple:
    """The gradients -``marks`` for the S rows of ``p`` and of ``sigma2`` at
    once, and per row None or the error of its own inverse.

    If the stacked inverse raises ``LinAlgError``, the rows are redone one
    by one on the same inputs.
    """
    errors = [None] * p.shape[0]
    try:
        return -marks(x, sigma2, p), errors
    except np.linalg.LinAlgError:
        g = np.zeros(p.shape)
        for i in range(p.shape[0]):
            try:
                g[i] = -marks(x, sigma2[i], p[i])
            except np.linalg.LinAlgError as exc:
                errors[i] = exc
        return g, errors


def _fill_argmin(g: np.ndarray, arms: list) -> list:
    """``arms`` with each unset (None) entry set to its row's argmin."""
    best = g.argmin(axis=1).tolist()
    if not any(arms):
        return best
    return [b if arm is None else arm for arm, b in zip(arms, best)]


# the per-row state a policy may hold, deleted with a row that fails:
# (S, K) arrays, and lists of S random streams
_ROW_STATE = (
    "counts", "_mean", "_m2", "sig2hat", "_lcb", "_anchor",
    "post_mu", "post_nu", "post_alpha", "post_beta",
)
_ROW_STREAMS = ("rng", "_uniforms")


class Policy:
    """Shared bookkeeping: the round (observations so far) and the counts.

    A policy steps only through ``run``.  It owns S rows, one per seed:
    ``rng`` is a list of S generators (one generator, or None, is one
    row), and every per-arm state is an (S, K) float64 array, with S = 1
    on square problems.  On K > d the base ``run`` steps the rows through
    ``select`` and ``observe``.  ``observe`` and ``observe_block``
    (presampling, on both shapes) reach the class's ``_update`` hook.
    ``horizon_free`` marks a policy whose choices never read T, and
    ``open_loop`` one whose ``run`` queries a segment as one block.
    """

    name = "?"
    horizon_free = False
    open_loop = False

    def __init__(self, problem: DesignProblem, rng: np.random.Generator | list | None, horizon: int):
        self.problem = problem
        self.horizon = int(horizon)
        self.n_arms = problem.n_arms
        self._square = problem.is_square
        self.rng = rng if isinstance(rng, list) else [rng]
        self.counts = self._per_arm(0.0)
        self.round = 0

    def _per_arm(self, values) -> np.ndarray:
        """Per-arm values (a scalar or K of them) in every row of an (S, K) array."""
        return np.full((len(self.rng), self.n_arms), values, dtype=np.float64)

    def select(self, t: int) -> list:
        """The K > d rows' choices at step t: an arm, or the row's exception."""
        return self._select_rows(t)

    def run(self, t: int, stop: int, query) -> None:
        """Steps t + 1 through ``stop``: each selects, queries ``query(arms)``
        and observes; closed-loop K > d rows step here.  Those classes
        override it on K = d with one loop on row 0 unpacked into lists,
        held in locals and written back when it ends, that applies each
        observation with ``_update``'s IEEE operations in their order."""
        select, observe = self.select, self.observe
        for t in range(t + 1, stop + 1):
            arms = select(t)
            observe(arms, query(arms))

    def observe(self, arms: list, ys) -> None:
        """The K > d step's response ``ys[i]`` to ``arms[i]`` in each row i."""
        for i, a in enumerate(arms):
            self._update((i, a), a, (ys[i],))
        self.round += 1

    def observe_block(self, arm: int, ys: np.ndarray) -> None:
        """Observations ``ys`` of one arm, (S, m): every row observes ``arm``
        m times, taken in order one at a time."""
        for i, row in enumerate(ys.tolist()):
            self._update((i, arm), arm, row)
        self.round += ys.shape[-1]

    def _update(self, key, arm: int, ys) -> None:
        """Take observations ``ys`` of ``arm``, in order, into the state at
        ``key``, (row, arm).  The base counts them."""
        self.counts[key] += len(ys)

    def presample(self, feed) -> tuple:
        """Feed this policy's presampling through ``feed(arm, m)``; returns the
        phase-0 samples per arm and the design laid out as an array, or
        (0, None).  The base takes none; a learner's leaves every arm of
        every row two observations or more (``thompson``'s from T = 2K,
        below which it takes the whole budget), so no step meets a zero
        count or a NaN variance."""
        return 0, None

    def drop(self, rows: list) -> None:
        """Delete ``rows`` from the per-row state and the generators."""
        for name in _ROW_STATE:
            if name in vars(self):
                setattr(self, name, np.delete(getattr(self, name), rows, axis=0))
        for name in _ROW_STREAMS:
            if name in vars(self):
                setattr(self, name, [g for i, g in enumerate(getattr(self, name)) if i not in rows])


class _Moments:
    """Per-arm Welford moments and plug-in variances.

    Mixed into a ``Policy`` subclass, whose ``__init__`` calls
    ``_init_moments``.  The arm's count is the policy's ``counts``; the
    running mean and m2 are kept beside it.  ``sig2hat`` is the
    population variance m2 / n, NaN until the arm has two observations.
    Presampling: the estimation phase (``estimation_phase``), then
    ``presample_plan`` on K = d, trimmed to fit the budget;
    ``kd_presample`` on K > d.
    """

    def presample(self, feed) -> tuple:
        k, horizon = self.n_arms, self.horizon
        if not self._square:
            n = kd_presample(k, horizon)
            for arm in range(k):
                feed(arm, n)
            return 0, SimplexWeights.uniform(k).values
        n0 = estimation_phase(k, horizon)
        for arm in range(k):
            feed(arm, n0)
        counts, origin = presample_plan(self.sig2hat[0], self.problem, horizon, n0)
        for arm, count in enumerate(counts.tolist()):
            feed(arm, count - n0)
        return n0, origin

    def _init_moments(self) -> None:
        self._mean = self._per_arm(0.0)
        self._m2 = self._per_arm(0.0)
        self.sig2hat = self._per_arm(np.nan)

    def _update(self, key, arm: int, ys) -> None:
        """Welford over ``ys`` of ``arm``, at ``key``, (row, arm), on Python floats."""
        n, mean, m2 = float(self.counts[key]), float(self._mean[key]), float(self._m2[key])
        for y in ys:
            n += 1.0
            delta = y - mean
            mean += delta / n
            m2 += delta * (y - mean)
        self.counts[key], self._mean[key], self._m2[key] = n, mean, m2
        if n >= 2.0:
            self.sig2hat[key] = m2 / n


class _OpenLoop:
    """Mixed into a ``Policy`` whose arms never read a response, so every
    lock-step row holds the same counts: ``plan(m)`` gives the next m arms
    without changing the policy, and ``run`` queries a segment as one
    block, ``query(arms)``, and counts it."""

    open_loop = True

    def run(self, t: int, stop: int, query) -> None:
        arms = self.plan(stop - t)
        query(arms)
        self.counts += np.bincount(np.array(arms, dtype=np.intp), minlength=self.n_arms)
        self.round += len(arms)


class UniformPolicy(_OpenLoop, Policy):
    name = "uniform"
    horizon_free = True

    def plan(self, m: int) -> list:
        """Arm round % K each step."""
        n, k = self.round, self.n_arms
        return [(n + i) % k for i in range(m)]


class OracleTrackingPolicy(_OpenLoop, Policy):
    """Largest-deficit tracking of the optimal design, ``reference_optimum(problem)``
    (cached on the problem)."""

    name = "oracle"
    horizon_free = True

    def __init__(self, problem, rng, horizon):
        super().__init__(problem, rng, horizon)
        self.p_star = reference_optimum(problem)[0].values.tolist()

    def plan(self, m: int) -> list:
        """The largest deficit p*_k - counts_k / n each step, the first of
        equals as np.argmax (the first largest p*_k at n = 0); found as the
        first least counts_k / n - p*_k, since IEEE subtraction is exactly
        antisymmetric.  p* is a ``SimplexWeights``, finite, so no deficit is NaN."""
        counts = self.counts[0].tolist()
        p_star, arms = self.p_star, []
        for n in range(self.round, self.round + m):
            if not n:
                best = p_star.index(max(p_star))
            else:
                best, low, k = 0, math.inf, 0
                for c, p in zip(counts, p_star):
                    v = c / n - p
                    if v < low:
                        best, low = k, v
                    k += 1
            arms.append(best)
            counts[best] += 1.0
        return arms


class RandomizedDesignPolicy(_Moments, Policy):
    """Draw each arm from the re-solved optimistic design.

    Variances enter through their lower confidence bounds at per-arm
    failure share delta' = 1 / (T^2 K).  The design is re-solved every
    round: for square problems the closed form, p_k proportional to
    sigma_k sqrt(cofactor_k), and otherwise ``reference_optimum`` under
    the bounds, capped at ``_DESIGN_SWEEPS`` fixed-point sweeps (the
    latter is extension behavior beyond the square-case guarantees and
    is logged as such).  After presampling, draws target the residual
    between the design and the mass already laid out (``_residual_arm``),
    so the final proportions converge to the design rather than to a
    mixture with the presampling origin.  Each row takes its uniforms from
    its own generator through ``_uniforms``, the values one
    ``rng.random()`` per draw would give.  Each update keeps the arm's
    bound ``_lcb`` beside its moments; presampling defines every bound
    before the first step reads them.
    """

    name = "randomized"

    def __init__(self, problem, rng, horizon, design_delta: float | None = None):
        super().__init__(problem, rng, horizon)
        # The union-bound schedule 1/(T^2 K) is what the regret analysis
        # uses, but its radius only drops below sigma^2 after ~2600 pulls
        # per arm, far beyond what presampling provides at small budgets;
        # design_delta lets experiment configs run the confidence bound at
        # a practical level instead.
        if design_delta is None:
            delta = 1.0 / (float(horizon) ** 2 * self.n_arms)
        else:
            delta = _finite("design_delta", design_delta)
        if not 0.0 < delta < 1.0:
            raise ValueError("design_delta must lie in (0, 1)")
        self._init_moments()
        self._params = [ConfidenceParams(delta, k2) for k2 in problem.noise.kappa2]
        self._lcb = self._per_arm(np.nan)
        self._anchor = self._per_arm(0.0)
        self._uniforms = [_uniforms(g) for g in self.rng]
        if self._square:
            det, cof = gram_cofactors(problem.covariates.gram())
            if det <= 0.0 or np.any(cof <= 0.0):
                raise ValueError("covariate set is degenerate")
            self._root_cof = np.sqrt(cof).tolist()

    def _update(self, key, arm: int, ys) -> None:
        """The moments, then, once defined, the arm's bound."""
        super()._update(key, arm, ys)
        n = self.counts[key]
        if n >= 2.0:
            self._lcb[key] = lcb_variance(n, self.sig2hat[key], self._params[arm])

    def presample(self, feed) -> tuple:
        """``_Moments``' presampling; its mass laid out, counts / T, is the anchor."""
        presampled = super().presample(feed)
        if not self._square:
            logger.warning(
                "randomized policy with K > d is extension behavior; "
                "re-solving the design by the reference solver every round"
            )
        self._anchor = self.counts / self.horizon
        return presampled

    def _optimistic_design(self, row: int) -> list:
        """A K > d row's design: ``reference_optimum`` under its bounds, at
        most ``_DESIGN_SWEEPS`` sweeps."""
        design = DesignProblem(self.problem.covariates, NoiseSpec(self._lcb[row]))
        weights, _ = reference_optimum(design, max_iters=_DESIGN_SWEEPS)
        return weights.values.tolist()

    def _select_rows(self, t: int) -> list:
        arms = []
        for row, uniforms in enumerate(self._uniforms):
            try:
                weights = self._optimistic_design(row)
                arms.append(_residual_arm(weights, 1.0, self._anchor[row].tolist(), next(uniforms)))
            except Exception as exc:
                arms.append(exc)
        return arms

    def run(self, t: int, stop: int, query) -> None:
        """A draw from the residual design each step; on K = d one loop
        (``Policy.run``) whose design weights sqrt(bound_k) sqrt(cofactor_k)
        follow each observation."""
        if not self._square:
            return super().run(t, stop, query)
        state = (self.counts, self._mean, self._m2, self.sig2hat, self._lcb)
        counts, mean, m2, sig2hat, lcb = (a[0].tolist() for a in state)
        root_cof, params, anchor = self._root_cof, self._params, self._anchor[0].tolist()
        uniform, bound, sqrt, n = self._uniforms[0].__next__, lcb_variance, math.sqrt, self.round
        weights = [sqrt(b) * r for b, r in zip(lcb, root_cof)]
        try:
            for _ in range(stop - t):
                arm = _residual_arm(weights, _float_sum(weights), anchor, uniform())
                y = query(arm)
                m, mu = counts[arm] + 1.0, mean[arm]
                delta = y - mu
                mu += delta / m
                counts[arm], mean[arm], m2[arm] = m, mu, m2[arm] + delta * (y - mu)
                s2 = sig2hat[arm] = m2[arm] / m
                b = lcb[arm] = bound(m, s2, params[arm])
                weights[arm] = sqrt(b) * root_cof[arm]
                n += 1
        finally:
            self.round = n
            for a, values in zip(state, (counts, mean, m2, sig2hat, lcb)):
                a[0] = values


class GradientUcbPolicy(_Moments, Policy):
    """Pick the arm with the lowest bonus-adjusted gradient estimate.

    g_hat_k = dL/dp_k at the empirical proportions under plug-in
    variances, minus the bonus 2 sqrt(3 log(t) / T_k).  Ties break to
    the lowest index.  On square problems (K = d) the gradient is the
    closed form -(Gamma^-1)_kk sigma_k^2 / p_k^2, and one pass over the
    arms scores them on Python floats in the array formulas' IEEE
    operation order and takes the first least value; presampling gives
    every arm a count and a variance first.  K > d inverts every row's
    Omega(p) in one stacked ``marks`` call each step.  As a numerical
    guard the plug-in variances are raised to 1e-12 kappa_k^2, so a
    degenerate sample set cannot zero a weight.
    """

    name = "gradient_ucb"

    def __init__(self, problem, rng, horizon):
        super().__init__(problem, rng, horizon)
        self._init_moments()
        # shared by the rows, and held as one (1, K) row so that a one-row
        # episode's (1, K) plug-ins meet it without a numpy broadcast
        self._var_floor = 1e-12 * problem.noise.kappa2[None]
        if self._square:
            self._neg_inv_gram = _neg_inv_gram_diag(problem)
        else:
            self._x = problem.covariates.columns

    def _select_rows(self, t: int) -> list:
        c, counts = 3.0 * math.log(t), self.counts
        sig2 = np.maximum(self.sig2hat, self._var_floor)
        g, arms = _stacked_gradients(self._x, sig2, counts / self.round)
        return _fill_argmin(g - 2.0 * np.sqrt(c / counts), arms)

    def run(self, t: int, stop: int, query) -> None:
        """The least gradient less its bonus each step; on K = d one loop
        (``Policy.run``)."""
        if not self._square:
            return super().run(t, stop, query)
        state = (self.counts, self._mean, self._m2, self.sig2hat)
        counts, mean, m2, sig2hat = (a[0].tolist() for a in state)
        neg_diag, floor, n = self._neg_inv_gram, self._var_floor[0].tolist(), self.round
        log, sqrt = math.log, math.sqrt
        try:
            for t in range(t + 1, stop + 1):
                c = 3.0 * log(t)
                best, low, k = 0, math.inf, 0
                for a, s, f, m in zip(neg_diag, sig2hat, floor, counts):
                    p = m / n
                    g = a * (f if s < f else s) / (p * p) - 2.0 * sqrt(c / m)
                    if g < low:
                        best, low = k, g
                    k += 1
                y = query(best)
                m, mu = counts[best] + 1.0, mean[best]
                delta = y - mu
                mu += delta / m
                counts[best], mean[best], m2[best] = m, mu, m2[best] + delta * (y - mu)
                sig2hat[best] = m2[best] / m
                n += 1
        finally:
            self.round = n
            for a, values in zip(state, (counts, mean, m2, sig2hat)):
                a[0] = values


class ThompsonPolicy(Policy):
    """Normal-inverse-gamma posterior sampling on the noise variances.

    Every arm keeps NIG(mu, nu, alpha, beta) hyperparameters, from the
    prior NIG(0, 1, 1, 1); a round samples sigma~_k^2 = beta_k / Gamma(alpha_k)
    from each marginal inverse-gamma, clipped to a wide band around the
    noise proxies as a numerical guard, and descends the loss gradient
    computed with the sampled variances.  On square problems that
    gradient is the closed form -(Gamma^-1)_kk sigma~_k^2 / p_k^2, and one
    pass over the arms draws, clips and scores each in turn; its K scalar
    ``gamma`` calls give the values, and leave the generator in the state,
    of one ``standard_gamma`` call on the alpha array, which is how a
    K > d row draws on its own generator before the rows' Omega(p) are
    inverted together.
    """

    name = "thompson"
    horizon_free = True

    def __init__(self, problem, rng, horizon):
        super().__init__(problem, rng, horizon)
        self.post_mu = self._per_arm(0.0)
        self.post_nu = self._per_arm(1.0)
        self.post_alpha = self._per_arm(1.0)
        self.post_beta = self._per_arm(1.0)
        kap2 = problem.noise.kappa2
        self._clip_lo = 1e-8 * kap2[None]  # a (1, K) row, as ``_var_floor``
        self._clip_hi = 1e8 * float(kap2.max())
        if self._square:
            self._neg_inv_gram = _neg_inv_gram_diag(problem)
        else:
            self._x = problem.covariates.columns

    def presample(self, feed) -> tuple:
        # two observations per arm so posteriors and proportions are sane
        for arm in range(self.n_arms):
            feed(arm, min(2, self.horizon - self.round))
        return 0, None

    def _update(self, key, arm: int, ys) -> None:
        """The count and the conjugate update for each of ``ys``."""
        for y in ys:
            self.counts[key] += 1.0
            mu, nu = self.post_mu[key], self.post_nu[key]
            self.post_nu[key] = nu + 1.0
            self.post_mu[key] = (nu * mu + y) / (nu + 1.0)
            self.post_alpha[key] += 0.5
            self.post_beta[key] += nu * (y - mu) ** 2 / (2.0 * (nu + 1.0))

    def _select_rows(self, t: int) -> list:
        # each row draws from its own generator, in row order
        gamma = np.array([rng.standard_gamma(a) for rng, a in zip(self.rng, self.post_alpha)])
        # np.minimum and np.maximum: np.clip's values, without its wrapper cost
        sig2 = np.minimum(np.maximum(self.post_beta / gamma, self._clip_lo), self._clip_hi)
        g, arms = _stacked_gradients(self._x, sig2, self.counts / self.round)
        return _fill_argmin(g, arms)

    def run(self, t: int, stop: int, query) -> None:
        """The least sampled gradient each step; on K = d one loop
        (``Policy.run``) that scores by ``gradient_ucb``'s rules without
        the bonus.  Every shape alpha is at least 2 after the warm-up, and
        numpy's gamma sampler never returns 0.0 at shape 1 or more."""
        if not self._square:
            return super().run(t, stop, query)
        state = (self.counts, self.post_mu, self.post_nu, self.post_alpha, self.post_beta)
        counts, post_mu, post_nu, alpha, beta = (a[0].tolist() for a in state)
        clip_lo, neg_diag = self._clip_lo[0].tolist(), self._neg_inv_gram
        gamma, hi, n = self.rng[0].gamma, self._clip_hi, self.round
        try:
            for _ in range(stop - t):
                arm, low = 0, math.inf
                for k, (a, b, lo, neg, m) in enumerate(zip(alpha, beta, clip_lo, neg_diag, counts)):
                    s = b / gamma(a)
                    s = lo if s < lo else hi if s > hi else s
                    p = m / n
                    v = neg * s / (p * p)
                    if v < low:
                        arm, low = k, v
                y = query(arm)
                counts[arm] += 1.0
                mu, nu = post_mu[arm], post_nu[arm]
                post_nu[arm] = nu + 1.0
                post_mu[arm] = (nu * mu + y) / (nu + 1.0)
                alpha[arm] += 0.5
                beta[arm] += nu * (y - mu) ** 2 / (2.0 * (nu + 1.0))
                n += 1
        finally:
            self.round = n
            for a, values in zip(state, (counts, post_mu, post_nu, alpha, beta)):
                a[0] = values


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
    """Per-episode record: checkpoint rows plus the presampling that preceded them.

    ``elapsed`` is the wall time spent on this budget, set-up included on
    the first, split evenly over a lock-step group's returned traces.
    """

    policy: str
    seed: int
    horizon: int
    rows: tuple[CheckpointRow, ...]
    origin: np.ndarray | None
    presample_end: int
    estimation_count: int
    final_counts: tuple[int, ...]
    elapsed: float

    @property
    def final_regret(self) -> float:
        return self.rows[-1].regret


def checkpoint_schedule(start: int, horizon: int) -> list[int]:
    """Geometric checkpoint times, ``CHECKPOINT_RATIO`` apart, from ``start``
    to ``horizon`` inclusive."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    start = max(int(start), 1)
    ts = {horizon}
    v = float(start)
    while v < horizon:
        ts.add(int(round(v)))
        v *= CHECKPOINT_RATIO
    return sorted(t for t in ts if start <= t <= horizon)


def extends_past(policy_name: str, n_arms: int, horizon: int) -> bool:
    """Whether a ``horizon``-step episode is the prefix of every longer one:
    for horizon-free policies once ``horizon`` reaches 2K, below which
    thompson's warm-up and the checkpoint start min(max(t, 2K, 1), T) do."""
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

    ``envs`` is one ``Environment`` or a list, one per member (seed), on
    one problem; on K = d an episode has one member.  Construction builds
    the policy, one row per member, and runs its ``presample``;
    ``advance_all(T)`` calls ``policy.run`` up to each pending checkpoint
    through T, records it, and returns each member's T-step trace.  Every
    per-member call (a presampling query, a K > d step's query, an
    open-loop segment's ``query_arms``, a checkpoint) runs through
    ``_each``: a member whose call raises, or whose ``select`` entry is an
    exception, loses its row and keeps its error; the others run on.  An
    error no row owns (building the policy, ``observe``) is every member's.

    ``budgets`` names later horizons the episode may be advanced to, for a
    horizon-free policy (``extends_past``).  Checkpoints are recorded on
    the union of the horizons' schedules; each trace keeps its own.
    Other arguments are those of ``run_episode``.
    """

    def __init__(
        self,
        policy_name: str,
        envs,
        horizon: int,
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

        self._members = [_Member(env) for env in envs]
        self._live = list(self._members)  # the members still running, in row order
        self.policy = self.origin = None
        n0 = 0
        try:
            rngs = [
                np.random.default_rng(np.random.SeedSequence(env.seed, spawn_key=(1,)))
                for env in envs
            ]
            self.policy = make_policy(policy_name, problem, rngs, horizon, options)
            n0, self.origin = self.policy.presample(self._feed)
        except Exception as exc:
            self._fail(exc)
        t = self.policy.round if self._live else 0

        self.policy_name = policy_name
        self.t = t
        self.presample_end = t
        self.estimation_count = n0
        self._schedules = {h: checkpoint_schedule(min(max(t, 2 * k, 1), h), h) for h in horizons}
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
        row, in ``entries`` and in the policy; when no member is left the
        last one's error is raised.
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
            self.policy.observe_block(arm, np.array(ys))

    def _query_rows(self, arms: list) -> list:
        """The K > d step's responses to ``arms``, one per running row."""
        return self._each(lambda member, arm: member.env.query(arm), arms)

    def _query_arms(self, arms: list) -> list:
        """An open-loop segment: each running member's responses to ``arms``."""
        return self._each(lambda member, _: member.env.query_arms(arms), [arms] * len(self._live))

    def _record(self, now: int) -> None:
        """Record checkpoint ``now`` of every running member, scoring each
        distinct count vector once (a K > d open-loop group's rows all agree)."""
        scored = {}  # counts -> (loss, p_min)

        def checkpoint(member, counts):
            key = tuple(int(c) for c in counts)
            if key not in scored:
                p = np.asarray(counts) / now
                scored[key] = loss(self._problem, p), float(p.min())
            value, p_min = scored[key]
            member.rows[now] = CheckpointRow(
                t=now,
                regret=regret(value, now, self._loss_star),
                loss_gap=value - self._loss_star,
                p_min=p_min,
                counts=key,
            )

        self._each(checkpoint, list(self.policy.counts))

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
            run, t = self.policy.run, self.t
            if self.policy.open_loop:
                query = self._query_arms
            else:
                query = self._live[0].env.query if self._problem.is_square else self._query_rows
            try:
                # the schedules all end at their horizons, so the last stop is ``horizon``
                for stop in sorted(s for s in self._pending if t < s <= horizon):
                    run(t, stop, query)
                    self._record(stop)
                    t = stop
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
            rows=rows,
            origin=self.origin,
            presample_end=self.presample_end,
            estimation_count=self.estimation_count,
            final_counts=rows[-1].counts,
            elapsed=elapsed,
        )


def run_episode(
    policy_name: str,
    env: Environment,
    horizon: int,
    options: dict | None = None,
    reference: tuple | None = None,
) -> RegretTrace:
    """Run one policy for ``horizon`` queries and record regret checkpoints.

    A presampling error is raised here.  ``reference`` is an optional
    (p*, L*) pair, of which regret reads L*; computed when omitted.
    Randomness comes from two streams of the environment seed: the
    environment's (spawn key 0) and the policy's (spawn key 1).  This is
    a one-member, one-horizon ``Episode``.
    """
    (outcome,) = Episode(policy_name, env, horizon, options, reference).advance_all(horizon)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
