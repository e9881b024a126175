"""The K = d step path on Python floats against the numpy formulas it replaced.

Square problems run ``select`` and ``observe`` on lists of Python
floats.  The reference policies below hold the per-arm state in arrays
and step it with the array formulas the package used before, kept here
(not in the package) as the oracle: whole episodes must choose the same
arms, end with bit-equal counts, moments and variances, and leave the
policy's generator in the same state.  The
edge cases pin numpy's IEEE semantics where Python floats differ:
division by zero, NaN in an argmin, ties.
"""

import itertools
import math

import numpy as np
import pytest

from activedesign import policies
from activedesign.core import problem_constants
from activedesign.environment import make_env
from activedesign.harness import build_problem
from activedesign.estimation import ArmStats, lcb_variance
from activedesign.policies import (
    Episode,
    GradientUcbPolicy,
    OracleTrackingPolicy,
    PresamplePlan,
    RandomizedDesignPolicy,
    ThompsonPolicy,
    _argmin,
    _float_sum,
)

SQUARE_REPLICATION = {"generator": "random", "d": 3, "K": 3, "seed": 4}
CANONICAL = {"generator": "random", "d": 3, "K": 3, "seed": 4, "canonical": True}
NOISE_MODELS = ("gaussian", "uniform", "rademacher")
# stands for the instance's true variances in ``fixed_variances`` options
TRUE_SIGMA2 = "sigma2"


# --------------------------------------------------------------------
# reference: the array state and formulas of the numpy K = d step


def _numpy_square_gradient(problem, sigma2, p):
    inv_gram_diag = np.diag(np.linalg.inv(problem.covariates.gram())).copy()
    return -inv_gram_diag * sigma2 / (p * p)


_ARRAYS = (
    "counts",
    "sig2hat",
    "_lcb",
    "post_mu",
    "post_nu",
    "post_alpha",
    "post_beta",
    "p_star",
    "fixed_variances",
    "_anchor",
)


class _ArrayState:
    """Holds the per-arm state in float arrays, the moments in ``ArmStats``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in _ARRAYS:
            value = getattr(self, name, None)
            if isinstance(value, list):
                setattr(self, name, np.array(value))
        if hasattr(self, "_mean"):
            self.stats = [ArmStats() for _ in range(self.n_arms)]
        if hasattr(self, "_design_variances"):
            self._design_variances = self.fixed_variances




class _ArrayMoments(_ArrayState):
    def _variances_changed(self, arm, s):
        if s.count >= 2:
            self.sig2hat[arm] = s.m2 / s.count
            if self._track_lcb:
                self._lcb[arm] = lcb_variance(s.count, s.variance, self._params[arm])

    def observe(self, arm, y):
        self.round += 1
        self.counts[arm] += 1.0
        s = self.stats[arm]
        s.update(y)
        self._variances_changed(arm, s)

    def observe_block(self, arm, ys):
        n = len(ys)
        self.round += n
        self.counts[arm] += n
        s = self.stats[arm]
        s.update_many(ys)
        self._variances_changed(arm, s)


class NumpyGradientUcb(_ArrayMoments, GradientUcbPolicy):
    def select(self, t):
        if self.fixed_variances is not None:
            sig2 = self.fixed_variances
        elif self.use_lcb:
            sig2 = self._lcb
        else:
            sig2 = np.maximum(self.sig2hat, 1e-12 * self.problem.noise.kappa2)
        g = _numpy_square_gradient(self.problem, sig2, self.counts / self.round)
        if self.bonus_scale > 0.0:
            g = g - self.bonus_scale * np.sqrt(self.bonus_log_coeff * math.log(t) / self.counts)
        return int(g.argmin())


class NumpyRandomized(_ArrayMoments, RandomizedDesignPolicy):
    def presample_done(self, t):
        self._anchor = self.counts / self.horizon
        if self._design_variances is None and not np.any(np.isnan(self._lcb)):
            self._design_variances = self._lcb

    def select(self, t):
        sig2 = self._design_variances
        if sig2 is None:
            raise ValueError("variance bounds undefined; presample every arm first")
        raw = np.sqrt(sig2) * np.sqrt(problem_constants(self.problem).cofactors)
        design = raw / raw.sum()
        residual = np.maximum(design - self._anchor, 0.0)
        total = residual.sum()
        q = residual / total if total > 0.0 else design
        u = self.rng.random()
        arm = int(np.cumsum(q).searchsorted(u, side="right"))
        return min(arm, self.n_arms - 1)


class NumpyThompson(_ArrayState, ThompsonPolicy):
    def observe(self, arm, y):
        self.round += 1
        self.counts[arm] += 1.0
        mu, nu = self.post_mu[arm], self.post_nu[arm]
        self.post_nu[arm] = nu + 1.0
        self.post_mu[arm] = (nu * mu + y) / (nu + 1.0)
        self.post_alpha[arm] += 0.5
        self.post_beta[arm] += nu * (y - mu) ** 2 / (2.0 * (nu + 1.0))

    def select(self, t):
        kap2 = self.problem.noise.kappa2
        draws = self.post_beta / self.rng.standard_gamma(self.post_alpha)
        sig2 = np.minimum(np.maximum(draws, 1e-8 * kap2), 1e8 * float(kap2.max()))
        g = _numpy_square_gradient(self.problem, sig2, self.counts / self.round)
        return int(g.argmin())


class NumpyOracle(_ArrayState, OracleTrackingPolicy):
    def select(self, t):
        if self.round == 0:
            return int(self.p_star.argmax())
        return int((self.p_star - self.counts / self.round).argmax())


NUMPY_POLICY = {
    "gradient_ucb": NumpyGradientUcb,
    "randomized": NumpyRandomized,
    "thompson": NumpyThompson,
    "oracle": NumpyOracle,
}


def _run(monkeypatch, name, problem, model, options, reference, horizon=2000, plan=None):
    """One episode; returns (arms chosen, final policy)."""
    base = NUMPY_POLICY[name] if reference else policies.policy_class(name)
    arms = []

    def recording_select(self, t):
        arm = base.select(self, t)
        arms.append(arm)
        return arm

    cls = type(base.__name__, (base,), {"select": recording_select})
    monkeypatch.setitem(policies._POLICY_CLASSES, name, cls)
    env = make_env(problem, 3, model)
    episode = Episode(name, env, horizon, plan=plan, options=options)
    episode.advance(horizon)
    return arms, episode.policy


_STATE = ("counts", "sig2hat", "_lcb", "post_mu", "post_nu", "post_alpha", "post_beta")


def _state(policy):
    state = {k: np.array(getattr(policy, k)).tobytes() for k in _STATE if hasattr(policy, k)}
    if hasattr(policy, "stats"):
        state["moments"] = np.array([(s.mean, s.m2) for s in policy.stats]).tobytes()
    elif hasattr(policy, "_mean"):
        state["moments"] = np.array(list(zip(policy._mean, policy._m2))).tobytes()
    state["rng"] = policy.rng.bit_generator.state
    return state


def _assert_same_episode(monkeypatch, name, problem, model, options, **kw):
    arms, policy = _run(monkeypatch, name, problem, model, options, False, **kw)
    ref_arms, ref = _run(monkeypatch, name, problem, model, options, True, **kw)
    assert isinstance(policy.counts, list) and isinstance(ref.counts, np.ndarray)
    assert arms == ref_arms
    assert _state(policy) == _state(ref)
    return arms


VARIANTS = [
    ("gradient_ucb", {}),
    ("gradient_ucb", {"use_lcb": True}),
    ("gradient_ucb", {"fixed_variances": TRUE_SIGMA2}),
    ("gradient_ucb", {"bonus_scale": 0.0}),
    ("randomized", {"design_delta": 0.5}),
    ("randomized", {"fixed_variances": TRUE_SIGMA2}),
    ("thompson", {"prior": (0.5, 2.0, 3.0, 0.5)}),
    ("oracle", {}),
]


def _options(options, problem):
    if options.get("fixed_variances") is TRUE_SIGMA2:
        return dict(options, fixed_variances=problem.noise.sigma2)
    return options


@pytest.mark.parametrize("model", NOISE_MODELS)
@pytest.mark.parametrize(
    "instance", [SQUARE_REPLICATION, CANONICAL], ids=["replication", "canonical"]
)
@pytest.mark.parametrize("name, options", VARIANTS, ids=[f"{n}-{o}" for n, o in VARIANTS])
def test_square_episodes_match_the_numpy_formulas(monkeypatch, name, options, instance, model):
    problem, _ = build_problem(dict(instance, noise=model))
    arms = _assert_same_episode(monkeypatch, name, problem, model, _options(options, problem))
    assert len(set(arms)) >= 2


# --------------------------------------------------------------------
# numpy's IEEE semantics


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, options, counts",
    [
        # arm 1 has one observation (NaN variance), arm 2 none
        ("gradient_ucb", {}, [5, 1, 0]),
        ("gradient_ucb", {"use_lcb": True}, [4, 0, 1]),
        # p_k = 0 under a finite variance: -inf, then the bonus's +inf
        ("gradient_ucb", {"fixed_variances": TRUE_SIGMA2}, [5, 0, 5]),
        ("gradient_ucb", {"fixed_variances": TRUE_SIGMA2, "bonus_scale": 0.0}, [3, 3, 0]),
        # no observations at all: p = 0 / 0
        ("gradient_ucb", {"fixed_variances": TRUE_SIGMA2}, [0, 0, 0]),
        ("thompson", {}, [0, 2, 3]),
        ("thompson", {}, [0, 0, 0]),
        ("randomized", {"fixed_variances": TRUE_SIGMA2}, [0, 0, 0]),
        ("oracle", {}, [0, 0, 0]),
    ],
)
def test_unobserved_arms_pick_what_numpy_picked(monkeypatch, name, options, counts):
    problem, _ = build_problem(dict(SQUARE_REPLICATION))
    plan = PresamplePlan(counts=np.array(counts))
    _assert_same_episode(
        monkeypatch, name, problem, "gaussian", _options(options, problem), horizon=300, plan=plan
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_gamma_draws_clip_to_the_upper_bound():
    # shape 1e-3 draws underflow to exactly 0.0 now and then; beta / 0
    # must give inf (clipped to clip_hi) as the array formula did
    problem, _ = build_problem(dict(SQUARE_REPLICATION))
    policy = ThompsonPolicy(problem, np.random.default_rng(5), 100)
    reference = np.random.default_rng(5)
    zeros = 0
    for _ in range(200):
        policy.post_alpha = [1e-3, 1e-3, 2.0]
        alpha = np.array(policy.post_alpha)
        g = reference.standard_gamma(alpha)
        zeros += int(np.sum(g == 0.0))
        with np.errstate(divide="ignore", over="ignore"):
            expect = np.clip(np.array(policy.post_beta) / g, policy._clip_lo, policy._clip_hi)
        draws = policy.sample_variances()
        np.testing.assert_array_equal(draws, expect)
    assert zeros > 0
    assert policy.rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_zero_gamma_draw_does_not_raise():
    class ZeroGamma:
        def standard_gamma(self, shape):
            return 0.0

    problem, _ = build_problem(dict(SQUARE_REPLICATION))
    policy = ThompsonPolicy(problem, ZeroGamma(), 100)
    assert policy.sample_variances() == [policy._clip_hi] * 3


def test_argmin_is_numpy_argmin():
    # first NaN wins, else the first smallest value: ties to the lowest index
    values = (-math.inf, -1.0, 0.0, -0.0, 1.0, math.inf, math.nan)
    for k in range(1, 5):
        for v in itertools.product(values, repeat=k):
            assert _argmin(list(v)) == int(np.argmin(v)), v


def test_float_sum_is_numpy_sum():
    rng = np.random.default_rng(0)
    for n in range(1, 300):
        for _ in range(5):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
            assert _float_sum(x.tolist()) == float(x.sum()), n
