"""The K = d step path on Python floats against the numpy formulas it replaced.

Square problems step through each policy's ``run`` loop on Python floats
unpacked from row 0 of its (1, K) state arrays.  The reference policies
below step the same arrays, through the base ``Policy.run`` and their own
``select`` and ``observe``, with the array formulas the package used
before, kept here (not in the package) as the oracle: whole episodes
must query the same arms, end with bit-equal counts, moments and
variances, and leave the
policy's generator in the same state (for ``randomized``, which draws
its uniforms ahead in chunks, serve the same next uniforms).  The
learners' presampling gives every arm a count and a variance before their
first step, so the loops meet no division by zero and no NaN score; the
edge cases pin the first steps after the least presampling each learner
accepts, the argmin's ties and infinities, and the oracle's first step,
which meets no count at all.
"""

import collections
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from activedesign import policies
from activedesign.core import CovariateSet, DesignProblem, NoiseSpec, gram_cofactors
from activedesign.environment import NOISE_CHUNK, make_env
from activedesign.harness import build_problem
from activedesign.estimation import lcb_variance
from activedesign.policies import (
    Episode,
    GradientUcbPolicy,
    OracleTrackingPolicy,
    RandomizedDesignPolicy,
    ThompsonPolicy,
    _float_sum,
)

SQUARE_REPLICATION = {"generator": "random", "d": 3, "K": 3, "seed": 4}
# the standard basis under the variances and truth the random generator
# draws from seed 4 when it draws no covariates
_canonical_rng = np.random.default_rng(4)
CANONICAL = {
    "covariates": np.eye(3).tolist(),
    "variances": _canonical_rng.uniform(0.5, 2.0, 3).tolist(),
    "beta": _canonical_rng.standard_normal(3).tolist(),
}
# K >= 8 reaches the pairwise branch of ``_float_sum``
RANDOM_9 = {"generator": "random", "d": 9, "K": 9, "seed": 1}
# proxy factors: the instance's own proxies (1), and looser bounds
PROXY_FACTORS = (1.0, 3.0, 10.0)


def _with_proxy(problem, factor: float):
    """``problem`` with every second arm's sub-Gaussian proxy raised by ``factor``:
    known bounds above the variances, looser on some arms than on others."""
    raise_by = factor ** (np.arange(problem.n_arms) % 2)
    noise = NoiseSpec(problem.noise.sigma2, raise_by * problem.noise.kappa2)
    return dataclasses.replace(problem, noise=noise)


# --------------------------------------------------------------------
# reference: the array state and formulas of the numpy K = d step


class _Welford:
    """One arm's one-pass moments, in the package's Welford operation order."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, y):
        self.count += 1
        delta = y - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (y - self.mean)

    def update_many(self, ys):
        for y in np.asarray(ys, dtype=np.float64).reshape(-1).tolist():
            self.update(y)

    @property
    def variance(self):
        return None if self.count < 2 else self.m2 / self.count


def _numpy_square_gradient(problem, sigma2, p):
    inv_gram_diag = np.diag(np.linalg.inv(problem.covariates.gram())).copy()
    return -inv_gram_diag * sigma2 / (p * p)


class _ArrayState:
    """Steps the (1, K) per-arm state arrays with whole-array formulas, holds
    the moments in ``_Welford`` and ``p_star`` as an array, and steps
    through the base ``Policy.run``: its own ``select`` and ``observe``."""

    run = policies.Policy.run
    open_loop = False  # the reference oracle queries one arm per step

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if hasattr(self, "p_star"):
            self.p_star = np.array(self.p_star)
        if hasattr(self, "_mean"):
            self.stats = [_Welford() for _ in range(self.n_arms)]


class _ArrayMoments(_ArrayState):
    def _variances_changed(self, arm, s):
        if s.count >= 2:
            self.sig2hat[0, arm] = s.m2 / s.count
            if isinstance(self, RandomizedDesignPolicy):
                self._lcb[0, arm] = lcb_variance(s.count, s.variance, self._params[arm])

    def observe(self, arm, y):
        self.round += 1
        self.counts[0, arm] += 1.0
        s = self.stats[arm]
        s.update(y)
        self._variances_changed(arm, s)

    def observe_block(self, arm, ys):
        n = ys.shape[-1]
        self.round += n
        self.counts[0, arm] += n
        s = self.stats[arm]
        s.update_many(ys)
        self._variances_changed(arm, s)


class NumpyGradientUcb(_ArrayMoments, GradientUcbPolicy):
    def select(self, t):
        sig2 = np.maximum(self.sig2hat, 1e-12 * self.problem.noise.kappa2)
        g = _numpy_square_gradient(self.problem, sig2, self.counts / self.round)
        g = g - 2.0 * np.sqrt(3.0 * math.log(t) / self.counts)
        return int(g.argmin())


class NumpyRandomized(_ArrayMoments, RandomizedDesignPolicy):
    def presample(self, feed):
        presampled = super().presample(feed)
        self._anchor = self.counts / self.horizon
        return presampled

    def select(self, t):
        raw = np.sqrt(self._lcb) * np.sqrt(gram_cofactors(self.problem.covariates.gram())[1])
        design = raw / raw.sum()
        residual = np.maximum(design - self._anchor, 0.0)
        total = residual.sum()
        q = residual / total if total > 0.0 else design
        u = self.rng[0].random()
        arm = int(np.cumsum(q).searchsorted(u, side="right"))
        return min(arm, self.n_arms - 1)


class NumpyThompson(_ArrayState, ThompsonPolicy):
    def observe_block(self, arm, ys):
        for y in ys[0].tolist():
            self.observe(arm, y)

    def observe(self, arm, y):
        self.round += 1
        self.counts[0, arm] += 1.0
        mu, nu = self.post_mu[0, arm], self.post_nu[0, arm]
        self.post_nu[0, arm] = nu + 1.0
        self.post_mu[0, arm] = (nu * mu + y) / (nu + 1.0)
        self.post_alpha[0, arm] += 0.5
        self.post_beta[0, arm] += nu * (y - mu) ** 2 / (2.0 * (nu + 1.0))

    def select(self, t):
        kap2 = self.problem.noise.kappa2
        draws = self.post_beta / self.rng[0].standard_gamma(self.post_alpha)
        sig2 = np.minimum(np.maximum(draws, 1e-8 * kap2), 1e8 * float(kap2.max()))
        g = _numpy_square_gradient(self.problem, sig2, self.counts / self.round)
        return int(g.argmin())


class NumpyOracle(_ArrayState, OracleTrackingPolicy):
    def observe(self, arm, y):
        self.round += 1
        self.counts[0, arm] += 1.0

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


def _logged_query(env, open_loop: bool, log: list):
    """``env``'s query for a policy's ``run`` (``query_arms`` if ``open_loop``),
    appending each arm it is asked to ``log``."""
    if open_loop:
        query_arms = env.query_arms

        def query(arms):
            log.extend(arms)
            return query_arms(arms)

        return query
    query = env.query

    def query_one(arm):
        log.append(arm)
        return query(arm)

    return query_one


def _query(env, policy):
    """The query ``policy.run`` takes from ``env``."""
    return env.query_arms if policy.open_loop else env.query


def _run(monkeypatch, name, problem, options, reference, horizon=2000):
    """One episode; returns (arms queried by its steps, final policy)."""
    base = NUMPY_POLICY[name] if reference else policies.policy_class(name)
    monkeypatch.setitem(policies._POLICY_CLASSES, name, base)
    env = make_env(problem, 3)
    # a step queries one arm, or an open-loop segment its arms at once;
    # presampling queries blocks
    arms = []
    env.query = _logged_query(env, False, arms)
    env.query_arms = _logged_query(env, True, arms)
    episode = Episode(name, env, horizon, options=options)
    (outcome,) = episode.advance_all(horizon)
    assert not isinstance(outcome, Exception), outcome
    return arms, episode.policy


_STATE = ("counts", "sig2hat", "_lcb", "post_mu", "post_nu", "post_alpha", "post_beta")


def _state(policy):
    state = {k: np.array(getattr(policy, k)).tobytes() for k in _STATE if hasattr(policy, k)}
    if hasattr(policy, "stats"):
        state["moments"] = np.array([(s.mean, s.m2) for s in policy.stats]).tobytes()
    elif hasattr(policy, "_mean"):
        state["moments"] = np.array(list(zip(policy._mean[0], policy._m2[0]))).tobytes()
    if not isinstance(policy, RandomizedDesignPolicy):
        state["rng"] = policy.rng[0].bit_generator.state
        return state
    # the package draws its uniforms NOISE_CHUNK at a time, so its generator
    # runs ahead of the reference's: compare the next uniforms each serves,
    # past the package's next refill, instead
    if isinstance(policy, _ArrayState):
        draw = policy.rng[0].random
    else:
        draw = functools.partial(next, policy._uniforms[0])
    state["uniforms"] = [draw() for _ in range(NOISE_CHUNK + 1)]
    return state


def _assert_same_episode(monkeypatch, name, problem, options, **kw):
    arms, policy = _run(monkeypatch, name, problem, options, False, **kw)
    ref_arms, ref = _run(monkeypatch, name, problem, options, True, **kw)
    assert policy.counts.shape == ref.counts.shape == (1, problem.n_arms)
    assert arms == ref_arms
    assert _state(policy) == _state(ref)
    return arms


VARIANTS = [
    ("gradient_ucb", {}),
    ("randomized", {}),
    ("randomized", {"design_delta": 0.5}),
    ("thompson", {}),
    # the oracle presamples nothing: its first step meets counts [0, 0, 0]
    ("oracle", {}),
]


@pytest.mark.parametrize("proxy", PROXY_FACTORS)
@pytest.mark.parametrize(
    "instance",
    [SQUARE_REPLICATION, CANONICAL, RANDOM_9],
    ids=["replication", "canonical", "random9"],
)
@pytest.mark.parametrize("name, options", VARIANTS, ids=[f"{n}-{o}" for n, o in VARIANTS])
def test_square_episodes_match_the_numpy_formulas(monkeypatch, name, options, instance, proxy):
    problem = _with_proxy(build_problem(instance)[0], proxy)
    arms = _assert_same_episode(monkeypatch, name, problem, options)
    assert len(set(arms)) >= 2


# --------------------------------------------------------------------
# numpy's IEEE semantics


@pytest.mark.parametrize(
    "name, horizon",
    [
        # thompson's warm-up: short of two per arm at T < 2K, the least
        # shapes its first step can meet just above
        ("thompson", 5),
        ("thompson", 6),
        ("thompson", 7),
        ("thompson", 8),
        # the estimation phase fills T = 177 at K = 3; the first steps after it
        ("gradient_ucb", 178),
        ("gradient_ucb", 180),
        ("gradient_ucb", 190),
        ("randomized", 178),
        ("randomized", 180),
        ("randomized", 190),
    ],
)
def test_the_steps_after_the_least_presampling_pick_what_numpy_picked(monkeypatch, name, horizon):
    problem, _ = build_problem(dict(SQUARE_REPLICATION))
    episode = Episode(name, make_env(problem, 3), horizon)
    # every arm has two observations after presampling, or the budget is spent
    assert episode.policy.counts.min() >= 2 or episode.presample_end == horizon
    arms = _assert_same_episode(monkeypatch, name, problem, {}, horizon=horizon)
    assert len(arms) == horizon


def thompson_states(n: int = 1000):
    """``n`` random 3-arm thompson states: alpha, beta and positive counts."""
    rng = np.random.default_rng(0)
    for _ in range(n):
        counts = rng.integers(1, 50, 3).astype(np.float64)
        yield rng.uniform(0.5, 50.0, 3), rng.uniform(1e-3, 1e3, 3), counts


def square_choice(policy, t: int) -> int:
    """The arm a closed-loop K = d ``policy`` takes at step t: a one-step
    ``run``, whose query records the arm and answers 0.0."""
    taken = []

    def query(arm):
        taken.append(arm)
        return 0.0

    policy.run(t - 1, t, query)
    return taken[0]


def assert_thompson_selects_as_numpy(problem, seed: int, beta=None) -> None:
    """A one-step ``ThompsonPolicy.run`` against ``NumpyThompson.select`` over
    ``thompson_states``, each beta mapped by ``beta``: the same arm and, after
    each step, the same generator state, from generators of ``seed``."""
    policy = ThompsonPolicy(problem, np.random.default_rng(seed), 100)
    reference = NumpyThompson(problem, np.random.default_rng(seed), 100)
    for a, b, counts in thompson_states():
        b = b if beta is None else beta(b)
        # a step writes its arm's update back, so each policy holds its own rows
        policy.post_alpha, policy.post_beta, policy.counts = np.array([a]), np.array([b]), np.array([counts])
        reference.post_alpha, reference.post_beta, reference.counts = a[None], b[None], counts[None]
        policy.round = reference.round = int(counts.sum())
        assert square_choice(policy, policy.round + 1) == reference.select(policy.round + 1)
        assert policy.rng[0].bit_generator.state == reference.rng[0].bit_generator.state


class _Counting:
    """A generator that counts its method calls by name."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


def _counted_episode(monkeypatch, name: str, horizon: int):
    """A square episode run to ``horizon`` on a counting policy generator:
    the episode and the generator's call counts."""
    problem, _ = build_problem(dict(SQUARE_REPLICATION))
    env = make_env(problem, 3)
    made = []

    def default_rng(seed, _make=np.random.default_rng):
        made.append(_Counting(_make(seed)))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", default_rng)
        episode = Episode(name, env, horizon)
    (outcome,) = episode.advance_all(horizon)
    assert not isinstance(outcome, Exception), outcome
    (rng,) = made
    return episode, rng.calls


def test_square_randomized_draws_its_uniforms_a_chunk_at_a_time(monkeypatch):
    episode, calls = _counted_episode(monkeypatch, "randomized", 20_000)
    draws = episode.t - episode.presample_end
    assert draws > 3 * NOISE_CHUNK
    assert calls == {"random": math.ceil(draws / NOISE_CHUNK)}


def test_square_thompson_draws_one_gamma_per_arm_and_step(monkeypatch):
    episode, calls = _counted_episode(monkeypatch, "thompson", 2000)
    assert calls == {"gamma": 3 * (episode.t - episode.presample_end)}


def gradient_ucb_pick(neg_diag, sigma2, floor, counts, n, t) -> int:
    """``GradientUcbPolicy``'s step t choice on a K = d policy whose fixed factors
    -(Gamma^-1)_kk are ``neg_diag``, with plug-in variances ``sigma2``,
    variance floors ``floor``, per-arm ``counts`` and ``n`` rounds: the
    arm of least neg_diag_k max(sigma2_k, floor_k) / p_k^2
    - 2 sqrt(3 log(t) / counts_k), p = counts / n.  At t = 1 the bonus is 0."""
    k = len(neg_diag)
    problem = DesignProblem(CovariateSet(np.eye(k)), NoiseSpec(np.ones(k)), beta=np.zeros(k))
    policy = GradientUcbPolicy(problem, None, 100)
    policy._neg_inv_gram, policy._var_floor = list(neg_diag), np.array([floor], dtype=np.float64)
    policy.sig2hat = np.array([sigma2], dtype=np.float64)
    policy.counts, policy.round = np.array([counts], dtype=np.float64), n
    return square_choice(policy, t)


def test_argmin_is_numpy_argmin():
    # the first smallest value: ties to the lowest index; unit factors,
    # counts and no floor score each arm at its sigma2 entry
    values = (-math.inf, -1.0, 0.0, -0.0, 1.0, math.inf)
    for k in range(1, 5):
        ones, no_floor = [1.0] * k, [-math.inf] * k
        for v in itertools.product(values, repeat=k):
            got = gradient_ucb_pick(ones, list(v), no_floor, ones, 1, 1)
            assert got == int(np.argmin(v)), v


def test_float_sum_is_numpy_sum():
    rng = np.random.default_rng(0)
    for n in range(1, 300):
        for _ in range(5):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
            assert _float_sum(x.tolist()) == float(x.sum()), n


# --------------------------------------------------------------------
# the K = d ``run`` loop: cut anywhere


# the state fields each policy must keep, besides ``counts`` and ``round``
STATE_FIELDS = {
    "uniform": set(),
    "oracle": {"p_star"},
    "gradient_ucb": {"_mean", "_m2", "sig2hat"},
    "randomized": {"_mean", "_m2", "sig2hat", "_lcb", "_anchor"},
    "thompson": {"post_mu", "post_nu", "post_alpha", "post_beta"},
}


def _presampled(name: str, proxy: float, horizon: int = 600):
    """A K = d ``name`` episode past its presampling, and its environment."""
    problem = _with_proxy(build_problem(SQUARE_REPLICATION)[0], proxy)
    env = make_env(problem, 5)
    episode = Episode(name, env, horizon)
    assert episode.t < horizon - 100
    return episode.policy, env


def _fields(policy) -> dict:
    """Every numeric field of ``policy`` (scalars, lists of floats and float
    arrays), bit for bit."""
    fields = {}
    for key, value in vars(policy).items():
        if isinstance(value, (bool, int, float, np.ndarray)) or (
            isinstance(value, list) and all(isinstance(v, float) for v in value)
        ):
            fields[key] = (type(value), np.array(value, dtype=np.float64).tobytes())
    assert {"counts", "round"} | STATE_FIELDS[policy.name] <= set(fields)
    return fields


def _stream(policy):
    """The state of the policy's generator; for ``randomized``, which draws
    its uniforms ahead in chunks, the next uniforms it serves (consumed)."""
    if isinstance(policy, RandomizedDesignPolicy):
        return [next(policy._uniforms[0]) for _ in range(NOISE_CHUNK + 1)]
    return policy.rng[0].bit_generator.state


@pytest.mark.parametrize("proxy", PROXY_FACTORS)
@pytest.mark.parametrize("name", policies.POLICY_NAMES)
def test_square_run_in_one_call_equals_run_in_pieces(name, proxy):
    horizon = 600
    whole, env = _presampled(name, proxy, horizon)
    t0 = whole.round
    whole.run(t0, horizon, _query(env, whole))
    assert whole.round == horizon
    want = (_fields(whole), env.draws, _stream(whole))
    rng = np.random.default_rng(len(name))
    steps = range(t0 + 1, horizon)
    cuts = [
        list(steps),  # every step alone
        sorted(rng.choice(steps, 5, replace=False).tolist()),
        sorted(rng.choice(steps, 40, replace=True).tolist()),  # repeats: empty pieces
    ]
    for stops in cuts:
        pieces, env = _presampled(name, proxy, horizon)
        t = t0
        for stop in [*stops, horizon]:
            pieces.run(t, stop, _query(env, pieces))
            t = stop
        assert (_fields(pieces), env.draws, _stream(pieces)) == want
