"""Policy selection rules, presampling, and the episode runner."""

import logging
import math
from pathlib import Path

import numpy as np
import pytest

from activedesign import policies
from activedesign.core import (
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    SimplexWeights,
    gradient,
    gram_cofactors,
    marks,
)
from activedesign.environment import NOISE_CHUNK, make_env, make_hard_instance, make_random_instance
from activedesign.estimation import ConfidenceParams, lcb_variance
from activedesign.harness import load_instance
from activedesign.policies import (
    Episode,
    GradientUcbPolicy,
    OracleTrackingPolicy,
    RandomizedDesignPolicy,
    ThompsonPolicy,
    UniformPolicy,
    _ROW_STATE,
    CHECKPOINT_RATIO,
    POLICY_NAMES,
    _float_sum,
    _neg_inv_gram_diag,
    _residual_arm,
    checkpoint_schedule,
    default_estimation_count,
    extends_past,
    kd_presample,
    make_policy,
    presample_plan,
    run_episode,
)
from activedesign.solver import reference_optimum
from test_square_path import assert_thompson_selects_as_numpy, gradient_ucb_pick, square_choice

REDUNDANT_ARM = Path(__file__).resolve().parents[1] / "instances" / "redundant_arm.txt"


def canonical(sigma2, beta=None):
    d = len(sigma2)
    b = np.zeros(d) if beta is None else np.asarray(beta, dtype=float)
    return DesignProblem(
        CovariateSet(np.eye(d)), NoiseSpec(np.array(sigma2, dtype=float)), beta=b
    )


def feed(policy, pairs):
    """A K = d policy takes each (arm, y) as a one-sample block of its one row."""
    for arm, y in pairs:
        policy.observe_block(arm, np.array([[y]]))


# --------------------------------------------------------------------
# presampling


def test_default_estimation_count_pins():
    assert default_estimation_count(1) == 7
    assert default_estimation_count(10_000) == 100


def test_square_plan_symmetric_example():
    problem = canonical([1.0, 1.0])
    counts, origin = presample_plan(np.array([1.0, 1.0]), problem, 100, 2)
    np.testing.assert_array_equal(counts, [25, 25])
    np.testing.assert_allclose(origin, [0.5, 0.5])


def test_square_plan_skewed_example():
    problem = canonical([1.0, 1.0])
    counts, origin = presample_plan(np.array([1.0, 9.0]), problem, 400, 2)
    # estimated sigma = (1, 3) gives origin (1/4, 3/4) and half budget 200
    np.testing.assert_allclose(origin, [0.25, 0.75])
    np.testing.assert_array_equal(counts, [50, 150])


def test_square_plan_trims_to_the_cap():
    problem = canonical([1.0, 1.0, 1.0])
    counts, _ = presample_plan(np.array([1.0, 1.0, 1e4]), problem, 12, 2)
    cap = math.ceil(12 / 2) + 3
    assert counts.sum() <= cap
    assert counts.min() >= 2


def test_square_plan_fits_the_budget_beside_the_estimation_phase():
    # sigma^2 = (1, 1, 64) at T = 190 with 60 phase-0 samples per arm: the
    # half-budget plan (10, 10, 76) would take 60 + 60 + 76 = 196 samples,
    # so its largest count is trimmed until the budget holds them all
    problem = canonical([1.0, 1.0, 1.0])
    counts, origin = presample_plan(np.array([1.0, 1.0, 64.0]), problem, 190, 60)
    np.testing.assert_allclose(origin, [0.1, 0.1, 0.8])
    np.testing.assert_array_equal(counts, [10, 10, 70])
    assert np.maximum(counts, 60).sum() == 190


def test_square_plan_validation():
    problem = canonical([1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        presample_plan(np.array([1.0, 0.0]), problem, 100, 2)
    wide = make_random_instance(2, 3, seed=0)
    with pytest.raises(ValueError, match="as many arms"):
        presample_plan(np.ones(3), wide, 100, 2)


def test_kd_presample_examples():
    assert kd_presample(4, 10_000) == 1000
    assert kd_presample(3, 10**8) == 10**6
    assert kd_presample(4, 300) == 73


def test_kd_presample_budget_errors():
    with pytest.raises(ValueError, match="budget"):
        kd_presample(4, 16)
    with pytest.raises(ValueError, match="positive"):
        kd_presample(0, 100)


# --------------------------------------------------------------------
# shared bookkeeping


def test_counts_track_observations():
    # K > d: one row, observed through one-entry lists
    problem = make_random_instance(2, 3, seed=0)
    policy = UniformPolicy(problem, None, horizon=100)
    rng = np.random.default_rng(5)
    expect = np.zeros((1, 3))
    for t, arm in enumerate(rng.integers(0, 3, size=200), start=1):
        policy.observe([int(arm)], [float(rng.standard_normal())])
        expect[0, arm] += 1.0
        assert policy.round == t
        np.testing.assert_array_equal(policy.counts, expect)
    assert policy.round == 200
    assert policy.counts.sum() == 200


def test_plugin_variance_is_population_form():
    policy = GradientUcbPolicy(make_random_instance(2, 2, seed=0), None, horizon=10)
    feed(policy, [(0, 1.0), (0, 3.0)])
    assert policy.sig2hat[0, 0] == 1.0
    assert np.isnan(policy.sig2hat[0, 1])


def _row_state(policy):
    held = [name for name in _ROW_STATE if name in vars(policy)]
    assert "counts" in held
    return (policy.round,) + tuple(np.array(getattr(policy, name)).tobytes() for name in held)


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["square", "redundant_S1", "redundant_S3"])
@pytest.mark.parametrize("name", ["uniform", "oracle", "thompson", "gradient_ucb", "randomized"])
def test_observe_block_equals_per_sample_observe(name, rows):
    # presampling feeds blocks; every per-row state a policy holds (counts,
    # moments, plug-in variances, bounds, posteriors) must come out
    # bit-equal to feeding the samples one by one, on K = d and on every
    # row of a K > d policy
    if rows is None:
        problem, rng_arg = make_random_instance(3, 3, seed=2), None
    else:
        problem, rng_arg = load_instance(REDUNDANT_ARM), [None] * rows
    rng = np.random.default_rng(5)
    k = problem.n_arms
    blocks = [(0, 1), (1, 2), (0, 40), (2, 0), (2, 7), (1, 300), (0, 1), (k - 1, 3)]
    one = make_policy(name, problem, rng_arg, 1000)
    blk = make_policy(name, problem, rng_arg, 1000)
    for arm, n in blocks:
        if rows is None:
            ys = rng.normal(3.0, 2.0, (1, n))
            for y in ys[0].tolist():
                one.observe_block(arm, np.array([[y]]))
        else:
            ys = rng.normal(3.0, 2.0, (rows, n))
            for column in ys.T.tolist():
                one.observe([arm] * rows, column)
        blk.observe_block(arm, ys)
        assert _row_state(blk) == _row_state(one)
    if name in ("gradient_ucb", "randomized"):
        assert not np.any(np.isnan(blk.sig2hat))
    if name == "randomized":
        assert not np.any(np.isnan(blk._lcb))


class _Interrupted(Exception):
    pass


def _assert_one_layout(policy, rows: int) -> None:
    """Every per-arm state of ``policy`` is an (S, K) float64 array, S = ``rows``
    (the shared floors one (1, K) row), and each row's counts sum to the round."""
    shape = (rows, policy.n_arms)
    held = [name for name in (*_ROW_STATE, "_var_floor", "_clip_lo") if name in vars(policy)]
    assert "counts" in held
    for name in held:
        value = getattr(policy, name)
        assert isinstance(value, np.ndarray) and value.dtype == np.float64, name
        assert value.shape == ((1, policy.n_arms) if name in ("_var_floor", "_clip_lo") else shape), name
    assert len(policy.rng) == rows
    np.testing.assert_array_equal(policy.counts.sum(axis=1), np.full(rows, float(policy.round)))


@pytest.mark.parametrize("rows", [None, 3], ids=["square", "redundant_S3"])
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_per_arm_state_is_an_s_by_k_float_array(name, rows):
    # one layout on both shapes: after presampling, after a run stretch and
    # after a stretch whose query raises midway, which a K = d loop must
    # write back to row 0 with the round it reached
    if rows is None:
        problem = make_random_instance(3, 3, seed=4)
        envs = [make_env(problem, seed=0)]
    else:
        problem = load_instance(REDUNDANT_ARM)
        envs = [make_env(problem, seed=s) for s in range(rows)]
    episode = Episode(name, envs, 1000)
    policy, s = episode.policy, len(envs)
    _assert_one_layout(policy, s)
    if policy.open_loop:
        query = episode._query_arms
    else:
        query = envs[0].query if problem.is_square else episode._query_rows
    t = policy.round
    policy.run(t, t + 40, query)
    assert policy.round == t + 40
    _assert_one_layout(policy, s)

    fail_at = 1 if policy.open_loop else 8
    calls = []

    def interrupted(arms):
        calls.append(arms)
        if len(calls) == fail_at:
            raise _Interrupted
        return query(arms)

    t = policy.round
    with pytest.raises(_Interrupted):
        policy.run(t, t + 40, interrupted)
    assert policy.round == t + fail_at - 1
    _assert_one_layout(policy, s)


# --------------------------------------------------------------------
# uniform and oracle


def test_uniform_round_robin_sequence():
    policy = UniformPolicy(make_random_instance(3, 3, seed=0), None, horizon=10)
    assert policy.plan(6) == [0, 1, 2, 0, 1, 2]


def test_uniform_episode_counts_within_one():
    problem = make_random_instance(3, 3, seed=4)
    trace = run_episode("uniform", make_env(problem, seed=0), 301)
    assert sorted(trace.final_counts) == [100, 100, 101]


def test_oracle_deficit_sequence():
    # the optimum of canonical sigma^2 = (1, 4) is (1/3, 2/3)
    policy = OracleTrackingPolicy(canonical([1.0, 4.0]), None, horizon=3)
    assert policy.plan(3) == [1, 0, 1]


def test_oracle_uniform_target_round_robins():
    # equal variances on the canonical instance: the optimum is uniform
    policy = OracleTrackingPolicy(canonical([1.0, 1.0, 1.0]), None, horizon=6)
    assert policy.plan(6) == [0, 1, 2, 0, 1, 2]


def _next_arm_by_the_array_formula(policy) -> int:
    """uniform's round % K, or oracle's np.argmax of p* - counts / n (of p*
    at n = 0), on row 0 of a K > d policy."""
    if isinstance(policy, UniformPolicy):
        return policy.round % policy.n_arms
    p_star = np.array(policy.p_star)
    if policy.round == 0:
        return int(p_star.argmax())
    return int((p_star - policy.counts[0] / policy.round).argmax())


@pytest.mark.parametrize("name", ["uniform", "oracle"])
@pytest.mark.parametrize(
    "problem, rows",
    [
        (make_random_instance(3, 3, seed=4), None),
        (load_instance(REDUNDANT_ARM), 3),
        (make_random_instance(3, 5, seed=11), 1),
    ],
    ids=["square", "redundant_S3", "random3x5_S1"],
)
def test_plan_is_the_arms_of_successive_steps(name, problem, rows):
    # from lopsided counts, plan(m) leaves the policy as it was and gives
    # the m arms the array formula picks step by step
    rng = np.random.default_rng(3)
    policy = make_policy(name, problem, None if rows is None else [None] * rows, 1000)

    def observe(arm):
        ys = rng.standard_normal(rows)
        if rows is None:
            policy.observe_block(arm, np.array([[ys]]))
        else:
            policy.observe([arm] * rows, ys)

    for observed in (0, 7, 60):
        for arm in rng.integers(0, problem.n_arms, observed).tolist():
            observe(arm)
        before = _row_state(policy)
        arms = policy.plan(150)
        assert _row_state(policy) == before
        for arm in arms:
            assert arm == _next_arm_by_the_array_formula(policy)
            observe(arm)


@pytest.mark.parametrize("d, k", [(6, 12), (20, 40)])
def test_oracle_plan_on_many_arms_is_the_numpy_argmax(d, k):
    # from no counts, plan(m) on K > d against the array formula step by
    # step: np.argmax of p* at n = 0, then of p* - counts / n
    policy = OracleTrackingPolicy(make_random_instance(d, k, seed=0), None, 1000)
    p_star, counts, expected = np.array(policy.p_star), np.zeros(k), []
    for n in range(400):
        arm = int(p_star.argmax() if n == 0 else (p_star - counts / n).argmax())
        expected.append(arm)
        counts[arm] += 1.0
    assert policy.plan(400) == expected
    # an A-optimal design spans R^d, so the plan visits at least d arms
    assert len(set(expected)) >= d


def test_oracle_rejects_a_design_that_is_not_finite(monkeypatch):
    # its plan reads no deficit as NaN, so a NaN optimum must not reach
    # it: every design is a SimplexWeights, which rejects one
    problem = make_random_instance(3, 3, seed=4)

    def nan_optimum(problem):
        return SimplexWeights(np.full(3, np.nan)), np.nan

    monkeypatch.setattr(policies, "reference_optimum", nan_optimum)
    with pytest.raises(ValueError, match="weights must be finite"):
        OracleTrackingPolicy(problem, None, 100)


def test_oracle_tracking_error_bound():
    problem = make_random_instance(3, 3, seed=4)
    ref = reference_optimum(problem)
    trace = run_episode("oracle", make_env(problem, seed=1), 997, reference=ref)
    dev = np.max(np.abs(np.array(trace.final_counts) / 997 - np.asarray(ref[0])))
    assert dev <= 3 / 997


def test_oracle_episode_regret_is_tiny():
    problem = make_random_instance(3, 3, seed=4)
    ref = reference_optimum(problem)
    trace = run_episode("oracle", make_env(problem, seed=0), 2000, reference=ref)
    assert trace.final_regret < 1e-8


# --------------------------------------------------------------------
# randomized design policy


def square_weights(policy) -> list:
    """A K = d randomized policy's design weights sqrt(bound_k) sqrt(cofactor_k),
    as its ``run`` builds them from row 0's bounds."""
    return [math.sqrt(s) * r for s, r in zip(policy._lcb[0].tolist(), policy._root_cof)]


def design(policy):
    """The randomized policy's optimistic design: on K = d its weights over
    their total, on K > d the first row's solved design."""
    if not policy._square:
        return policy._optimistic_design(0)
    weights = square_weights(policy)
    total = _float_sum(weights)
    return [w / total for w in weights]


def pinned(problem, rng, horizon, sig2):
    """A randomized policy whose variance bounds are ``sig2`` in every row."""
    policy = RandomizedDesignPolicy(problem, rng, horizon)
    policy._lcb[:] = sig2
    return policy


def test_randomized_option_validation():
    problem = canonical([1.0, 4.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="design_delta"):
        RandomizedDesignPolicy(problem, rng, 100, design_delta=1.0)
    with pytest.raises(ValueError, match="design_delta"):
        RandomizedDesignPolicy(problem, rng, 100, design_delta=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.5"])
def test_randomized_rejects_non_finite_and_bool_design_delta(value):
    # "0.5" used to pass through float() and run, and true would read as 1.0
    problem = canonical([1.0, 4.0])
    with pytest.raises(ValueError, match="design_delta must be a finite number"):
        make_policy("randomized", problem, np.random.default_rng(0), 100, {"design_delta": value})


@pytest.mark.parametrize("design_delta", [None, 0.5])
def test_randomized_square_bounds_and_weights_follow_each_observation(design_delta):
    # on K = d, _update keeps each arm's bound current after every
    # observation, and with it the design weight sqrt(bound) sqrt(cofactor_k)
    problem = make_random_instance(3, 3, seed=2)
    horizon, k = 1000, problem.n_arms
    policy = RandomizedDesignPolicy(problem, np.random.default_rng(0), horizon, design_delta)
    delta = 1.0 / (float(horizon) ** 2 * k) if design_delta is None else design_delta
    params = [ConfidenceParams(delta, k2) for k2 in problem.noise.kappa2]
    _, cof = gram_cofactors(problem.covariates.gram())
    rng = np.random.default_rng(9)
    ys = [[] for _ in range(k)]
    for arm in rng.integers(0, k, 60).tolist():
        y = float(rng.normal(1.0, 2.0))
        policy.observe_block(arm, np.array([[y]]))
        ys[arm].append(y)
        n = len(ys[arm])
        if n < 2:
            assert math.isnan(policy._lcb[0, arm])
            continue
        want = lcb_variance(n, float(np.var(ys[arm])), params[arm])
        assert policy._lcb[0, arm] == pytest.approx(want, rel=1e-12)
        assert square_weights(policy)[arm] == pytest.approx(
            math.sqrt(want) * math.sqrt(cof[arm]), rel=1e-12
        )


def test_randomized_design_matches_closed_form_under_true_variances():
    problem = canonical([1.0, 4.0])
    policy = pinned(problem, np.random.default_rng(0), 100, [1.0, 4.0])
    np.testing.assert_allclose(design(policy), [1.0 / 3.0, 2.0 / 3.0], rtol=1e-12)


def test_randomized_reads_live_bounds_once_presampling_defines_them():
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(problem, np.random.default_rng(0), 1000, design_delta=0.5)
    ys = np.random.default_rng(3)
    policy.presample(lambda arm, m: policy.observe_block(arm, ys.standard_normal((1, m))))
    assert policy.counts.min() >= 2 and not np.isnan(policy._lcb).any()
    np.testing.assert_array_equal(policy._anchor, policy.counts / 1000)
    before = design(policy)
    feed(policy, [(1, 40.0)] * 5)  # observations after presampling move the design
    after = design(policy)
    assert after[1] > before[1]
    root = np.sqrt(policy._lcb[0]) * np.sqrt(gram_cofactors(problem.covariates.gram())[1])
    np.testing.assert_array_equal(after, root / root.sum())


def residual_draws(policy, n: int) -> np.ndarray:
    """n arms drawn as a K = d ``randomized`` step draws one, from its design
    weights, its anchor and its own uniforms, with the policy held fixed."""
    weights, anchor, uniforms = square_weights(policy), policy._anchor[0].tolist(), policy._uniforms[0]
    total = _float_sum(weights)
    return np.array([_residual_arm(weights, total, anchor, next(uniforms)) for _ in range(n)])


def test_randomized_without_anchor_draws_the_design():
    # no presample anchor: the draw distribution is the design itself
    problem = canonical([1.0, 4.0])
    policy = pinned(problem, np.random.default_rng(7), 100, [1.0, 4.0])
    picks = residual_draws(policy, 20_000)
    f = picks.mean()
    se = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / 20_000)
    assert abs(f - 2.0 / 3.0) <= 3.0 * se


def test_randomized_residual_draws_avoid_overfilled_arms():
    # arm 0 already holds more mass than the design asks for, so every
    # residual draw must go to arm 1
    problem = canonical([1.0, 4.0])
    policy = pinned(problem, np.random.default_rng(1), 100, [1.0, 4.0])
    policy._anchor = np.array([[0.5, 0.1]])  # 50 and 10 of the 100 queries presampled
    picks = residual_draws(policy, 2000)
    assert np.all(picks == 1)


def test_randomized_residual_frequencies():
    problem = canonical([1.0, 4.0])
    policy = pinned(problem, np.random.default_rng(2), 100, [1.0, 4.0])
    policy._anchor = np.array([[0.1, 0.1]])  # 10 of the 100 queries presampled on each arm
    q = np.maximum(np.array([1.0 / 3.0, 2.0 / 3.0]) - 0.1, 0.0)
    q /= q.sum()
    picks = residual_draws(policy, 20_000)
    f = picks.mean()
    se = math.sqrt(q[1] * (1.0 - q[1]) / 20_000)
    assert abs(f - q[1]) <= 3.0 * se


def test_randomized_uniforms_are_the_generators_successive_draws():
    # drawn NOISE_CHUNK at a time, the uniforms a row serves are its own
    # generator's rng.random() values in order, across refills, on K = d and
    # on each row of a K > d group, the rows served in turn as a step does
    n = 2 * NOISE_CHUNK + 5
    seeds = (3, 4, 5)
    square = RandomizedDesignPolicy(canonical([1.0, 4.0]), np.random.default_rng(seeds[0]), 100)
    rows = RandomizedDesignPolicy(
        load_instance(REDUNDANT_ARM), [np.random.default_rng(s) for s in seeds], 1000
    )
    for policy, row_seeds in ((square, seeds[:1]), (rows, seeds)):
        served = [[next(u) for u in policy._uniforms] for _ in range(n)]
        for row, seed in enumerate(row_seeds):
            reference = np.random.default_rng(seed)
            assert [step[row] for step in served] == [reference.random() for _ in range(n)]


def test_randomized_warns_on_wide_problems(caplog):
    # once per episode, when it starts: a policy built to check options is silent
    problem = make_random_instance(3, 4, seed=2)
    with caplog.at_level(logging.WARNING, logger="activedesign.policies"):
        make_policy("randomized", problem, np.random.default_rng(0), 300, {})
        assert not any("extension" in r.message for r in caplog.records)
        Episode("randomized", make_env(problem, seed=0), 300)
    assert sum("extension" in r.message for r in caplog.records) == 1


@pytest.mark.parametrize(
    "problem",
    [
        load_instance(REDUNDANT_ARM),
        make_hard_instance(0.5),
        make_random_instance(6, 12, seed=0),
    ],
    ids=["redundant_arm", "two_point", "random_6x12"],
)
def test_randomized_wide_design_is_the_reference_optimum(problem):
    policy = pinned(problem, np.random.default_rng(0), 1000, problem.noise.sigma2)
    p_star, _ = reference_optimum(problem)
    assert design(policy) == p_star.values.tolist()


def test_randomized_finishes_redundant_arm_with_floored_bounds():
    # design_delta 0.5 at T = 2000 puts two arms' bounds on the 1e-12 kappa^2 floor
    problem = load_instance(REDUNDANT_ARM)
    trace = run_episode(
        "randomized",
        make_env(problem, seed=1),
        2000,
        reference=reference_optimum(problem),
        options={"design_delta": 0.5},
    )
    assert math.isfinite(trace.final_regret)


def test_randomized_episode_tracks_the_optimum():
    problem = canonical([1.0, 4.0])
    ref = reference_optimum(problem)
    trace = run_episode(
        "randomized",
        make_env(problem, seed=3),
        4000,
        reference=ref,
        options={"design_delta": 0.5},
    )
    dev = np.max(np.abs(np.array(trace.final_counts) / 4000 - np.asarray(ref[0])))
    assert dev < 0.08
    assert trace.estimation_count == default_estimation_count(4000)
    # half the budget is laid out by the plan before the loop starts
    assert trace.presample_end >= 2000
    assert trace.origin is not None


# --------------------------------------------------------------------
# gradient-ucb policy


def test_gradient_ucb_breaks_ties_to_the_lowest_index():
    problem = canonical([1.0, 1.0])
    policy = GradientUcbPolicy(problem, None, 100)
    policy.sig2hat = np.array([[1.0, 1.0]])
    policy.counts = np.array([[5.0, 5.0]])
    policy.round = 10
    assert square_choice(policy, 11) == 0


def test_gradient_ucb_bonus_can_override_the_gradient():
    # gradient alone prefers arm 0 (undersampled relative to the optimal
    # sigma-proportional split, 10/11); the bonus flips the choice to
    # arm 1, which holds fewer raw samples
    problem = canonical([100.0, 1.0])
    policy = GradientUcbPolicy(problem, None, 2000)
    policy.sig2hat = np.array([[100.0, 1.0]])
    policy.counts = np.array([[909.0, 91.0]])
    policy.round = 1000
    p = [c / 1000 for c in policy.counts[0].tolist()]
    gradient_alone = _closed_form_gradient(_neg_inv_gram_diag(problem), policy.sig2hat[0], p)
    assert int(np.argmin(gradient_alone)) == 0
    assert square_choice(policy, 1001) == 1


def _closed_form_gradient(neg_diag, sig2, p):
    """-(Gamma^-1)_kk sigma_k^2 / p_k^2, the K = d gradient ``gradient_ucb`` scores."""
    return [a * s / (q * q) for a, s, q in zip(neg_diag, sig2, p)]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_square_closed_form_gradient_matches_the_solve(d):
    no_floor = [-math.inf] * d
    for seed in range(4):
        problem = make_random_instance(d, d, seed=seed)
        x = problem.covariates.columns
        neg_diag = _neg_inv_gram_diag(problem)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            p = rng.dirichlet(np.ones(d))
            sig2 = rng.uniform(0.1, 10.0, d)
            np.testing.assert_allclose(
                _closed_form_gradient(neg_diag, sig2.tolist(), p.tolist()),
                -marks(x, sig2, p),
                rtol=1e-12,
                atol=0,
            )
            # t = 1 zeroes the bonus
            arm = gradient_ucb_pick(neg_diag, sig2.tolist(), no_floor, p.tolist(), 1, 1)
            assert arm == int(np.argmin(-marks(x, sig2, p)))
        p = rng.dirichlet(np.ones(d))
        np.testing.assert_allclose(
            _closed_form_gradient(neg_diag, problem.noise.sigma2.tolist(), p.tolist()),
            gradient(problem, p),
            rtol=1e-12,
            atol=0,
        )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_square_gradient_ucb_select_subtracts_the_bonus(d):
    # the bonus 2 sqrt(c / counts_k) against the solve route's gradient;
    # variances within a factor 3 of sigma_k^2 proportional to p_k^2 / (Gamma^-1)_kk make
    # the gradient nearly flat and as large as the bonus, which then
    # decides many of the picks
    problem = make_random_instance(d, d, seed=d)
    neg_diag = _neg_inv_gram_diag(problem)
    x = problem.covariates.columns
    no_floor = [-math.inf] * d
    rng = np.random.default_rng(200 + d)
    flips = 0
    for _ in range(50):
        counts = rng.integers(1, 40, d).astype(np.float64)
        n = int(counts.sum())
        p = counts / n
        c = 3.0 * math.log(n + 1)
        bonus = 2.0 * np.sqrt(c / counts)
        sig2 = np.median(bonus) * rng.uniform(0.5, 1.5, d) * p**2 / -np.array(neg_diag)
        g = -marks(x, sig2, p)
        arm = gradient_ucb_pick(neg_diag, sig2.tolist(), no_floor, counts.tolist(), n, n + 1)
        assert arm == int(np.argmin(g - bonus))
        flips += arm != int(np.argmin(g))
    assert flips >= 5


def test_gradient_ucb_square_select_matches_the_solve_route():
    problem = make_random_instance(3, 3, seed=4)
    sig2 = problem.noise.sigma2
    x = problem.covariates.columns
    rng = np.random.default_rng(7)
    policy = GradientUcbPolicy(problem, None, 1000)
    for _ in range(200):
        # a step updates the observed arm's plug-in variance: reset it
        policy.sig2hat = sig2[None].copy()
        counts = rng.integers(1, 300, 3).astype(np.float64)
        policy.counts = counts[None].copy()
        policy.round = int(counts.sum())
        t = policy.round + 1
        bonus = 2.0 * np.sqrt(3.0 * math.log(t) / counts)
        g = -marks(x, sig2, counts / policy.round) - bonus
        assert square_choice(policy, t) == int(np.argmin(g))


def test_gradient_ucb_episode_tracks_the_optimum():
    # at its fixed bonus and plug-in variances the policy still converges
    # on the optimal design
    problem = make_random_instance(3, 3, seed=4)
    ref = reference_optimum(problem)
    trace = run_episode("gradient_ucb", make_env(problem, seed=0), 3000, reference=ref)
    assert trace.rows[-1].loss_gap < 1e-3
    dev = np.max(np.abs(np.array(trace.final_counts) / 3000 - np.asarray(ref[0])))
    assert dev < 0.01


# --------------------------------------------------------------------
# thompson policy


@pytest.mark.parametrize("rows", [None, 3], ids=["square", "redundant_S3"])
def test_thompson_starts_every_arm_at_the_prior(rows):
    # the prior is fixed at NIG(0, 1, 1, 1), in every arm of every row
    if rows is None:
        problem, rng = make_random_instance(3, 3, seed=2), np.random.default_rng(0)
    else:
        problem = load_instance(REDUNDANT_ARM)
        rng = [np.random.default_rng(s) for s in range(rows)]
    policy = ThompsonPolicy(problem, rng, 100)
    shape = (1 if rows is None else rows, problem.n_arms)
    for name, value in [("post_mu", 0.0), ("post_nu", 1.0), ("post_alpha", 1.0), ("post_beta", 1.0)]:
        np.testing.assert_array_equal(np.asarray(getattr(policy, name)), np.full(shape, value))


def test_thompson_conjugate_update_recurrence():
    problem = canonical([1.0, 1.0])
    policy = ThompsonPolicy(problem, np.random.default_rng(0), 100)
    y1, y2 = 2.0, -1.0
    policy.observe_block(0, np.array([[y1]]))
    # from (mu, nu, alpha, beta) = (0, 1, 1, 1)
    key = (0, 0)  # row 0, arm 0
    assert policy.post_nu[key] == 2.0
    assert policy.post_mu[key] == y1 / 2.0
    assert policy.post_alpha[key] == 1.5
    assert policy.post_beta[key] == 1.0 + 1.0 * y1**2 / 4.0
    mu, nu = policy.post_mu[key], policy.post_nu[key]
    a, b = policy.post_alpha[key], policy.post_beta[key]
    policy.observe_block(0, np.array([[y2]]))
    assert policy.post_nu[key] == nu + 1.0
    assert policy.post_mu[key] == (nu * mu + y2) / (nu + 1.0)
    assert policy.post_alpha[key] == a + 0.5
    assert policy.post_beta[key] == b + nu * (y2 - mu) ** 2 / (2.0 * (nu + 1.0))


def test_thompson_symmetry_between_identical_arms():
    # the standard basis at sigma^2 = (1, 1); beta as seed 0 of the random
    # generator drew it after the two variances
    beta_rng = np.random.default_rng(0)
    beta_rng.random(2)
    problem = canonical([1.0, 1.0], beta=beta_rng.standard_normal(2))
    policy = ThompsonPolicy(problem, np.random.default_rng(0), 100)
    picks = []
    for _ in range(10_000):
        # a step updates the arm it takes: start each one from the prior
        policy.post_alpha, policy.post_beta = np.ones((1, 2)), np.ones((1, 2))
        policy.counts, policy.round = np.ones((1, 2)), 2
        picks.append(square_choice(policy, 3))
    picks = np.array(picks)
    f = picks.mean()
    se = math.sqrt(0.25 / 10_000)
    assert abs(f - 0.5) <= 3.0 * se


def test_thompson_draws_match_the_clipped_gamma_stream():
    # one gamma draw per arm, in index order: the array formula's values and stream
    assert_thompson_selects_as_numpy(make_random_instance(3, 3, seed=4), 11)


def test_thompson_variance_draws_are_clipped():
    # beta scaled so far that every sampled variance clips, to clip_hi or to clip_lo
    for scale in (1e30, 1e-30):
        assert_thompson_selects_as_numpy(
            make_random_instance(3, 3, seed=4), 0, beta=lambda b: b * scale
        )


# --------------------------------------------------------------------
# factory and episode runner


def test_make_policy_rejects_unknown_names():
    problem = canonical([1.0, 1.0])
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("greedy", problem, None, 10, {})


# settings policies used to take, each at its old default: every one now
# runs as a constant, so no policy accepts even that value
REMOVED_SETTINGS = {
    "bonus_scale": 2.0,
    "bonus_log_coeff": 3.0,
    "use_lcb": False,
    "fixed_variances": [1.0, 4.0],
    "prior": (0.0, 1.0, 1.0, 1.0),
    "estimation_count": 10,
}


@pytest.mark.parametrize("key", REMOVED_SETTINGS)
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_make_policy_rejects_every_removed_setting(name, key):
    problem = canonical([1.0, 4.0])
    with pytest.raises(TypeError, match=f"'{key}'"):
        make_policy(name, problem, np.random.default_rng(0), 1000, {key: REMOVED_SETTINGS[key]})


def test_checkpoint_schedule_contract():
    # round(10 * 1.2^i) below the horizon, then the horizon
    assert CHECKPOINT_RATIO == 1.2
    assert checkpoint_schedule(10, 60) == [10, 12, 14, 17, 21, 25, 30, 36, 43, 52, 60]
    sched = checkpoint_schedule(10, 1000)
    assert sched[0] == 10
    assert sched[-1] == 1000
    assert sched == sorted(set(sched))
    with pytest.raises(ValueError, match="horizon"):
        checkpoint_schedule(10, 0)


def test_checkpoint_schedule_of_a_short_horizon_is_every_step():
    # below T = 5 the ratio grows the time by under one step, so rounding
    # skips no integer from the start on
    for horizon in range(1, 5):
        for start in range(1, horizon + 1):
            assert checkpoint_schedule(start, horizon) == list(range(start, horizon + 1))


def test_episode_rejects_budgets_below_the_estimation_phase():
    problem = canonical([1.0, 4.0], beta=[1.0, -1.0])
    with pytest.raises(ValueError, match="exceeds the budget"):
        run_episode("randomized", make_env(problem, seed=0), 5)
    # the policy's own presampling raises it, so the built episode holds it
    episode = Episode("gradient_ucb", make_env(problem, seed=0), 5)
    (outcome,) = episode.advance_all(5)
    assert isinstance(outcome, ValueError)
    assert "estimation phase alone exceeds the budget" in str(outcome)


@pytest.mark.parametrize("name", ["gradient_ucb", "randomized"])
def test_episode_fits_the_plug_in_plan_to_the_budget(name):
    # sigma^2 = (1, 1, 64) at T = 190: 3 x 60 phase-0 samples fit, and the
    # plug-in plan, which would put about 76 on arm 2, is trimmed to fit too
    problem = canonical([1.0, 1.0, 64.0], beta=[1.0, 1.0, 1.0])
    for seed in range(6):
        trace = run_episode(name, make_env(problem, seed=seed), 190)
        assert trace.estimation_count == 60
        assert trace.presample_end <= 190
        assert sum(trace.final_counts) == 190
    assert run_episode(name, make_env(problem, seed=0), 2000).presample_end <= 2000


def test_episode_is_seed_deterministic():
    problem = make_random_instance(2, 2, seed=6)
    a = run_episode(
        "randomized", make_env(problem, seed=9), 1500, options={"design_delta": 0.5}
    )
    b = run_episode(
        "randomized", make_env(problem, seed=9), 1500, options={"design_delta": 0.5}
    )
    assert a.rows == b.rows
    assert a.final_counts == b.final_counts


def test_wide_episode_uses_the_power_schedule():
    problem = make_random_instance(3, 4, seed=2)
    ref = reference_optimum(problem)
    trace = run_episode("gradient_ucb", make_env(problem, seed=0), 300, reference=ref)
    assert trace.presample_end == 4 * 73
    np.testing.assert_allclose(trace.origin, 0.25)
    assert all(c >= 73 for c in trace.final_counts)


def test_trace_metadata_round_trip():
    problem = make_random_instance(2, 2, seed=3)
    trace = run_episode("uniform", make_env(problem, seed=12), 64)
    assert trace.policy == "uniform"
    assert trace.seed == 12
    assert trace.horizon == 64
    assert sum(trace.final_counts) == 64
    assert trace.rows[-1].t == 64
    assert trace.rows[-1].counts == trace.final_counts
    ts = [row.t for row in trace.rows]
    assert ts == sorted(set(ts))


def test_only_horizon_free_policies_extend_past_2k():
    assert [name for name in ("uniform", "randomized", "gradient_ucb", "thompson", "oracle")
            if extends_past(name, 3, 6)] == ["uniform", "thompson", "oracle"]
    assert not extends_past("thompson", 3, 5)
    problem = make_random_instance(3, 3, 4)
    with pytest.raises(ValueError, match="cannot be extended"):
        Episode("gradient_ucb", make_env(problem, 0), 500, budgets=(1000,))
    with pytest.raises(ValueError, match="cannot be extended"):
        Episode("thompson", make_env(problem, 0), 5, budgets=(1000,))
    with pytest.raises(ValueError, match="must exceed the horizon"):
        Episode("uniform", make_env(problem, 0), 500, budgets=(100,))


def test_episode_advances_through_its_budgets_as_separate_runs():
    problem = make_random_instance(3, 3, 4)
    episode = Episode("thompson", make_env(problem, 2), 100, budgets=(1000, 350))
    for horizon in (100, 350, 1000):
        (got,) = episode.advance_all(horizon)
        want = run_episode("thompson", make_env(problem, 2), horizon)
        assert got.rows == want.rows
        assert got.final_counts == want.final_counts
        assert got.presample_end == want.presample_end == 6
    with pytest.raises(ValueError, match="cannot be advanced to 350"):
        episode.advance_all(350)
