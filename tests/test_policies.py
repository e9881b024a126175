"""Policy selection rules, presampling plans, and the episode runner."""

import logging
import math

import numpy as np
import pytest

from activedesign.core import (
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    gradient,
    loss,
    optimal_weights_closed_form,
    problem_constants,
)
from activedesign.environment import make_env, make_random_instance
from activedesign.policies import (
    Episode,
    GradientUcbPolicy,
    OracleTrackingPolicy,
    PresamplePlan,
    RandomizedDesignPolicy,
    ThompsonPolicy,
    UniformPolicy,
    _closed_form_gradient,
    _gradient_given,
    _neg_inv_gram_diag,
    checkpoint_schedule,
    default_estimation_count,
    extends_past,
    kd_presample,
    make_policy,
    presample_plan,
    run_episode,
)
from activedesign.solver import reference_optimum


def canonical(sigma2, beta=None):
    d = len(sigma2)
    b = np.zeros(d) if beta is None else np.asarray(beta, dtype=float)
    return DesignProblem(
        CovariateSet(np.eye(d)), NoiseSpec(np.array(sigma2, dtype=float)), beta=b
    )


def feed(policy, pairs):
    for arm, y in pairs:
        policy.observe(arm, y)


# --------------------------------------------------------------------
# presampling plans


def test_default_estimation_count_pins():
    assert default_estimation_count(1) == 7
    assert default_estimation_count(10_000) == 100


def test_plan_validation_and_total():
    with pytest.raises(ValueError, match="nonnegative"):
        PresamplePlan(counts=np.array([-1, 2]))
    plan = PresamplePlan(counts=np.array([50, 150]), estimation_count=60)
    # arms below the estimation count still get their phase-0 samples
    assert plan.total() == 60 + 150


def test_square_plan_symmetric_example():
    problem = canonical([1.0, 1.0])
    plan = presample_plan(np.array([1.0, 1.0]), problem_constants(problem), 100)
    np.testing.assert_array_equal(plan.counts, [25, 25])
    np.testing.assert_allclose(np.asarray(plan.origin), [0.5, 0.5])


def test_square_plan_skewed_example():
    problem = canonical([1.0, 1.0])
    plan = presample_plan(np.array([1.0, 9.0]), problem_constants(problem), 400)
    # estimated sigma = (1, 3) gives origin (1/4, 3/4) and half budget 200
    np.testing.assert_allclose(np.asarray(plan.origin), [0.25, 0.75])
    np.testing.assert_array_equal(plan.counts, [50, 150])


def test_square_plan_trims_to_the_cap():
    problem = canonical([1.0, 1.0, 1.0])
    plan = presample_plan(np.array([1.0, 1.0, 1e4]), problem_constants(problem), 12)
    cap = math.ceil(12 / 2) + 3
    assert plan.counts.sum() <= cap
    assert plan.counts.min() >= 2


def test_square_plan_validation():
    problem = canonical([1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        presample_plan(np.array([1.0, 0.0]), problem_constants(problem), 100)
    wide = make_random_instance(2, 3, seed=0)
    with pytest.raises(ValueError, match="cofactors"):
        presample_plan(np.ones(3), problem_constants(wide), 100)


def test_kd_presample_examples():
    plan = kd_presample(4, 10_000)
    np.testing.assert_array_equal(plan.counts, [1000] * 4)
    np.testing.assert_allclose(np.asarray(plan.origin), 0.25)
    assert kd_presample(3, 10**8).counts[0] == 10**6
    np.testing.assert_array_equal(kd_presample(4, 300).counts, [73] * 4)


def test_kd_presample_budget_errors():
    with pytest.raises(ValueError, match="budget"):
        kd_presample(4, 16)
    with pytest.raises(ValueError, match="positive"):
        kd_presample(0, 100)


# --------------------------------------------------------------------
# shared bookkeeping


def test_counts_and_incremental_proportions_agree():
    problem = make_random_instance(2, 3, seed=0)
    policy = UniformPolicy(problem, None, horizon=100)
    rng = np.random.default_rng(5)
    expect = np.zeros(3)
    for t, arm in enumerate(rng.integers(0, 3, size=200), start=1):
        policy.observe(int(arm), float(rng.standard_normal()))
        expect[arm] += 1.0
        assert policy.round == t
        np.testing.assert_array_equal(policy.counts, expect)
        np.testing.assert_array_equal(policy.proportions, policy.counts / t)
    assert policy.round == 200
    assert policy.counts.sum() == 200


def test_proportions_require_observations():
    policy = UniformPolicy(make_random_instance(2, 2, seed=0), None, horizon=10)
    with pytest.raises(ValueError, match="no observations"):
        policy.proportions


def test_plugin_variance_is_population_form():
    policy = GradientUcbPolicy(make_random_instance(2, 2, seed=0), None, horizon=10)
    feed(policy, [(0, 1.0), (0, 3.0)])
    assert policy.sig2hat[0] == 1.0
    assert np.isnan(policy.sig2hat[1])


def _moment_state(policy):
    return (policy.round,) + tuple(
        np.array(v).tobytes()
        for v in (policy.counts, policy._mean, policy._m2, policy.sig2hat, policy._lcb)
    )


@pytest.mark.parametrize(
    "name, options",
    [("gradient_ucb", {}), ("gradient_ucb", {"use_lcb": True}), ("randomized", {})],
)
def test_observe_block_equals_per_sample_observe(name, options):
    # presampling feeds blocks; moments, plug-in variances and bounds
    # must come out bit-equal to feeding the samples one by one
    problem = make_random_instance(3, 3, seed=2)
    rng = np.random.default_rng(5)
    blocks = [(0, 1), (1, 2), (0, 40), (2, 0), (2, 7), (1, 300), (0, 1)]
    one = make_policy(name, problem, None, 1000, options)
    blk = make_policy(name, problem, None, 1000, options)
    for arm, n in blocks:
        ys = rng.normal(3.0, 2.0, n)
        for y in ys.tolist():
            one.observe(arm, y)
        blk.observe_block(arm, ys)
        assert _moment_state(blk) == _moment_state(one)
    assert not np.any(np.isnan(blk.sig2hat))
    if name == "randomized" or options.get("use_lcb"):
        assert not np.any(np.isnan(blk._lcb))


# --------------------------------------------------------------------
# uniform and oracle


def test_uniform_round_robin_sequence():
    policy = UniformPolicy(make_random_instance(3, 3, seed=0), None, horizon=10)
    picks = []
    for _ in range(6):
        arm = policy.select(0)
        picks.append(arm)
        policy.observe(arm, 0.0)
    assert picks == [0, 1, 2, 0, 1, 2]


def test_uniform_episode_counts_within_one():
    problem = make_random_instance(3, 3, seed=4)
    trace = run_episode("uniform", make_env(problem, seed=0), 301)
    assert sorted(trace.final_counts) == [100, 100, 101]


def test_oracle_deficit_sequence():
    problem = canonical([1.0, 4.0])
    policy = OracleTrackingPolicy(
        problem, None, horizon=3, p_star=np.array([1.0 / 3.0, 2.0 / 3.0])
    )
    picks = []
    for _ in range(3):
        arm = policy.select(0)
        picks.append(arm)
        policy.observe(arm, 0.0)
    assert picks == [1, 0, 1]


def test_oracle_uniform_target_round_robins():
    problem = make_random_instance(3, 3, seed=0)
    policy = OracleTrackingPolicy(problem, None, horizon=6, p_star=np.full(3, 1 / 3))
    picks = []
    for _ in range(6):
        arm = policy.select(0)
        picks.append(arm)
        policy.observe(arm, 0.0)
    assert picks == [0, 1, 2, 0, 1, 2]


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


def test_randomized_option_validation():
    problem = canonical([1.0, 4.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="design_delta"):
        RandomizedDesignPolicy(problem, rng, 100, design_delta=1.0)
    with pytest.raises(ValueError, match="design_delta"):
        RandomizedDesignPolicy(problem, rng, 100, design_delta=0.0)
    for bad in ([1.0, 0.0], [1.0, -4.0], [1.0, np.nan], [np.inf, 4.0]):
        with pytest.raises(ValueError, match="fixed_variances"):
            RandomizedDesignPolicy(problem, rng, 100, fixed_variances=bad)


def test_randomized_design_matches_closed_form_under_true_variances():
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(
        problem, np.random.default_rng(0), 100, fixed_variances=np.array([1.0, 4.0])
    )
    np.testing.assert_allclose(
        policy._optimistic_design(), [1.0 / 3.0, 2.0 / 3.0], rtol=1e-12
    )


def test_randomized_requires_defined_variance_bounds():
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(problem, np.random.default_rng(0), 100)
    with pytest.raises(ValueError, match="presample"):
        policy.select(1)


def test_randomized_reads_live_bounds_once_presampling_defines_them():
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(problem, np.random.default_rng(0), 100, design_delta=0.5)
    feed(policy, [(0, 1.0), (0, 3.0), (1, 0.0)])
    policy.presample_done(3)  # arm 1 has no bound yet
    with pytest.raises(ValueError, match="presample"):
        policy.select(4)
    feed(policy, [(1, 4.0)])
    policy.presample_done(4)
    before = policy._optimistic_design()
    feed(policy, [(1, 40.0)] * 5)  # observations after presampling move the design
    after = policy._optimistic_design()
    assert after[1] > before[1]
    root = np.sqrt(policy._lcb) * np.sqrt(problem_constants(problem).cofactors)
    np.testing.assert_array_equal(after, root / root.sum())


def test_randomized_without_anchor_draws_the_design():
    # no presample anchor: the draw distribution is the design itself
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(
        problem, np.random.default_rng(7), 100, fixed_variances=np.array([1.0, 4.0])
    )
    picks = np.array([policy.select(1) for _ in range(20_000)])
    f = picks.mean()
    se = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / 20_000)
    assert abs(f - 2.0 / 3.0) <= 3.0 * se


def test_randomized_residual_draws_avoid_overfilled_arms():
    # arm 0 already holds more mass than the design asks for, so every
    # residual draw must go to arm 1
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(
        problem, np.random.default_rng(1), 100, fixed_variances=np.array([1.0, 4.0])
    )
    policy.counts = np.array([50.0, 10.0])
    policy.round = 60
    policy.presample_done(60)
    picks = np.array([policy.select(61) for _ in range(2000)])
    assert np.all(picks == 1)


def test_randomized_residual_frequencies():
    problem = canonical([1.0, 4.0])
    policy = RandomizedDesignPolicy(
        problem, np.random.default_rng(2), 100, fixed_variances=np.array([1.0, 4.0])
    )
    policy.counts = np.array([10.0, 10.0])
    policy.round = 20
    policy.presample_done(20)
    q = np.maximum(np.array([1.0 / 3.0, 2.0 / 3.0]) - 0.1, 0.0)
    q /= q.sum()
    picks = np.array([policy.select(21) for _ in range(20_000)])
    f = picks.mean()
    se = math.sqrt(q[1] * (1.0 - q[1]) / 20_000)
    assert abs(f - q[1]) <= 3.0 * se


def test_randomized_warns_on_wide_problems(caplog):
    problem = make_random_instance(3, 4, seed=2)
    with caplog.at_level(logging.WARNING, logger="activedesign.policies"):
        make_policy("randomized", problem, np.random.default_rng(0), 100, {})
    assert any("extension" in r.message for r in caplog.records)


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


def test_gradient_ucb_option_validation():
    problem = canonical([1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        GradientUcbPolicy(problem, None, 100, bonus_scale=-1.0)


def test_gradient_ucb_breaks_ties_to_the_lowest_index():
    problem = canonical([1.0, 1.0])
    policy = GradientUcbPolicy(
        problem, None, 100, fixed_variances=np.array([1.0, 1.0])
    )
    policy.counts = np.array([5.0, 5.0])
    policy.round = 10
    assert policy.select(11) == 0


def test_gradient_ucb_bonus_can_override_the_gradient():
    # gradient alone prefers arm 0 (undersampled relative to the optimal
    # sigma-proportional split); a large enough bonus scale flips the
    # choice to arm 1, which holds fewer raw samples
    problem = canonical([100.0, 1.0])
    state = dict(counts=np.array([60.0, 40.0]), round=100)
    greedy = GradientUcbPolicy(
        problem, None, 200, fixed_variances=np.array([100.0, 1.0])
    )
    greedy.counts = state["counts"].copy()
    greedy.round = state["round"]
    assert greedy.select(101) == 0
    eager = GradientUcbPolicy(
        problem, None, 200, bonus_scale=5000.0, fixed_variances=np.array([100.0, 1.0])
    )
    eager.counts = state["counts"].copy()
    eager.round = state["round"]
    assert eager.select(101) == 1


def test_gradient_ucb_greedy_with_oracle_variances_converges():
    # zero bonus and true variances reduce the policy to greedy
    # conditional gradient on the exact objective
    problem = make_random_instance(3, 3, seed=4)
    ref = reference_optimum(problem)
    trace = run_episode(
        "gradient_ucb",
        make_env(problem, seed=0),
        3000,
        reference=ref,
        options={"bonus_scale": 0.0, "fixed_variances": problem.noise.sigma2},
    )
    assert trace.rows[-1].loss_gap < 1e-4
    dev = np.max(np.abs(np.array(trace.final_counts) / 3000 - np.asarray(ref[0])))
    assert dev < 1e-3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_square_closed_form_gradient_matches_the_solve(d):
    for seed in range(4):
        problem = make_random_instance(d, d, seed=seed)
        x = problem.covariates.columns
        neg_diag = _neg_inv_gram_diag(problem)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            p = rng.dirichlet(np.ones(d))
            sig2 = rng.uniform(0.1, 10.0, d)
            np.testing.assert_allclose(
                _closed_form_gradient(neg_diag, sig2.tolist(), p.tolist(), 1),
                _gradient_given(x, sig2, p),
                rtol=1e-12,
                atol=0,
            )
        p = rng.dirichlet(np.ones(d))
        np.testing.assert_allclose(
            _closed_form_gradient(neg_diag, problem.noise.sigma2.tolist(), p.tolist(), 1),
            gradient(problem, p),
            rtol=1e-12,
            atol=0,
        )


def test_gradient_ucb_square_select_matches_the_solve_route():
    problem = make_random_instance(3, 3, seed=4)
    sig2 = problem.noise.sigma2
    x = problem.covariates.columns
    rng = np.random.default_rng(7)
    policy = GradientUcbPolicy(problem, None, 1000, fixed_variances=sig2)
    for _ in range(200):
        policy.counts = rng.integers(1, 300, 3).astype(np.float64)
        policy.round = int(policy.counts.sum())
        t = policy.round + 1
        bonus = policy.bonus_scale * np.sqrt(
            policy.bonus_log_coeff * math.log(t) / policy.counts
        )
        g = _gradient_given(x, sig2, policy.counts / policy.round) - bonus
        assert policy.select(t) == int(np.argmin(g))


def test_gradient_ucb_lcb_variant_runs():
    problem = make_random_instance(2, 2, seed=1)
    trace = run_episode(
        "gradient_ucb",
        make_env(problem, seed=0),
        400,
        options={"use_lcb": True},
    )
    assert trace.rows[-1].t == 400


# --------------------------------------------------------------------
# thompson policy


def test_thompson_prior_validation():
    problem = canonical([1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        ThompsonPolicy(problem, np.random.default_rng(0), 100, prior=(0.0, 0.0, 1.0, 1.0))


def test_thompson_conjugate_update_recurrence():
    problem = canonical([1.0, 1.0])
    policy = ThompsonPolicy(problem, np.random.default_rng(0), 100)
    y1, y2 = 2.0, -1.0
    policy.observe(0, y1)
    # from (mu, nu, alpha, beta) = (0, 1, 1, 1)
    assert policy.post_nu[0] == 2.0
    assert policy.post_mu[0] == y1 / 2.0
    assert policy.post_alpha[0] == 1.5
    assert policy.post_beta[0] == 1.0 + 1.0 * y1**2 / 4.0
    mu, nu, a, b = policy.post_mu[0], policy.post_nu[0], policy.post_alpha[0], policy.post_beta[0]
    policy.observe(0, y2)
    assert policy.post_nu[0] == nu + 1.0
    assert policy.post_mu[0] == (nu * mu + y2) / (nu + 1.0)
    assert policy.post_alpha[0] == a + 0.5
    assert policy.post_beta[0] == b + nu * (y2 - mu) ** 2 / (2.0 * (nu + 1.0))


def test_thompson_symmetry_between_identical_arms():
    problem = make_random_instance(2, 2, seed=0, canonical=True, sigma2_range=(1.0, 1.0))
    policy = ThompsonPolicy(problem, np.random.default_rng(0), 100)
    policy.counts = np.array([1.0, 1.0])
    policy.round = 2
    picks = np.array([policy.select(3) for _ in range(10_000)])
    f = picks.mean()
    se = math.sqrt(0.25 / 10_000)
    assert abs(f - 0.5) <= 3.0 * se


def test_thompson_draws_match_the_clipped_gamma_stream():
    problem = make_random_instance(3, 3, seed=4)
    policy = ThompsonPolicy(problem, np.random.default_rng(11), 100)
    reference = np.random.default_rng(11)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        policy.post_alpha = rng.uniform(0.5, 50.0, 3)
        policy.post_beta = rng.uniform(1e-3, 1e3, 3)
        expect = np.clip(
            policy.post_beta / reference.gamma(policy.post_alpha),
            policy._clip_lo,
            policy._clip_hi,
        )
        np.testing.assert_array_equal(policy.sample_variances(), expect)
    assert policy.rng.bit_generator.state == reference.bit_generator.state


def test_thompson_variance_draws_are_clipped():
    problem = canonical([1.0, 1.0])
    policy = ThompsonPolicy(problem, np.random.default_rng(0), 100)
    policy.post_beta = [1e30, 1e30]
    draws = policy.sample_variances()
    assert np.all(np.asarray(draws) <= policy._clip_hi)


# --------------------------------------------------------------------
# factory and episode runner


def test_make_policy_rejects_unknown_names():
    problem = canonical([1.0, 1.0])
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("greedy", problem, None, 10, {})


def test_checkpoint_schedule_contract():
    sched = checkpoint_schedule(10, 1000, ratio=2.0)
    assert sched[0] == 10
    assert sched[-1] == 1000
    assert sched == sorted(set(sched))
    with pytest.raises(ValueError, match="ratio"):
        checkpoint_schedule(10, 100, ratio=1.0)
    with pytest.raises(ValueError, match="horizon"):
        checkpoint_schedule(10, 0)


def test_episode_with_degenerate_plan_is_presampling_only():
    problem = canonical([1.0, 4.0], beta=[1.0, -1.0])
    plan = PresamplePlan(counts=np.array([3, 2]))
    trace = run_episode("uniform", make_env(problem, seed=0), 5, plan=plan)
    assert trace.presample_end == 5
    assert trace.final_counts == (3, 2)
    assert trace.rows[-1].t == 5
    np.testing.assert_allclose(
        np.array(trace.rows[-1].counts) / 5, [0.6, 0.4]
    )


def test_episode_rejects_overfull_plans():
    problem = canonical([1.0, 4.0], beta=[1.0, -1.0])
    plan = PresamplePlan(counts=np.array([4, 4]))
    with pytest.raises(ValueError, match="exceeds the budget"):
        run_episode("uniform", make_env(problem, seed=0), 5, plan=plan)


def test_episode_rejects_budgets_below_the_estimation_phase():
    problem = canonical([1.0, 4.0], beta=[1.0, -1.0])
    with pytest.raises(ValueError, match="exceeds the budget"):
        run_episode(
            "randomized", make_env(problem, seed=0), 5, estimation_count=3
        )


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
    trace = run_episode("uniform", make_env(problem, seed=12, model="uniform"), 64)
    assert trace.policy == "uniform"
    assert trace.seed == 12
    assert trace.horizon == 64
    assert trace.noise == "uniform"
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
        got = episode.advance(horizon)
        want = run_episode("thompson", make_env(problem, 2), horizon)
        assert got.rows == want.rows
        assert got.final_counts == want.final_counts
        assert got.presample_end == want.presample_end == 6
    with pytest.raises(ValueError, match="cannot be advanced to 350"):
        episode.advance(350)
