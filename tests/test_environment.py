"""Sampling oracles: seeding contract, stream identity, noise moments."""

import time

import numpy as np
import pytest

from activedesign.core import MAX_DIMENSION, CovariateSet, DesignProblem, NoiseSpec, loss
from activedesign.environment import (
    NOISE_CHUNK,
    Environment,
    make_env,
    make_hard_instance,
    make_random_instance,
)

# --------------------------------------------------------------------
# construction and validation


def test_environment_requires_beta():
    problem = make_random_instance(2, 2, seed=0)
    stripped = type(problem)(problem.covariates, problem.noise)
    with pytest.raises(ValueError, match="beta"):
        Environment(stripped, seed=0)


def test_query_checks_arm_range():
    env = make_env(make_random_instance(2, 3, seed=1), seed=0)
    with pytest.raises(ValueError, match="out of range"):
        env.query(3)
    with pytest.raises(ValueError, match="out of range"):
        env.query(-1)


def test_block_size_validation():
    env = make_env(make_random_instance(2, 2, seed=1), seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        env.query_block(0, -1)
    assert env.query_block(0, 0).size == 0
    assert env.draws == 0


# --------------------------------------------------------------------
# seeding and stream identity


def test_same_seed_reproduces_observations():
    problem = make_random_instance(3, 3, seed=7)
    a = make_env(problem, seed=11)
    b = make_env(problem, seed=11)
    arms = [0, 2, 1, 1, 0, 2, 2, 0]
    ya = [a.query(k) for k in arms]
    yb = [b.query(k) for k in arms]
    assert ya == yb


def test_different_seeds_differ():
    problem = make_random_instance(2, 2, seed=7)
    a = make_env(problem, seed=0)
    b = make_env(problem, seed=1)
    assert a.query(0) != b.query(0)


def test_env_stream_is_spawn_key_zero():
    # The documented contract: observations come from the dedicated
    # child stream SeedSequence(seed, spawn_key=(0,)).  Replaying that
    # stream by hand must predict queries exactly.
    problem = make_random_instance(2, 2, seed=3)
    env = make_env(problem, seed=42)
    mirror = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(0,)))
    means = problem.covariates.columns.T @ problem.beta
    sigma = problem.noise.sigma
    for arm in [0, 1, 1, 0]:
        expected = means[arm] + sigma[arm] * mirror.standard_normal()
        assert env.query(arm) == expected


def test_block_matches_sequential_queries():
    # within the first chunk, and spanning several chunks from a fresh
    # environment and from mid-buffer
    problem = make_random_instance(2, 3, seed=5)
    for sizes in ([64], [3 * NOISE_CHUNK + 5], [7, 2 * NOISE_CHUNK, NOISE_CHUNK + 1]):
        one = make_env(problem, seed=9)
        blk = make_env(problem, seed=9)
        for size in sizes:
            singles = np.array([one.query(1) for _ in range(size)])
            block = blk.query_block(1, size)
            np.testing.assert_array_equal(block, singles)
            assert one.draws == blk.draws
        assert blk.draws == sum(sizes)


def _scalar_replay(problem, seed):
    """One observation per call through the scalar generator formula."""
    mirror = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    means = problem.covariates.columns.T @ problem.beta
    sigma = problem.noise.sigma

    def draw(arm):
        return float(means[arm] + sigma[arm] * mirror.standard_normal())

    return draw


def test_chunked_noise_matches_scalar_draws_across_refills():
    # Single queries are served from noise drawn ahead in chunks and
    # blocks use up the chunk before drawing; every observation must
    # still be the one a per-query draw from the stream would give.
    problem = make_random_instance(2, 3, seed=8)
    plan = [("q", 1)] * 5 + [("b", 40)] + [("q", 7)] * (NOISE_CHUNK - 50)
    plan += [("b", 3)] + [("q", 2)] * 20 + [("b", 3 * NOISE_CHUNK)] + [("q", 0)] * 10
    plan += [("b", NOISE_CHUNK - 10)] + [("b", 25)] + [("q", 1)] * (2 * NOISE_CHUNK + 3)
    plan = [(kind, n if kind == "b" else n % 3) for kind, n in plan]
    env = make_env(problem, seed=21)
    draw = _scalar_replay(problem, 21)
    served = 0
    for step, (kind, n) in enumerate(plan):
        if kind == "q":
            arm = n
            assert env.query(arm) == draw(arm), step
            served += 1
        else:
            arm = step % 3
            got = env.query_block(arm, n)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tolist() == [draw(arm) for _ in range(n)], step
            served += n
        assert env.draws == served
    assert served > 5 * NOISE_CHUNK


def test_block_then_single_continues_the_stream():
    # after short blocks, blocks ending on a chunk's last draw and blocks
    # spanning several chunks
    problem = make_random_instance(2, 2, seed=5)
    for size in (10, NOISE_CHUNK, 2 * NOISE_CHUNK + 10, 4 * NOISE_CHUNK - 10):
        a = make_env(problem, seed=13)
        b = make_env(problem, seed=13)
        a.query_block(0, size)
        for _ in range(size):
            b.query(0)
        assert [a.query(1) for _ in range(NOISE_CHUNK + 2)] == [
            b.query(1) for _ in range(NOISE_CHUNK + 2)
        ], size


@pytest.mark.parametrize("k", [1, 3, 8])
def test_query_arms_equals_successive_queries(k):
    # blocks from the start, mid-buffer, across one and several refills,
    # ending on a chunk's last draw, and empty; the next single query after
    # each block must be the one successive queries lead to
    problem = make_random_instance(min(k, 2), k, seed=8)
    rng = np.random.default_rng(1)
    sizes = [5, 40, 0, NOISE_CHUNK - 45, NOISE_CHUNK + 7, 3 * NOISE_CHUNK + 2, 1, 0]
    sizes += [NOISE_CHUNK - 9, 2 * NOISE_CHUNK, 17]
    one = make_env(problem, seed=21)
    blk = make_env(problem, seed=21)
    for size in sizes:
        arms = rng.integers(0, k, size).tolist()
        got = blk.query_arms(arms)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert got.tolist() == [one.query(a) for a in arms], size
        assert blk.draws == one.draws
        assert blk.query(size % k) == one.query(size % k)
    assert one.draws > 8 * NOISE_CHUNK


@pytest.mark.parametrize("bad", [[0, 1, 3], [2, -1]])
def test_query_arms_checks_every_arm_before_a_draw(bad):
    # a new environment has no noise drawn ahead, so any served arm draws
    problem = make_random_instance(2, 3, seed=1)
    env, fresh = make_env(problem, seed=0), make_env(problem, seed=0)
    state = env.rng.bit_generator.state
    with pytest.raises(ValueError, match="out of range"):
        env.query_arms(bad)
    assert env.query_arms([]).size == 0
    assert env.draws == 0 and env.rng.bit_generator.state == state
    assert env.query(1) == fresh.query(1)


def test_draw_counter_tracks_observations():
    env = make_env(make_random_instance(2, 2, seed=5), seed=0)
    env.query(0)
    env.query_block(1, 7)
    assert env.draws == 8


# --------------------------------------------------------------------
# noise moments


MOMENT_INSTANCES = {
    "random": make_random_instance(2, 2, seed=2),
    "variances_1e-8_1e8": DesignProblem(
        CovariateSet(np.eye(2)), NoiseSpec(np.array([1e-8, 1e8])), beta=np.array([3.0, -2.0])
    ),
    "hard": make_hard_instance(0.5),
}


@pytest.mark.parametrize("instance", sorted(MOMENT_INSTANCES))
def test_gaussian_moments(instance):
    n = 40_000
    problem = MOMENT_INSTANCES[instance]
    env = make_env(problem, seed=17)
    means = problem.covariates.columns.T @ problem.beta
    for arm in range(problem.n_arms):
        eps, s2 = env.query_block(arm, n) - means[arm], problem.noise.sigma2[arm]
        # SE(mean) = sigma/sqrt(n); SE(var) = sigma^2 sqrt(2/n)
        assert abs(eps.mean()) < 5.0 * np.sqrt(s2 / n)
        assert abs(eps.var() - s2) < 5.0 * s2 * np.sqrt(2.0 / n)


# --------------------------------------------------------------------
# instance factories


def test_hard_instance_closed_form_loss():
    delta = 0.7
    problem = make_hard_instance(delta)
    for p1 in [0.1, 0.5, 0.9]:
        expected = (1.0 + delta) / (1.0 + delta * p1)
        assert abs(loss(problem, np.array([p1, 1.0 - p1])) - expected) < 1e-12
    # optimum sits at the vertex that spends everything on the quiet arm
    assert abs(loss(problem, np.array([1.0, 0.0])) - 1.0) < 1e-15


def test_hard_instance_validation():
    for delta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            make_hard_instance(delta)


def test_random_instance_shape_and_conditioning():
    for seed in range(8):
        problem = make_random_instance(3, 5, seed=seed)
        cols = problem.covariates.columns
        assert cols.shape == (3, 5)
        np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0, rtol=1e-12)
        assert np.linalg.svd(cols, compute_uv=False)[-1] > 0.1
        assert np.all(problem.noise.sigma2 >= 0.5)
        assert np.all(problem.noise.sigma2 <= 2.0)
        np.testing.assert_array_equal(problem.noise.kappa2, problem.noise.sigma2)
        assert problem.beta.shape == (3,)


def test_random_instance_is_seed_deterministic():
    a = make_random_instance(3, 4, seed=6)
    b = make_random_instance(3, 4, seed=6)
    np.testing.assert_array_equal(a.covariates.columns, b.covariates.columns)
    np.testing.assert_array_equal(a.noise.sigma2, b.noise.sigma2)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_random_instance_validation():
    with pytest.raises(ValueError, match="k >= d"):
        make_random_instance(3, 2, seed=0)


def test_random_instance_gives_up_after_a_bounded_number_of_draws():
    # no 60x60 draw of seed 0 clears the conditioning bar, so the redraws
    # must stop at RANDOM_DRAWS
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"d=60, K=60 .* seed 0 .* above 0\.1 within 1000 draws"):
        make_random_instance(60, 60, seed=0)
    assert time.perf_counter() - start < 20.0
    # 12x12 seed 23 takes 16 draws, the most of any shape up to d = K = 12
    assert make_random_instance(12, 12, seed=23).covariates.columns.shape == (12, 12)


def test_random_instance_above_the_dimension_cap_is_rejected_before_any_draw():
    # d = K = 600 used to spend its 1000 draws, over a minute, and then
    # name the singular-value bar
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"dimension 513 exceeds the supported cap {MAX_DIMENSION}"):
        make_random_instance(513, 513, seed=0)
    assert time.perf_counter() - start < 1.0
