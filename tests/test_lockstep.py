"""Lock-step episodes: several seeds of one policy stepped together.

On K > d one policy owns every member as a row of (S, K) arrays and
picks every row's arm in one ``select`` call.  Each member's trace must
be the one it records alone, field by field; a member that raises must
fail alone, as it would in a separate episode; the row updates must be
bit-equal to the scalar formulas; and a sweep's files must not depend
on how its seeds were grouped.
"""

import copy
import dataclasses
import functools
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from activedesign import core, harness, policies
from activedesign.environment import Environment, make_env
from activedesign.estimation import ConfidenceParams, lcb_variance
from activedesign.harness import ExperimentConfig, build_problem, run_sweep
from activedesign.policies import Episode, run_episode
from activedesign.solver import reference_optimum

ROOT = Path(__file__).resolve().parents[1]
REDUNDANT = {"file": str(ROOT / "instances" / "redundant_arm.txt")}
INSTANCES = {
    # (instance, policies, budget); each budget clears the T^(3/4)
    # presampling of gradient_ucb and randomized
    "redundant": (
        REDUNDANT, ("uniform", "oracle", "thompson", "gradient_ucb", "randomized"), 1000
    ),
    "random3x5": (
        {"generator": "random", "d": 3, "K": 5, "seed": 11},
        ("uniform", "oracle", "thompson", "gradient_ucb"),
        2000,
    ),
    "wide20x40": (
        {"generator": "random", "d": 20, "K": 40, "seed": 0},
        ("uniform", "oracle", "thompson"),
        250,
    ),
}
NOISE_MODELS = ("gaussian", "uniform", "rademacher")
SEEDS = (3, 4, 5, 6, 7)


@functools.lru_cache(maxsize=None)
def _problem(instance: str, noise: str):
    problem, model = build_problem({**INSTANCES[instance][0], "noise": noise})
    return problem, model, reference_optimum(problem)


@functools.lru_cache(maxsize=None)
def _alone(instance: str, noise: str, name: str, seed: int, horizon: int, options=()):
    problem, model, ref = _problem(instance, noise)
    env = make_env(problem, seed, model)
    return run_episode(name, env, horizon, options=dict(options), reference=ref)


def _fields(trace) -> dict:
    """Every field of a trace but its time, with arrays as bytes."""
    out = dataclasses.asdict(trace)
    out.pop("elapsed")
    out["origin"] = None if trace.origin is None else np.asarray(trace.origin).tobytes()
    out["rows"] = [
        (r.t, repr(r.regret), repr(r.loss_gap), repr(r.p_min), r.counts) for r in trace.rows
    ]
    return out


CASES = [
    (instance, name, noise)
    for instance, (_, names, _) in INSTANCES.items()
    for name in names
    for noise in NOISE_MODELS
]


@pytest.mark.parametrize("size", [1, 2, 5])
@pytest.mark.parametrize("instance,name,noise", CASES)
def test_lockstep_members_record_their_separate_traces(instance, name, noise, size):
    problem, model, ref = _problem(instance, noise)
    horizon = INSTANCES[instance][2]
    seeds = SEEDS[:size]
    episode = Episode(name, [make_env(problem, s, model) for s in seeds], horizon, reference=ref)
    outcomes = episode.advance_all(horizon)
    assert len(outcomes) == size
    for seed, got in zip(seeds, outcomes):
        assert _fields(got) == _fields(_alone(instance, noise, name, seed, horizon))


def test_kd_group_makes_one_select_call_per_step(monkeypatch):
    # every member is a row of the one policy: a K > d step is one select
    # call with one entry per row, whatever the group's size
    calls = []

    def counting(self, t, _select=policies.ThompsonPolicy.select):
        arms = _select(self, t)
        calls.append(len(arms))
        return arms

    monkeypatch.setattr(policies.ThompsonPolicy, "select", counting)
    problem, model, ref = _problem("random3x5", "gaussian")
    for size in (1, 3):
        calls.clear()
        envs = [make_env(problem, s, model) for s in SEEDS[:size]]
        Episode("thompson", envs, 300, reference=ref).advance_all(300)
        assert calls == [size] * (300 - 10)


@pytest.mark.parametrize("options", [(("use_lcb", True),), (("bonus_scale", 0.0),)])
def test_lockstep_gradient_ucb_options(options):
    problem, model, ref = _problem("redundant", "gaussian")
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    got = Episode("gradient_ucb", envs, 1000, options=dict(options), reference=ref)
    for seed, trace in zip(SEEDS, got.advance_all(1000)):
        want = _alone("redundant", "gaussian", "gradient_ucb", seed, 1000, options)
        assert _fields(trace) == _fields(want)


def test_lockstep_chain_advances_through_budgets_as_separate_runs():
    problem, model, ref = _problem("random3x5", "uniform")
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    episode = Episode("thompson", envs, 400, reference=ref, budgets=(900, 650))
    for horizon in (400, 650, 900):
        for seed, got in zip(SEEDS, episode.advance_all(horizon)):
            want = _alone("random3x5", "uniform", "thompson", seed, horizon)
            assert _fields(got) == _fields(want)


@pytest.mark.parametrize("name", ["thompson", "gradient_ucb"])
def test_stacked_singular_solve_fails_only_its_own_member(name):
    problem, model, ref = _problem("random3x5", "gaussian")
    horizon = 2000
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    episode = Episode(name, envs, horizon, reference=ref)
    # no mass on any arm: Omega(p) = 0, whose inverse raises for this
    # row alone (checked on a copy, so the group's generators stay unused)
    episode.policy.counts[1] = 0.0
    with np.errstate(divide="ignore"):
        arms = copy.deepcopy(episode.policy).select(episode.t + 1)
        assert [type(a) for a in arms] == [int, np.linalg.LinAlgError, int]
        outcomes = episode.advance_all(horizon)
    assert isinstance(outcomes[1], np.linalg.LinAlgError)
    for i in (0, 2):
        want = _alone("random3x5", "gaussian", name, SEEDS[i], horizon)
        assert _fields(outcomes[i]) == _fields(want)


@pytest.mark.parametrize("name", ["thompson", "gradient_ucb"])
def test_member_failing_a_checkpoint_fails_alone(monkeypatch, name):
    # the middle row's checkpoint raises at one checkpoint time: the
    # middle row drops out, and the rows around it record the traces
    # they record alone
    horizon = 2000
    want = [_alone("random3x5", "gaussian", name, s, horizon) for s in SEEDS[:3]]
    fail_at = want[1].rows[len(want[1].rows) // 2].t
    calls = []

    def failing(value, now, loss_star, _regret=policies.regret):
        calls.append(now)
        if now == fail_at and calls.count(now) == 2:
            raise RuntimeError(f"checkpoint {now} failed")
        return _regret(value, now, loss_star)

    problem, model, ref = _problem("random3x5", "gaussian")
    monkeypatch.setattr(policies, "regret", failing)
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    outcomes = Episode(name, envs, horizon, reference=ref).advance_all(horizon)
    assert type(outcomes[1]) is RuntimeError and str(outcomes[1]) == f"checkpoint {fail_at} failed"
    assert calls.count(fail_at) == 3 and calls[-1] == horizon
    for i in (0, 2):
        assert _fields(outcomes[i]) == _fields(want[i])


def test_dropped_member_keeps_its_error():
    problem, model, ref = _problem("random3x5", "gaussian")
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    episode = Episode("thompson", envs, 300, reference=ref, budgets=(600,))
    episode.policy.counts[2] = 0.0
    first = episode.advance_all(300)
    assert isinstance(first[2], np.linalg.LinAlgError)
    second = episode.advance_all(600)
    assert second[2] is first[2]
    for seed, got in zip(SEEDS, second[:2]):
        assert _fields(got) == _fields(_alone("random3x5", "gaussian", "thompson", seed, 600))


def test_set_up_failure_is_the_members_outcome():
    # K = 5 presampling at T^(3/4) per arm needs T > 625: every member
    # fails in set-up, with the error a separate episode raises
    problem, model, ref = _problem("random3x5", "gaussian")
    envs = [make_env(problem, s, model) for s in SEEDS[:2]]
    outcomes = Episode("gradient_ucb", envs, 600, reference=ref).advance_all(600)
    with pytest.raises(ValueError) as alone:
        run_episode("gradient_ucb", envs[0], 600, reference=ref)
    assert [str(o) for o in outcomes] == [str(alone.value)] * 2


def test_members_share_one_problem_and_square_runs_one_seed():
    problem, model, ref = _problem("random3x5", "gaussian")
    other, _, _ = _problem("random3x5", "uniform")
    with pytest.raises(ValueError, match="share one problem"):
        Episode("uniform", [make_env(problem, 0, model), make_env(other, 1, model)], 100)
    with pytest.raises(ValueError, match="at least one"):
        Episode("uniform", [], 100)
    # a K = d episode steps one seed on Python floats; its seeds run apart
    square, square_model = build_problem({"generator": "random", "d": 3, "K": 3, "seed": 4})
    with pytest.raises(ValueError, match="one seed"):
        Episode("gradient_ucb", [make_env(square, s, square_model) for s in (0, 1)], 2000)
    with pytest.raises(ValueError, match="one-member"):
        Episode("uniform", [make_env(problem, s, model) for s in (0, 1)], 100).advance(100)


def test_member_failing_in_presampling_fails_alone(monkeypatch):
    # the middle seed's environment raises partway through K > d
    # presampling: its outcome is its own episode's error, and the rows
    # around it record their separate traces
    def failing(self, arm, n, _block=Environment.query_block):
        if self.seed == SEEDS[1] and arm == 2:
            raise RuntimeError(f"seed {self.seed} stopped at arm {arm}")
        return _block(self, arm, n)

    problem, model, ref = _problem("redundant", "gaussian")
    want = [_alone("redundant", "gaussian", "gradient_ucb", s, 1000) for s in SEEDS[:3]]
    monkeypatch.setattr(Environment, "query_block", failing)
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    outcomes = Episode("gradient_ucb", envs, 1000, reference=ref).advance_all(1000)
    with pytest.raises(RuntimeError) as alone:
        run_episode("gradient_ucb", make_env(problem, SEEDS[1], model), 1000, reference=ref)
    assert type(outcomes[1]) is RuntimeError and str(outcomes[1]) == str(alone.value)
    for i in (0, 2):
        assert _fields(outcomes[i]) == _fields(want[i])


# --------------------------------------------------------------------
# row updates


def _pow_hazard(rng, mu: float) -> float:
    """A response y whose d = y - mu has d * d != d ** 2 (C ``pow``)."""
    while True:
        y = mu + float(rng.standard_normal()) * 10.0
        d = y - mu
        if d * d != d**2:
            return y


def test_thompson_row_updates_equal_the_scalar_formulas():
    # K > d, three rows: y - mu is picked where the scalar update's pow
    # and an array ``** 2`` (a product) round differently
    problem, _, _ = _problem("random3x5", "gaussian")
    s, k = 3, problem.n_arms
    policy = policies.ThompsonPolicy(problem, [None] * s, 100)
    state = [[[0.0, 1.0, 1.0, 1.0] for _ in range(k)] for _ in range(s)]  # mu, nu, alpha, beta

    def scalar(row, arm, y):
        mu, nu, alpha, beta = state[row][arm]
        state[row][arm] = [
            (nu * mu + y) / (nu + 1.0), nu + 1.0, alpha + 0.5,
            beta + nu * (y - mu) ** 2 / (2.0 * (nu + 1.0)),
        ]

    rng = np.random.default_rng(7)
    for step in range(60):
        arms = [int(a) for a in rng.integers(0, k, s)]
        if step % 3:
            ys = [_pow_hazard(rng, state[i][a][0]) for i, a in enumerate(arms)]
            policy.observe(arms, ys)
            for i, (a, y) in enumerate(zip(arms, ys)):
                scalar(i, a, y)
        else:
            block = np.empty((s, 4))
            for i in range(s):
                for j in range(4):
                    block[i, j] = _pow_hazard(rng, state[i][arms[0]][0])
                    scalar(i, arms[0], block[i, j])
            policy.observe_block(arms[0], block)
    for i in range(s):
        for j, name in enumerate(("post_mu", "post_nu", "post_alpha", "post_beta")):
            want = np.array([state[i][a][j] for a in range(k)])
            assert getattr(policy, name)[i].tobytes() == want.tobytes(), (i, name)


def test_moment_row_updates_equal_the_scalar_formulas():
    # K > d gradient_ucb with its bounds: per-row Welford moments,
    # plug-in variances and LCBs against the scalar formulas
    problem, _, _ = _problem("random3x5", "gaussian")
    s, k, horizon = 3, problem.n_arms, 2000
    policy = policies.GradientUcbPolicy(problem, [None] * s, horizon, use_lcb=True)
    delta = 1.0 / (float(horizon) ** 2 * k)
    params = [ConfidenceParams(delta, k2) for k2 in problem.noise.kappa2]
    state = [[[0.0, 0.0, 0.0, math.nan, math.nan] for _ in range(k)] for _ in range(s)]

    def scalar(row, arm, y):
        n, mean, m2, var, lcb = state[row][arm]
        n += 1.0
        d = y - mean
        mean += d / n
        m2 += d * (y - mean)
        if n >= 2.0:
            var = m2 / n
            lcb = lcb_variance(n, var, params[arm])
        state[row][arm] = [n, mean, m2, var, lcb]

    rng = np.random.default_rng(8)
    for step in range(60):
        arms = [int(a) for a in rng.integers(0, k, s)]
        if step % 3:
            ys = (rng.standard_normal(s) * 3.0 + 1.0).tolist()
            policy.observe(arms, ys)
            for i, (a, y) in enumerate(zip(arms, ys)):
                scalar(i, a, y)
        else:
            block = rng.standard_normal((s, 5)) * 3.0 - 2.0
            policy.observe_block(arms[0], block)
            for i in range(s):
                for y in block[i].tolist():
                    scalar(i, arms[0], y)
    names = ("counts", "_mean", "_m2", "sig2hat", "_lcb")
    for i in range(s):
        for j, name in enumerate(names):
            want = np.array([state[i][a][j] for a in range(k)])
            assert getattr(policy, name)[i].tobytes() == want.tobytes(), (i, name)
    assert not np.any(np.isnan(policy._lcb))


# --------------------------------------------------------------------
# sweeps


def test_seed_groups_are_contiguous_and_capped():
    seeds = tuple(range(7))
    assert harness._seed_groups(seeds, True, 1) == [(s,) for s in seeds]
    assert harness._seed_groups(seeds, False, 1) == [seeds]
    assert harness._seed_groups(seeds, False, 3) == [(0, 1, 2), (3, 4), (5, 6)]
    assert harness._seed_groups(seeds[:2], False, 4) == [(0,), (1,)]


def _sweep_raw(output=None, **changes):
    raw = {
        "instance": REDUNDANT,
        "policies": ["uniform", "oracle", "thompson", "gradient_ucb"],
        "budgets": [2000, 1000, 1500],
        "seeds": 4,
        "output": output,
    }
    return {**raw, **changes}


def test_lockstep_sweep_traces_equal_separate_episodes(monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    result = run_sweep(ExperimentConfig.from_dict(_sweep_raw()), quiet=True)
    assert not result.failures
    problem, model = build_problem(REDUNDANT)
    ref = reference_optimum(problem)
    assert len(result.traces) == 4 * 3 * 4
    for (name, horizon, seed), got in result.traces.items():
        want = run_episode(name, make_env(problem, seed, model), horizon, reference=ref)
        assert _fields(got) == _fields(want), (name, horizon, seed)


def _outcomes_alone(raw) -> tuple[dict, list]:
    """Every (policy, budget, seed) of a sweep run as its own episode."""
    problem, model = build_problem(raw["instance"])
    ref = reference_optimum(problem)
    traces, failures = {}, []
    for name in raw["policies"]:
        for horizon in raw["budgets"]:
            for seed in range(raw["seeds"]):
                env = make_env(problem, seed, model)
                try:
                    traces[name, horizon, seed] = run_episode(name, env, horizon, reference=ref)
                except Exception as exc:
                    failures.append((name, horizon, seed, f"{type(exc).__name__}: {exc}"))
    return traces, sorted(failures)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failing_member_matches_separate_episodes(monkeypatch, threads):
    if threads != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched environment only when forked")
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)

    # keyed to the environment's own draws, so a member that went on
    # after the failure would stop elsewhere or not at all
    def failing(self, arm, _query=Environment.query):
        if self.seed == 2 and self.draws >= 1500:
            raise RuntimeError(f"stopped after {self.draws} draws")
        return _query(self, arm)

    monkeypatch.setattr(Environment, "query", failing)
    raw = _sweep_raw(budgets=[1000, 2000, 3000])
    result = run_sweep(ExperimentConfig.from_dict(raw), quiet=True)
    traces, failures = _outcomes_alone(raw)
    assert sorted(result.failures) == failures
    assert {(name, t, s) for name, t, s, _ in failures} == {
        (name, t, 2) for name in raw["policies"] for t in (2000, 3000)
    }
    assert sorted(result.traces) == sorted(traces)
    for key, got in result.traces.items():
        assert _fields(got) == _fields(traces[key]), key


@pytest.mark.parametrize("threads", ["1", "2"])
def test_first_member_failing_before_a_later_budget(monkeypatch, threads):
    # seed 0 leads its group and fails in every budget, so from the second
    # chained budget on its dropped member sits before live ones
    if threads != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched environment only when forked")
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)

    def failing(self, arm, _query=Environment.query):
        if self.seed == 0 and self.draws >= 500:
            raise RuntimeError(f"stopped after {self.draws} draws")
        return _query(self, arm)

    calls, advance = [], harness._Group.advance

    def counted(self, horizon):
        calls.append((self.run[2], horizon))
        advance(self, horizon)

    monkeypatch.setattr(Environment, "query", failing)
    monkeypatch.setattr(harness._Group, "advance", counted)
    raw = _sweep_raw(budgets=[1000, 2000, 3000])
    result = run_sweep(ExperimentConfig.from_dict(raw), quiet=True)
    traces, failures = _outcomes_alone(raw)
    assert sorted(result.failures) == failures
    assert {(name, t, s) for name, t, s, _ in failures} == {
        (name, t, 0) for name in raw["policies"] for t in raw["budgets"]
    }
    assert sorted(result.traces) == sorted(traces)
    for key, got in result.traces.items():
        assert _fields(got) == _fields(traces[key]), key
    if threads == "1":
        # one group per (policy, budget), each advanced by one job
        assert sorted(calls) == sorted(
            (name, t) for name in raw["policies"] for t in raw["budgets"]
        )


def test_member_failing_its_first_budget_keeps_the_error(monkeypatch):
    # seed 1 fails in its first chained budget; the group's one Episode
    # carries that error to the later budgets, with no second episode
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")

    def failing(self, arm, _query=Environment.query):
        if self.seed == 1 and self.draws >= 700:
            raise RuntimeError(f"stopped after {self.draws} draws")
        return _query(self, arm)

    built = []

    class Counted(Episode):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(Environment, "query", failing)
    monkeypatch.setattr(harness, "Episode", Counted)
    raw = _sweep_raw(policies=["uniform", "thompson"], budgets=[1000, 2000, 3000])
    result = run_sweep(ExperimentConfig.from_dict(raw), quiet=True)
    assert built == ["uniform", "thompson"]
    traces, failures = _outcomes_alone(raw)
    assert sorted(result.failures) == failures
    assert {(name, t, s) for name, t, s, _ in failures} == {
        (name, t, 1) for name in raw["policies"] for t in raw["budgets"]
    }
    assert sorted(result.traces) == sorted(traces)
    for key, got in result.traces.items():
        assert _fields(got) == _fields(traces[key]), key


def test_sweep_files_do_not_depend_on_the_grouping(tmp_path, monkeypatch):
    written = {}
    for threads in ("1", "3"):
        monkeypatch.setenv("ACTIVE_DESIGN_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        run_sweep(ExperimentConfig.from_dict(_sweep_raw(str(out))), quiet=True)
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written["1"] == written["3"]
    assert len(written["1"]) == 4 * 3 * 4 + 4 + 1


def test_kd_episode_task_reports_one_budget_per_call(monkeypatch):
    monkeypatch.setenv("ACTIVE_DESIGN_THREADS", "1")
    seen, inside = [], []
    task, advance = harness._episode_task, Episode.advance_all

    def recorded(job):
        inside.append(True)
        try:
            result = task(job)
        finally:
            inside.pop()
        seen.append(result[:3])
        assert result[3].horizon == result[1]
        return result

    def stepping(self, horizon):
        assert inside, "an episode stepped outside _episode_task"
        return advance(self, horizon)

    monkeypatch.setattr(harness, "_episode_task", recorded)
    monkeypatch.setattr(Episode, "advance_all", stepping)
    cfg = ExperimentConfig.from_dict(
        _sweep_raw(policies=["uniform", "gradient_ucb", "thompson"], seeds=3)
    )
    result = run_sweep(cfg, quiet=True)
    assert sorted(seen) == sorted(result.traces)
    assert len(seen) == len(set(seen)) == 27


# --------------------------------------------------------------------
# checkpoints


def test_checkpoint_computes_the_loss_once(monkeypatch):
    calls = []

    def counted(problem, weights, _loss=policies.loss):
        calls.append(1)
        return _loss(problem, weights)

    def unused(*args):
        raise AssertionError("core.loss called on the checkpoint path")

    problem, model, ref = _problem("redundant", "gaussian")
    want = _alone("redundant", "gaussian", "thompson", 3, 1000)
    monkeypatch.setattr(policies, "loss", counted)
    monkeypatch.setattr(core, "loss", unused)
    got = run_episode("thompson", make_env(problem, 3, model), 1000, reference=ref)
    assert len(calls) == len(got.rows)
    assert _fields(got) == _fields(want)


def test_regret_from_loss_is_regret():
    problem, _, (p_star, value) = _problem("redundant", "gaussian")
    p = np.full(problem.n_arms, 1.0 / problem.n_arms)
    assert core.regret_from_loss(core.loss(problem, p), 50, value) == core.regret(
        problem, p, 50, value
    )
    before = core.negative_regret_clamps()
    assert core.regret_from_loss(value - 1e-12, 50, value) == 0.0
    assert core.negative_regret_clamps() == before + 1
    with pytest.raises(ValueError, match="negative beyond tolerance"):
        core.regret_from_loss(value - 1e-6, 50, value)
    with pytest.raises(ValueError, match="horizon must be positive"):
        core.regret_from_loss(value, 0, value)
