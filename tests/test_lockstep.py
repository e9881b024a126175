"""Lock-step episodes: several seeds of one policy stepped together.

On K > d, ``thompson``, ``gradient_ucb`` and ``oracle`` pick every
member's arm in one stacked solve.  Each member's trace must be the one
it records alone, field by field; a member that raises must fail alone,
as it would in a separate episode; and a sweep's files must not depend
on how its seeds were grouped.
"""

import dataclasses
import functools
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from activedesign import core, harness, policies
from activedesign.environment import Environment, make_env
from activedesign.harness import ExperimentConfig, build_problem, run_sweep
from activedesign.policies import Episode, run_episode
from activedesign.solver import reference_optimum

ROOT = Path(__file__).resolve().parents[1]
REDUNDANT = {"file": str(ROOT / "instances" / "redundant_arm.txt")}
INSTANCES = {
    # (instance, policies, budget); each budget clears gradient_ucb's
    # T^(3/4) presampling
    "redundant": (REDUNDANT, ("uniform", "oracle", "thompson", "gradient_ucb"), 1000),
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


def test_stacked_groups_pick_through_select_stacked(monkeypatch):
    # a group of two or more K > d thompson members never calls the
    # per-member select; K = d groups and one-member groups always do
    calls = []

    def counting(self, t, _select=policies.ThompsonPolicy.select):
        calls.append(t)
        return _select(self, t)

    monkeypatch.setattr(policies.ThompsonPolicy, "select", counting)
    problem, model, ref = _problem("random3x5", "gaussian")
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    Episode("thompson", envs, 300, reference=ref).advance_all(300)
    assert calls == []
    Episode("thompson", envs[:1], 300, reference=ref).advance_all(300)
    assert len(calls) == 300 - 10
    square, square_model = build_problem({"generator": "random", "d": 3, "K": 3, "seed": 4})
    calls.clear()
    Episode("thompson", [make_env(square, s, square_model) for s in (1, 2)], 100).advance_all(100)
    assert len(calls) == 2 * (100 - 6)


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
    # no mass on any arm: Omega(p) = 0, whose solve raises for this
    # member alone; the write lands in the group's stacked counts
    episode.policies[1].counts[:] = 0.0
    with np.errstate(divide="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            episode.policies[1].select(episode.t + 1)
        outcomes = episode.advance_all(horizon)
    assert isinstance(outcomes[1], np.linalg.LinAlgError)
    for i in (0, 2):
        want = _alone("random3x5", "gaussian", name, SEEDS[i], horizon)
        assert _fields(outcomes[i]) == _fields(want)


def test_dropped_member_is_reported_once():
    problem, model, ref = _problem("random3x5", "gaussian")
    envs = [make_env(problem, s, model) for s in SEEDS[:3]]
    episode = Episode("thompson", envs, 300, reference=ref, budgets=(600,))
    episode.policies[2].counts[:] = 0.0
    first = episode.advance_all(300)
    assert isinstance(first[2], np.linalg.LinAlgError)
    second = episode.advance_all(600)
    assert second[2] is None
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


def test_members_must_share_their_problem_and_presampling_end():
    problem, model, ref = _problem("random3x5", "gaussian")
    other, _, _ = _problem("random3x5", "uniform")
    with pytest.raises(ValueError, match="share one problem"):
        Episode("uniform", [make_env(problem, 0, model), make_env(other, 1, model)], 100)
    with pytest.raises(ValueError, match="at least one"):
        Episode("uniform", [], 100)
    # K = d adaptive presampling lays out counts from each seed's own
    # variance estimates, so two seeds can end it at different rounds
    square, square_model = build_problem({"generator": "random", "d": 3, "K": 3, "seed": 4})
    ends = {
        run_episode("gradient_ucb", make_env(square, s, square_model), 2000).presample_end: s
        for s in range(6)
    }
    assert len(ends) > 1
    envs = [make_env(square, s, square_model) for s in list(ends.values())[:2]]
    with pytest.raises(ValueError, match="different rounds"):
        Episode("gradient_ucb", envs, 2000)
    with pytest.raises(ValueError, match="one-member"):
        Episode("uniform", [make_env(problem, s, model) for s in (0, 1)], 100).advance(100)


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
    # after the failure, or a restart that did not begin from step one,
    # would stop elsewhere or not at all
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

    calls, advance = [], harness._advance_group

    def counted(job):
        calls.append((job[2], job[4]))
        advance(job)

    monkeypatch.setattr(Environment, "query", failing)
    monkeypatch.setattr(harness, "_advance_group", counted)
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
