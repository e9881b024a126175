"""Accepts => finishes, over a grid of shapes, budgets, policies and proxies.

Each case is loaded as ``sweep`` and ``simulate`` load a config:
``build_problem``, ``check_reference`` on the reference optimum, then
``check_runs`` for one policy at one budget.  A case they accept must
run every seed's episode to its budget; any other case must be rejected
there, with a ``ValueError`` (a ``ConfigError`` for every config rule).
The shapes have d <= K <= 8, plus the near-degenerate instances of the
instance-file rule: near clones of an arm, variances spread over 1e+-8
or 1e-12 apart, a design singular at the uniform weights, and two that
must not load.  K > d ``randomized`` re-solves its design every round,
so it runs only at small K and at its budget floor.  Each shape also
runs with some of its sub-Gaussian proxies above its variances.
"""

import dataclasses
import math

import numpy as np
import pytest

from activedesign.core import NoiseSpec
from activedesign.environment import make_env, make_random_instance
from activedesign.harness import build_problem, check_reference, check_runs
from activedesign.policies import POLICY_NAMES, Episode, budget_floor
from activedesign.solver import reference_optimum

BUDGETS = (1, 7, 40, 300)
SEEDS = (0, 1)
# proxy factors: the instance's own proxies (1), and looser bounds
PROXY_FACTORS = (1.0, 3.0, 10.0)


def _inline(x, sigma2, beta=None) -> dict:
    """An inline instance of the covariate columns ``x``."""
    x = np.asarray(x, dtype=np.float64)
    beta = np.ones(x.shape[0]) if beta is None else beta
    return {"covariates": x.T.tolist(), "variances": list(sigma2), "beta": list(beta)}


def _clone_of_arm_0(split: float = 0.0, angle: float = 0.0) -> dict:
    """Random 3x3 seed 4 plus a near clone of arm 0: its variance raised by
    the factor 1 + ``split``, its direction turned by ``angle`` radians."""
    base = make_random_instance(3, 3, seed=4)
    x = base.covariates.columns
    u = x[:, 1] - (x[:, 1] @ x[:, 0]) * x[:, 0]
    clone = math.cos(angle) * x[:, 0] + math.sin(angle) * u / np.linalg.norm(u)
    sigma2 = np.append(base.noise.sigma2, base.noise.sigma2[0] * (1.0 + split))
    return _inline(np.column_stack([x, clone]), sigma2, base.beta)


def _random(d: int, k: int, seed: int = 0) -> dict:
    return {"generator": "random", "d": d, "K": k, "seed": seed}


_NEAR = 1e-6  # radians between arms 1 and 2: L* is infinite
SHAPES = {
    "1x1": _random(1, 1),
    "2x2": _random(2, 2),
    "3x3": _random(3, 3, seed=4),
    "8x8": _random(8, 8),
    "1x3": _random(1, 3),
    "2x5": _random(2, 5),
    "4x6": _random(4, 6),
    "3x8": _random(3, 8),
    "identity_variances_1e-8_1e8": _inline(np.eye(2), [1e-8, 1e8]),
    "clone_split_1e-6": _clone_of_arm_0(split=1e-6),
    "clone_split_1e-13": _clone_of_arm_0(split=1e-13),
    "clone_turned_1e-4": _clone_of_arm_0(angle=1e-4),
    "3x6_variances_1e-8_to_1e8": _inline(
        make_random_instance(3, 6, seed=0).covariates.columns, np.logspace(-8.0, 8.0, 6)
    ),
    "1x5_variances_1e-12_apart": _inline(np.ones((1, 5)), [1.0, 1.0 + 1e-12, 2.0, 3.0, 4.0]),
    # rejected at load: L* is infinite, and the covariates do not span R^2
    "near_singular_3x3": _inline(
        [[1.0, 0.0, 0.0], [0.0, 1.0, math.cos(_NEAR)], [0.0, 0.0, math.sin(_NEAR)]], [1.0] * 3
    ),
    "parallel_2x3": _inline([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], [1.0] * 3),
}
MUST_REJECT = {"near_singular_3x3", "parallel_2x3"}


def _with_proxy(problem, factor: float):
    """``problem`` with every second arm's sub-Gaussian proxy raised by ``factor``:
    known bounds above the variances, looser on some arms than on others."""
    raise_by = factor ** (np.arange(problem.n_arms) % 2)
    noise = NoiseSpec(problem.noise.sigma2, raise_by * problem.noise.kappa2)
    return dataclasses.replace(problem, noise=noise)


def _load(instance: dict, proxy: float, name: str, horizon: int):
    """The problem and reference of a case, or the load error."""
    try:
        problem = _with_proxy(build_problem(instance)[0], proxy)
        reference = check_reference(reference_optimum(problem), instance)
        check_runs(problem, [(name, {})], [horizon])
    except ValueError as exc:
        return exc
    return problem, reference


def _budgets(instance: dict, proxy: float, name: str) -> list:
    """The grid budgets of a case, and its presampling floor and the budget below."""
    try:
        problem = _with_proxy(build_problem(instance)[0], proxy)
    except ValueError:
        return list(BUDGETS)
    floor = budget_floor(name, problem, 1)
    if not problem.is_square and name == "randomized":
        return [] if floor is None else [floor - 1, floor]
    return sorted(set(BUDGETS) | (set() if floor is None else {floor - 1, floor}))


@pytest.mark.parametrize("proxy", PROXY_FACTORS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_accepted_config_finishes_and_every_other_is_rejected_at_load(shape, proxy):
    instance = SHAPES[shape]
    accepted = 0
    for name in POLICY_NAMES:
        for horizon in _budgets(instance, proxy, name):
            loaded = _load(instance, proxy, name, horizon)
            if isinstance(loaded, ValueError):
                continue
            assert shape not in MUST_REJECT
            accepted += 1
            problem, reference = loaded
            envs = [make_env(problem, seed) for seed in SEEDS]
            groups = [[env] for env in envs] if problem.is_square else [envs]
            for group in groups:
                episode = Episode(name, group, horizon, reference=reference)
                if not episode.policy.open_loop:
                    # a learner's presampling leaves every arm two observations, or ends the budget
                    assert episode.presample_end == horizon or episode.policy.counts.min() >= 2
                outcomes = episode.advance_all(horizon)
                for env, outcome in zip(group, outcomes):
                    assert not isinstance(outcome, Exception), (name, horizon, env.seed, outcome)
                    assert outcome.horizon == horizon and outcome.rows[-1].t == horizon
    assert accepted == 0 if shape in MUST_REJECT else accepted >= len(POLICY_NAMES)
