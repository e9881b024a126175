"""Simplex solver: convergence, certificates, and the active-set polish."""

import logging
from pathlib import Path

import numpy as np
import pytest

from activedesign.core import (
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    gradient,
    loss,
    optimal_weights_closed_form,
)
from activedesign.environment import make_hard_instance, make_random_instance
from activedesign.geometry import dual_feasibility, kkt_certificate
from activedesign.harness import load_instance
from activedesign.solver import (
    SolverConfig,
    _multiplicative_refine,
    active_set_polish,
    minimize,
    reference_optimum,
)

REDUNDANT_ARM = Path(__file__).resolve().parents[1] / "instances" / "redundant_arm.txt"


def design_oracles(problem):
    return (lambda p: loss(problem, p)), (lambda p: gradient(problem, p))


def duplicate_arm_problem(seed=4):
    """The K = d instance with its first covariate repeated at equal noise.

    Collapsing the duplicate pair turns the K = d + 1 problem back into
    the base instance, so the optimal loss is the base closed-form value
    and an optimal design exists with zero weight on the clone.
    """
    base = make_random_instance(3, 3, seed=seed)
    cols = np.column_stack([base.covariates.columns, base.covariates.columns[:, 0]])
    sigma2 = np.append(base.noise.sigma2, base.noise.sigma2[0])
    dup = DesignProblem(CovariateSet(cols), NoiseSpec(sigma2), beta=base.beta)
    return base, dup


# --------------------------------------------------------------------
# configuration and input validation


def test_config_validation():
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="nonnegative"):
        SolverConfig(gap_tol=-1.0)
    with pytest.raises(ValueError, match="backtrack"):
        SolverConfig(backtrack=1.0)


def test_minimize_rejects_bad_inputs():
    f, g = design_oracles(make_random_instance(2, 2, seed=0))
    with pytest.raises(ValueError, match="at least one arm"):
        minimize(f, g, 0)
    with pytest.raises(ValueError, match="floor too large"):
        minimize(f, g, 2, SolverConfig(floor=0.5))
    with pytest.raises(ValueError, match="length-k"):
        minimize(f, g, 2, start=np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError, match="length-k"):
        minimize(f, g, 2, start=np.array([1.5, -0.5]))


def test_minimize_requires_finite_start_value():
    inf = lambda p: float("inf")  # noqa: E731
    with pytest.raises(ValueError, match="not finite"):
        minimize(inf, lambda p: np.zeros(2), 2)


# --------------------------------------------------------------------
# convergence on known optima


def test_quadratic_with_interior_optimum_is_recovered():
    # separable quadratic centered inside the simplex: the optimum is
    # the center itself and the optimal value is zero
    c = np.array([0.2, 0.3, 0.5])
    res = minimize(lambda p: float(np.sum((p - c) ** 2)), lambda p: 2.0 * (p - c), 3)
    assert res.converged
    np.testing.assert_allclose(np.asarray(res.weights), c, atol=1e-5)
    assert res.objective < 1e-10


def test_square_design_matches_closed_form():
    for seed in range(5):
        problem = make_random_instance(3, 3, seed=seed)
        p_star = np.asarray(optimal_weights_closed_form(problem))
        f, g = design_oracles(problem)
        res = minimize(f, g, 3)
        np.testing.assert_allclose(np.asarray(res.weights), p_star, atol=1e-5)
        assert res.objective <= loss(problem, p_star) + 1e-7


def test_hard_instance_drives_weight_to_the_vertex():
    problem = make_hard_instance(0.5)
    f, g = design_oracles(problem)
    res = minimize(f, g, 2)
    assert res.converged
    assert np.asarray(res.weights)[0] >= 1.0 - 1e-8
    assert abs(res.objective - 1.0) < 1e-8


def test_line_search_never_increases_the_objective():
    problem = make_random_instance(3, 5, seed=11)
    seen = []
    f0, g0 = design_oracles(problem)

    def recording_loss(p):
        v = f0(p)
        seen.append(v)
        return v

    minimize(recording_loss, g0, 5, SolverConfig(max_iters=300))
    accepted = [seen[0]]
    for v in seen[1:]:
        # the recorder also sees rejected backtracking probes, so only
        # compare values that beat the incumbent (accepted steps)
        if v <= accepted[-1]:
            accepted.append(v)
    assert len(accepted) > 10
    assert all(b <= a for a, b in zip(accepted, accepted[1:]))


def test_gap_bounds_true_suboptimality():
    problem = make_random_instance(3, 4, seed=2)
    _, l_star = reference_optimum(problem)
    f, g = design_oracles(problem)
    for iters in (50, 200, 800):
        res = minimize(f, g, 4, SolverConfig(max_iters=iters))
        assert res.objective - l_star <= res.gap + 1e-9


def test_warm_start_finishes_quickly():
    problem = make_random_instance(3, 4, seed=2)
    p_star, l_star = reference_optimum(problem)
    f, g = design_oracles(problem)
    res = minimize(f, g, 4, start=np.asarray(p_star))
    assert res.iterations <= 20
    assert res.objective - l_star <= 1e-6


# --------------------------------------------------------------------
# active-set polish and the K > d reference


def test_polish_declines_square_problems():
    problem = make_random_instance(3, 3, seed=0)
    assert active_set_polish(problem, np.full(3, 1.0 / 3.0)) is None


def test_polish_declines_interior_optimum():
    problem = make_random_instance(3, 4, seed=4)
    p_star, _ = reference_optimum(problem)
    assert active_set_polish(problem, np.asarray(p_star)) is None


def test_polish_certifies_boundary_optimum_exactly():
    problem = make_random_instance(3, 4, seed=2)
    f, g = design_oracles(problem)
    rough = minimize(f, g, 4, SolverConfig(max_iters=400))
    polished = active_set_polish(problem, np.asarray(rough.weights))
    assert polished is not None
    p_star, value = polished
    assert np.min(np.asarray(p_star)) == 0.0
    assert value <= rough.objective
    assert kkt_certificate(problem, p_star).certified


def test_polish_handles_duplicate_covariates():
    # the two heaviest arms may be the clones, whose restriction cannot
    # span; the subset enumeration must step past it to a spanning one
    base, dup = duplicate_arm_problem()
    l_base = loss(base, optimal_weights_closed_form(base))
    lopsided = np.array([0.35, 0.1, 0.1, 0.45])
    polished = active_set_polish(dup, lopsided)
    assert polished is not None
    p_star, value = polished
    assert abs(value - l_base) < 1e-12
    assert np.asarray(p_star)[0] == 0.0 or np.asarray(p_star)[3] == 0.0


def test_reference_optimum_square_uses_closed_form():
    problem = make_random_instance(4, 4, seed=3)
    p_star, value = reference_optimum(problem)
    np.testing.assert_array_equal(
        np.asarray(p_star), np.asarray(optimal_weights_closed_form(problem))
    )
    assert value == loss(problem, p_star)


def test_reference_optimum_collapses_duplicates():
    base, dup = duplicate_arm_problem()
    l_base = loss(base, optimal_weights_closed_form(base))
    p_star, value = reference_optimum(dup)
    assert abs(value - l_base) < 1e-12
    combined = np.asarray(p_star)[0] + np.asarray(p_star)[3]
    expected = np.asarray(optimal_weights_closed_form(base))
    np.testing.assert_allclose(
        [combined, np.asarray(p_star)[1], np.asarray(p_star)[2]], expected, atol=1e-12
    )


def test_reference_optimum_certifies_across_random_instances():
    # includes instances whose optimal support holds more than d arms,
    # which the d-arm polish alone cannot represent
    for seed in range(6):
        problem = make_random_instance(3, 5, seed=seed)
        p_star, value = reference_optimum(problem)
        cert = kkt_certificate(problem, p_star)
        assert cert.certified, f"seed {seed} failed KKT"
        assert abs(value - loss(problem, p_star)) < 1e-9 * max(1.0, value)


def test_multiplicative_refine_decreases_loss_and_closes_gap():
    problem = make_random_instance(3, 5, seed=0)
    start = np.full(5, 0.2)
    refined, value = _multiplicative_refine(problem, start)
    assert value < loss(problem, start)
    grad = gradient(problem, refined)
    gap = float(np.asarray(refined) @ grad - np.min(grad))
    assert gap <= 1e-10 * value
    assert kkt_certificate(problem, refined).certified


def test_reference_optimum_is_cached_per_problem():
    problem = make_random_instance(3, 4, seed=2)
    first = reference_optimum(problem)
    assert reference_optimum(problem) is first
    # an explicit config bypasses the cache
    override = reference_optimum(problem, SolverConfig(max_iters=50))
    assert override is not first


def test_polish_breaks_weight_ties_toward_the_lower_arm():
    # arm 3 of the shipped instance is an exact clone of arm 0, so from
    # the uniform start both keep bit-equal weight; the mass must stay on
    # arm 0
    problem = load_instance(REDUNDANT_ARM)
    p_star, _ = reference_optimum(problem)
    p_star = np.asarray(p_star)
    assert p_star[3] == 0.0
    np.testing.assert_allclose(
        p_star, [0.33417877151532815, 0.4000855304168048, 0.2657356980678671, 0.0],
        rtol=0.0, atol=1e-12,
    )


def test_multiplicative_refine_warns_when_unconverged(caplog):
    problem = make_random_instance(3, 5, seed=0)
    with caplog.at_level(logging.WARNING, logger="activedesign.solver"):
        reference_optimum(problem, SolverConfig(max_iters=5))
    assert any("unconverged after 5 sweeps" in r.getMessage() for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="activedesign.solver"):
        reference_optimum(problem)
    assert not caplog.records


@pytest.mark.parametrize("max_iters", [0, 1, 5, 40])
def test_multiplicative_refine_value_is_the_loss_of_its_weights(max_iters):
    problem = make_random_instance(3, 5, seed=0)
    weights, value = _multiplicative_refine(
        problem, np.full(5, 0.2), max_iters=max_iters
    )
    expect = loss(problem, weights)
    assert abs(value - expect) <= 1e-12 * expect


@pytest.mark.parametrize(
    "d, k, seed",
    [(3, 5, s) for s in range(6)] + [(8, 16, s) for s in range(3)] + [(20, 40, 0)],
)
def test_reference_optimum_matches_frank_wolfe_then_refine(d, k, seed):
    problem = make_random_instance(d, k, seed=seed)
    p_star, value = reference_optimum(problem)
    cert = kkt_certificate(problem, p_star)
    assert cert.certified
    assert dual_feasibility(problem, cert).feasible
    f, g = design_oracles(problem)
    stage = minimize(f, g, k, SolverConfig(max_iters=1500))
    _, slow = _multiplicative_refine(problem, stage.weights)
    assert value <= slow + 1e-12 * slow
    if (d, k) == (20, 40):
        assert abs(value - 934.3662738906602) <= 1e-12 * 934.3662738906602
