"""Simplex solver: convergence, certificates, and the active-set polish."""

import logging
import time
from pathlib import Path

import numpy as np
import pytest

from activedesign import solver
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


def duplicate_arm_problem(seed=4, k=3):
    """A random 3 x k instance with its first covariate repeated at equal noise.

    Collapsing the duplicate pair turns the K = k + 1 problem back into
    the base instance, so the optimal loss is the base optimal value
    and an optimal design exists with zero weight on the clone.
    """
    base = make_random_instance(3, k, seed=seed)
    return base, clone_problem(base, 1)


def clone_problem(base, copies, sign=1.0):
    """``base`` with ``copies`` extra copies of arm 0 (times ``sign``) at equal noise."""
    x = base.covariates.columns
    cols = np.column_stack([x] + [sign * x[:, 0]] * copies)
    sigma2 = np.append(base.noise.sigma2, [base.noise.sigma2[0]] * copies)
    return DesignProblem(CovariateSet(cols), NoiseSpec(sigma2), beta=base.beta)


# --------------------------------------------------------------------
# configuration and input validation


def test_config_validation():
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)


def test_minimize_rejects_bad_inputs():
    f, g = design_oracles(make_random_instance(2, 2, seed=0))
    with pytest.raises(ValueError, match="at least one arm"):
        minimize(f, g, 0)


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
    # an explicit sweep limit bypasses the cache
    override = reference_optimum(problem, max_iters=50)
    assert override is not first


def test_reference_optimum_rejects_a_nonpositive_sweep_limit():
    with pytest.raises(ValueError, match="max_iters"):
        reference_optimum(make_random_instance(3, 4, seed=2), max_iters=0)


def test_polish_breaks_weight_ties_toward_the_lower_arm():
    # arm 3 of the shipped instance is an exact clone of arm 0, so from
    # the uniform start both keep bit-equal weight; the support Newton
    # solve merges the pair into arm 0, and the mass must stay there
    problem = load_instance(REDUNDANT_ARM)
    p_star, _ = reference_optimum(problem)
    p_star = np.asarray(p_star)
    assert p_star[3] == 0.0
    np.testing.assert_allclose(
        p_star, [0.33417877151532815, 0.4000855304168048, 0.2657356980678671, 0.0],
        rtol=0.0, atol=1e-12,
    )


def test_multiplicative_refine_warns_when_unconverged(caplog):
    # five sweeps leave a relative gap of about 0.4 on 3x100, and neither
    # the support Newton solve nor the polish certifies that iterate
    problem = make_random_instance(3, 100, seed=1)
    with caplog.at_level(logging.WARNING, logger="activedesign.solver"):
        reference_optimum(problem, max_iters=5)
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


# --------------------------------------------------------------------
# the active-set polish


def axis_clone_problem():
    """Arms e1, e2 and an exact copy of e1: the pair {0, 2} is exactly singular."""
    cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return DesignProblem(CovariateSet(cols), NoiseSpec(np.array([1.0, 2.0, 1.0])))


def refined(problem):
    k = problem.n_arms
    return _multiplicative_refine(problem, np.full(k, 1.0 / k))[0]


def rough(problem):
    f, g = design_oracles(problem)
    return minimize(f, g, problem.n_arms, SolverConfig(max_iters=400)).weights


_POLISH_CASES = (
    [(f"random-3x4-{s}", lambda s=s: make_random_instance(3, 4, seed=s)) for s in range(6)]
    + [
        ("random-3x5-0", lambda: make_random_instance(3, 5, seed=0)),
        ("random-8x16-0", lambda: make_random_instance(8, 16, seed=0)),
        ("random-20x40-0", lambda: make_random_instance(20, 40, seed=0)),
        ("hard-1", lambda: make_hard_instance(1.0)),
        ("hard-1e-2", lambda: make_hard_instance(1e-2)),
    ]
)


@pytest.mark.parametrize("start", [refined, rough])
@pytest.mark.parametrize("name, make", _POLISH_CASES, ids=[c[0] for c in _POLISH_CASES])
def test_polish_certifies_exactly_the_d_arm_optima(name, make, start):
    # the polish solves d-arm restrictions only: from a rough or a refined
    # iterate it must return the reference optimum when that sits on d
    # arms, and nothing when the optimum needs more
    problem = make()
    p_ref, value = reference_optimum(problem)
    hit = active_set_polish(problem, start(problem))
    if np.count_nonzero(np.asarray(p_ref)) > problem.dimension:
        assert hit is None
        return
    assert hit is not None
    np.testing.assert_array_equal(np.asarray(hit[0]), np.asarray(p_ref))
    assert hit[1] == value


@pytest.mark.parametrize(
    "make, weights",
    [
        (lambda: load_instance(REDUNDANT_ARM), None),
        (lambda: duplicate_arm_problem()[1], [0.35, 0.1, 0.1, 0.45]),
        (axis_clone_problem, [0.4, 0.2, 0.4]),
    ],
    ids=["redundant-arm", "duplicate-arm", "axis-clone"],
)
def test_polish_reaches_the_reference_value_on_clones(make, weights):
    # a clone pair may share the mass either way, so the answer is held
    # to its certificate and to the reference value, not to its weights
    problem = make()
    w = refined(problem) if weights is None else np.array(weights)
    hit = active_set_polish(problem, w)
    assert hit is not None
    p_star, value = hit
    _, ref = reference_optimum(problem)
    assert kkt_certificate(problem, p_star).certified
    assert abs(value - ref) <= 1e-12 * ref


def test_polish_steps_past_an_axis_clone_pair():
    # the heaviest pair is the exact clone, whose restriction is
    # singular; the enumeration skips it to the next spanning pair
    problem = axis_clone_problem()
    p_star, value = active_set_polish(problem, np.array([0.4, 0.2, 0.4]))
    assert np.asarray(p_star)[2] == 0.0
    assert abs(value - (1.0 + np.sqrt(2.0)) ** 2) < 1e-12


@pytest.mark.parametrize(
    "make, calls",
    [(lambda: make_random_instance(20, 40, seed=0), 0), (lambda: load_instance(REDUNDANT_ARM), 1)],
    ids=["random-20x40-0", "redundant-arm"],
)
def test_reference_optimum_certifies_d_arm_supports_only_when_needed(
    monkeypatch, make, calls
):
    # 20x40 seed 0 has an optimum on 37 arms, which the support Newton
    # solve certifies, so no d-arm restriction is solved; on redundant_arm
    # the merged clone pair leaves d arms, whose closed form certifies
    seen = []
    exact = solver._certify_subset

    def counted(problem, active, tol):
        seen.append(tuple(active.tolist()))
        return exact(problem, active, tol)

    monkeypatch.setattr(solver, "_certify_subset", counted)
    reference_optimum(make())
    assert len(seen) == calls


def count_marks_calls(monkeypatch):
    calls = []
    exact = solver.marks

    def counted(x, sigma2, p):
        calls.append(None)
        return exact(x, sigma2, p)

    monkeypatch.setattr(solver, "marks", counted)
    return calls


def test_reference_optimum_marks_calls_are_pinned(monkeypatch):
    # on 20x40 seed 0, one ``marks`` call for each of the four fixed-point
    # sweeps and one for the certificate of the support Newton solve,
    # which certifies once the relative gap falls below 1e-1: a kernel
    # whose rounding slows the fixed point, or a Newton solve that stops
    # certifying, shows up here
    calls = count_marks_calls(monkeypatch)
    reference_optimum(make_random_instance(20, 40, seed=0))
    assert len(calls) == 5


def test_reference_optimum_polishes_a_slow_vertex_early(caplog):
    # the fixed point shrinks the off-support mass only by
    # sqrt(1 / (1 + delta)) per sweep; the support Newton solve at the
    # first gap below 1e-1 drops that arm and returns the closed form of
    # the exact vertex, long before 20,000 sweeps
    problem = make_hard_instance(1e-3)
    start = time.process_time()
    with caplog.at_level(logging.WARNING, logger="activedesign.solver"):
        p_star, value = reference_optimum(problem)
    elapsed = time.process_time() - start
    np.testing.assert_array_equal(np.asarray(p_star), [1.0, 0.0])
    assert value == 1.0
    assert not caplog.records
    assert elapsed < 0.25


# --------------------------------------------------------------------
# the support Newton solve


def test_reference_optimum_reaches_a_slow_vertex_in_a_few_sweeps(monkeypatch):
    # the fixed point alone crawls about 4,600 sweeps toward this vertex
    calls = count_marks_calls(monkeypatch)
    p_star, value = reference_optimum(make_hard_instance(1e-2))
    np.testing.assert_array_equal(np.asarray(p_star), [1.0, 0.0])
    assert value == 1.0
    assert len(calls) <= 10


def test_support_newton_merges_exact_clones():
    # arms 0 and 3 of the shipped instance are exact clones, which would
    # make the KKT system singular; merged into arm 0 they leave d arms,
    # whose closed form certifies
    problem = load_instance(REDUNDANT_ARM)
    start = np.full(4, 0.25)
    iterate, _ = _multiplicative_refine(problem, start, max_iters=3)
    for weights in (start, np.asarray(iterate)):
        p_star, value = solver._support_newton(problem, weights)
        assert np.asarray(p_star).tolist() == [
            0.33417877151532815, 0.4000855304168048, 0.2657356980678671, 0.0
        ]
        assert value == 17.872955156140925


def test_reference_optimum_merges_a_clone_on_a_wide_support(monkeypatch):
    # the optimum of 3x5 seed 0 holds 4 > d arms, arm 0 among them; its
    # clone (arm 5) merges into arm 0, so the Newton solve certifies within
    # a few sweeps and leaves exact zeros off the optimal support
    _, problem = duplicate_arm_problem(seed=0, k=5)
    calls = count_marks_calls(monkeypatch)
    p_star, value = reference_optimum(problem)
    assert len(calls) <= 10
    p_star = np.asarray(p_star)
    assert p_star[5] == 0.0 and p_star[1] == 0.0
    assert value <= 27.881382234085844
    assert kkt_certificate(problem, p_star).certified


@pytest.mark.parametrize("copies, sign", [(1, -1.0), (2, 1.0)], ids=["sign-flipped", "triple"])
def test_reference_optimum_certifies_clone_families(copies, sign):
    problem = clone_problem(make_random_instance(3, 5, seed=0), copies, sign)
    p_star, value = reference_optimum(problem)
    assert np.all(np.asarray(p_star)[5:] == 0.0)
    assert kkt_certificate(problem, p_star).certified
    assert abs(value - loss(problem, p_star)) <= 1e-12 * value


@pytest.mark.parametrize(
    "d, k, seed",
    [(3, 5, s) for s in range(6)] + [(8, 16, s) for s in range(3)] + [(20, 40, 0)],
)
def test_support_newton_certifies_at_or_below_the_fixed_point(d, k, seed):
    problem = make_random_instance(d, k, seed=seed)
    start = np.full(k, 1.0 / k)
    _, slow = _multiplicative_refine(problem, start)
    iterate, _ = _multiplicative_refine(problem, start, max_iters=20)
    hit = solver._support_newton(problem, np.asarray(iterate))
    assert hit is not None
    p_star, value = hit
    assert kkt_certificate(problem, p_star).certified
    assert abs(value - loss(problem, p_star)) <= 1e-12 * value
    # equal up to rounding where the fixed point also reaches the optimum
    assert value <= slow * (1.0 + 1e-14)


@pytest.mark.parametrize("d, k, seed", [(3, 100, 1), (10, 200, 0)])
def test_support_newton_starts_from_the_heaviest_arms(monkeypatch, caplog, d, k, seed):
    # K exceeds d(d + 1) / 2 + 1, the largest support whose KKT system can
    # be nonsingular, so the solve starts from that many of the heaviest
    # arms; the fixed point alone took 10,973 sweeps on 3x100 and did not
    # converge in 20,000 on 10x200
    problem = make_random_instance(d, k, seed=seed)
    calls = count_marks_calls(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="activedesign.solver"):
        p_star, value = reference_optimum(problem)
    assert not caplog.records
    assert len(calls) <= 40
    assert kkt_certificate(problem, p_star).certified
    assert abs(value - loss(problem, p_star)) <= 1e-12 * value


def test_support_newton_rejects_a_support_missing_a_true_arm():
    problem = make_random_instance(20, 40, seed=0)
    p_star, _ = reference_optimum(problem)
    p_star = np.asarray(p_star)
    assert kkt_certificate(problem, p_star).certified
    assert solver._support_newton(problem, p_star) is not None
    missing = p_star.copy()
    missing[np.argmax(missing)] = 0.0
    assert solver._support_newton(problem, missing / missing.sum()) is None
