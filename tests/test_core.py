"""Exact-value and finite-difference oracles for the design objective."""

import math
from fractions import Fraction

import numpy as np
import pytest

from activedesign.core import (
    MAX_DIMENSION,
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    SimplexWeights,
    gradient,
    gram_cofactors,
    info_matrix,
    loss,
    loss_closed_form,
    marks,
    negative_regret_clamps,
    ols_fit,
    optimal_weights_closed_form,
    problem_constants,
    regret,
    singular,
)
from activedesign.environment import make_hard_instance, make_random_instance
from activedesign.estimation import ConfidenceParams
from activedesign.geometry import kkt_certificate


def canonical_problem(sigma2, beta=None):
    d = len(sigma2)
    return DesignProblem(
        CovariateSet(np.eye(d)), NoiseSpec(np.array(sigma2, dtype=float)), beta=beta
    )


def rotated_problem(sigma2, seed):
    """Canonical instance pushed through a random orthogonal map."""
    d = len(sigma2)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return DesignProblem(CovariateSet(q), NoiseSpec(np.array(sigma2, dtype=float)))


# --------------------------------------------------------------------
# containers


def test_covariates_are_renormalized():
    cols = np.array([[3.0, 0.0], [0.0, 0.5]])
    cs = CovariateSet(cols)
    np.testing.assert_allclose(np.linalg.norm(cs.columns, axis=0), [1.0, 1.0], rtol=1e-15)


def test_zero_covariate_rejected():
    with pytest.raises(ValueError, match="zero"):
        CovariateSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # a NaN or infinite entry used to fail only inside the SVD, or not at all
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="covariates must be finite"):
            CovariateSet(np.array([[1.0, 0.0], [bad, 1.0]]))


def test_too_few_arms_rejected():
    with pytest.raises(ValueError, match="cannot span"):
        CovariateSet(np.array([[1.0], [0.0]]))


def test_rank_deficient_set_rejected():
    cols = np.array([[1.0, 1.0], [0.0, 0.0]])  # two copies of e1 in R^2
    with pytest.raises(ValueError, match="cannot span"):
        CovariateSet(cols)


def test_dimension_cap():
    d = MAX_DIMENSION + 1
    with pytest.raises(ValueError, match="dimension"):
        CovariateSet(np.eye(d))


def test_noise_spec_rejects_proxy_below_variance():
    with pytest.raises(ValueError, match="dominate"):
        NoiseSpec(np.array([1.0]), np.array([0.5]))
    # NaN and inf slipped past the positivity and dominance checks
    for sigma2, kappa2 in [(np.nan, None), (np.inf, None), (1.0, np.nan), (1.0, np.inf)]:
        with pytest.raises(ValueError, match="positive and finite"):
            NoiseSpec(np.array([1.0, sigma2]), None if kappa2 is None else np.array([1.0, kappa2]))


def test_noise_spec_defaults_proxy_to_variance():
    spec = NoiseSpec(np.array([2.0, 3.0]))
    np.testing.assert_allclose(spec.kappa2, [2.0, 3.0])
    np.testing.assert_allclose(spec.sigma, np.sqrt([2.0, 3.0]))


def test_problem_arm_count_mismatch():
    with pytest.raises(ValueError, match="arm count"):
        DesignProblem(CovariateSet(np.eye(2)), NoiseSpec(np.ones(3)))


def test_problem_beta_dimension():
    with pytest.raises(ValueError, match="dimension"):
        canonical_problem([1.0, 1.0], beta=np.ones(3))
    # a NaN beta used to load, and every simulated response was NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="beta must be finite"):
            canonical_problem([1.0, 1.0], beta=np.array([1.0, bad]))


# each seam that takes floats from outside a policy, fed one value
NON_FINITE_SEAMS = {
    "noise_sigma2": lambda v: NoiseSpec(np.array([1.0, v]), np.array([2.0, 2.0])),
    "noise_kappa2": lambda v: NoiseSpec(np.array([1.0, 1.0]), np.array([1.0, v])),
    "covariates": lambda v: CovariateSet(np.array([[1.0, 0.0], [v, 1.0]])),
    "beta": lambda v: canonical_problem([1.0, 1.0], beta=np.array([1.0, v])),
    "confidence_delta": lambda v: ConfidenceParams(v, 1.0),
    "confidence_kappa2": lambda v: ConfidenceParams(0.1, v),
    "hard_instance_delta": lambda v: make_hard_instance(v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("seam", NON_FINITE_SEAMS)
def test_non_finite_inputs_raise(seam, value):
    # a NaN or +inf kappa^2 used to build ConfidenceParams
    with pytest.raises(ValueError):
        NON_FINITE_SEAMS[seam](value)


def test_simplex_weights_clamp_and_renormalize():
    w = SimplexWeights(np.array([0.5, 0.5, -1e-13]))
    assert w[2] == 0.0
    assert math.isclose(float(np.asarray(w).sum()), 1.0, rel_tol=0, abs_tol=1e-15)
    with pytest.raises(ValueError, match="nonnegative"):
        SimplexWeights(np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum"):
        SimplexWeights(np.array([0.6, 0.6]))
    # NaN used to construct: both the sign and the sum test are False for it
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SimplexWeights(np.full(3, bad))


def test_simplex_uniform():
    w = SimplexWeights.uniform(4)
    assert len(w) == 4
    np.testing.assert_allclose(np.asarray(w), 0.25)


# --------------------------------------------------------------------
# loss values pinned by hand


def test_loss_canonical_equal_variance():
    prob = canonical_problem([1.0, 1.0])
    assert loss(prob, [0.5, 0.5]) == pytest.approx(4.0, rel=1e-14)


def test_loss_canonical_unequal_variance():
    prob = canonical_problem([1.0, 4.0])
    # Omega = diag(p1, p2/4); trace inverse = 1/p1 + 4/p2
    assert loss(prob, [1.0 / 3.0, 2.0 / 3.0]) == pytest.approx(9.0, rel=1e-14)


def test_loss_three_arm_pins():
    assert loss(canonical_problem([1.0, 1.0, 1.0]), SimplexWeights.uniform(3)) == pytest.approx(
        9.0, rel=1e-14
    )
    prob = canonical_problem([1.0, 4.0, 9.0])
    p_star = [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0]
    assert loss(prob, p_star) == pytest.approx(36.0, rel=1e-14)
    assert np.asarray(optimal_weights_closed_form(prob)) == pytest.approx(p_star, rel=1e-14)


def test_loss_invariant_under_rotation():
    rng = np.random.default_rng(7)
    for trial in range(10):
        sigma2 = rng.uniform(0.5, 3.0, 3)
        p = rng.dirichlet(np.ones(3))
        canon = canonical_problem(sigma2)
        rot = rotated_problem(sigma2, seed=100 + trial)
        assert loss(rot, p) == pytest.approx(loss(canon, p), rel=1e-11)


def test_loss_boundary_is_infinite():
    prob = canonical_problem([1.0, 1.0])
    assert loss(prob, [1.0, 0.0]) == math.inf
    assert loss_closed_form(prob, [1.0, 0.0]) == math.inf


def test_closed_form_matches_eigenvalue_loss():
    rng = np.random.default_rng(11)
    for trial in range(20):
        prob = make_random_instance(3, 3, seed=trial)
        p = rng.dirichlet(np.ones(3))
        assert loss_closed_form(prob, p) == pytest.approx(loss(prob, p), rel=1e-11)


# --------------------------------------------------------------------
# gradient against central finite differences


def fd_directional(prob, p, i, j, h=1e-6):
    e = np.zeros(len(p))
    e[i] += 1.0
    e[j] -= 1.0
    return (loss(prob, p + h * e) - loss(prob, p - h * e)) / (2.0 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, d + 3))
        prob = make_random_instance(d, k, seed=200 + trial)
        p = rng.dirichlet(np.full(k, 5.0))  # concentrated away from the boundary
        g = gradient(prob, p)
        assert np.all(g < 0.0)
        for _ in range(3):
            i, j = rng.choice(k, size=2, replace=False)
            want = fd_directional(prob, p, int(i), int(j))
            assert g[i] - g[j] == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_gradient_rejects_singular_point():
    prob = canonical_problem([1.0, 1.0])
    with pytest.raises(ValueError, match="identifiable"):
        gradient(prob, [1.0, 0.0])


def test_marks_of_stacked_designs_equal_each_rows_own_call_bit_for_bit():
    prob = make_random_instance(4, 9, seed=3)
    x = prob.covariates.columns
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(9), size=6)
    sig2 = rng.uniform(0.1, 10.0, (6, 9))
    stacked = marks(x, sig2, p)
    assert stacked.shape == (6, 9)
    for i in range(6):
        assert stacked[i].tobytes() == marks(x, sig2[i], p[i]).tobytes()


def test_marks_equal_minus_gradient_and_the_kkt_marks_exactly():
    prob = make_random_instance(3, 5, seed=2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.dirichlet(np.ones(5))
        m = marks(prob.covariates.columns, prob.noise.sigma2, p)
        assert (-gradient(prob, p)).tobytes() == m.tobytes()
        assert kkt_certificate(prob, p).marks.tobytes() == m.tobytes()


def _exact_marks(omega: np.ndarray, x: np.ndarray, sigma2: np.ndarray) -> list:
    """Marks from Gauss-Jordan elimination in exact rationals on float64 inputs."""
    d, k = x.shape
    rows = [
        [Fraction(v) for v in (*om_row, *x_row)]
        for om_row, x_row in zip(omega.tolist(), x.tolist())
    ]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return [
        sum((rows[i][d + j] / rows[i][i]) ** 2 for i in range(d)) / Fraction(float(sigma2[j]))
        for j in range(k)
    ]


def test_marks_are_accurate_to_the_condition_of_omega():
    # against exact arithmetic on the same float64 Omega, weights skewed
    # down to 1e-5 and variances over 16 decades; the error is taken
    # relative to the largest mark (a small mark's own relative error can
    # exceed kappa * eps when it is computed from the inverse)
    rng = np.random.default_rng(17)
    eps = np.finfo(np.float64).eps
    for trial in range(24):
        d, k = [(3, 4), (6, 12)][trial % 2]
        x = make_random_instance(d, k, seed=trial).covariates.columns
        sigma2 = 10.0 ** rng.uniform(-8.0, 8.0, k)
        p = 10.0 ** rng.uniform(-5.0, 0.0, k)
        p /= p.sum()
        problem = DesignProblem(CovariateSet(x), NoiseSpec(sigma2))
        omega = info_matrix(problem, p)
        exact = np.array([float(v) for v in _exact_marks(omega, x, sigma2)])
        error = np.max(np.abs(marks(x, sigma2, p) - exact)) / np.max(exact)
        assert error <= d * np.linalg.cond(omega) * eps, (trial, error)


def test_singular_flags_a_relative_eigenvalue_collapse():
    assert singular(np.array([0.0, 1.0]))
    assert singular(np.array([1e-13, 1.0]))
    assert singular(np.array([-2.0, -1.0]))
    assert not singular(np.array([1e-11, 1.0]))


# --------------------------------------------------------------------
# cofactors and the closed-form optimum


def test_cofactors_match_explicit_minors():
    rng = np.random.default_rng(5)
    for trial in range(10):
        k = int(rng.integers(2, 6))
        a = rng.standard_normal((k, k))
        gram = a @ a.T + 0.5 * np.eye(k)
        det, cof = gram_cofactors(gram)
        assert det == pytest.approx(np.linalg.det(gram), rel=1e-10)
        for i in range(k):
            minor = np.delete(np.delete(gram, i, axis=0), i, axis=1)
            want = np.linalg.det(minor) if k > 1 else 1.0
            assert cof[i] == pytest.approx(want, rel=1e-9)


def test_cofactors_singular_fallback():
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])  # det exactly 0, uses the minor path
    det, cof = gram_cofactors(gram)
    assert det == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(cof, [1.0, 1.0], rtol=1e-14)


def test_closed_form_optimum_against_grid_search():
    prob = canonical_problem([1.0, 4.0])
    grid = np.linspace(1e-3, 1.0 - 1e-3, 2001)
    values = [loss(prob, [p1, 1.0 - p1]) for p1 in grid]
    best = grid[int(np.argmin(values))]
    p_star = optimal_weights_closed_form(prob)
    assert p_star[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert abs(best - p_star[0]) < 1e-3
    assert loss(prob, p_star) <= min(values) + 1e-12


def test_closed_form_optimum_grid_three_arms():
    prob = rotated_problem([1.0, 2.0, 0.7], seed=42)
    p_star = np.asarray(optimal_weights_closed_form(prob))
    step = 0.005
    best, best_val = None, math.inf
    for a in np.arange(step, 1.0, step):
        for b in np.arange(step, 1.0 - a, step):
            val = loss_closed_form(prob, np.array([a, b, 1.0 - a - b]))
            if val < best_val:
                best, best_val = np.array([a, b, 1.0 - a - b]), val
    assert np.max(np.abs(best - p_star)) < step
    assert loss(prob, p_star) <= best_val


def test_closed_form_optimum_requires_square():
    prob = make_random_instance(2, 4, seed=0)
    with pytest.raises(ValueError, match="square|as many arms"):
        optimal_weights_closed_form(prob)


# --------------------------------------------------------------------
# constants


def test_constants_canonical_equal_variance():
    prob = canonical_problem([1.0, 1.0])
    consts = problem_constants(prob)
    assert consts.det_gram == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(gram_cofactors(prob.covariates.gram())[1], [1.0, 1.0], rtol=1e-14)
    assert np.asarray(optimal_weights_closed_form(prob)) == pytest.approx([0.5, 0.5], rel=1e-14)
    assert consts.mu == pytest.approx(2.0, rel=1e-14)
    assert consts.eta == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
    # 432 * sigma_max^2 * (sum sigma sqrt(cof))^3 / (det sigma_min^3 sqrt(min cof))
    assert consts.c_smooth == pytest.approx(432.0 * 8.0, rel=1e-14)
    # raw bound at p*: 16 * max(cof sigma^2 / p*^3) / det = 16 / 0.125
    assert consts.hessian_diag_bound == pytest.approx(128.0, rel=1e-14)


def test_constants_canonical_unequal_variance():
    prob = canonical_problem([1.0, 4.0])
    consts = problem_constants(prob)
    assert consts.mu == pytest.approx(2.0, rel=1e-14)
    assert np.asarray(optimal_weights_closed_form(prob)) == pytest.approx(
        [1.0 / 3.0, 2.0 / 3.0], rel=1e-14
    )
    assert consts.eta == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)
    # sigma_max^2 = 4, sum sigma sqrt(cof) = 3, sigma_min^3 = 1
    assert consts.c_smooth == pytest.approx(432.0 * 4.0 * 27.0, rel=1e-14)
    # at p*: max over k of 16 cof sigma^2 / p*^3: arm1 16/(1/27)=432,
    # arm2 64/(8/27)=216
    assert consts.hessian_diag_bound == pytest.approx(432.0, rel=1e-13)


def test_constants_rectangular_case():
    prob = make_random_instance(2, 5, seed=3)
    consts = problem_constants(prob)
    assert consts.mu is None and consts.eta is None and consts.c_smooth is None
    assert consts.hessian_diag_bound is None
    moment = prob.covariates.second_moment()
    assert consts.det_gram == pytest.approx(np.linalg.det(moment), rel=1e-12)
    assert consts.lambda_min == pytest.approx(np.linalg.eigvalsh(moment)[0], rel=1e-12)


def test_strong_convexity_holds_along_segments():
    """L((1-s) p* + s q) >= L* + (mu/2) s^2 ||q - p*||^2 for square problems."""
    rng = np.random.default_rng(9)
    for trial in range(10):
        prob = make_random_instance(3, 3, seed=300 + trial)
        consts = problem_constants(prob)
        p_star = np.asarray(optimal_weights_closed_form(prob))
        l_star = loss(prob, p_star)
        q = rng.dirichlet(np.ones(3))
        for s in (0.1, 0.3, 0.6):
            point = (1.0 - s) * p_star + s * q
            lower = l_star + 0.5 * consts.mu * s**2 * float(np.sum((q - p_star) ** 2))
            assert loss(prob, point) >= lower - 1e-10


# --------------------------------------------------------------------
# regret, OLS


def test_info_matrix_definition():
    prob = make_random_instance(3, 4, seed=21)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    x = prob.covariates.columns
    want = sum(
        p[k] / prob.noise.sigma2[k] * np.outer(x[:, k], x[:, k]) for k in range(4)
    )
    np.testing.assert_allclose(info_matrix(prob, p), want, rtol=1e-13)


def test_regret_hard_instance_pin():
    prob = make_hard_instance(1.0)
    # L(p) = 2 / (1 + p1), optimum puts everything on arm 0
    assert loss(prob, [0.5, 0.5]) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert regret(loss(prob, [0.5, 0.5]), 100, 1.0) == pytest.approx(1.0 / 300.0, rel=1e-12)


def test_regret_validates_inputs():
    prob = make_hard_instance(1.0)
    value = loss(prob, [0.5, 0.5])
    with pytest.raises(ValueError, match="horizon"):
        regret(value, 0, 1.0)
    with pytest.raises(ValueError, match="negative"):
        regret(loss(prob, [1.0 - 1e-9, 1e-9]), 10, 2.0)  # reference above the true loss
    # a NaN loss used to give a NaN regret without a warning
    for bad in ((math.nan, 1.0), (value, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="NaN"):
            regret(bad[0], 10, bad[1])
    assert regret(math.inf, 10, 1.0) == math.inf  # a singular design's loss


def test_regret_clamps_tiny_negative_gap():
    prob = make_hard_instance(1.0)
    before = negative_regret_clamps()
    value = loss(prob, [1.0 - 1e-12, 1e-12])
    assert regret(value, 10, value + 1e-10) == 0.0
    assert negative_regret_clamps() == before + 1


def test_regret_is_the_loss_gap_per_round():
    prob = canonical_problem([1.0, 4.0])
    ref_loss = loss(prob, optimal_weights_closed_form(prob))
    assert ref_loss == pytest.approx(9.0, rel=1e-12)
    val = regret(loss(prob, [0.5, 0.5]), 10, ref_loss)
    assert val == (loss(prob, [0.5, 0.5]) - ref_loss) / 10.0


def test_ols_noiseless_recovery():
    rng = np.random.default_rng(17)
    for trial in range(5):
        beta = rng.standard_normal(3)
        prob = make_random_instance(3, 4, seed=500 + trial)
        prob = DesignProblem(prob.covariates, prob.noise, beta=beta)
        arms = rng.integers(0, 4, size=50)
        arms[:4] = np.arange(4)  # make sure every arm appears
        values = prob.covariates.columns[:, arms].T @ beta
        est = ols_fit(prob, arms, values)
        np.testing.assert_allclose(est, beta, rtol=1e-9, atol=1e-11)


def test_ols_rejects_underdetermined_sample():
    prob = make_random_instance(3, 3, seed=2)
    with pytest.raises(ValueError, match="identify"):
        ols_fit(prob, np.zeros(10, dtype=int), np.ones(10))


def test_ols_unbiased_in_distribution():
    """Mean of many noisy fits approaches the truth (sanity, not a pin)."""
    rng = np.random.default_rng(23)
    prob = canonical_problem([1.0, 1.0], beta=np.array([2.0, -1.0]))
    arms = np.tile([0, 1], 25)
    fits = []
    for _ in range(400):
        noise = rng.standard_normal(50)
        values = prob.covariates.columns[:, arms].T @ prob.beta + noise
        fits.append(ols_fit(prob, arms, values))
    err = np.mean(fits, axis=0) - prob.beta
    assert np.max(np.abs(err)) < 0.05
