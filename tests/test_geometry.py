"""KKT certificates and the dual ellipsoid, checked on exact optima."""

import numpy as np
import pytest

from activedesign import geometry
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
from activedesign.solver import reference_optimum


def dominated_duplicate_problem(ratio=1.5, seed=4):
    """K = d + 1 instance whose last arm clones arm 0 at worse noise.

    The clone can never enter an optimal design (same direction, higher
    variance), so the optimum is the base instance's closed form with a
    strictly positive KKT slack on the clone: m_clone = level / ratio.
    """
    base = make_random_instance(3, 3, seed=seed)
    cols = np.column_stack([base.covariates.columns, base.covariates.columns[:, 0]])
    sigma2 = np.append(base.noise.sigma2, ratio * base.noise.sigma2[0])
    return base, DesignProblem(CovariateSet(cols), NoiseSpec(sigma2), beta=base.beta)


# --------------------------------------------------------------------
# kkt_certificate


def test_marks_are_negated_gradient_entries():
    problem = make_random_instance(3, 5, seed=8)
    p = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
    cert = kkt_certificate(problem, p)
    np.testing.assert_allclose(cert.marks, -gradient(problem, p), rtol=1e-12)


def test_interior_closed_form_certifies():
    for seed in range(5):
        problem = make_random_instance(4, 4, seed=seed)
        p_star = optimal_weights_closed_form(problem)
        cert = kkt_certificate(problem, p_star)
        assert cert.certified
        assert bool(np.all(cert.active))
        np.testing.assert_allclose(cert.marks, cert.level, rtol=1e-8)
        np.testing.assert_allclose(cert.level, loss(problem, p_star), rtol=1e-10)


def test_hard_instance_vertex_marks():
    # d=1 with X=(1,1) and sigma^2=(1,2): at p=(1,0) the information
    # "matrix" is the scalar 1, so m_k = 1/sigma_k^2 exactly
    problem = make_hard_instance(1.0)
    cert = kkt_certificate(problem, np.array([1.0, 0.0]))
    np.testing.assert_allclose(cert.marks, [1.0, 0.5], rtol=1e-15)
    assert cert.level == 1.0
    np.testing.assert_allclose(cert.slacks, [0.0, 0.5], atol=1e-15)
    assert list(cert.active) == [True, False]
    assert cert.certified


def test_dominated_clone_has_positive_slack():
    base, dup = dominated_duplicate_problem(ratio=1.5)
    p_star, value = reference_optimum(dup)
    cert = kkt_certificate(dup, p_star)
    assert cert.certified
    assert list(cert.active) == [True, True, True, False]
    # m_clone = level * sigma_0^2 / sigma_clone^2, so slack = level / 3
    np.testing.assert_allclose(cert.slacks[3], cert.level / 3.0, rtol=1e-8)
    assert abs(value - loss(base, optimal_weights_closed_form(base))) < 1e-12


def test_perturbed_point_fails_certification():
    problem = make_random_instance(3, 3, seed=1)
    p_star = np.asarray(optimal_weights_closed_form(problem))
    bent = p_star + np.array([0.1, -0.05, -0.05])
    cert = kkt_certificate(problem, bent)
    assert not cert.certified


def test_zero_weight_arms_are_reported_as_exact_zeros():
    problem = make_random_instance(2, 3, seed=3)
    cert = kkt_certificate(problem, np.array([0.5, 0.5 - 1e-9, 1e-9]))
    assert cert.weights[2] == 0.0
    assert geometry.ACTIVE_THRESHOLD == 1e-6


def test_certificate_rejects_degenerate_inputs():
    problem = make_random_instance(3, 3, seed=0)
    with pytest.raises(np.linalg.LinAlgError):
        kkt_certificate(problem, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="no active arms"):
        kkt_certificate(problem, np.full(3, 1e-9))


def test_marks_invariant_under_rotation():
    problem = make_random_instance(3, 4, seed=6)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = DesignProblem(
        CovariateSet(q @ problem.covariates.columns), problem.noise
    )
    p = np.array([0.4, 0.3, 0.2, 0.1])
    a = kkt_certificate(problem, p)
    b = kkt_certificate(rotated, p)
    np.testing.assert_allclose(a.marks, b.marks, rtol=1e-9)


# --------------------------------------------------------------------
# dual_feasibility


def test_strong_duality_at_interior_optimum():
    for seed in range(5):
        problem = make_random_instance(3, 3, seed=seed)
        p_star = optimal_weights_closed_form(problem)
        cert = kkt_certificate(problem, p_star)
        report = dual_feasibility(problem, cert)
        assert report.positive_definite
        assert report.feasible
        assert report.max_constraint <= 1.0 + 1e-6
        assert abs(report.duality_gap) <= 1e-8 * report.primal_value
        np.testing.assert_allclose(
            report.primal_value, loss(problem, p_star), rtol=1e-10
        )


def test_strong_duality_at_boundary_and_wide_optima():
    # includes optima whose support exceeds d
    for d, k, seed in [(3, 4, 2), (3, 5, 0), (2, 6, 1)]:
        problem = make_random_instance(d, k, seed=seed)
        p_star, value = reference_optimum(problem)
        report = dual_feasibility(problem, kkt_certificate(problem, p_star))
        assert report.feasible
        assert abs(report.duality_gap) <= 1e-6 * value


def test_weak_duality_off_optimum():
    # away from the optimum the ellipsoid stays feasible (constraints
    # are marks over their own maximum) but the gap opens up
    problem = make_random_instance(3, 3, seed=7)
    p = np.array([0.6, 0.25, 0.15])
    cert = kkt_certificate(problem, p)
    assert not cert.certified
    report = dual_feasibility(problem, cert)
    assert report.feasible
    assert report.duality_gap > 1e-3
    assert report.dual_value <= report.primal_value


def test_dual_uses_certificate_view_of_weights():
    problem = make_hard_instance(1.0)
    cert = kkt_certificate(problem, np.array([1.0 - 1e-9, 1e-9]))
    report = dual_feasibility(problem, cert)
    # the 1e-9 weight snaps to zero in the certificate view, so the
    # primal is evaluated on arm 0 alone (weight 1 - 1e-9, unrescaled)
    np.testing.assert_allclose(report.primal_value, 1.0, rtol=1e-8)
    np.testing.assert_allclose(report.dual_value, 1.0, rtol=1e-8)


def test_dual_rejects_singular_certificate_point():
    problem = make_random_instance(3, 3, seed=0)
    cert = kkt_certificate(problem, np.array([0.5, 0.5, 1e-9]))
    with pytest.raises(ValueError, match="singular"):
        dual_feasibility(problem, cert)
