"""Optimality certificates: simplex KKT conditions and the dual ellipsoid.

At an optimal design p* the leverage marks (``core.marks``)
m_k = ||Omega(p*)^-1 X_k||^2 / sigma_k^2 are equal to a common level
lambda on the support of p* and no larger than lambda off it (these are
minus the loss gradient entries, so this is exactly simplex KKT).  The
same data feeds the dual view: W = Omega(p*)^-2 / lambda defines an
ellipsoid containing every rescaled covariate X_k / sigma_k on its
boundary or inside, and trace(sqrt(W))^2 equals the optimal loss at
strong duality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DesignProblem, _weights_array, info_matrix, marks, singular

# Weights at or below ACTIVE_THRESHOLD count as boundary zeros; KKT_TOL is
# the certificate's relative tolerance and DUAL_TOL the dual constraints'.
ACTIVE_THRESHOLD = 1e-6
KKT_TOL = 1e-5
DUAL_TOL = 1e-6


@dataclass(frozen=True)
class EllipsoidCertificate:
    """KKT report at a candidate design.

    ``marks`` are the m_k values, ``level`` the largest mark over active
    arms (weight above ``ACTIVE_THRESHOLD``), ``slacks`` the per-arm
    level - m_k.  ``certified`` means: active marks agree with the level
    to ``KKT_TOL`` relative, inactive marks do not exceed it beyond the
    same tolerance, and complementary slackness
    p_k * slack_k <= KKT_TOL * level holds arm by arm.
    """

    weights: np.ndarray
    marks: np.ndarray
    level: float
    slacks: np.ndarray
    active: np.ndarray
    certified: bool


@dataclass(frozen=True)
class DualReport:
    positive_definite: bool
    max_constraint: float
    feasible: bool
    dual_value: float
    primal_value: float
    duality_gap: float


def kkt_certificate(problem: DesignProblem, weights) -> EllipsoidCertificate:
    """Evaluate the simplex KKT conditions at ``weights``.

    Weights below ``ACTIVE_THRESHOLD`` are treated as boundary zeros (and
    reported as exact zeros in the certificate view; the caller's vector
    is not modified).
    """
    p = _weights_array(weights)
    if singular(np.linalg.eigvalsh(info_matrix(problem, p))):
        raise np.linalg.LinAlgError(
            "information matrix is singular at the evaluation point"
        )
    m = marks(problem.covariates.columns, problem.noise.sigma2, p)

    active = p > ACTIVE_THRESHOLD
    if not np.any(active):
        raise ValueError("no active arms above the threshold")
    level = float(np.max(m[active]))
    slacks = level - m

    view = np.where(active, p, 0.0)
    scale = KKT_TOL * level
    ok_active = bool(np.all(np.abs(m[active] - level) <= scale))
    ok_inactive = bool(np.all(m[~active] <= level + scale))
    ok_slack = bool(np.all(view * slacks <= scale))
    return EllipsoidCertificate(
        weights=view,
        marks=m,
        level=level,
        slacks=slacks,
        active=active,
        certified=ok_active and ok_inactive and ok_slack,
    )


def dual_feasibility(problem: DesignProblem, certificate: EllipsoidCertificate) -> DualReport:
    """Check the dual ellipsoid induced by a KKT certificate.

    W = Omega(p)^-2 / level must be positive definite with every
    rescaled covariate satisfying (X_k / sigma_k)^T W (X_k / sigma_k)
    <= 1 + DUAL_TOL; the dual objective trace(sqrt(W))^2 then lower-bounds the
    primal loss, with equality at the optimum.
    """
    p = certificate.weights
    omega = info_matrix(problem, p)
    eigs, vecs = np.linalg.eigh(omega)
    if singular(eigs):
        raise ValueError("information matrix is singular at the certificate point")
    primal = float(np.sum(1.0 / eigs))

    # W shares eigenvectors with Omega; eigenvalues 1/(level * eig^2).
    w_eigs = 1.0 / (certificate.level * eigs**2)
    pd = bool(np.all(w_eigs > 0.0))
    w = (vecs * w_eigs) @ vecs.T
    v = problem.covariates.columns / problem.noise.sigma
    constraints = np.einsum("ij,ij->j", v, w @ v)
    max_c = float(np.max(constraints))
    dual = float(np.sum(np.sqrt(w_eigs))) ** 2
    return DualReport(
        positive_definite=pd,
        max_constraint=max_c,
        feasible=pd and max_c <= 1.0 + DUAL_TOL,
        dual_value=dual,
        primal_value=primal,
        duality_gap=primal - dual,
    )
