"""Optimality certificates at a design: the simplex KKT conditions on the
leverage marks and the dual ellipsoid (the README's ``geometry`` entry)."""

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

    ``level`` is the largest mark over the active arms (weight above
    ``ACTIVE_THRESHOLD``) and ``slacks`` are level - m_k.  ``certified``:
    active marks equal the level, inactive ones do not exceed it, and
    p_k slack_k <= 0 arm by arm, each within ``KKT_TOL`` times the level.
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
    """The simplex KKT report at ``weights``; weights at or below
    ``ACTIVE_THRESHOLD`` are reported as zeros, the caller's vector unchanged.
    ``LinAlgError`` where Omega(p) is singular, ``ValueError`` with no active arm."""
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
    """The dual ellipsoid W = Omega(p)^-2 / level of a KKT certificate:
    ``feasible`` when W is positive definite and every
    (X_k / sigma_k)^T W (X_k / sigma_k) <= 1 + ``DUAL_TOL``; the dual value
    trace(sqrt(W))^2 then bounds the loss from below."""
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
