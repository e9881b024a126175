"""Problem types and exact quantities for A-optimal designs.

The loss L(p) = trace(Omega(p)^-1) and its gradient, minus the leverage
``marks``; the K = d closed-form optimum; the constants that
``active-design solve`` reports; and the least-squares estimator.  The
only state is the count of clamped negative regrets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Dimensions above this are outside the intended regime (dense d x d
# inverses at every policy step); refuse early instead of crawling.
MAX_DIMENSION = 512

# Relative eigenvalue threshold below which an information matrix is
# treated as singular and the loss as infinite.
SINGULARITY_RTOL = 1e-12

# Simplex validation tolerances.
_SUM_TOL = 1e-9
_NEG_TOL = 1e-12

_negative_regret_clamps = 0


def negative_regret_clamps() -> int:
    """Number of times ``regret`` clamped a tiny negative value to zero."""
    return _negative_regret_clamps


def _unit_columns(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("covariate vectors must be nonzero")
    return vectors / norms


@dataclass(frozen=True)
class CovariateSet:
    """Unit covariate vectors as the columns of a read-only (d, K) array.

    Columns are renormalized to norm 1.  Zero or non-finite vectors, d above
    ``MAX_DIMENSION`` and columns that do not span R^d raise ``ValueError``.
    """

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.atleast_2d(np.asarray(self.columns, dtype=np.float64))
        if cols.ndim != 2:
            raise ValueError("covariates must form a 2-d array")
        d, k = cols.shape
        if d < 1 or k < 1:
            raise ValueError("need at least one covariate in at least one dimension")
        if d > MAX_DIMENSION:
            raise ValueError(f"dimension {d} exceeds the supported cap {MAX_DIMENSION}")
        if not np.all(np.isfinite(cols)):
            raise ValueError("covariates must be finite")
        cols = _unit_columns(cols)
        svals = np.linalg.svd(cols, compute_uv=False)
        if k < d or svals[-1] <= 1e-10 * svals[0]:
            raise ValueError("covariates cannot span R^d")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]

    @property
    def n_arms(self) -> int:
        return self.columns.shape[1]

    def second_moment(self) -> np.ndarray:
        """sum_k X_k X_k^T, the unweighted d x d moment matrix."""
        return self.columns @ self.columns.T

    def gram(self) -> np.ndarray:
        """K x K matrix of pairwise inner products <X_i, X_j>."""
        return self.columns.T @ self.columns


@dataclass(frozen=True)
class NoiseSpec:
    """Per-arm variances ``sigma2`` and sub-Gaussian proxies ``kappa2``
    (default ``sigma2``), read-only, positive and finite, with
    kappa2 >= sigma2 arm by arm (to a relative 1e-12)."""

    sigma2: np.ndarray
    kappa2: np.ndarray | None = None

    def __post_init__(self) -> None:
        s2 = np.asarray(self.sigma2, dtype=np.float64).reshape(-1)
        k2 = np.asarray(self.kappa2 if self.kappa2 is not None else s2, dtype=np.float64)
        k2 = k2.reshape(-1)
        if s2.shape != k2.shape:
            raise ValueError("sigma2 and kappa2 must have matching length")
        if not (np.all((s2 > 0.0) & (s2 < np.inf)) and np.all((k2 > 0.0) & (k2 < np.inf))):
            raise ValueError("variances and proxies must be positive and finite")
        if np.any(k2 < s2 * (1.0 - 1e-12)):
            raise ValueError("kappa2 must dominate sigma2 for every arm")
        s2.setflags(write=False)
        k2.setflags(write=False)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "kappa2", k2)

    @property
    def n_arms(self) -> int:
        return self.sigma2.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(self.sigma2)


@dataclass(frozen=True)
class DesignProblem:
    """A covariate set, its noise description, and optionally the truth
    ``beta`` that simulation draws responses around; a ``beta`` must be
    finite and of length d."""

    covariates: CovariateSet
    noise: NoiseSpec
    beta: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.noise.n_arms != self.covariates.n_arms:
            raise ValueError("noise spec and covariate set disagree on arm count")
        if self.beta is not None:
            b = np.asarray(self.beta, dtype=np.float64).reshape(-1)
            if b.shape[0] != self.covariates.dimension:
                raise ValueError("beta has the wrong dimension")
            if not np.all(np.isfinite(b)):
                raise ValueError("beta must be finite")
            b.setflags(write=False)
            object.__setattr__(self, "beta", b)

    @property
    def dimension(self) -> int:
        return self.covariates.dimension

    @property
    def n_arms(self) -> int:
        return self.covariates.n_arms

    @property
    def is_square(self) -> bool:
        return self.n_arms == self.dimension


@dataclass(frozen=True)
class SimplexWeights:
    """A point on the probability simplex over the K arms.

    Finite entries in [-1e-12, 0) are clamped to zero and the vector is
    renormalized provided the total is within 1e-9 of one; anything else
    raises ``ValueError``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.shape[0] < 1:
            raise ValueError("weights must be non-empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if np.any(v < -_NEG_TOL):
            raise ValueError("weights must be nonnegative")
        v = np.maximum(v, 0.0)
        total = v.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        v = v / total
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.values, dtype=dtype)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx):
        return self.values[idx]

    @staticmethod
    def uniform(k: int) -> "SimplexWeights":
        return SimplexWeights(np.full(k, 1.0 / k))


def _weights_array(weights) -> np.ndarray:
    if isinstance(weights, SimplexWeights):
        return weights.values
    return np.asarray(weights, dtype=np.float64).reshape(-1)


def _omega(x: np.ndarray, sigma2: np.ndarray, p: np.ndarray) -> np.ndarray:
    return (x * (p / sigma2)[..., None, :]) @ x.T


def info_matrix(problem: DesignProblem, weights) -> np.ndarray:
    """Information matrix Omega(p) = sum_k (p_k / sigma_k^2) X_k X_k^T."""
    return _omega(problem.covariates.columns, problem.noise.sigma2, _weights_array(weights))


def singular(eigs: np.ndarray) -> bool:
    """Whether Omega(p), with ascending eigenvalues ``eigs``, fails to identify beta."""
    return bool(eigs[-1] <= 0.0 or eigs[0] <= SINGULARITY_RTOL * eigs[-1])


def marks(x: np.ndarray, sigma2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Leverage marks m_k = ||Omega(p)^-1 X_k||^2 / sigma_k^2, minus the gradient.

    ``x`` holds the (d, K) covariate columns; ``p`` and ``sigma2`` are (K,)
    or (S, K), and S stacked designs give (S, K) marks, each row bit-equal
    to its own call.  The marks are accurate to about kappa(Omega) eps of
    the largest one.  Only an exactly singular Omega(p) raises.
    """
    a = np.linalg.inv(_omega(x, sigma2, p)) @ x
    return np.einsum("...ij,...ij->...j", a, a) / sigma2


def loss(problem: DesignProblem, weights) -> float:
    """A-optimality loss trace(Omega(p)^-1) = sum of 1 / eigenvalues; +inf when ``singular``."""
    eigs = np.linalg.eigvalsh(info_matrix(problem, weights))
    return math.inf if singular(eigs) else float(np.sum(1.0 / eigs))


def loss_closed_form(problem: DesignProblem, weights) -> float:
    """The loss of a K = d problem as sum_k (sigma_k^2 / p_k) Cof_kk / det of
    the Gram matrix Gamma; +inf at any zero weight, ``ValueError`` if K != d."""
    if not problem.is_square:
        raise ValueError("closed form requires as many arms as dimensions")
    p = _weights_array(weights)
    if np.any(p <= 0.0):
        return math.inf
    gram = problem.covariates.gram()
    det, cof = gram_cofactors(gram)
    return float(np.sum(problem.noise.sigma2 / p * cof) / det)


def gradient(problem: DesignProblem, weights) -> np.ndarray:
    """Gradient of the loss, dL/dp_k = -||Omega(p)^-1 X_k||^2 / sigma_k^2;
    ``ValueError`` where Omega(p) is ``singular``."""
    p = _weights_array(weights)
    if singular(np.linalg.eigvalsh(info_matrix(problem, p))):
        raise ValueError("design is not identifiable at these weights")
    return -marks(problem.covariates.columns, problem.noise.sigma2, p)


def gram_cofactors(gram: np.ndarray) -> tuple[float, np.ndarray]:
    """Determinant and diagonal cofactors of a K x K Gram matrix: as
    det(Gamma) (Gamma^-1)_kk when det > 1e-12, else from the principal minors."""
    det = float(np.linalg.det(gram))
    k = gram.shape[0]
    if det > 1e-12:
        cof = det * np.diag(np.linalg.inv(gram)).copy()
        return det, cof
    cof = np.empty(k)
    idx = np.arange(k)
    for i in range(k):
        keep = idx != i
        minor = gram[np.ix_(keep, keep)]
        cof[i] = float(np.linalg.det(minor)) if minor.size else 1.0
    return det, cof


def optimal_weights_closed_form(problem: DesignProblem) -> SimplexWeights:
    """Exact minimizer for K = d: p*_k proportional to sigma_k sqrt(Cof_kk)."""
    if not problem.is_square:
        raise ValueError("closed form requires as many arms as dimensions")
    gram = problem.covariates.gram()
    _, cof = gram_cofactors(gram)
    if np.any(cof <= 0.0):
        raise ValueError("degenerate covariate set: nonpositive cofactor")
    raw = problem.noise.sigma * np.sqrt(cof)
    return SimplexWeights(raw / raw.sum())


@dataclass(frozen=True)
class ProblemConstants:
    """The curvature and geometry report that ``active-design solve`` prints.

    ``det_gram`` and ``lambda_min`` are the determinant and least eigenvalue
    of the moment matrix sum_k X_k X_k^T.  The other fields are set for
    K = d and None otherwise:

    * ``mu``: strong convexity, 2 min_k(Cof_kk sigma_k^2) / det(Gamma);
    * ``eta``: distance from the optimum to the simplex boundary,
      sqrt(K/(K-1)) min_k p*_k;
    * ``c_smooth``: smoothness on the region reachable after presampling, in
      the constant-432 form;
    * ``hessian_diag_bound``: max_k 16 Cof_kk sigma_k^2 / (det(Gamma) p*_k^3).
    """

    det_gram: float
    lambda_min: float
    mu: float | None = None
    eta: float | None = None
    c_smooth: float | None = None
    hessian_diag_bound: float | None = None


def problem_constants(problem: DesignProblem) -> ProblemConstants:
    """The :class:`ProblemConstants` of ``problem``."""
    moment = problem.covariates.second_moment()
    lam_min = float(np.linalg.eigvalsh(moment)[0])
    if not problem.is_square:
        return ProblemConstants(det_gram=float(np.linalg.det(moment)), lambda_min=lam_min)

    det, cof = gram_cofactors(problem.covariates.gram())
    if det <= 0.0 or np.any(cof <= 0.0):
        raise ValueError("covariate set is degenerate; constants undefined")
    sigma2 = problem.noise.sigma2
    sigma = problem.noise.sigma
    p_star = optimal_weights_closed_form(problem).values
    k = problem.n_arms

    mu = 2.0 * float(np.min(cof * sigma2)) / det
    eta = math.sqrt(k / (k - 1.0)) * float(np.min(p_star)) if k > 1 else 1.0

    root_cof = np.sqrt(cof)
    c_smooth = (
        432.0
        * float(np.max(sigma2))
        * float(np.sum(sigma * root_cof)) ** 3
        / (det * float(np.min(sigma)) ** 3 * float(np.min(root_cof)))
    )
    hess = 16.0 * float(np.max(cof * sigma2 / p_star**3)) / det
    return ProblemConstants(
        det_gram=det,
        lambda_min=lam_min,
        mu=mu,
        eta=eta,
        c_smooth=c_smooth,
        hessian_diag_bound=hess,
    )


def regret(value: float, horizon: int, ref_loss: float) -> float:
    """Per-round excess loss (L(p_T) - L*) / T of a design whose loss is ``value``.

    A gap in [-1e-9, 0) is clamped to zero and counted; a more negative or a
    NaN gap raises ``ValueError``.
    """
    global _negative_regret_clamps
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gap = value - ref_loss
    # written so that a NaN gap fails
    if not gap >= -1e-9:
        raise ValueError(f"loss gap {gap} is negative beyond tolerance or NaN; bad reference")
    if gap < 0.0:
        _negative_regret_clamps += 1
        logger.debug("clamped negative loss gap %.3e to zero", gap)
        gap = 0.0
    return gap / horizon


def ols_fit(problem: DesignProblem, arms, values) -> np.ndarray:
    """Weighted least-squares estimate of beta from arm/observation pairs:
    Omega(p)^-1 sum_k (p_k / sigma_k^2) Ybar_k X_k at the empirical
    proportions p and per-arm means Ybar.  ``ValueError`` on empty or
    mismatched inputs, an arm out of range, or arms that do not identify beta."""
    arms = np.asarray(arms, dtype=np.intp).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if arms.shape != values.shape or arms.size == 0:
        raise ValueError("need matching, non-empty arms and values")
    k = problem.n_arms
    if arms.min() < 0 or arms.max() >= k:
        raise ValueError("arm index out of range")
    counts = np.bincount(arms, minlength=k).astype(np.float64)
    sums = np.bincount(arms, weights=values, minlength=k)
    total = float(arms.size)
    p = counts / total
    means = np.divide(sums, counts, out=np.zeros(k), where=counts > 0)

    omega = info_matrix(problem, p)
    if singular(np.linalg.eigvalsh(omega)):
        raise ValueError("sampled arms do not identify beta")
    rhs = problem.covariates.columns @ (p / problem.noise.sigma2 * means)
    return np.linalg.solve(omega, rhs)
