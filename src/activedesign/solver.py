"""The offline reference optimum (``reference_optimum``), which regrets are
measured against, and a conditional-gradient simplex solver (``minimize``,
acceptance criterion 2's reference)."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    SimplexWeights,
    # perfbench's layer probes patch ``solver.gradient``; not called here
    gradient,  # noqa: F401
    info_matrix,
    loss,
    marks,
    optimal_weights_closed_form,
)

logger = logging.getLogger(__name__)

# Steps of one support Newton solve, at most.
_NEWTON_STEPS = 50

# The fixed point's relative gap test max_k m_k - L <= _REL_TOL L, which
# a support Newton answer must pass too, and the relative tolerance on
# the inactive marks of an active-set polish's restriction.
_REL_TOL = 1e-12
_POLISH_TOL = 1e-9

# ``minimize``'s Frank-Wolfe gap tolerance, interior floor, Armijo
# constant, backtracking factor and smallest step
_GAP_TOL = 1e-9
_FLOOR = 1e-9
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-16


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class SolverResult:
    weights: SimplexWeights
    objective: float
    gap: float
    iterations: int
    converged: bool


DEFAULT_CONFIG = SolverConfig()


def minimize(loss_fn, grad_fn, k: int, config: SolverConfig = DEFAULT_CONFIG) -> SolverResult:
    """Minimize a convex function over the K-simplex by conditional gradient
    with backtracking line search, from the uniform design.

    ``loss_fn`` and ``grad_fn`` take a length-K weight vector and are only
    evaluated at the floored point (1 - K eps) p + eps, eps = 1e-9.  Returns
    that floored iterate and the final Frank-Wolfe gap max_j (p - e_j)^T grad,
    which bounds its suboptimality up to the floor.  ``ValueError`` when the
    loss is not finite at the uniform start.
    """
    if k < 1:
        raise ValueError("need at least one arm")

    def floored(q: np.ndarray) -> np.ndarray:
        return (1.0 - k * _FLOOR) * q + _FLOOR

    p = np.full(k, 1.0 / k)
    f = loss_fn(floored(p))
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the uniform start")

    for it in range(1, config.max_iters + 1):
        g = np.asarray(grad_fn(floored(p)), dtype=np.float64)
        j = int(np.argmin(g))
        gap = float(p @ g - g[j])
        if gap <= _GAP_TOL:
            return SolverResult(SimplexWeights(floored(p)), f, gap, it, True)

        # direction e_j - p; directional derivative is exactly -gap
        step = 1.0
        while step >= _MIN_STEP:
            q = p + step * (np.eye(1, k, j).ravel() - p)
            fq = loss_fn(floored(q))
            if np.isfinite(fq) and fq <= f - _ARMIJO * step * gap:
                break
            step *= _BACKTRACK
        else:
            # no acceptable step; gap is the certificate we leave with
            return SolverResult(SimplexWeights(floored(p)), f, gap, it, False)
        p, f = q, fq

    return SolverResult(SimplexWeights(floored(p)), f, gap, config.max_iters, gap <= _GAP_TOL)


def _certify_subset(
    problem: DesignProblem, active: np.ndarray, tol: float
) -> tuple[SimplexWeights, float] | None:
    """The closed-form optimum restricted to the ``active`` arms, with its loss,
    if no arm's mark exceeds that loss by more than a relative ``tol``; else None."""
    cols = problem.covariates.columns[:, active]
    try:
        sub = DesignProblem(
            CovariateSet(cols),
            NoiseSpec(problem.noise.sigma2[active], problem.noise.kappa2[active]),
        )
        p_sub = optimal_weights_closed_form(sub)
    except ValueError:
        return None
    full = np.zeros(problem.n_arms)
    full[active] = np.asarray(p_sub)
    try:
        value = float(np.trace(np.linalg.inv(info_matrix(problem, full))))
        m = marks(problem.covariates.columns, problem.noise.sigma2, full)
    except np.linalg.LinAlgError:
        return None
    if np.max(m) > value * (1.0 + tol):
        return None
    return SimplexWeights(full), value


def active_set_polish(problem: DesignProblem, weights) -> tuple[SimplexWeights, float] | None:
    """An exact d-arm optimum near ``weights``, with its loss, or None: the
    first d-subset of the d + 3 heaviest arms (the d heaviest first, ties
    to the lower index) whose restriction ``_certify_subset`` certifies at
    relative tolerance 1e-9.  None when K <= d."""
    d = problem.dimension
    if problem.n_arms <= d:
        return None
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    # ties go to the lowest arm index, so exact clones keep a stable order
    pool = np.argsort(-w, kind="stable")[: d + 3]
    for subset in itertools.combinations(pool.tolist(), d):
        hit = _certify_subset(problem, np.sort(subset), _POLISH_TOL)
        if hit is not None:
            return hit
    return None


def _support_newton(problem: DesignProblem, weights) -> tuple[SimplexWeights, float] | None:
    """Newton's method on the d(d + 1)/2 + 1 heaviest arms of ``weights``, kept
    only if it certifies: (design, loss), else None.

    Exact clones (X_k / sigma_k equal up to sign) in the support first merge
    into their lowest arm with their summed weight.  A step that would empty
    an arm stops there, and that arm leaves.  The answer must pass
    max_k m_k - L <= 1e-12 L over all K arms; a support of d arms gives
    ``_certify_subset``'s answer, and fewer arms or a singular system None.
    """
    d = problem.dimension
    a = problem.covariates.columns / problem.noise.sigma
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    support = np.sort(np.argsort(-w, kind="stable")[: d * (d + 1) // 2 + 1])
    # with each column's first nonzero entry made positive, a clone's twin
    # is the first equal column; a one-entry sum is exact
    a_s = a[:, support]
    signed = a_s * np.sign(a_s[np.argmax(a_s != 0.0, axis=0), np.arange(len(support))])
    twin = np.argmax(np.all(signed[:, :, None] == signed[:, None, :], axis=0), axis=0)
    w = np.bincount(twin, weights=w[support], minlength=len(support))
    support, w = support[w > 0.0], w[w > 0.0]
    w = w / np.sum(w)
    try:
        for _ in range(_NEWTON_STEPS):
            n = len(support)
            if n <= d:
                return _certify_subset(problem, support, _REL_TOL) if n == d else None
            a_s = a[:, support]
            b = np.linalg.solve((a_s * w) @ a_s.T, a_s)
            h = 2.0 * (a_s.T @ b) * (b.T @ b)
            kkt = np.block([[h, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
            step = np.linalg.solve(kkt, np.append(np.einsum("ij,ij->j", b, b), 0.0))[:n]
            with np.errstate(divide="ignore"):
                reach = w / np.maximum(-step, 0.0)
            j = int(np.argmin(reach))
            w = w + min(reach[j], 1.0) * step
            if reach[j] < 1.0:
                w[j] = 0.0
            keep = w > 0.0
            support, w = support[keep], w[keep] / np.sum(w[keep])
            if np.all(keep) and np.max(np.abs(step)) <= _REL_TOL:
                break
        full = np.zeros(problem.n_arms)
        full[support] = w
        m = marks(problem.covariates.columns, problem.noise.sigma2, full)
    except np.linalg.LinAlgError:
        return None
    value = float(full @ m)
    # written so that a NaN mark fails
    if not np.max(m) - value <= _REL_TOL * value:
        return None
    return SimplexWeights(full), value


def _multiplicative_refine(
    problem: DesignProblem,
    weights,
    max_iters: int = 20_000,
    rel_tol: float = _REL_TOL,
    certify=None,
) -> tuple[SimplexWeights, float]:
    """Run the multiplicative fixed point p_k <- p_k sqrt(m_k / L(p)) from
    ``weights`` until max_k m_k - L(p) <= ``rel_tol`` L(p), at most
    ``max_iters`` sweeps (a warning if it stops there); returns (design, loss).

    ``certify(p, L(p), due)``, when given, is called each time the relative
    gap first falls below a power of ten, and with ``due`` true on the last
    iterate; its first answer that is not None is returned instead.
    """
    p = np.maximum(np.asarray(weights, dtype=np.float64).reshape(-1), 0.0)
    p /= p.sum()
    x, sigma2 = problem.covariates.columns, problem.noise.sigma2
    decade = 0.1
    for sweep in range(max_iters + 1):
        m = marks(x, sigma2, p)
        value = float(p @ m)
        converged = np.max(m) - value <= rel_tol * value
        due = converged or sweep == max_iters
        gap = (np.max(m) - value) / value
        crossed = gap < decade
        if crossed and gap > 0.0:
            decade = 10.0 ** math.floor(math.log10(gap))
        if certify is not None and (crossed or due):
            hit = certify(p, value, due)
            if hit is not None:
                return hit
        if converged:
            break
        if sweep == max_iters:
            # value and gap are those of the returned weights
            logger.warning(
                "multiplicative fixed point unconverged after %d sweeps: relative gap %.3g",
                max_iters,
                gap,
            )
            break
        p = p * np.sqrt(m / value)
        p /= p.sum()
    return SimplexWeights(p), value


def reference_optimum(
    problem: DesignProblem, max_iters: int | None = None
) -> tuple[SimplexWeights, float]:
    """Optimal design and its loss under the problem's true variances.

    The closed form when K = d; else ``_multiplicative_refine`` from the
    uniform design, at most ``max_iters`` sweeps (20,000 by default), with
    ``_support_newton`` as its certificate, and ``active_set_polish`` on a
    last iterate that Newton did not certify (kept if its loss is within
    1e-9 of the iterate's).  The default call's result is cached on the
    problem.
    """
    if max_iters is None and hasattr(problem, "_reference_cache"):
        return problem._reference_cache
    if max_iters is not None and max_iters < 1:
        raise ValueError("max_iters must be positive")
    if problem.is_square:
        p_star = optimal_weights_closed_form(problem)
        answer = p_star, loss(problem, p_star)
    else:

        def certify(p, value, due):
            hit = _support_newton(problem, p)
            if hit is None and due:
                hit = active_set_polish(problem, p)
                if hit is not None and hit[1] > value + 1e-9:
                    return None
            return hit

        k = problem.n_arms
        answer = _multiplicative_refine(
            problem, np.full(k, 1.0 / k), max_iters=max_iters or 20_000, certify=certify
        )
    if max_iters is None:
        object.__setattr__(problem, "_reference_cache", answer)
    return answer
