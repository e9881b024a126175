"""Simplex solvers and the offline reference optimum.

``reference_optimum`` computes the exact optimal design that regrets are
measured against.  Square problems (K = d) use the closed form.  When
K > d it runs the multiplicative fixed point from the uniform design,
which decreases the A-optimality loss monotonically and converges for
any optimal support size, then tries once to replace the iterate by the
exact closed-form optimum of a d-arm support that certifies globally.

``minimize`` is plain conditional gradient (Frank-Wolfe) with
backtracking line search for smooth convex objectives on the simplex;
the randomized policy uses it for its per-round argmin when K > d.  An
interior floor keeps the evaluation point strictly positive because the
loss blows up on non-identifying faces; the floor is small enough that
boundary optima are still represented to ~1e-9.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    CovariateSet,
    DesignProblem,
    NoiseSpec,
    SimplexWeights,
    gradient,  # noqa: F401  (not called here; kept importable as ``solver.gradient``)
    info_matrix,
    loss,
    optimal_weights_closed_form,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    gap_tol: float = 1e-9
    floor: float = 1e-9
    armijo: float = 1e-4
    backtrack: float = 0.5
    min_step: float = 1e-16

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.gap_tol < 0.0 or self.floor < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack factor must lie in (0, 1)")


@dataclass(frozen=True)
class SolverResult:
    weights: SimplexWeights
    objective: float
    gap: float
    iterations: int
    converged: bool


DEFAULT_CONFIG = SolverConfig()


def minimize(
    loss_fn, grad_fn, k: int, config: SolverConfig = DEFAULT_CONFIG, start=None
) -> SolverResult:
    """Minimize a convex function over the K-simplex by conditional gradient.

    ``loss_fn`` and ``grad_fn`` take a length-K weight vector.  All
    evaluations happen at the floored point (1 - K eps) p + eps, so the
    oracles never see an exact zero.  The returned weights are the
    floored iterate and ``gap`` is the final Frank-Wolfe gap
    max_j (p - e_j)^T grad, an upper bound on the suboptimality of the
    returned point (up to the floor).  ``start`` warm-starts the iterate
    (defaults to uniform).
    """
    if k < 1:
        raise ValueError("need at least one arm")
    eps = config.floor
    if k * eps >= 1.0:
        raise ValueError("floor too large for this many arms")

    def floored(q: np.ndarray) -> np.ndarray:
        return (1.0 - k * eps) * q + eps

    if start is None:
        p = np.full(k, 1.0 / k)
    else:
        p = np.asarray(start, dtype=np.float64).reshape(-1)
        if p.shape[0] != k or np.any(p < 0.0):
            raise ValueError("start must be a nonnegative length-k vector")
        p = p / p.sum()
    f = loss_fn(floored(p))
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the uniform start")

    gap = np.inf
    it = 0
    for it in range(1, config.max_iters + 1):
        g = np.asarray(grad_fn(floored(p)), dtype=np.float64)
        j = int(np.argmin(g))
        gap = float(p @ g - g[j])
        if gap <= config.gap_tol:
            return SolverResult(SimplexWeights(floored(p)), f, gap, it, True)

        # direction e_j - p; directional derivative is exactly -gap
        step = 1.0
        while step >= config.min_step:
            q = p + step * (np.eye(1, k, j).ravel() - p)
            fq = loss_fn(floored(q))
            if np.isfinite(fq) and fq <= f - config.armijo * step * gap:
                break
            step *= config.backtrack
        else:
            # no acceptable step; gap is the certificate we leave with
            return SolverResult(SimplexWeights(floored(p)), f, gap, it, False)
        p, f = q, fq

    return SolverResult(SimplexWeights(floored(p)), f, gap, config.max_iters, gap <= config.gap_tol)


def _certify_subset(
    problem: DesignProblem, active: np.ndarray, tol: float
) -> tuple[SimplexWeights, float] | None:
    """Solve the restriction to ``active`` arms and check global KKT."""
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
        omega = info_matrix(problem, full)
        value = float(np.trace(np.linalg.inv(omega)))
        a = np.linalg.solve(omega, problem.covariates.columns)
    except np.linalg.LinAlgError:
        return None
    marks = np.einsum("ij,ij->j", a, a) / problem.noise.sigma2
    if np.max(marks) > value * (1.0 + tol):
        return None
    return SimplexWeights(full), value


def active_set_polish(
    problem: DesignProblem, weights, tol: float = 1e-9
) -> tuple[SimplexWeights, float] | None:
    """Try to turn an approximate design into an exact boundary optimum.

    When the optimum puts mass on exactly d of the K arms, restricting
    to those arms gives a square problem with a closed form.  Candidate
    supports are drawn from the heaviest arms of ``weights`` (the d
    heaviest first, then the other d-subsets of a small pool, so near
    ties and duplicate covariates do not hide the right support).  A
    candidate is accepted only if the global KKT condition holds:
    inactive arms must satisfy ||Omega^{-1} X_k||^2 / sigma_k^2 <= L,
    which by convexity certifies a global optimum.  Returns None when
    no restriction certifies.
    """
    k, d = problem.n_arms, problem.dimension
    if k <= d:
        return None
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    # ties go to the lowest arm index, so exact clones keep a stable order
    by_weight = np.argsort(-w, kind="stable")
    pool = by_weight[: min(k, d + 3)]
    seen = set()
    for subset in itertools.combinations(range(len(pool)), d):
        active = np.sort(pool[list(subset)])
        key = tuple(active.tolist())
        if key in seen:
            continue
        seen.add(key)
        hit = _certify_subset(problem, active, tol)
        if hit is not None:
            return hit
    return None


def _multiplicative_refine(
    problem: DesignProblem, weights, max_iters: int = 20_000, rel_tol: float = 1e-12
) -> tuple[SimplexWeights, float]:
    """Sharpen a design with the classical multiplicative fixed point.

    The update p_k <- p_k sqrt(m_k) / sum_j p_j sqrt(m_j), where
    m_k = ||Omega(p)^-1 X_k||^2 / sigma_k^2, decreases the trace loss
    monotonically and converges for any optimal support size, unlike a
    d-arm restriction.  The identity L(p) = sum_k p_k m_k makes the
    stopping rule max_k m_k - L(p), which is exactly the Frank-Wolfe
    gap, available for free each sweep.  Stopping at ``max_iters``
    before that gap falls to ``rel_tol`` L(p) logs a warning.
    """
    p = np.maximum(np.asarray(weights, dtype=np.float64).reshape(-1), 0.0)
    p /= p.sum()
    x = problem.covariates.columns / problem.noise.sigma
    for sweep in range(max_iters + 1):
        omega = info_matrix(problem, p)
        a = np.linalg.solve(omega, x)
        marks = np.einsum("ij,ij->j", a, a)
        value = float(p @ marks)
        if np.max(marks) - value <= rel_tol * value:
            break
        if sweep == max_iters:
            # value and gap are those of the returned weights
            logger.warning(
                "multiplicative fixed point unconverged after %d sweeps: relative gap %.3g",
                max_iters,
                (np.max(marks) - value) / value,
            )
            break
        p = p * np.sqrt(marks / value)
        p /= p.sum()
    return SimplexWeights(p), value


def reference_optimum(
    problem: DesignProblem, config: SolverConfig | None = None
) -> tuple[SimplexWeights, float]:
    """Optimal design and its loss under the problem's true variances.

    Square problems use the exact closed form.  Otherwise the
    multiplicative fixed point runs from the uniform design for at most
    ``config.max_iters`` sweeps (20,000 without a config); optimal
    supports can hold more than d arms, which it represents and no d-arm
    restriction can.  When the optimum sits on exactly d arms the
    iterate only approaches that boundary, so one active-set polish
    then replaces it by the closed-form restriction whenever that
    certifies as globally optimal.  Results for the default config are
    cached on the problem.
    """
    if config is None and hasattr(problem, "_reference_cache"):
        return problem._reference_cache
    cache = config is None
    if problem.is_square:
        p_star = optimal_weights_closed_form(problem)
        answer = p_star, loss(problem, p_star)
    else:
        k = problem.n_arms
        max_iters = 20_000 if config is None else config.max_iters
        answer = _multiplicative_refine(problem, np.full(k, 1.0 / k), max_iters=max_iters)
        polished = active_set_polish(problem, answer[0])
        if polished is not None and polished[1] <= answer[1] + 1e-9:
            answer = polished
    if cache:
        object.__setattr__(problem, "_reference_cache", answer)
    return answer
