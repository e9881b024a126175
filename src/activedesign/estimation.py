"""Streaming variance estimation and the confidence radii built on it.

The adaptive policies only ever see per-arm observation streams.  This
module keeps one-pass sufficient statistics per arm (Welford update,
population convention: divide by n, not n-1) and turns sample counts into
deviation radii for the empirical variance of sub-Gaussian noise, plus
the derived quantities the policies consume: lower confidence bounds on
variances and sample counts that guarantee a factor-two variance
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute constant in the variance concentration bound,
# (e - 1) / (2e(2e - 1)); approximately 0.0712.
BERNSTEIN_C = (math.e - 1.0) / (2.0 * math.e * (2.0 * math.e - 1.0))

# Relative floor applied to variance lower bounds so downstream ratios
# stay finite: lcb >= LCB_FLOOR * kappa2.
LCB_FLOOR = 1e-12


@dataclass
class ArmStats:
    """One-pass moments of a single arm's observation stream.

    ``variance`` is the population variance m2 / n, defined from the
    second observation on; before that it is None.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, y: float) -> None:
        self.count += 1
        delta = y - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (y - self.mean)

    def update_many(self, ys) -> None:
        for y in np.asarray(ys, dtype=np.float64).reshape(-1).tolist():
            self.update(y)

    @property
    def variance(self) -> float | None:
        if self.count < 2:
            return None
        return self.m2 / self.count


@dataclass(frozen=True)
class ConfidenceParams:
    """Failure probability and sub-Gaussian proxy for one arm's radii."""

    delta: float
    kappa2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.kappa2 <= 0.0:
            raise ValueError("kappa2 must be positive")


def variance_radius(n: int, kappa2: float, delta: float) -> float:
    """Deviation radius r with P(|var_hat - var| > r) <= delta.

    r = 3 kappa^2 * max(u, sqrt(u)),  u = log(4/delta) / (c n),

    where c is :data:`BERNSTEIN_C`.  The sqrt branch is the useful
    regime; the linear branch takes over for very small n.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    u = math.log(4.0 / delta) / (BERNSTEIN_C * n)
    return 3.0 * kappa2 * max(u, math.sqrt(u))


def halving_sample_count(kappa2: float, sigma2: float, horizon: int) -> int:
    """Samples per arm that pin the variance within a factor two.

    n = ceil(72 kappa^4 / (c sigma^4) * log(2 T)) makes
    variance_radius(n, kappa^2, 1/T^2) <= sigma^2 / 2, so the estimate
    lands in [sigma^2/2, 3 sigma^2/2] with probability at least
    1 - 1/T^2.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if kappa2 <= 0.0 or sigma2 <= 0.0:
        raise ValueError("kappa2 and sigma2 must be positive")
    ratio = kappa2 / sigma2
    return math.ceil(72.0 * ratio * ratio / BERNSTEIN_C * math.log(2.0 * horizon))


def lcb_variance(count: float, variance: float, params: ConfidenceParams) -> float:
    """Optimistic (lower) variance estimate, floored away from zero.

    max(var_hat - variance_radius(n, kappa2, delta), LCB_FLOOR * kappa2)
    for the empirical variance ``variance`` of ``count`` observations.
    Undefined (raises) before the arm has two observations.
    """
    if count < 2:
        raise ValueError("variance undefined with fewer than two observations")
    radius = variance_radius(count, params.kappa2, params.delta)
    return max(variance - radius, LCB_FLOOR * params.kappa2)
