"""Pinned-value oracles for the concentration machinery.

The regression constants below were evaluated independently with a
high-precision calculator before the implementation existed; they freeze
the algebra, not the code.
"""

import math

import numpy as np
import pytest

from activedesign.estimation import (
    BERNSTEIN_C,
    LCB_FLOOR,
    ConfidenceParams,
    halving_sample_count,
    lcb_variance,
    variance_radius,
)

# independently computed pins (40-digit arithmetic, rounded to double)
PIN_C = 0.07123988380543912
PIN_RADIUS_10_1_004 = 19.392943699480695
PIN_LCB = 0.6070563005193049


def test_bernstein_constant_pin():
    assert BERNSTEIN_C == pytest.approx(PIN_C, rel=1e-15)
    assert BERNSTEIN_C == pytest.approx(
        (math.e - 1.0) / (2.0 * math.e * (2.0 * math.e - 1.0)), rel=0, abs=0
    )


# --------------------------------------------------------------------
# radius


def test_radius_pin():
    assert variance_radius(10, 1.0, 0.04) == pytest.approx(PIN_RADIUS_10_1_004, rel=1e-14)


def test_radius_branches():
    # small n: linear branch (u > 1); large n: sqrt branch
    u = math.log(4.0 / 0.04) / (BERNSTEIN_C * 10)
    assert u > 1.0
    assert variance_radius(10, 1.0, 0.04) == pytest.approx(3.0 * u, rel=1e-14)
    n = 10_000
    u = math.log(4.0 / 0.04) / (BERNSTEIN_C * n)
    assert u < 1.0
    assert variance_radius(n, 1.0, 0.04) == pytest.approx(3.0 * math.sqrt(u), rel=1e-14)


def test_radius_scaling_laws():
    base = variance_radius(5000, 1.0, 0.01)
    assert variance_radius(5000, 2.0, 0.01) == pytest.approx(2.0 * base, rel=1e-14)
    assert variance_radius(20_000, 1.0, 0.01) == pytest.approx(base / 2.0, rel=1e-14)


def test_radius_monotone():
    values = [variance_radius(n, 1.0, 0.05) for n in (2, 10, 100, 1000, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    deltas = [variance_radius(100, 1.0, d) for d in (0.001, 0.01, 0.1, 0.5)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_radius_validation():
    with pytest.raises(ValueError):
        variance_radius(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        variance_radius(10, 1.0, 0.0)
    with pytest.raises(ValueError):
        variance_radius(10, 1.0, 1.0)


# --------------------------------------------------------------------
# halving count


def test_halving_pins():
    assert halving_sample_count(1.0, 1.0, 100) == 5355
    assert halving_sample_count(1.0, 1.0, 2) == 1402
    # ratio (kappa2/sigma2)^2 = 4 quadruples the base count before ceil
    assert halving_sample_count(2.0, 1.0, 100) == 21420


def test_halving_achieves_half_radius():
    for kappa2, sigma2, horizon in ((1.0, 1.0, 100), (1.0, 1.0, 2), (2.0, 1.0, 100),
                                    (1.5, 0.7, 1000)):
        n = halving_sample_count(kappa2, sigma2, horizon)
        delta = 1.0 / horizon**2
        assert variance_radius(n, kappa2, delta) <= sigma2 / 2.0 * (1.0 + 1e-9)
        assert variance_radius(n - 1, kappa2, delta) > sigma2 / 2.0


def test_halving_validation():
    with pytest.raises(ValueError):
        halving_sample_count(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        halving_sample_count(0.0, 1.0, 10)


# --------------------------------------------------------------------
# lower confidence bound


def test_lcb_pin():
    params = ConfidenceParams(0.04, 1.0)
    assert lcb_variance(10, 200.0 / 10, params) == pytest.approx(PIN_LCB, rel=1e-13)


def test_lcb_trivial_cases():
    # var_hat=4, radius forced to 1 by construction: lcb = 3
    params = ConfidenceParams(0.04, 1.0)
    n = 10
    radius = variance_radius(n, 1.0, 0.04)
    var_hat = n * (radius + 3.0) / n
    assert lcb_variance(n, var_hat, params) == pytest.approx(3.0, rel=1e-12)


def test_lcb_floor_activation():
    params = ConfidenceParams(0.01, 2.0)
    lcb = lcb_variance(2, 1.0 / 2, params)  # var_hat = 0.5, radius huge
    assert lcb == pytest.approx(LCB_FLOOR * 2.0, rel=1e-14)


def test_lcb_never_exceeds_var_hat():
    rng = np.random.default_rng(3)
    params = ConfidenceParams(0.05, 1.0)
    for _ in range(50):
        n = int(rng.integers(2, 10_000))
        var_hat = float(rng.uniform(0.01, 10.0))
        assert lcb_variance(n, n * var_hat / n, params) <= var_hat


def test_lcb_requires_two_observations():
    params = ConfidenceParams(0.05, 1.0)
    with pytest.raises(ValueError, match="two observations"):
        lcb_variance(1, None, params)


def test_confidence_params_validation():
    with pytest.raises(ValueError):
        ConfidenceParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ConfidenceParams(0.5, -1.0)
