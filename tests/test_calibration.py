"""Head-start calibration: published constants and root-finder behavior."""

import numpy as np
import pytest

from srdetect.calibration import (
    BracketError,
    CalibrationResult,
    asymptotic_r_star,
    calibrate,
    f0_at,
)
from srdetect.specfun import e1_scaled


def test_gamma_five_reproduces_published_root():
    res = calibrate(5.0)
    assert isinstance(res, CalibrationResult)
    assert res.r_star == pytest.approx(1.0707, abs=5e-4)
    assert abs(res.residual) <= 1e-6
    assert res.iterations <= 200


def test_gamma_twenty_reproduces_published_root():
    res = calibrate(20.0)
    assert res.r_star == pytest.approx(1.5240, abs=5e-4)
    assert abs(res.residual) <= 1e-6


def test_asymptotic_root():
    root = asymptotic_r_star()
    assert root == pytest.approx(2.299812, abs=1e-5)
    # the root satisfies e^{1/r} E1(1/r) = 1
    assert e1_scaled(1.0 / root) == pytest.approx(1.0, abs=1e-5)


def test_residual_is_f0_at_root():
    res = calibrate(5.0)
    assert f0_at(res.r_star, res.r_star, 5.0) == res.residual


# Roots of f0(r; r, gamma) = 0 computed with mpmath at 30 digits: the
# integral of e^x E1(x) over u = ln x by mpmath.quad, the root by
# mpmath.findroot.
MPMATH_ROOTS = {5.0: 1.07068274091, 20.0: 1.52398652430, 1000.0: 2.21482253794}


@pytest.mark.parametrize("gamma", sorted(MPMATH_ROOTS))
def test_root_matches_mpmath_oracle(gamma):
    assert abs(calibrate(gamma).r_star - MPMATH_ROOTS[gamma]) <= 1e-6


@pytest.mark.parametrize("gamma", [1.0, 5.0, 8.0, 20.0, 50.0])
def test_root_inside_default_bracket(gamma):
    res = calibrate(gamma)
    assert 0.05 < res.r_star < 2.3
    assert abs(res.residual) <= 1e-6


def test_root_increases_with_gamma():
    roots = [calibrate(gamma).r_star for gamma in (2.0, 5.0, 20.0, 100.0)]
    assert np.all(np.diff(roots) > 0.0)


def test_large_gamma_approaches_asymptotic_root():
    asym = asymptotic_r_star()
    gaps = []
    for gamma in (100.0, 1e3, 1e4, 1e5):
        root = calibrate(gamma).r_star
        gaps.append(abs(root - asym))
    assert np.all(np.diff(gaps) < 0.0)
    assert gaps[-1] <= 5e-3


def test_bracket_without_sign_change_raises():
    with pytest.raises(BracketError) as exc_info:
        calibrate(5.0, bracket=(2.0, 2.2))
    err = exc_info.value
    assert err.endpoints == (2.0, 2.2)
    assert len(err.values) == 2


def test_f0_at_domain_checks():
    with pytest.raises(ValueError):
        f0_at(0.0, 1.0707, 5.0)
    with pytest.raises(ValueError):
        f0_at(-1.0, 1.0707, 5.0)
    with pytest.raises(ValueError):
        f0_at(6.2, 1.0707, 5.0)  # above threshold


def test_f0_at_threshold_is_zero():
    assert f0_at(6.0707, 1.0707, 5.0) == 0.0


@pytest.mark.parametrize("gamma", [5.0, 20.0])
def test_f0_at_array_equals_scalar_calls(gamma):
    # the verify scan (R = r_star) and a fixed head start over (0, A],
    # whose last entry R = A has a zero-width quadrature range
    scan = np.linspace(0.05, 2.3, 100)
    got = f0_at(scan, scan, gamma)
    assert got.shape == scan.shape
    assert np.array_equal(got, [f0_at(float(r), float(r), gamma) for r in scan])
    R = np.linspace(0.01, 1.0 + gamma, 57).reshape(3, 19)
    got = f0_at(R, np.ones_like(R), gamma)
    want = [[f0_at(float(x), 1.0, gamma) for x in row] for row in R]
    assert np.array_equal(got, want)
    assert got[-1, -1] == 0.0


def test_f0_at_array_domain_checks():
    r = np.array([0.5, 1.0])
    with pytest.raises(ValueError):
        f0_at(r, r[:1], 5.0)
    with pytest.raises(ValueError):
        f0_at(np.array([0.5, 7.0]), r, 5.0)  # above threshold
    with pytest.raises(ValueError):
        f0_at(r, np.array([1.0, 0.0]), 5.0)


def test_f0_sign_structure():
    # f0(r; r) is negative for small head starts and positive past the root
    assert f0_at(0.05, 0.05, 5.0) < 0.0
    assert f0_at(2.3, 2.3, 5.0) > 0.0


def test_calibrate_rejects_bad_gamma():
    for bad in (0.0, -3.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            calibrate(bad)
