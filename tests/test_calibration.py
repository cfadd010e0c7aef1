"""Head-start calibration: published constants and root-finder behavior."""

import numpy as np
import pytest
from scipy import integrate, optimize, special

import srdetect.calibration as calibration
from srdetect.calibration import (
    CalibrationResult,
    asymptotic_r_star,
    calibrate,
    f0_at,
)
from srdetect.quadrature import make_grid
from srdetect.specfun import e1_scaled


def test_gamma_five_reproduces_published_root():
    res = calibrate(5.0)
    assert isinstance(res, CalibrationResult)
    assert res.r_star == pytest.approx(1.0707, abs=5e-4)
    assert abs(res.residual) <= 1e-12
    assert res.iterations <= 200


def test_gamma_twenty_reproduces_published_root():
    res = calibrate(20.0)
    assert res.r_star == pytest.approx(1.5240, abs=5e-4)
    assert abs(res.residual) <= 1e-12


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
    assert abs(calibrate(gamma).r_star - MPMATH_ROOTS[gamma]) <= 1e-10


@pytest.mark.parametrize("gamma", sorted(MPMATH_ROOTS))
def test_calibrate_call_count(gamma, monkeypatch):
    calls = []

    def counted(R, r_star, g):
        calls.append(R)
        return f0_at(R, r_star, g)

    monkeypatch.setattr(calibration, "f0_at", counted)
    res = calibrate(gamma)
    assert len(calls) <= 6
    assert res.iterations <= len(calls)


@pytest.mark.parametrize("gamma", [0.01, 0.5, 2.0, 5.0, 50.0, 1e3, 1e4, 1e5])
def test_newton_root_matches_brent(gamma):
    # Brent's method on the same objective, to the same xtol the solver
    # used before Newton's method replaced it
    brent = optimize.brentq(lambda r: f0_at(r, r, gamma), 0.05, 2.3, xtol=1e-14)
    res = calibrate(gamma)
    assert 0.05 < res.r_star < 2.3
    assert res.residual == f0_at(res.r_star, res.r_star, gamma)
    assert abs(res.r_star - brent) <= 1e-13
    assert res.iterations <= 6


def test_both_roots_share_the_newton_solver(monkeypatch):
    brackets = []
    newton = calibration._newton

    def recorded(fn, a, b, x, what):
        brackets.append((a, b))
        return newton(fn, a, b, x, what)

    monkeypatch.setattr(calibration, "_newton", recorded)
    calibrate(5.0)
    root = asymptotic_r_star()
    assert brackets == [(0.05, 2.3), (2.0, 3.0)]
    brent = optimize.brentq(lambda r: 1.0 - e1_scaled(1.0 / r), 2.0, 3.0, xtol=1e-14)
    assert abs(root - brent) <= 1e-13


@pytest.mark.parametrize("gamma", [1.0, 5.0, 8.0, 20.0, 50.0])
def test_root_inside_default_bracket(gamma):
    res = calibrate(gamma)
    assert 0.05 < res.r_star < 2.3
    assert abs(res.residual) <= 1e-12


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
    # at gamma = 1e-3 the root lies below the bracket's lower end 0.05
    with pytest.raises(ValueError, match=r"gamma=0\.001.*\[0\.05, 2\.3\]"):
        calibrate(1e-3)


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


def test_f0_at_matches_log_quadrature_oracle():
    # f0(R) = (1 - e^{1/r*} E1(1/r*)) (R - A) + integral of e^x E1(x) du
    # over u = ln x from ln(1/A) to ln(1/R), by adaptive quadrature, on
    # nodes of a verify grid from r_min up to the threshold
    res = calibrate(5.0)
    r_star = res.r_star
    grid = make_grid(2e-3, r_star, 5.0, 2001)
    A = grid.nodes[-1]
    slope = 1.0 - np.exp(1.0 / r_star) * special.exp1(1.0 / r_star)

    def integrand(u):
        x = np.exp(u)
        return np.exp(x) * special.exp1(x)

    idx = [0, 1, 4, 250, grid.r_star_index, 700, 1200, 1900, grid.nodes.size - 2]
    R = grid.nodes[idx]
    got = f0_at(R, np.full(R.size, r_star), 5.0)
    assert got[idx.index(grid.r_star_index)] == res.residual
    for R_i, f_i in zip(R, got):
        integral, _ = integrate.quad(
            integrand, np.log(1.0 / A), np.log(1.0 / R_i), epsabs=1e-14, epsrel=1e-13, limit=200
        )
        assert f_i == pytest.approx(slope * (R_i - A) + integral, abs=1e-12)


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
