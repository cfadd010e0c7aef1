"""Checks of the benchmark's own oracles: published constants and convergence.

Run with `python3 -m pytest perfbench/test_oracles.py`.  Nothing here
imports srdetect.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import oracles
import streams


@pytest.mark.parametrize("gamma, paper", [(5.0, 1.0707), (20.0, 1.5240)])
def test_head_start_rounds_to_paper(gamma, paper):
    assert round(oracles.r_star(gamma), 4) == paper


def test_large_gamma_limit():
    limit = oracles.r_star_limit()
    assert round(limit, 6) == 2.299812
    # r* increases with gamma toward the limit
    assert oracles.r_star(1e3) < oracles.r_star(1e6) < limit


def _simpson_in_u(lo, hi, n):
    # composite Simpson with n panels of e1s(e^u) du, the f0 integrand
    u = np.linspace(lo, hi, 2 * n + 1)
    w = np.full(u.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(w @ oracles.e1s(np.exp(u))) * (hi - lo) / (6 * n)


@pytest.mark.parametrize("gamma", [5.0, 20.0, 1000.0])
def test_f0_integral_converges_to_quadrature(gamma):
    # The r* oracle rests on adaptive quadrature; an independent fixed rule
    # must approach it at its fourth order as the panel count doubles.
    r = oracles.r_star(gamma)
    lo, hi = -math.log(r + gamma), -math.log(r)
    ref, _ = integrate.quad(lambda u: float(oracles.e1s(math.exp(u))), lo, hi,
                            epsabs=1e-14, epsrel=1e-13)
    errs = [abs(_simpson_in_u(lo, hi, n) - ref) for n in (8, 16, 32)]
    assert errs[2] < 1e-8
    for a, b in zip(errs, errs[1:]):
        assert 12.0 < a / b < 20.0
    assert abs(oracles.f0(r, r, gamma)) < 1e-12


def test_e1s_matches_laplace_integral():
    # e^x E1(x) = integral_0^inf e^-s / (x + s) ds
    for x in (1e-3, 0.3725, 1.0, 7.0, 500.0):
        ref, _ = integrate.quad(lambda s: math.exp(-s) / (x + s), 0.0, math.inf,
                                epsabs=0.0, epsrel=1e-12)
        assert oracles.e1s(x) == pytest.approx(ref, rel=1e-10)


def test_g_vanishes_at_threshold_and_decreases():
    r, gamma = oracles.r_star(5.0), 5.0
    R = np.linspace(2e-3, r + gamma, 200)
    vals = oracles.g(R, r, gamma)
    assert vals[-1] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("gamma, lam", [(5.0, 0.5), (5.0, 8.0), (20.0, 1.0), (20.0, 10.0)])
def test_fd_oracle_is_second_order(gamma, lam):
    r = oracles.r_star(gamma)
    f = [oracles.f_lambda_fd(r, gamma, lam, n) for n in (2500, 5000, 10000)]
    d1, d2 = f[0] - f[1], f[1] - f[2]
    assert f[2] < 0.0
    assert abs(d2) < 2e-6
    assert 3.0 < d1 / d2 < 5.0
    value, err = oracles.f_lambda(r, gamma, lam, 5000)
    assert abs(value - f[2]) < 2.0 * abs(d2)
    assert err == pytest.approx(abs(d2) / 3.0)


def test_fd_oracle_at_zero_rate_is_the_calibration_function():
    # with lambda = 0 the ODE solution at r* is f0(r*), zero at the root
    r = oracles.r_star(5.0)
    value, err = oracles.f_lambda(r, 5.0, 0.0, 10000)
    assert abs(value) < 1e-6


def test_trapezoid_error_shrinks_at_second_order():
    r = oracles.r_star(20.0)
    e = [oracles.trapezoid_error(r, 20.0, n) for n in (501, 1001, 2001)]
    assert e[0] > e[1] > e[2] > 0.0
    assert 3.5 < e[0] / e[1] < 4.5


def test_stream_replay_is_deterministic_and_alarms():
    s = streams.Stream("7/0/3", 50.0)
    first = list(s.records())
    assert first == list(s.records())
    out = streams.expected_outcome(s, oracles.r_star(50.0))
    assert out.stopped and 0 < out.alarm_record <= len(first)
    # the statistic is affine in its start: gain is that slope
    bumped = streams.expected_outcome(s, oracles.r_star(50.0) + 1e-9)
    if bumped.alarm_record == out.alarm_record:
        assert bumped.r_final - out.r_final == pytest.approx(1e-9 * out.gain, rel=1e-3)
