"""Scaled exponential integral checks against an independently coded oracle.

The oracle below runs in extended (80-bit) precision with different
algorithm choices than the library: above x = 4 it uses the odd-form
continued fraction, so shared blind spots with the library
implementation are unlikely.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srdetect.specfun import EULER_GAMMA, e1_scaled, g

LD = np.longdouble
_GAMMA_LD = LD("0.5772156649015328606065")


def oracle_e1_scaled(x: float) -> float:
    """e^x E1(x) via longdouble series (x <= 4) or odd-form Lentz CF."""
    xl = LD(x)
    if x <= 4.0:
        # e^x (-gamma - ln x - sum (-x)^k / (k k!))
        s = LD(0)
        term = LD(1)
        for k in range(1, 90):
            term *= -xl / LD(k)
            add = term / LD(k)
            s += add
            if abs(add) < LD(1e-24) * max(abs(s), LD(1e-30)):
                break
        return float(np.exp(xl) * (-_GAMMA_LD - np.log(xl) - s))
    # e^x E1(x) = 1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...)))
    tiny = LD(1e-60)
    b = xl + LD(1)
    f = b if b != 0 else tiny
    c = f
    d = LD(0)
    for k in range(1, 400):
        a = -LD(k) * LD(k)
        b = xl + LD(2 * k + 1)
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = LD(1) / d
        delta = c * d
        f *= delta
        if abs(delta - LD(1)) < LD(1e-21):
            return float(LD(1) / f)
    raise RuntimeError(f"oracle CF did not converge at x={x}")


@pytest.fixture(scope="module")
def log_points():
    return np.logspace(-8, np.log10(600.0), 10_000)


def test_e1_scaled_matches_oracle(log_points):
    expected = np.array([oracle_e1_scaled(float(x)) for x in log_points])
    got = e1_scaled(log_points)
    rel = np.abs(got - expected) / np.abs(expected)
    assert rel.max() < 1e-12


def test_mpmath_spot_check():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(3)
    pts = np.exp(rng.uniform(np.log(1e-8), np.log(500.0), size=300))
    for x in pts:
        ref_e1 = float(mp.exp(x) * mp.e1(x))
        assert abs(e1_scaled(float(x)) - ref_e1) <= 1e-13 * abs(ref_e1)


def test_bracketing_inequality(log_points):
    vals = e1_scaled(log_points)
    x = log_points
    assert np.all(x / (x + 1.0) < x * vals)
    assert np.all(x * vals < 1.0)


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)


def test_scalar_and_array_shapes():
    assert isinstance(e1_scaled(1.5), float)
    out = e1_scaled(np.array([0.5, 1.5, 40.0, 50.0]))
    assert out.shape == (4,)


@given(st.floats(min_value=1e-6, max_value=590.0), st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_e1_scaled_strictly_decreasing(x, step):
    assert e1_scaled(x) > e1_scaled(x + step)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        e1_scaled(bad)


def test_g_is_zero_at_threshold_and_decreasing():
    r_star, gamma = 1.0707, 5.0
    A = r_star + gamma
    assert g(A, r_star, gamma) == 0.0
    R = np.linspace(1e-6, A, 2_000)
    vals = g(R, r_star, gamma)
    assert np.all(np.diff(vals) < 0.0)
    # small-R limit approaches e^{1/A} E1(1/A)
    limit = e1_scaled(1.0 / A)
    assert g(1e-9, r_star, gamma) == pytest.approx(limit, rel=1e-8)


def test_g_matches_definition():
    r_star, gamma = 1.5240, 20.0
    A = r_star + gamma
    for R in (0.3, 1.0, 7.5, 20.0):
        expected = e1_scaled(1.0 / A) - e1_scaled(1.0 / R)
        assert g(R, r_star, gamma) == pytest.approx(expected, rel=1e-14)
