"""The scaled exponential integral and the expected-delay kernel.

The detection statistic takes values R in [2e-3, 520], so every formula is
evaluated through the exponentially scaled integral

    e1_scaled(x) = e^x E1(x),      E1(x) = integral_x^inf e^-t / t dt,

whose values stay O(1) for reciprocal arguments x = 1/R up to 500, where
plain E1 is of order e^-500.  The paper's f0 integral of E1 d(Ei) is the
integral of e1_scaled(x)/x dx (see calibration), so Ei is never evaluated.

e1_scaled evaluates two fixed-depth rules, so it has no stop test.  For
x <= 1 it sums the power series -gamma - ln x + sum_{n=1}^{25} c_n x^n,
c_n = (-1)^(n+1)/(n n!), by Horner's rule (the n = 25 term is below
3e-27).  Above 1 it evaluates the continued fraction e^x E1(x) = 1/(x +
1/(1 + 1/(x + 2/(1 + 2/(x + ...))))) backward from depth _CF_TERMS = 100
(Zhang & Jin, Computation of Special Functions, 1996, routine E1XB).  The
truncation error is largest at x = 1, where 100 levels are within 2e-16
of the exact value, and falls fast as x grows.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286
_SERIES = tuple((-1) ** (n + 1) / (n * math.factorial(n)) for n in range(1, 26))
_CF_TERMS = 100


def _prep(x, name: str = "x"):
    """Coerce to a float array, rejecting non-positive or non-finite input."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr, scalar


def _e1_series(x: np.ndarray) -> np.ndarray:
    s = np.full_like(x, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        s *= x
        s += c
    s *= x
    return s - EULER_GAMMA - np.log(x)


def _e1_cf_scaled(x: np.ndarray) -> np.ndarray:
    # t = x + k/(1 + k/t) for k = _CF_TERMS..1, starting from t = x
    t = x.copy()
    for k in range(_CF_TERMS, 0, -1):
        np.divide(k, t, out=t)
        t += 1.0
        np.divide(k, t, out=t)
        t += x
    return 1.0 / t


def e1_scaled(x):
    """Exponentially scaled exponential integral e^x E1(x), for x > 0.

    Decreasing in x, with 1/(x+1) < e1_scaled(x) < 1/x.
    """
    arr, scalar = _prep(x)
    out = np.empty_like(arr)
    lo = arr <= 1.0
    if lo.any():
        xs = arr[lo]
        out[lo] = np.exp(xs) * _e1_series(xs)
    if not lo.all():
        out[~lo] = _e1_cf_scaled(arr[~lo])
    return float(out[0]) if scalar else out


def g(R, r_star, gamma):
    """Expected-delay kernel g(R) = e^{1/A} E1(1/A) - e^{1/R} E1(1/R).

    A = r_star + gamma is the alarm threshold.  g acts as the potential for
    the remaining post-change detection delay: it decreases from the finite
    limit e^{1/A} E1(1/A) at R = 0+ to exactly 0 at the threshold R = A.
    """
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    if not (np.isfinite(r_star) and r_star > 0.0):
        raise ValueError("r_star must be positive and finite")
    arr, scalar = _prep(R, "R")
    A = r_star + gamma
    out = e1_scaled(1.0 / A) - e1_scaled(1.0 / arr)
    return float(out[0]) if scalar else out
