"""The scaled exponential integral and the expected-delay kernel.

The detection statistic takes values R in [2e-3, 520], so every formula is
evaluated through the exponentially scaled integral

    e1_scaled(x) = e^x E1(x),      E1(x) = integral_x^inf e^-t / t dt,

whose values stay O(1) for reciprocal arguments x = 1/R up to 500, where
plain E1 is of order e^-500.  The paper's f0 integral of E1 d(Ei) is the
integral of e1_scaled(x)/x dx (see calibration), so Ei is never evaluated.

e1_scaled uses the power series for x <= 1 and the modified Lentz
continued fraction above (the continued fraction natively produces the
scaled value).
"""

from __future__ import annotations

import numpy as np

EULER_GAMMA = 0.57721566490153286

# Update factors of the Lentz recurrence jitter at up to ~9e-16 from
# rounding once converged, so the stop threshold must sit above that;
# the geometric tail below 4e-15 contributes under 2e-14 relative.
_CF_EPS = 4e-15


def _prep(x, name: str = "x"):
    """Coerce to a float array, rejecting non-positive or non-finite input."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr.copy(), scalar


def _e1_series(x: np.ndarray) -> np.ndarray:
    # E1(x) = -gamma - ln x + sum_{n>=1} (-1)^(n+1) x^n / (n n!).
    # For x <= 1 the n = 25 term is below 3e-27, far past double precision.
    s = -EULER_GAMMA - np.log(x)
    u = np.ones_like(x)
    for n in range(1, 26):
        u *= -x / n
        s -= u / n
    return s


def _e1_cf_scaled(x: np.ndarray, max_iter: int) -> np.ndarray:
    # e^x E1(x) = 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...))))) via the
    # modified Lentz recurrence.  Convergence is slowest as x -> 1+.
    # Convergence is tracked per element (sticky): frozen entries stop
    # updating, since their deltas only jitter around 1 afterwards.
    tiny = 1e-300
    f = np.full_like(x, tiny)
    c = np.full_like(x, tiny)
    d = np.zeros_like(x)
    done = np.zeros(x.shape, dtype=bool)

    def advance(a: float | np.ndarray, b: float | np.ndarray) -> np.ndarray:
        nonlocal f, c, d
        d = b + a * d
        d[d == 0.0] = tiny
        c = b + a / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = c * d
        f = np.where(done, f, f * delta)
        return delta

    advance(1.0, x)
    ones = np.ones_like(x)
    for k in range(1, max_iter + 1):
        advance(float(k), ones)
        delta = advance(float(k), x)
        done |= np.abs(delta - 1.0) < _CF_EPS
        if done.all():
            return f
    raise RuntimeError("continued fraction for e1_scaled did not converge")


def _e1_scaled_large(x: np.ndarray) -> np.ndarray:
    # Split by magnitude: the fraction needs ~90 terms just above 1 but
    # only a handful for large x, so bucketing avoids wasted vector work.
    out = np.empty_like(x)
    mid = x <= 4.0
    if mid.any():
        out[mid] = _e1_cf_scaled(x[mid], 160)
    if not mid.all():
        out[~mid] = _e1_cf_scaled(x[~mid], 60)
    return out


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
        out[~lo] = _e1_scaled_large(arr[~lo])
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
