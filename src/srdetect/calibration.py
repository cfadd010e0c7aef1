"""Head-start calibration for the equalizer property.

The procedure starts its statistic at r* and alarms at A = r* + gamma.
The right head start zeroes the function

    f0(R) = (1 - e^{1/r*} E1(1/r*)) (R - A)
            + integral_{1/A}^{1/R} E1(x) d(Ei(x))

at R = r*, which balances the detection delay across change points.  The
Stieltjes integral is evaluated in scaled form, d(Ei(x)) = e^x/x dx, so the
integrand is e1_scaled(x)/x: both factors stay O(1) across the whole range
even though E1 and Ei separately under/overflow there.  One rule computes
it everywhere, for calibrate, the verify scan and the lambda = 0 row of
fredholm's sweep: Gauss-Legendre on panels in u = ln x (_log_integrals),
where it is accurate to rounding level at a cost that grows only with
ln(A/R).

calibrate() solves f0(r*) = 0 (with r* also moving A) by Newton's method
with a closed-form derivative; the bracket [0.05, 2.3] covers every gamma
down to about 0.005 because r* increases from ~0 toward the finite limit
~2.2998 as gamma grows.  asymptotic_r_star() computes that limit as the
root of 1 - e^{1/r} E1(1/r) on [2, 3].  Both roots are found to rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from srdetect.specfun import e1_scaled

# 8-point Gauss-Legendre rule on [-1, 1], applied to every u-panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class CalibrationResult:
    gamma: float
    r_star: float
    residual: float
    iterations: int


def _newton(fn, a: float, b: float, x: float, what: str) -> tuple[float, float, int]:
    """Root of an increasing fn, which returns (value, derivative), on [a, b].

    Newton steps from x.  A step past a or b stops at that end to check
    its sign; one outside the signs' bounds, or over half the last, bisects.
    After a Newton step below 1e-8 x the error (about 0.3 e^2, relative) is
    at rounding level, where smaller steps would chase rounding noise: that
    point is the last.  Returns (root, fn(root), evaluations).
    """
    lo, hi, prev, last, x = -np.inf, np.inf, b - a, False, min(max(x, a), b)
    for n in itertools.count(1):
        f, df = fn(x)
        if (x == a and f > 0.0) or (x == b and f < 0.0):
            raise ValueError(f"{what}: no sign change on the bracket [{a:g}, {b:g}]")
        new = min(max(x - f / df, a), b)
        if last or new == x or min(hi, b) - max(lo, a) <= 4e-16 * x:
            return x, f, n
        lo, hi = (x, hi) if f < 0.0 else (lo, x)
        last = abs(new - x) <= 1e-8 * x
        if not (last or lo < new < hi and abs(new - x) <= 0.5 * prev):
            new = 0.5 * (max(lo, a) + min(hi, b))
        x, prev = new, abs(new - x)


def _log_integrals(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of e1_scaled(x)/x dx over each [lo_k, hi_k], 0 < lo_k <= hi_k.

    In u = ln x the integral is that of e1_scaled(e^u) du, whose integrand
    is O(1) and analytic in the strip |Im u| < pi.  Each range is split
    into equal u-panels of width at most 1, and each panel is summed by
    8-point Gauss-Legendre, which leaves an error at rounding level.
    Every range is summed the same way whatever else is in the array, so
    each entry equals the call on that range alone, bit for bit.
    """
    u_lo = np.log(lo)
    width = np.log(hi) - u_lo
    panels = np.maximum(1, np.ceil(width)).astype(int)
    first = np.cumsum(panels) - panels
    k = np.repeat(np.arange(lo.size), panels)
    half = 0.5 * width[k] / panels[k]
    mid = u_lo[k] + (2 * (np.arange(k.size) - first[k]) + 1) * half
    u = mid[:, None] + half[:, None] * _GL_NODES
    sums = (e1_scaled(np.exp(u)) * _GL_WEIGHTS).sum(axis=1) * half
    return np.add.reduceat(sums, first)


def f0_at(R, r_star, gamma: float):
    """Evaluate f0 at statistic value R for head start r_star.

    Requires 0 < R <= A.  R and r_star may be scalars, giving a float, or
    equal-shape arrays, giving an array whose every entry equals the
    scalar call on that pair; the integral term is _log_integrals over
    [1/A, 1/R].
    """
    R_arr = np.asarray(R, dtype=float)
    r_arr = np.asarray(r_star, dtype=float)
    if R_arr.shape != r_arr.shape:
        raise ValueError("R and r_star must have the same shape")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    if not np.all(np.isfinite(r_arr) & (r_arr > 0.0)):
        raise ValueError("r_star must be positive and finite")
    A = r_arr + gamma
    if not np.all(np.isfinite(R_arr) & (R_arr > 0.0) & (R_arr <= A)):
        raise ValueError("R must lie in (0, r_star + gamma]")
    slope = 1.0 - e1_scaled(1.0 / r_arr)
    integral = _log_integrals((1.0 / A).ravel(), (1.0 / R_arr).ravel()).reshape(R_arr.shape)
    out = slope * (R_arr - A) + integral
    return float(out) if out.ndim == 0 else out


def calibrate(gamma: float) -> CalibrationResult:
    """Find the head start r* with f0(r*) = 0 by Newton's method on [0.05, 2.3].

    The objective is phi(r) = f0_at(r, r, gamma): the head start is both
    the evaluation point and the parameter (it shifts the threshold too).
    With phi' in closed form, 3-4 evaluations (`iterations`) reach r*;
    `residual` is phi there.  Raises ValueError, naming gamma and the
    bracket, if phi has one sign at both ends (gamma below about 0.005).
    """
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")

    def phi(r: float) -> tuple[float, float]:
        e_r, e_a = e1_scaled(np.array([1.0 / r, 1.0 / (r + gamma)]))
        return f0_at(r, r, gamma), float(-gamma * (e_r - r) / r**2 - e_r / r + e_a / (r + gamma))

    # logit(r*/2.2998) as a quartic in ln gamma: within 3e-3 of r* for gamma in [0.006, 1e6]
    y = np.polyval([-3.24e-5, 7.37e-4, 8.04e-3, 0.543, -1.04], min(max(np.log(gamma), -5.2), 13.8))
    r_star, residual, evals = _newton(phi, 0.05, 2.3, float(2.2998 / (1.0 + np.exp(-y))),
                                      f"calibrate(gamma={gamma:g})")
    return CalibrationResult(gamma, r_star, residual, evals)


def asymptotic_r_star() -> float:
    """Large-gamma limit of the head start: root of 1 - e^{1/r} E1(1/r) on [2, 3].

    The root is 2.299812 to six decimals.
    """
    return _newton(lambda r: ((e := float(e1_scaled(1.0 / r))) - 1.0, (r - e) / r**2),
                   2.0, 3.0, 2.3, "asymptotic_r_star")[0]
