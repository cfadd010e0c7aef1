"""Head-start calibration for the equalizer property.

The procedure starts its statistic at r* and alarms at A = r* + gamma.
The right head start zeroes the function

    f0(R) = (1 - e^{1/r*} E1(1/r*)) (R - A)
            + integral_{1/A}^{1/R} E1(x) d(Ei(x))

at R = r*, which balances the detection delay across change points.  The
Stieltjes integral is evaluated in scaled form, d(Ei(x)) = e^x/x dx, so the
integrand is e1_scaled(x)/x: both factors stay O(1) across the whole range
even though E1 and Ei separately under/overflow there.  One rule computes
it everywhere, here and for the f0 vector in fredholm: Gauss-Legendre on
panels in u = ln x (_log_integrals), where it is accurate to rounding
level at a cost that grows only with ln(A/R).

calibrate() solves f0(r*) = 0 (with r* also moving A) by bisection; the
bracket [0.05, 2.3] covers every gamma because r* increases from ~0 toward
the finite limit ~2.2998 as gamma grows.  asymptotic_r_star() computes that
limit as the root of 1 - e^{1/r} E1(1/r).
"""

from __future__ import annotations

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
    bracket: tuple[float, float]


class BracketError(ValueError):
    """Bisection bracket does not straddle a sign change."""

    def __init__(self, a: float, fa: float, b: float, fb: float):
        self.endpoints = (a, b)
        self.values = (fa, fb)
        super().__init__(
            f"no sign change on bracket: f({a:g}) = {fa:.6g}, f({b:g}) = {fb:.6g}"
        )


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


def calibrate(
    gamma: float,
    tol: float = 1e-6,
    bracket: tuple[float, float] = (0.05, 2.3),
    max_iter: int = 200,
) -> CalibrationResult:
    """Find the head start r* with |f0(r*)| <= tol by bisection.

    The objective is phi(r) = f0_at(r, r, gamma): the head start is both
    the evaluation point and the parameter (it shifts the threshold too).
    Raises BracketError when phi has the same sign at both endpoints.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = bracket
    if not 0.0 < a < b:
        raise ValueError("bracket must satisfy 0 < a < b")

    def phi(r: float) -> float:
        return f0_at(r, r, gamma)

    fa = phi(a)
    fb = phi(b)
    if fa == 0.0:
        return CalibrationResult(gamma, a, fa, 0, bracket)
    if fb == 0.0:
        return CalibrationResult(gamma, b, fb, 0, bracket)
    if np.sign(fa) == np.sign(fb):
        raise BracketError(a, fa, b, fb)
    for k in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        fm = phi(mid)
        if abs(fm) <= tol:
            return CalibrationResult(gamma, mid, fm, k, bracket)
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b = mid
    raise RuntimeError(f"bisection did not reach |f0| <= {tol:g} in {max_iter} steps")


def asymptotic_r_star(tol: float = 1e-6) -> float:
    """Large-gamma limit of the head start: root of 1 - e^{1/r} E1(1/r).

    Bisects on [2, 3] until the interval is below tol; the root is
    2.299812 to six decimals.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    def psi(r: float) -> float:
        return 1.0 - e1_scaled(1.0 / r)

    a, b = 2.0, 3.0
    fa = psi(a)
    while (b - a) > 2.0 * tol:
        mid = 0.5 * (a + b)
        fm = psi(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)
