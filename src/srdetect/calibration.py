"""Head-start calibration for the equalizer property.

The procedure starts its statistic at r* and alarms at A = r* + gamma.
The right head start zeroes the function

    f0(R) = (1 - e^{1/r*} E1(1/r*)) (R - A)
            + integral_{1/A}^{1/R} E1(x) d(Ei(x))

at R = r*, which balances the detection delay across change points.  The
Stieltjes integral is evaluated in scaled form, d(Ei(x)) = e^x/x dx, so the
integrand is e1_scaled(x)/x: both factors stay O(1) across the whole range
even though E1 and Ei separately under/overflow there.

calibrate() solves f0(r*) = 0 (with r* also moving A) by bisection; the
bracket [0.05, 2.3] covers every gamma because r* increases from ~0 toward
the finite limit ~2.2998 as gamma grows.  asymptotic_r_star() computes that
limit as the root of 1 - e^{1/r} E1(1/r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srdetect.specfun import e1_scaled


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


def f0_at(R, r_star, gamma: float, n_quad: int = 501):
    """Evaluate f0 at statistic value R for head start r_star.

    The integral term uses the ordinary trapezoid rule on n_quad uniform
    points in x between 1/A and 1/R.  Requires 0 < R <= A.  R and r_star
    may also be equal-shape arrays: every pair is then evaluated in one
    e1_scaled call, and each entry equals the scalar call on that pair.
    """
    if np.ndim(R) or np.ndim(r_star):
        return _f0_at_array(np.asarray(R, dtype=float), np.asarray(r_star, dtype=float),
                            gamma, n_quad)
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    if not (np.isfinite(r_star) and r_star > 0.0):
        raise ValueError("r_star must be positive and finite")
    if n_quad < 2:
        raise ValueError("n_quad must be at least 2")
    A = r_star + gamma
    if not (np.isfinite(R) and 0.0 < R <= A):
        raise ValueError("R must lie in (0, r_star + gamma]")
    slope = 1.0 - e1_scaled(1.0 / r_star)
    x_lo = 1.0 / A
    x_hi = 1.0 / R
    if x_hi == x_lo:
        integral = 0.0
    else:
        xs = np.linspace(x_lo, x_hi, n_quad)
        integral = float(np.trapezoid(e1_scaled(xs) / xs, xs))
    return slope * (R - A) + integral


def _f0_at_array(R: np.ndarray, r_star: np.ndarray, gamma: float, n_quad: int) -> np.ndarray:
    if R.shape != r_star.shape:
        raise ValueError("R and r_star must have the same shape")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    if not np.all(np.isfinite(r_star) & (r_star > 0.0)):
        raise ValueError("r_star must be positive and finite")
    if n_quad < 2:
        raise ValueError("n_quad must be at least 2")
    A = r_star + gamma
    if not np.all(np.isfinite(R) & (R > 0.0) & (R <= A)):
        raise ValueError("R must lie in (0, r_star + gamma]")
    # The rows of np.linspace, built as the scalar call builds them: an
    # array call switches every row to another rounding when one has zero
    # width (R = A).
    x_lo = (1.0 / A)[..., None]
    x_hi = (1.0 / R)[..., None]
    xs = np.arange(n_quad) * ((x_hi - x_lo) / (n_quad - 1)) + x_lo
    xs[..., -1:] = x_hi
    e1s = e1_scaled(np.concatenate([(1.0 / r_star).ravel(), xs.ravel()]))
    slope = 1.0 - e1s[: R.size].reshape(R.shape)
    integral = np.trapezoid(e1s[R.size :].reshape(xs.shape) / xs, xs, axis=-1)
    return slope * (R - A) + integral


def calibrate(
    gamma: float,
    n_quad: int = 501,
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
        return f0_at(r, r, gamma, n_quad)

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
