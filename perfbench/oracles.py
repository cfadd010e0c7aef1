"""Reference values computed apart from the program under test.

Nothing here imports srdetect.  Every oracle is built from scipy's own
exponential integral (scipy.special.exp1), scipy's adaptive quadrature
and root finders, and a banded finite-difference solve, so an error in
the program's special functions, quadrature or Nystrom system cannot
leak into the reference it is checked against.

e1s(x) = e^x E1(x) is evaluated as exp(x) * exp1(x); the arguments used
here are reciprocals of statistic values, at most 1/r_min = 500, where
the product is still representable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, linalg, optimize, special


def e1s(x):
    """Scaled exponential integral e^x E1(x) from scipy.special.exp1."""
    x = np.asarray(x, dtype=float)
    return np.exp(x) * special.exp1(x)


def g(R, r_star: float, gamma: float):
    """Delay kernel g(R) = e1s(1/A) - e1s(1/R), with A = r_star + gamma."""
    A = r_star + gamma
    return e1s(1.0 / A) - e1s(1.0 / np.asarray(R, dtype=float))


def _f0_integral(A: float, R: float) -> float:
    """Integral of e1s(x)/x dx over [1/A, 1/R].

    Taken in u = ln x, where the integrand e1s(e^u) is smooth and bounded by 1.
    """
    value, _ = integrate.quad(
        lambda u: float(e1s(math.exp(u))),
        -math.log(A), -math.log(R), epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return value


def f0(R: float, r_star: float, gamma: float) -> float:
    """Calibration function f0(R) for head start r_star."""
    A = r_star + gamma
    return (1.0 - float(e1s(1.0 / r_star))) * (R - A) + _f0_integral(A, R)


def trapezoid_error(r_star: float, gamma: float, n: int) -> float:
    """Error of the n-point uniform trapezoid rule in x for the f0 integral at R = r_star.

    This is the error model of a value computed by that rule: its
    trapezoid sum of e1s(x)/x over [1/A, 1/r_star] minus the quadrature
    of the same integral.
    """
    A = r_star + gamma
    xs = np.linspace(1.0 / A, 1.0 / r_star, n)
    return float(np.trapezoid(e1s(xs) / xs, xs)) - _f0_integral(A, r_star)


def r_star(gamma: float) -> float:
    """Head start: the root of f0(r; r, gamma) on the bracket [0.05, 2.3]."""
    return optimize.brentq(lambda r: f0(r, r, gamma), 0.05, 2.3, xtol=1e-14, rtol=1e-14)


def r_star_limit() -> float:
    """Large-gamma limit of the head start, the root of e1s(1/r) = 1."""
    return optimize.brentq(lambda r: float(e1s(1.0 / r)) - 1.0, 2.0, 3.0, xtol=1e-14)


def f_lambda_fd(r_star: float, gamma: float, lam: float, n: int, r_min: float = 2e-3) -> float:
    """f_lambda(r_star) from a finite-difference solve of the ODE

        -lam f + f' + R^2 f'' = g(r_star) - g(R),   f(A) = 0,

    on a uniform grid of spacing h = (A - r_star) / n with r_star on a
    node, reaching down to the first node at or above r_min.  Interior
    rows are second-order central differences; the first row applies
    the equation with second-order one-sided differences, since R = 0 is
    a singular point of the equation and carries no boundary condition.
    """
    A = r_star + gamma
    h = (A - r_star) / n
    k = int(math.floor((r_star - r_min) / h))
    R = r_star + h * np.arange(-k, n + 1)
    R[-1] = A
    m = R.size
    rhs = e1s(1.0 / R) - float(e1s(1.0 / r_star))
    rhs[-1] = 0.0
    # banded storage with one sub- and three super-diagonals:
    # ab[3 + i - j, j] = M[i, j]
    ab = np.zeros((5, m))
    q = R * R / (h * h)
    i = np.arange(1, m - 1)
    ab[3, i] = -lam - 2.0 * q[i]
    ab[4, i - 1] = q[i] - 0.5 / h
    ab[2, i + 1] = q[i] + 0.5 / h
    q0 = q[0]
    ab[3, 0] = -lam - 1.5 / h + 2.0 * q0
    ab[2, 1] = 2.0 / h - 5.0 * q0
    ab[1, 2] = -0.5 / h + 4.0 * q0
    ab[0, 3] = -q0
    ab[3, m - 1] = 1.0
    ab[4, m - 2] = 0.0
    f = linalg.solve_banded((1, 3), ab, rhs)
    return float(f[k])


def f_lambda(r_star: float, gamma: float, lam: float, n: int) -> tuple[float, float]:
    """Richardson-extrapolated FD value at n and 2n, with its error estimate.

    The scheme is second order, so (4 f_2n - f_n) / 3 removes the
    leading term and |f_2n - f_n| / 3 estimates the error of f_2n.
    """
    a = f_lambda_fd(r_star, gamma, lam, n)
    b = f_lambda_fd(r_star, gamma, lam, 2 * n)
    return (4.0 * b - a) / 3.0, abs(b - a) / 3.0
