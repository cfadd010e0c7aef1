"""Discounted expected excess delay f_lambda(R) by a self-adjoint difference scheme.

f_lambda solves the Fredholm equation f = f0 - lambda P f, which is the
boundary value problem

    -lambda f + f' + R^2 f'' = h(R) = g(r*) - g(R),    f(A) = 0,

with h(R) = e1_scaled(1/R) - e1_scaled(1/r*) and A = r* + gamma.  R = 0
is a singular point and carries no boundary condition.  Multiplied by
the speed density m(R) = e^{-1/R}/R^2, the equation takes divergence form

    (e^{-1/R} f')' - lambda m f = m h,

so its operator is self-adjoint in L^2(m).

Scheme.  On the make_grid nodes R_0 = r_min < ... < R_{n-1} = A, the
flux through the cell midpoint R_{i+1/2} is k_i (f_{i+1} - f_i), with
conductance k_i = e^{-1/R_{i+1/2}} / (R_{i+1} - R_i).  Node i balances
the fluxes of its cell, of width w_i (half-cells at both ends), with no
flux below R_0 and f_{n-1} = f(A) = 0:

    k_{i-1} (f_i - f_{i-1}) + k_i (f_i - f_{i+1}) + lambda M_i f_i = -M_i h(R_i),

where M_i = m(R_i) w_i and k_{-1} = 0.  The unknowns are f_0 .. f_{n-2}.
The matrix K + lambda M is symmetric and tridiagonal, with negative
off-diagonals, and it is diagonally dominant, strictly in its last row.
So it is positive definite for every lambda >= 0.  The scheme is second
order in the spacing.

Scaling.  e^{-1/R} falls to e^{-500} at R = 2e-3, so the raw entries
underflow.  The scaled unknowns z = K_d^{1/2} f, with K_d the diagonal
of K, give a unit diagonal plus lambda e^{-d_i}, where e^{-d_i} = M_i/K_ii,
and off-diagonals -k_i (K_ii K_{i+1,i+1})^{-1/2}, below 1 in size (0.62
at most on the grids of verify's presets and the tests).  Every entry is
the exp of a difference of logarithms, such as 1/R_{i+1/2} - 1/R_i, and
log K_ii comes from logaddexp, so no argument overflows.  LAPACK dpttrf
factors the scaled matrix as LDL^T without pivoting, and dpttrs solves
it, in O(n) per rate.

Grid error.  The scheme's value at r* for lambda = 0 is not exactly the
calibration residual f0(r*), which calibration.f0_at computes by
quadrature: the two differ by the scheme's discretization error.
sweep_lambda solves lambda = 0 too and reports that difference as
LambdaSweep.grid_error, the margin that each lambda > 0 value must
clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from srdetect.calibration import f0_at
from srdetect.quadrature import Grid
from srdetect.specfun import e1_scaled

_MAX_BACKWARD_ERROR = 1e-12


@dataclass(frozen=True)
class LambdaSweep:
    """f_lambda(r*) sampled over a lambda grid (lambda = 0 row included).

    The lambda = 0 row holds the calibration residual f0(r*).  min_pivots
    and residuals hold each rate's smallest relative pivot and backward
    error (see _solve), NaN where the factorization failed.  grid_error is
    |scheme value at lambda = 0 - f0(r*)|.
    """

    lambdas: np.ndarray
    values: np.ndarray
    min_pivots: np.ndarray
    residuals: np.ndarray
    grid_error: float
    failures: list[tuple[float, str]] = field(default_factory=list)


class _System(NamedTuple):
    """Scaled system on nodes 0..n-2: tridiag(off, 1 + lambda decay, off) z = rhs.

    f = exp(log_scale) * z on those nodes.
    """

    decay: np.ndarray
    off: np.ndarray
    rhs: np.ndarray
    log_scale: np.ndarray


def _assemble(grid: Grid) -> _System:
    """The scaled symmetric tridiagonal system of the module docstring."""
    R = grid.nodes
    h = np.diff(R)
    log_k = -1.0 / (R[:-1] + 0.5 * h) - np.log(h)
    log_kd = log_k.copy()
    log_kd[1:] = np.logaddexp(log_k[:-1], log_k[1:])
    w = 0.5 * h
    w[1:] += 0.5 * h[:-1]
    x = R[:-1]
    log_m = -1.0 / x - 2.0 * np.log(x) + np.log(w)
    e1s = e1_scaled(1.0 / x)
    return _System(
        decay=np.exp(log_m - log_kd),
        off=-np.exp(log_k[:-1] - 0.5 * (log_kd[:-1] + log_kd[1:])),
        rhs=-np.exp(log_m - 0.5 * log_kd) * (e1s - e1s[grid.r_star_index]),
        log_scale=-0.5 * log_kd,
    )


def _solve(system: _System, lam: float) -> tuple[np.ndarray, float, float]:
    """Scaled solution z, relative pivot and backward error at one rate.

    The pivot is min d_i / T_ii over the LDL^T factors of T; the backward
    error is |T z - b|_inf / (|T|_inf |z|_inf + |b|_inf).  Raises
    np.linalg.LinAlgError when dpttrf reports a nonzero info.
    """
    # imported here: scipy.linalg is most of the package import's time,
    # which commands that solve nothing never need
    from scipy.linalg import lapack

    diag = 1.0 + lam * system.decay
    off, rhs = system.off, system.rhs
    d, sub, info = lapack.dpttrf(diag, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf returned info = {info}")
    z = lapack.dpttrs(d, sub, rhs[:, None])[0][:, 0]
    tz = diag * z
    tz[:-1] += off * z[1:]
    tz[1:] += off * z[:-1]
    row_sums = diag + np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    scale = np.max(row_sums) * np.max(np.abs(z)) + np.max(np.abs(rhs))
    return z, float(np.min(d / diag)), float(np.max(np.abs(tz - rhs)) / scale)


def sweep_lambda(grid: Grid, lambdas) -> LambdaSweep:
    """Evaluate f_lambda(r*) across a lambda grid on one assembled system.

    r* and gamma are the grid's.  A lambda = 0 row is prepended when not
    already present.  Its value is f0(r*), the calibration residual; its
    solve gives grid_error.  A rate whose factorization fails, or whose
    backward error is above 1e-12, is recorded in .failures with a NaN
    value instead of aborting the sweep.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("need a non-empty 1-d array of lambda values")
    if np.any(lams < 0.0) or not np.all(np.isfinite(lams)):
        raise ValueError("lambda values must be nonnegative and finite")
    if np.any(np.diff(lams) <= 0.0):
        raise ValueError("lambda values must be strictly increasing")
    if lams[0] > 0.0:
        lams = np.concatenate([[0.0], lams])

    system = _assemble(grid)
    scale = np.exp(system.log_scale[grid.r_star_index])
    values, pivots, resids = (np.full_like(lams, np.nan) for _ in range(3))
    failures: list[tuple[float, str]] = []
    for j, lam in enumerate(lams):
        try:
            z, pivots[j], resids[j] = _solve(system, float(lam))
        except np.linalg.LinAlgError as exc:
            failures.append((float(lam), str(exc)))
            continue
        if resids[j] <= _MAX_BACKWARD_ERROR:
            values[j] = scale * z[grid.r_star_index]
        else:
            msg = f"backward error {resids[j]:.3e} is above {_MAX_BACKWARD_ERROR:g}"
            failures.append((float(lam), msg))
    residual = f0_at(grid.r_star, grid.r_star, grid.gamma)
    grid_error, values[0] = abs(values[0] - residual), residual
    return LambdaSweep(
        lambdas=lams,
        values=values,
        min_pivots=pivots,
        residuals=resids,
        grid_error=float(grid_error),
        failures=failures,
    )
