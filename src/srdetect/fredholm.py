"""Discretized perturbation equation for the discounted-delay value.

The discounted expected excess delay f_lambda solves a second-kind
integral equation f_lambda = f0 - lambda P f_lambda, i.e. the linear
system (I + lambda P) f_lambda = f0 once R is sampled on a grid.  Row i
of the Nystrom matrix P combines three Stieltjes integrals of
f(z^{-1}) over z-segments bounded by x_i = 1/R_i:

    (P f)(R_i) = C_A  * integral_{1/A}^{z_max} f d(e^{-z})
               - D_i  * integral_{x_i}^{z_max} f d(e^{x_i - z})
               - integral_{1/A}^{x_i} f d(e^{-z} Ei(z))

with C_A = e^{1/A} (ei_scaled(1/A) - A) and D_i = ei_scaled(x_i) - R_i.
The z-samples are the reciprocals of the grid nodes, so P maps node
values of f directly to node values of P f.  The upper limit
z_max = 1/r_min truncates the infinite z-integral; the discarded tail is
O(e^{-z_max}).

Generator form.  With i indexing the nodes in ascending R, and w, wE the
full-range trapezoid weights against d(e^{-z}) and d(e^{-z} Ei(z)) put
in R-order, every row i < n-1 of the trapezoid discretization reads

    P_ij = a_i e^{x_i} w_j   (j < i),     a_i = C_A e^{-x_i} - D_i
    P_ij = v_j               (j > i),     v_j = C_A w_j - wE_j
    P_ii = C_A w_i - D_i (e^{x_i - x_{i-1}} - 1)/2
                   - (ei_scaled(x_i) - ei_scaled(x_{i+1}))/2

(the D_i term only for i >= 1), so P is (1,1)-quasiseparable.
KernelMatrix.P stores the five length-n generators (a, diag, v, t, u)
instead of the n x n matrix; t and u are the transfer factors below.

Transfer factors.  The lower sum is carried in scaled form
Q_i = e^{x_i} sum_{j<i} w_j f_j, which obeys

    Q_0 = 0,    Q_{i+1} = t_{i+1} Q_i + u_i f_i,
    t_i = e^{x_i - x_{i-1}},    u_i = e^{x_{i+1}} w_i = (e^{x_{i+1} - x_{i-1}} - 1)/2

(u_0 = (e^{x_1 - x_0} - 1)/2).  t lies in (0, 1] and u in (-1/2, 0], so
the raw e^{x_i}, up to e^{500} at r_min = 2e-3, never appears; every
exponential has a non-positive argument and Ei only ever appears
through ei_scaled.  The upper sum E_i = sum_{j>i} v_j f_j is a reversed
cumulative sum, and (P f)_i = a_i Q_i + diag_i f_i + E_i costs O(n).

Banded solve.  Taking (f_i, Q_i, E_i) side by side as unknowns, the
system (I + lambda P) f = f0 together with the two recurrences is a
3n x 3n banded system with 4 sub- and 3 superdiagonals, solved by LU
with partial pivoting (LAPACK dgbsv) in O(n) time and memory.
Eliminating Q and E recovers I + lambda P, so both systems share their
determinant.

The right-hand side f0 is sampled node by node with calibration.f0_at,
the quadrature that calibrates r*, so f0 at the r* node is the
calibration residual.

The row for R = A is identically zero: there D_i e^{1/A} = C_A and the
tail integral is e^{1/A} times the full one, so the three terms cancel
exactly.  Its generators are pinned to zero rather than computed, which
also encodes the boundary condition f_lambda(A) = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from srdetect.calibration import f0_at
from srdetect.quadrature import Grid, diff_weights
from srdetect.specfun import e1_scaled, ei_scaled

_UNSCALED_EXP_LIMIT = 50.0

# Sub- and superdiagonals of the interleaved (f, Q, E) system.
_KL, _KU = 4, 3


class KernelAssemblyError(RuntimeError):
    """Kernel assembly produced or would produce non-finite entries."""


class SingularSystemError(RuntimeError):
    """(I + lambda P) is numerically singular for the requested lambda."""


@dataclass(frozen=True)
class KernelMatrix:
    """Nystrom matrix of the perturbation operator on a statistic grid.

    P is the (5, n) array of generators (a, diag, v, t, u) described in
    the module docstring, not the n x n matrix itself.
    """

    P: np.ndarray
    grid: Grid

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Matrix-vector product P f in O(n)."""
        a, diag, v, t, u = self.P
        n = a.size
        if f.shape != (n,):
            raise ValueError("f length does not match kernel size")
        # Q_{i+1} - t_{i+1} Q_i = u_i f_i is a unit lower-bidiagonal solve.
        band = np.vstack([np.ones(n), np.append(-t[1:], 0.0)])
        rhs = np.concatenate([[0.0], u[:-1] * f[:-1]])
        q, _ = scipy.linalg.lapack.dtbtrs(band, rhs[:, None], uplo="L")
        upper = np.zeros(n)
        upper[:-1] = np.cumsum((v * f)[:0:-1])[::-1]
        return a * q[:, 0] + diag * f + upper


@dataclass(frozen=True)
class LambdaSweep:
    """f_lambda(r*) sampled over a lambda grid (lambda = 0 row included)."""

    lambdas: np.ndarray
    values: np.ndarray
    gamma: float
    r_star: float
    grid_n: int
    r_min: float
    failures: list[tuple[float, str]] = field(default_factory=list)


def assemble_f0_vector(grid: Grid, r_star: float, gamma: float) -> np.ndarray:
    """Sample f0 on the grid nodes.

    Each node is calibration.f0_at on its own range, by the same rule
    that calibrate() bisects on, so the snapped r* node holds exactly
    calibrate()'s residual and the threshold node holds 0.
    """
    return f0_at(grid.nodes, np.full(grid.n, r_star), gamma)


def assemble_kernel(grid: Grid, r_star: float, gamma: float) -> KernelMatrix:
    """Assemble the generators of the Nystrom matrix P in O(n)."""
    nodes = grid.nodes
    n = nodes.size
    x = 1.0 / nodes            # x[i] = 1/R_i, descending in i
    s = x[::-1]                # ascending z-samples, s[0] = 1/A
    x0 = s[0]
    if x0 > _UNSCALED_EXP_LIMIT:
        raise KernelAssemblyError(
            f"1/threshold = {x0:g} too large for the one unscaled exponential"
        )
    c_a = np.exp(x0) * (ei_scaled(x0) - grid.threshold)
    eis_s = ei_scaled(s)
    eis = eis_s[::-1]
    d_coef = eis - nodes               # D_i, in R-order
    w = diff_weights(np.exp(-s), "d(e^-z) over full z-range").w[::-1]
    w_ei = diff_weights(eis_s, "d(e^-z Ei(z)) over full z-range").w[::-1]

    half_gap = 0.5 * np.expm1(x[1:] - x[:-1])     # (e^{x_i - x_{i-1}} - 1)/2, i >= 1
    t = np.zeros(n)
    t[1:] = np.exp(x[1:] - x[:-1])
    u = np.zeros(n)
    u[0] = half_gap[0]
    u[1:-1] = 0.5 * np.expm1(x[2:] - x[:-2])
    a = c_a * np.exp(-x) - d_coef
    v = c_a * w - w_ei
    diag = c_a * w
    diag[1:] -= d_coef[1:] * half_gap
    diag[:-1] -= 0.5 * (eis[:-1] - eis[1:])
    a[-1] = 0.0
    diag[-1] = 0.0

    gens = np.vstack([a, diag, v, t, u])
    if not np.all(np.isfinite(gens)):
        raise KernelAssemblyError("kernel generators have non-finite entries")
    return KernelMatrix(P=gens, grid=grid)


def solve_f_lambda(kernel: KernelMatrix, f0: np.ndarray, lam: float) -> np.ndarray:
    """Solve (I + lambda P) f_lambda = f0 by banded LU in O(n).

    The unknowns (f_i, Q_i, E_i) of the module docstring are interleaved
    so the system has 4 sub- and 3 superdiagonals; LAPACK dgbsv factors
    it with partial pivoting.  The solution is residual-checked against
    P through KernelMatrix.apply; a numerically singular factorization
    raises SingularSystemError with the offending pivot magnitude.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lambda must be nonnegative and finite")
    a, diag, v, t, u = kernel.P
    n = a.size
    if f0.shape != (n,):
        raise ValueError("f0 length does not match kernel size")
    if lam == 0.0:
        return f0.copy()

    ab = np.zeros((2 * _KL + _KU + 1, 3 * n))

    def put(rows, cols, vals):
        ab[_KL + _KU + rows - cols, cols] = vals

    i = np.arange(n)
    fi, qi, ei = 3 * i, 3 * i + 1, 3 * i + 2
    # f_i + lam (a_i Q_i + diag_i f_i + E_i) = f0_i
    put(fi, fi, 1.0 + lam * diag)
    put(fi, qi, lam * a)
    put(fi, ei, lam)
    # Q_0 = 0,  Q_{i+1} - t_{i+1} Q_i - u_i f_i = 0
    put(qi, qi, 1.0)
    put(qi[1:], qi[:-1], -t[1:])
    put(qi[1:], fi[:-1], -u[:-1])
    # E_{n-1} = 0,  E_i - E_{i+1} - v_{i+1} f_{i+1} = 0
    put(ei, ei, 1.0)
    put(ei[:-1], ei[1:], -1.0)
    put(ei[:-1], fi[1:], -v[1:])
    m_max = np.max(np.abs(ab))
    rhs = np.zeros((3 * n, 1))
    rhs[fi, 0] = f0

    lub, _, x, info = scipy.linalg.lapack.dgbsv(_KL, _KU, ab, rhs)
    if info < 0:
        raise ValueError(f"dgbsv rejected argument {-info}")
    u_min = np.min(np.abs(lub[_KL + _KU]))
    if info > 0 or u_min < n * np.finfo(float).eps * m_max:
        raise SingularSystemError(
            f"lambda = {lam:g}: factorization pivot {u_min:.3e} is at rounding level"
        )
    f = x[fi, 0]
    resid = np.max(np.abs(f + lam * kernel.apply(f) - f0))
    scale = max(np.max(np.abs(f0)), 1.0)
    if not np.isfinite(resid) or resid > 1e-8 * scale:
        raise SingularSystemError(
            f"lambda = {lam:g}: solution residual {resid:.3e} exceeds 1e-8 * {scale:g}"
        )
    return f


def sweep_lambda(grid: Grid, r_star: float, gamma: float, lambdas) -> LambdaSweep:
    """Evaluate f_lambda(r*) across a lambda grid on one shared kernel.

    A lambda = 0 entry (value f0(r*), the calibration residual) is
    prepended when not already present.  Individual solve failures are
    recorded in .failures with NaN values instead of aborting the sweep.
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

    kernel = assemble_kernel(grid, r_star, gamma)
    f0 = assemble_f0_vector(grid, r_star, gamma)
    idx = grid.r_star_index
    values = np.empty_like(lams)
    failures: list[tuple[float, str]] = []
    for j, lam in enumerate(lams):
        try:
            values[j] = solve_f_lambda(kernel, f0, float(lam))[idx]
        except SingularSystemError as exc:
            values[j] = np.nan
            failures.append((float(lam), str(exc)))
    return LambdaSweep(
        lambdas=lams,
        values=values,
        gamma=gamma,
        r_star=r_star,
        grid_n=grid.n,
        r_min=grid.r_min,
        failures=failures,
    )


def ode_residual(
    f_lambda: np.ndarray,
    grid: Grid,
    lam: float,
    r_star: float,
    gamma: float,
) -> float:
    """Max residual of -lam f + f' + R^2 f'' = g(r*) - g(R) on the grid.

    Derivatives use 3-point finite differences written for non-uniform
    spacing (exact for quadratics).  The max excludes 5% of nodes at
    each boundary, where the solution's boundary layers sit, and the
    three stencils touching the snapped r* node: snapping displaces one
    node by up to h/2, and a first-order spacing kink there would
    otherwise mask the second-order interior convergence this residual
    is meant to expose.
    """
    nodes = grid.nodes
    n = nodes.size
    if f_lambda.shape != (n,):
        raise ValueError("f_lambda length does not match grid")
    margin = max(1, int(round(0.05 * n)))
    keep = np.zeros(n, dtype=bool)
    keep[margin : n - margin] = True
    keep[[max(grid.r_star_index - 1, 0), grid.r_star_index,
          min(grid.r_star_index + 1, n - 1)]] = False
    keep[[0, n - 1]] = False
    if keep.sum() < 100:
        warnings.warn("grid too coarse for a meaningful interior ODE residual")

    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    fm, fc, fp = f_lambda[:-2], f_lambda[1:-1], f_lambda[2:]
    denom = hm * hp * (hm + hp)
    d1 = (-fm * hp * hp + fc * (hp * hp - hm * hm) + fp * hm * hm) / denom
    d2 = 2.0 * (fm * hp - fc * (hm + hp) + fp * hm) / denom
    R = nodes[1:-1]
    lhs = -lam * fc + d1 + R * R * d2
    rhs = e1_scaled(1.0 / R) - e1_scaled(1.0 / r_star)
    resid = np.abs(lhs - rhs)
    return float(resid[keep[1:-1]].max())
