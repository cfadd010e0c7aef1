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

Tridiagonal solve.  The system (I + lambda P) f = f0 reduces exactly to
one in f alone.  Subtracting row i+1 from row i removes E, because
E_i - E_{i+1} = v_{i+1} f_{i+1}; substituting Q_{i+1} = t_{i+1} Q_i + u_i f_i
then leaves the difference

    p_i f_i + q_i f_{i+1} + lambda c_i Q_i = f0_i - f0_{i+1},
    p_i = 1 + lambda (diag_i - a_{i+1} u_i),
    q_i = -1 + lambda (v_{i+1} - diag_{i+1}),    c_i = a_i - a_{i+1} t_{i+1},

with a_n = f0_n = 0 for the last row, which has no q term.  Q_0 = 0
makes difference 0 the first row, and c_i times difference i+1 minus
c_{i+1} t_{i+1} times difference i cancels Q, giving the three-term row
i+1.  So T(lambda) = L Delta (I + lambda P), with Delta the differencing
and L lower bidiagonal with diagonal (1, c_0, ..., c_{n-2}): T is
tridiagonal, affine in lambda (T0 + lambda T1, both built once per
kernel), and det T = c_0 ... c_{n-2} det(I + lambda P).  No c_i vanishes:
e^x a(R) has derivative e^{1/R} in R, so

    c_i = -e^{-x_i} integral_{R_i}^{R_{i+1}} e^{1/R} dR < 0,

smallest in size, about -r_min^2, at the first node.  Each rate scales
the rows of T by powers of two, factors it by LU with partial pivoting
(LAPACK dgttrf) in O(n), and takes one step of iterative refinement
with the residual against P itself, which restores the digits that the
row combinations lose.

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
from functools import cached_property

import numpy as np

from srdetect.calibration import f0_at
from srdetect.quadrature import Grid, diff_weights
from srdetect.specfun import e1_scaled, ei_scaled

_UNSCALED_EXP_LIMIT = 50.0


class KernelAssemblyError(RuntimeError):
    """Kernel assembly produced or would produce non-finite entries."""


class SingularSystemError(RuntimeError):
    """(I + lambda P) is numerically singular for the requested lambda.

    .min_pivot and .residual are the solve's diagnostics, NaN where the
    solve stopped before computing them.
    """

    def __init__(self, msg: str, min_pivot: float = np.nan, residual: float = np.nan):
        super().__init__(msg)
        self.min_pivot = min_pivot
        self.residual = residual


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
        from scipy.linalg import lapack

        a, diag, v, _, u = self.P
        n = a.size
        if f.shape != (n,):
            raise ValueError("f length does not match kernel size")
        rhs = np.empty((n, 1))
        rhs[0] = 0.0
        rhs[1:, 0] = u[:-1] * f[:-1]
        q, _ = lapack.dtbtrs(self._q_band, rhs, uplo="L", overwrite_b=1)
        upper = np.zeros(n)
        upper[:-1] = np.cumsum((v * f)[:0:-1])[::-1]
        return a * q[:, 0] + diag * f + upper

    @cached_property
    def _q_band(self) -> np.ndarray:
        # Q_{i+1} - t_{i+1} Q_i = u_i f_i is a unit lower-bidiagonal solve
        t = self.P[3]
        return np.vstack([np.ones(t.size), np.append(-t[1:], 0.0)])

    @cached_property
    def _reduction(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T0, T1, L) of the tridiagonal reduction in the module docstring.

        T(lambda) = T0 + lambda T1; T0 and T1 are (3, n) with rows
        (super, diag, sub) and row k's entries in column k.  L is (2, n-1)
        and holds the multipliers (c_{k-1}, c_k t_k) of row k.
        """
        a, diag, v, t, u = self.P
        a_next = np.append(a[1:], 0.0)       # a_{i+1}, with a_n = 0
        c = a - a_next * np.append(t[1:], 0.0)
        dp = diag - a_next * u               # p_i = 1 + lambda dp_i
        dq = v[1:] - diag[1:]                # q_i = -1 + lambda dq_i
        cm, ct = c[:-1], c[1:] * t[1:]
        t0 = np.zeros((3, a.size))
        t1 = np.zeros((3, a.size))
        t0[:, 0] = -1.0, 1.0, 0.0
        t1[:, 0] = dq[0], dp[0], 0.0
        t0[0, 1:-1] = -cm[:-1]
        t1[0, 1:-1] = cm[:-1] * dq[1:]
        t0[1, 1:] = cm + ct
        t1[1, 1:] = cm * dp[1:] - ct * dq
        t0[2, 1:] = -ct
        t1[2, 1:] = cm * c[1:] * u[:-1] - ct * dp[:-1]
        return t0, t1, np.vstack([cm, ct])


@dataclass(frozen=True)
class LambdaSweep:
    """f_lambda(r*) sampled over a lambda grid (lambda = 0 row included).

    min_pivots and residuals hold each rate's smallest scaled pivot and
    solve residual (see solve_f_lambda), NaN where no factorization ran
    or the solve stopped first.
    """

    lambdas: np.ndarray
    values: np.ndarray
    min_pivots: np.ndarray
    residuals: np.ndarray
    gamma: float
    r_star: float
    grid_n: int
    r_min: float
    failures: list[tuple[float, str]] = field(default_factory=list)


def assemble_f0_vector(grid: Grid, r_star: float, gamma: float) -> np.ndarray:
    """Sample f0 on the grid nodes.

    Each node is calibration.f0_at on its own range, by the same rule
    that calibrate() solves, so the snapped r* node holds exactly
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
    # trapezoid weights against d(e^-z) and d(e^-z Ei(z)) over the full z-range
    w = diff_weights(np.exp(-s))[::-1]
    w_ei = diff_weights(eis_s)[::-1]

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


def solve_f_lambda(
    kernel: KernelMatrix, f0: np.ndarray, lam: float, *, full_output: bool = False
):
    """Solve (I + lambda P) f_lambda = f0 as a tridiagonal system in f, in O(n).

    The reduction of the module docstring gives T(lambda) f = L Delta f0
    with T(lambda) = T0 + lambda T1; its rows are scaled by powers of two
    and LAPACK dgttrf/dgttrs factor and solve it with partial pivoting.
    One step of iterative refinement against P, through
    KernelMatrix.apply, follows.  A pivot at rounding level or a
    residual max |f + lambda P f - f0| above 1e-8 * max(max |f0|, 1)
    raises SingularSystemError.  The reduction needs c_i != 0 for i < n-1,
    which every assembled kernel has; a hand-made generator set with a
    zero c_i makes T singular and is reported the same way.

    With full_output=True the return value is (f, min_pivot, residual):
    the smallest scaled pivot and the residual above, both NaN at
    lambda = 0, where nothing is solved.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lambda must be nonnegative and finite")
    n = kernel.P.shape[1]
    if f0.shape != (n,):
        raise ValueError("f0 length does not match kernel size")
    if lam == 0.0:
        return (f0.copy(), np.nan, np.nan) if full_output else f0.copy()
    # imported here: scipy.linalg is most of the package import's time,
    # which commands that solve nothing never need
    from scipy.linalg import lapack

    t0, t1, lower = kernel._reduction
    rows = t0 + lam * t1
    # power-of-two row scales are exact, and 1 for a zero row
    row_scale = np.ldexp(1.0, -np.frexp(np.max(np.abs(rows), axis=0))[1])
    rows *= row_scale
    dl, d, du, du2, ipiv, info = lapack.dgttrf(
        rows[2, 1:], rows[1], rows[0, :-1], overwrite_dl=1, overwrite_d=1, overwrite_du=1
    )
    if info < 0:
        raise ValueError(f"dgttrf rejected argument {-info}")
    pivot = float(np.min(np.abs(d)))
    if info > 0 or pivot < n * np.finfo(float).eps:
        raise SingularSystemError(
            f"lambda = {lam:g}: factorization pivot {pivot:.3e} is at rounding level",
            min_pivot=pivot,
        )

    def solve(r):
        # (I + lambda P) x = r, through T x = L Delta r
        b = r.copy()
        b[:-1] -= r[1:]
        b[1:] = lower[0] * b[1:] - lower[1] * b[:-1]
        x, _ = lapack.dgttrs(dl, d, du, du2, ipiv, (row_scale * b)[:, None], overwrite_b=1)
        return x[:, 0]

    f = solve(f0)
    f += solve(f0 - f - lam * kernel.apply(f))
    resid = float(np.max(np.abs(f + lam * kernel.apply(f) - f0)))
    scale = max(np.max(np.abs(f0)), 1.0)
    if not np.isfinite(resid) or resid > 1e-8 * scale:
        raise SingularSystemError(
            f"lambda = {lam:g}: solution residual {resid:.3e} exceeds 1e-8 * {scale:g}",
            min_pivot=pivot,
            residual=resid,
        )
    return (f, pivot, resid) if full_output else f


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
    pivots = np.empty_like(lams)
    resids = np.empty_like(lams)
    failures: list[tuple[float, str]] = []
    for j, lam in enumerate(lams):
        try:
            f, pivots[j], resids[j] = solve_f_lambda(kernel, f0, float(lam), full_output=True)
            values[j] = f[idx]
        except SingularSystemError as exc:
            values[j], pivots[j], resids[j] = np.nan, exc.min_pivot, exc.residual
            failures.append((float(lam), str(exc)))
    return LambdaSweep(
        lambdas=lams,
        values=values,
        min_pivots=pivots,
        residuals=resids,
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
