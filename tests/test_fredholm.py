"""The self-adjoint scheme for f_lambda, its sweep, and its differential check.

f_nodes and ode_residual are shared with the acceptance criteria.

The dense oracle assembles the same scheme unscaled, entry by entry, on a
grid where no exponential underflows, and solves it by dense LU; the
library assembles the scaled system in log form and solves it by LDL^T.
The finite-difference values come from perfbench/oracles.f_lambda, a
different, non-conservative scheme that imports nothing from srdetect.
"""

import math

import numpy as np
import pytest
from scipy.linalg import lapack

from srdetect.calibration import calibrate
from srdetect.fredholm import _assemble, _solve, sweep_lambda
from srdetect.quadrature import make_grid
from srdetect.specfun import e1_scaled


def f_nodes(grid, lam):
    """f_lambda on every grid node, 0 at A, from the private assembly and solve."""
    system = _assemble(grid)
    return np.append(np.exp(system.log_scale) * _solve(system, lam)[0], 0.0)


def ode_residual(f, grid, lam):
    """Max residual of -lam f + f' + R^2 f'' = g(r*) - g(R) on the grid's nodes.

    Derivatives use 3-point finite differences written for non-uniform
    spacing (exact for quadratics).  The max excludes 5% of nodes at
    each boundary, where the solution's boundary layers sit, and the
    three stencils touching the snapped r* node: snapping displaces one
    node by up to h/2, and a first-order spacing kink there would
    otherwise mask the second-order interior convergence this residual
    is meant to expose.
    """
    nodes, i_star = grid.nodes, grid.r_star_index
    n = nodes.size
    margin = max(1, int(round(0.05 * n)))
    keep = np.zeros(n, dtype=bool)
    keep[margin : n - margin] = True
    keep[[i_star - 1, i_star, i_star + 1]] = False
    assert keep.sum() >= 100, "grid too coarse for a meaningful interior ODE residual"

    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    fm, fc, fp = f[:-2], f[1:-1], f[2:]
    denom = hm * hp * (hm + hp)
    d1 = (-fm * hp * hp + fc * (hp * hp - hm * hm) + fp * hm * hm) / denom
    d2 = 2.0 * (fm * hp - fc * (hm + hp) + fp * hm) / denom
    R = nodes[1:-1]
    lhs = -lam * fc + d1 + R * R * d2
    rhs = e1_scaled(1.0 / R) - e1_scaled(1.0 / grid.r_star)
    return float(np.abs(lhs - rhs)[keep[1:-1]].max())


@pytest.fixture(scope="module")
def cal5():
    return calibrate(5.0)


@pytest.fixture(scope="module")
def grid5(cal5):
    return make_grid(2e-3, cal5.r_star, 5.0, 2001)


def _dense_oracle(grid, lam):
    """(K + lam M) f = -M h assembled unscaled with a plain loop, solved densely."""
    R = [float(r) for r in grid.nodes]
    m = len(R) - 1
    k = [math.exp(-2.0 / (R[i] + R[i + 1])) / (R[i + 1] - R[i]) for i in range(m)]
    h_star = float(e1_scaled(1.0 / grid.r_star))
    T = np.zeros((m, m))
    b = np.zeros(m)
    for i in range(m):
        mass = math.exp(-1.0 / R[i]) / R[i] ** 2 * (R[i + 1] - R[max(i - 1, 0)]) / 2.0
        T[i, i] = k[i] + lam * mass
        if i > 0:
            T[i, i] += k[i - 1]
            T[i, i - 1] = T[i - 1, i] = -k[i - 1]
        b[i] = -mass * (float(e1_scaled(1.0 / R[i])) - h_star)
    return np.append(np.linalg.solve(T, b), 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.05, 1.0, 10.0, 1e3])
def test_scaled_solve_matches_unscaled_dense_oracle(lam):
    gamma = 2.0
    grid = make_grid(0.05, calibrate(gamma).r_star, gamma, 201)
    want = _dense_oracle(grid, lam)
    got = f_nodes(grid, lam)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("gamma,n,lam,oracle", [
    (5.0, 2001, 0.5, -1.4417931470e-02),
    (5.0, 2001, 8.0, -1.9613581994e-03),
    (20.0, 4001, 1.0, -1.1734513839e-02),
    (20.0, 4001, 10.0, -3.7738047068e-04),
])
def test_values_match_finite_difference_oracle(gamma, n, lam, oracle):
    # oracles.f_lambda(calibrate(gamma).r_star, gamma, lam, 40000): the
    # Richardson value of a 40000/80000-interval FD solve, with error
    # estimates from 8e-11 to 2e-12.  The scheme sits within 7e-9 of it.
    cal = calibrate(gamma)
    grid = make_grid(2e-3, cal.r_star, gamma, n)
    sweep = sweep_lambda(grid, [lam])
    assert abs(sweep.values[1] - oracle) <= 2e-8


def test_factorization_failure_is_recorded(monkeypatch):
    cal = calibrate(2.0)
    grid = make_grid(5e-3, cal.r_star, 2.0, 301)
    monkeypatch.setattr(lapack, "dpttrf", lambda d, e: (d, e, 1))
    sweep = sweep_lambda(grid, [1.0])
    assert [lam for lam, _ in sweep.failures] == [0.0, 1.0]
    assert all("info = 1" in msg for _, msg in sweep.failures)
    assert sweep.values[0] == cal.residual and np.isnan(sweep.values[1])
    assert np.isnan(sweep.grid_error)
    assert np.all(np.isnan(sweep.min_pivots)) and np.all(np.isnan(sweep.residuals))


def test_backward_error_above_bound_is_recorded(monkeypatch):
    cal = calibrate(2.0)
    grid = make_grid(5e-3, cal.r_star, 2.0, 301)
    dpttrs = lapack.dpttrs

    def noisy(d, e, b):
        # an alternating error of 1e-9 |x|: T maps it to about 2e-9 |x|
        x = dpttrs(d, e, b)[0]
        return x + 1e-9 * np.max(np.abs(x)) * (-1.0) ** np.arange(x.size)[:, None], 0

    monkeypatch.setattr(lapack, "dpttrs", noisy)
    sweep = sweep_lambda(grid, [1.0])
    assert [lam for lam, _ in sweep.failures] == [0.0, 1.0]
    assert "above 1e-12" in sweep.failures[1][1]
    assert np.isnan(sweep.values[1]) and np.isnan(sweep.grid_error)
    assert np.all((sweep.residuals > 1e-10) & (sweep.residuals < 1e-8))
    assert np.all(sweep.min_pivots > 0.1)


def test_solve_residual_bound_and_boundary(grid5):
    system = _assemble(grid5)
    z, pivot, err = _solve(system, 1.0)
    diag = 1.0 + system.decay
    T = np.diag(diag) + np.diag(system.off, 1) + np.diag(system.off, -1)
    want = np.max(np.abs(T @ z - system.rhs)) / (
        np.linalg.norm(T, np.inf) * np.max(np.abs(z)) + np.max(np.abs(system.rhs)))
    assert err <= 1e-12 and want <= 1e-12
    # the LDL^T recurrence d_i = T_ii - T_{i,i-1}^2 / d_{i-1}
    d = [diag[0]]
    for i in range(1, diag.size):
        d.append(diag[i] - system.off[i - 1] ** 2 / d[-1])
    assert pivot == pytest.approx(min(np.array(d) / diag), rel=1e-12)
    assert 0.1 < pivot <= 1.0
    f = f_nodes(grid5, 1.0)
    assert f[-1] == 0.0 and abs(f[-2]) <= 1e-2 * np.max(np.abs(f))


def test_large_grid_memory_stays_linear(cal5):
    n = 65537
    grid = make_grid(2e-3, cal5.r_star, 5.0, n)
    system = _assemble(grid)
    assert all(a.nbytes <= 8 * n for a in system)
    for lam in (0.0, 1.0, 1e3):
        z, pivot, err = _solve(system, lam)
        assert np.all(np.isfinite(z)) and z.nbytes <= 8 * n
        assert err <= 1e-12
        assert 0.1 < pivot <= 1.0


@pytest.mark.parametrize("r_min", [1e-3, 5e-4])
def test_small_r_min_neither_overflows_nor_goes_invalid(cal5, r_min):
    with np.errstate(over="raise", invalid="raise"):
        grid = make_grid(r_min, cal5.r_star, 5.0, 2001)
        f = f_nodes(grid, 1.0)
        sweep = sweep_lambda(grid, [1.0])
    assert np.all(np.isfinite(f))
    assert sweep.failures == []
    assert sweep.values[1] == f[grid.r_star_index]


def test_lambda_continuity(grid5):
    lam, delta = 1.0, 1e-4
    f_a = f_nodes(grid5, lam)
    f_b = f_nodes(grid5, lam + delta)
    assert np.max(np.abs(f_b - f_a)) <= 1e-3 * np.max(np.abs(f_a))


def test_truncation_insensitivity(cal5):
    vals = {}
    for r_min in (2e-3, 1e-3):
        grid = make_grid(r_min, cal5.r_star, 5.0, 2001)
        vals[r_min] = sweep_lambda(grid, [0.5]).values[1]
    assert vals[1e-3] == pytest.approx(vals[2e-3], rel=1e-5)


def test_sweep_small_domain_sign_and_zero_row():
    gamma = 2.0
    cal = calibrate(gamma)
    grid = make_grid(5e-3, cal.r_star, gamma, 301)
    lams = np.linspace(0.0, 10.0, 6)[1:]
    sweep = sweep_lambda(grid, lams)
    assert sweep.failures == []
    assert sweep.lambdas[0] == 0.0 and sweep.lambdas.size == 6
    assert sweep.values[0] == cal.residual
    # the lambda = 0 solve is the scheme's f_0(r*), off the residual by
    # its discretization error
    f_zero = f_nodes(grid, 0.0)[grid.r_star_index]
    assert sweep.grid_error == abs(f_zero - cal.residual)
    assert 0.0 < sweep.grid_error <= 1e-7
    assert np.all(sweep.values[1:] < -sweep.grid_error)
    # every row is factored, the lambda = 0 one too
    assert np.all((sweep.min_pivots > 0.1) & (sweep.min_pivots <= 1.0))
    assert np.all(sweep.residuals <= 1e-12)


def test_sweep_validates_lambda_grid(grid5):
    with pytest.raises(ValueError):
        sweep_lambda(grid5, [0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        sweep_lambda(grid5, [-1.0, 1.0])
    with pytest.raises(ValueError):
        sweep_lambda(grid5, [])


@pytest.mark.parametrize("lam,bound", [(0.0, 1e-2), (1.0, 1e-2)])
def test_ode_residual_small_on_canonical_grid(grid5, lam, bound):
    resid = ode_residual(f_nodes(grid5, lam), grid5, lam)
    assert resid <= bound


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_ode_residual_second_order_refinement(cal5, lam):
    resids = {}
    for n in (2001, 4001):
        grid = make_grid(2e-3, cal5.r_star, 5.0, n)
        resids[n] = ode_residual(f_nodes(grid, lam), grid, lam)
    ratio = resids[2001] / resids[4001]
    assert 3.5 <= ratio <= 4.5
