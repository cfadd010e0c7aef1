"""Kernel assembly, the perturbation solve, and its differential check.

The kernel test recomputes rows from unscaled exponential integrals at
40-digit precision (mpmath), exercising the same three-measure split
without the scaled-function regrouping the library uses for stability.
The library stores P by its O(n) generators; the dense row-by-row
assembly below is the oracle for them, and dense matrices of the
library's P come from applying it to the unit vectors.
"""

import numpy as np
import pytest
from scipy import integrate, special

from srdetect.calibration import calibrate
from srdetect.fredholm import (
    KernelMatrix,
    SingularSystemError,
    assemble_f0_vector,
    assemble_kernel,
    ode_residual,
    solve_f_lambda,
    sweep_lambda,
)
from srdetect.quadrature import diff_weights, make_grid
from srdetect.specfun import e1_scaled, ei_scaled


@pytest.fixture(scope="module")
def cal5():
    return calibrate(5.0)


@pytest.fixture(scope="module")
def grid5(cal5):
    return make_grid(2e-3, cal5.r_star, 5.0, 2001)


@pytest.fixture(scope="module")
def kernel5(grid5, cal5):
    return assemble_kernel(grid5, cal5.r_star, 5.0)


@pytest.fixture(scope="module")
def f05(grid5, cal5):
    return assemble_f0_vector(grid5, cal5.r_star, 5.0)


@pytest.fixture(scope="module")
def dense5(kernel5):
    return _expand(kernel5)


def _expand(ker):
    # the library's P as a dense matrix, one column per unit vector
    return np.column_stack([ker.apply(e) for e in np.eye(ker.grid.n)])


def _seg_weights(b):
    # trapezoid weights against d(b) for a segment of >= 2 samples
    if b.size == 2:
        d = 0.5 * (b[1] - b[0])
        return np.array([d, d])
    return diff_weights(b).w


def _dense_kernel(grid):
    """Row-by-row dense assembly of P: each row is c_A times the full-range
    d(e^-z) weights, minus D_i times the d(e^{x_i - z}) weights of its tail
    segment, minus the d(e^-z Ei(z)) weights of its head segment."""
    nodes = grid.nodes
    n = nodes.size
    x = 1.0 / nodes
    s = x[::-1]
    x0 = s[0]
    c_a = np.exp(x0) * (ei_scaled(x0) - grid.threshold)
    eis = ei_scaled(s)
    d_coef = (eis - 1.0 / s)[::-1]
    w_full = diff_weights(np.exp(-s)).w[::-1]
    P = np.zeros((n, n))
    for i in range(n - 1):
        k = n - 1 - i
        row = c_a * w_full.copy()
        if i >= 1:
            row[: i + 1] -= d_coef[i] * _seg_weights(np.exp(x[i] - s[k:]))[::-1]
        row[i:] -= _seg_weights(eis[: k + 1])[::-1]
        P[i] = row
    return P


def _diffw(b):
    # independent trapezoid differential weights (loop form)
    m = len(b)
    w = [0.0] * m
    if m == 1:
        return w
    if m == 2:
        w[0] = w[1] = (b[1] - b[0]) / 2
        return w
    w[0] = (b[1] - b[0]) / 2
    for j in range(1, m - 1):
        w[j] = (b[j + 1] - b[j - 1]) / 2
    w[-1] = (b[-1] - b[-2]) / 2
    return w


def test_kernel_matches_unscaled_high_precision_route():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    gamma = 2.0
    r_star = calibrate(gamma).r_star
    grid = make_grid(0.5, r_star, gamma, 41)
    ker = assemble_kernel(grid, r_star, gamma)

    nodes = grid.nodes
    n = nodes.size
    A = grid.threshold
    s = [mp.mpf(1.0) / mp.mpf(float(R)) for R in nodes[::-1]]
    ei_s = [mp.ei(z) for z in s]
    exp_neg = [mp.exp(-z) for z in s]
    x0 = s[0]
    c_a = mp.ei(x0) - mp.mpf(A) * mp.exp(x0)

    raw = np.zeros((n, n))
    for i in range(n - 1):
        k = n - 1 - i
        x_i = s[k]
        R_i = mp.mpf(1.0) / x_i
        row = [c_a * wj for wj in _diffw(exp_neg)]
        tail_coef = ei_s[k] - R_i * mp.exp(x_i)
        w_tail = _diffw(exp_neg[k:])
        for j, wj in enumerate(w_tail):
            row[k + j] -= tail_coef * wj
        head = [exp_neg[j] * ei_s[j] for j in range(k + 1)]
        w_head = _diffw(head)
        for j, wj in enumerate(w_head):
            row[j] -= wj
        raw[i] = [float(v) for v in row[::-1]]

    scale = np.max(np.abs(raw))
    assert np.max(np.abs(_expand(ker) - raw)) <= 1e-12 * scale


def test_kernel_threshold_row_is_zero(kernel5, dense5, grid5):
    assert np.all(dense5[-1] == 0.0)
    assert dense5.shape == (grid5.n, grid5.n)
    assert np.all(np.isfinite(dense5))
    assert kernel5.P.shape == (5, grid5.n)


@pytest.mark.parametrize("gamma", [5.0, 20.0])
def test_apply_and_solve_match_dense_oracle(gamma):
    r_star = calibrate(gamma).r_star
    grid = make_grid(2e-3, r_star, gamma, 2001)
    ker = assemble_kernel(grid, r_star, gamma)
    f0 = assemble_f0_vector(grid, r_star, gamma)
    P = _dense_kernel(grid)
    eye = np.eye(grid.n)
    for lam in (0.05, 1.0, 5.0, 10.0):
        want = np.linalg.solve(eye + lam * P, f0)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(ker.apply(want) - P @ want)) <= 1e-12 * scale
        got = solve_f_lambda(ker, f0, lam)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_kernel_row_sums_match_analytic_integral(kernel5, grid5):
    # P applied to the constant 1 telescopes to a closed form per row
    nodes = grid5.nodes
    A = grid5.threshold
    x = 1.0 / nodes
    x0 = 1.0 / A
    z_max = 1.0 / nodes[0]
    c_a = np.exp(x0) * (ei_scaled(x0) - A)
    d = ei_scaled(x) - nodes
    expected = (
        c_a * (np.exp(-z_max) - np.exp(-x0))
        - d * (np.exp(x - z_max) - 1.0)
        - (ei_scaled(x) - ei_scaled(x0))
    )
    expected[-1] = 0.0
    got = kernel5.apply(np.ones(grid5.n))
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_f0_vector_endpoints(grid5, cal5, f05):
    assert f05[-1] == 0.0
    assert f05[grid5.r_star_index] == cal5.residual


def test_f0_vector_matches_log_quadrature_oracle(grid5, cal5, f05):
    # f0(R) = (1 - e^{1/r*} E1(1/r*)) (R - A) + integral of e^x E1(x) du
    # over u = ln x from ln(1/A) to ln(1/R), by adaptive quadrature
    r_star = cal5.r_star
    A = grid5.threshold
    slope = 1.0 - np.exp(1.0 / r_star) * special.exp1(1.0 / r_star)

    def integrand(u):
        x = np.exp(u)
        return np.exp(x) * special.exp1(x)

    for i in (0, 1, 4, 250, grid5.r_star_index, 700, 1200, 1900, grid5.n - 2):
        R = float(grid5.nodes[i])
        integral, _ = integrate.quad(
            integrand, np.log(1.0 / A), np.log(1.0 / R), epsabs=1e-14, epsrel=1e-13, limit=200
        )
        assert f05[i] == pytest.approx(slope * (R - A) + integral, abs=1e-12)


def test_solve_identity_at_lambda_zero(kernel5, f05):
    f = solve_f_lambda(kernel5, f05, 0.0)
    assert np.array_equal(f, f05)
    f[0] = 123.0
    assert f05[0] != 123.0  # returned array is a copy


def test_solve_residual_bound_and_boundary(kernel5, dense5, f05):
    f = solve_f_lambda(kernel5, f05, 1.0)
    n = f05.size
    M = np.eye(n) + 1.0 * dense5
    resid = np.max(np.abs(M @ f - f05))
    assert resid <= 1e-8 * max(np.max(np.abs(f05)), 1.0)
    assert abs(f[-1]) <= 1e-10


def test_solve_rejects_bad_lambda_and_shape(kernel5, f05):
    with pytest.raises(ValueError):
        solve_f_lambda(kernel5, f05, -0.5)
    with pytest.raises(ValueError):
        solve_f_lambda(kernel5, f05[:-1], 1.0)
    with pytest.raises(ValueError):
        kernel5.apply(f05[:-1])


def test_singular_system_reported():
    # generators of P = -I: only the diagonal is nonzero
    grid = make_grid(0.5, 1.0, 1.0, 5)
    gens = np.zeros((5, 5))
    gens[1] = -1.0
    ker = KernelMatrix(P=gens, grid=grid)
    assert np.array_equal(_expand(ker), -np.eye(5))
    with pytest.raises(SingularSystemError):
        solve_f_lambda(ker, np.ones(5), 1.0)


def test_large_grid_memory_stays_linear(cal5):
    n = 65537
    grid = make_grid(2e-3, cal5.r_star, 5.0, n)
    ker = assemble_kernel(grid, cal5.r_star, 5.0)
    assert ker.P.nbytes <= 64 * n
    f0 = assemble_f0_vector(grid, cal5.r_star, 5.0)
    f = solve_f_lambda(ker, f0, 1.0)  # raises unless the residual check passes
    assert np.all(np.isfinite(f))
    resid = np.max(np.abs(f + ker.apply(f) - f0))
    assert resid <= 1e-8 * max(np.max(np.abs(f0)), 1.0)


@pytest.mark.parametrize("r_min", [1e-3, 5e-4])
def test_small_r_min_neither_overflows_nor_goes_invalid(cal5, r_min):
    with np.errstate(over="raise", invalid="raise"):
        grid = make_grid(r_min, cal5.r_star, 5.0, 2001)
        ker = assemble_kernel(grid, cal5.r_star, 5.0)
        f0 = assemble_f0_vector(grid, cal5.r_star, 5.0)
        f = solve_f_lambda(ker, f0, 1.0)
    assert np.all(np.isfinite(ker.P))
    assert np.all(np.isfinite(f))


def test_lambda_continuity(kernel5, f05):
    lam, delta = 1.0, 1e-4
    f_a = solve_f_lambda(kernel5, f05, lam)
    f_b = solve_f_lambda(kernel5, f05, lam + delta)
    assert np.max(np.abs(f_b - f_a)) <= 1e-2 * np.max(np.abs(f_a))


def test_truncation_insensitivity(cal5):
    vals = {}
    for r_min in (2e-3, 1e-3):
        grid = make_grid(r_min, cal5.r_star, 5.0, 2001)
        f0 = assemble_f0_vector(grid, cal5.r_star, 5.0)
        ker = assemble_kernel(grid, cal5.r_star, 5.0)
        f = solve_f_lambda(ker, f0, 0.5)
        vals[r_min] = f[grid.r_star_index]
    assert vals[1e-3] == pytest.approx(vals[2e-3], rel=1e-3)


def test_sweep_small_domain_sign_and_zero_row():
    gamma = 2.0
    cal = calibrate(gamma)
    grid = make_grid(5e-3, cal.r_star, gamma, 301)
    lams = np.linspace(0.0, 10.0, 6)[1:]
    sweep = sweep_lambda(grid, cal.r_star, gamma, lams)
    assert sweep.failures == []
    assert sweep.lambdas[0] == 0.0 and sweep.lambdas.size == 6
    assert sweep.values[0] == cal.residual
    assert np.all(sweep.values[1:] < 0.0)


def test_sweep_validates_lambda_grid(grid5, cal5):
    with pytest.raises(ValueError):
        sweep_lambda(grid5, cal5.r_star, 5.0, [0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        sweep_lambda(grid5, cal5.r_star, 5.0, [-1.0, 1.0])
    with pytest.raises(ValueError):
        sweep_lambda(grid5, cal5.r_star, 5.0, [])


@pytest.mark.parametrize("lam,bound", [(0.0, 1e-2), (1.0, 1e-2)])
def test_ode_residual_small_on_canonical_grid(kernel5, grid5, f05, cal5, lam, bound):
    f = solve_f_lambda(kernel5, f05, lam)
    resid = ode_residual(f, grid5, lam, cal5.r_star, 5.0)
    assert resid <= bound


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_ode_residual_second_order_refinement(cal5, lam):
    resids = {}
    for n in (2001, 4001):
        grid = make_grid(2e-3, cal5.r_star, 5.0, n)
        f0 = assemble_f0_vector(grid, cal5.r_star, 5.0)
        ker = assemble_kernel(grid, cal5.r_star, 5.0)
        f = solve_f_lambda(ker, f0, lam)
        resids[n] = ode_residual(f, grid, lam, cal5.r_star, 5.0)
    ratio = resids[2001] / resids[4001]
    assert 2.5 <= ratio <= 4.8
