"""Headline acceptance checks at pinned tolerances.

Each criterion logs one PASS/FAIL line, so running this file prints a
compact scoreboard of the numbers the package is expected to reproduce:
the calibrated head starts, the asymptotic root, the sign of the
perturbation value across discount rates, the differential refinement
order, and the Monte Carlo agreement checks.

Heavy fixtures (lambda sweeps, 1e5-path batches) are module scoped and
shared across criteria; expect a few minutes of total runtime.
"""

import logging
import math
import time

import numpy as np
import pytest

from srdetect.calibration import asymptotic_r_star, calibrate
from srdetect.fredholm import (
    assemble_f0_vector,
    assemble_kernel,
    ode_residual,
    solve_f_lambda,
    sweep_lambda,
)
from srdetect.quadrature import make_grid
from srdetect.simulator import (
    SimConfig,
    mc_delay_ratio,
    mc_f_lambda,
    mc_martingale_check,
    mc_mean_stop_time,
    simulate_paths,
)
from srdetect.specfun import e1_scaled, ei_scaled, g
from test_specfun import oracle_e1_scaled, oracle_ei_scaled

LOG = logging.getLogger("acceptance")


def report(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num:>2} {label}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    LOG.info(line)
    assert ok, line


@pytest.fixture(scope="module")
def cal5():
    t0 = time.perf_counter()
    res = calibrate(5.0)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cal20():
    t0 = time.perf_counter()
    res = calibrate(20.0)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep5(cal5):
    res, _ = cal5
    grid = make_grid(2e-3, res.r_star, 5.0, 2001)
    lams = np.linspace(0.0, 10.0, 101)[1:]
    t0 = time.perf_counter()
    sweep = sweep_lambda(grid, res.r_star, 5.0, lams)
    return sweep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep20(cal20):
    res, _ = cal20
    grid = make_grid(2e-3, res.r_star, 20.0, 4001)
    lams = np.linspace(0.0, 10.0, 201)[1:]
    t0 = time.perf_counter()
    sweep = sweep_lambda(grid, res.r_star, 20.0, lams)
    return sweep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def batch5_pre(cal5):
    res, _ = cal5
    cfg = SimConfig(dt=1e-3, seed=42, n_paths=100_000)
    return simulate_paths(res.r_star, 5.0, cfg, lams=(0.0,)), cfg


@pytest.fixture(scope="module")
def batch20_pre(cal20):
    res, _ = cal20
    cfg = SimConfig(dt=1e-3, seed=42, n_paths=100_000)
    return simulate_paths(res.r_star, 20.0, cfg, lams=(0.0,)), cfg


@pytest.fixture(scope="module")
def batch_eq(cal5):
    # the equalizer comparison is boundary sensitive; run finer steps
    res, _ = cal5
    cfg = SimConfig(dt=1e-4, seed=77, n_paths=20_000)
    return simulate_paths(res.r_star, 5.0, cfg, lams=(0.0,)), cfg


@pytest.fixture(scope="module")
def batch_post(cal5):
    res, _ = cal5
    cfg = SimConfig(dt=2.5e-4, seed=42, n_paths=100_000, regime="post_change")
    return simulate_paths(res.r_star, 5.0, cfg, lams=(0.0,)), cfg


@pytest.fixture(scope="module")
def batch_f(cal5):
    res, _ = cal5
    cfg = SimConfig(dt=1.25e-4, seed=2024, n_paths=100_000)
    return simulate_paths(res.r_star, 5.0, cfg, lams=(0.5, 2.0, 8.0)), cfg


@pytest.fixture(scope="module")
def fred_vals(cal5):
    res, _ = cal5
    grid = make_grid(2e-3, res.r_star, 5.0, 2001)
    f0 = assemble_f0_vector(grid, res.r_star, 5.0)
    ker = assemble_kernel(grid, res.r_star, 5.0)
    return {
        lam: float(solve_f_lambda(ker, f0, lam)[grid.r_star_index])
        for lam in (0.5, 2.0, 8.0)
    }


def test_criterion_01_head_start_gamma5(cal5):
    res, sec = cal5
    dev = abs(res.r_star - 1.0707)
    ok = dev <= 5e-3 and sec < 5.0
    report(1, "calibrated head start, gamma=5", ok,
           f"r*={res.r_star:.6f} dev={dev:.1e} tol=5e-3, {sec:.2f}s")


def test_criterion_02_head_start_gamma20(cal20):
    res, sec = cal20
    dev = abs(res.r_star - 1.5240)
    ok = dev <= 5e-3 and sec < 5.0
    report(2, "calibrated head start, gamma=20", ok,
           f"r*={res.r_star:.6f} dev={dev:.1e} tol=5e-3, {sec:.2f}s")


def test_criterion_03_asymptotic_head_start():
    t0 = time.perf_counter()
    root = asymptotic_r_star()
    sec = time.perf_counter() - t0
    dev = abs(root - 2.299812)
    ok = dev <= 1e-5 and sec < 1.0
    report(3, "large-gamma limiting head start", ok,
           f"root={root:.6f} dev={dev:.1e} tol=1e-5, {sec:.2f}s")


def test_criterion_04_sign_sweep_gamma5(sweep5):
    sweep, sec = sweep5
    vals = sweep.values[sweep.lambdas > 0.0]
    n_neg = int(np.sum(vals < 0.0))
    ok = (
        vals.size == 100
        and bool(np.all(np.isfinite(vals)))
        and n_neg == vals.size
        and not sweep.failures
        and sec < 120.0
    )
    report(4, "f_lambda(r*) < 0 on 100 rates, gamma=5", ok,
           f"{n_neg}/{vals.size} negative, max={np.max(vals):.2e}, {sec:.1f}s")


def test_criterion_05_sign_sweep_gamma20(sweep20):
    sweep, sec = sweep20
    vals = sweep.values[sweep.lambdas > 0.0]
    n_neg = int(np.sum(vals < 0.0))
    ok = (
        vals.size == 200
        and bool(np.all(np.isfinite(vals)))
        and n_neg == vals.size
        and not sweep.failures
        and sec < 600.0
    )
    report(5, "f_lambda(r*) < 0 on 200 rates, gamma=20", ok,
           f"{n_neg}/{vals.size} negative, max={np.max(vals):.2e}, {sec:.1f}s")


def test_criterion_06_refinement_order(cal5):
    res, _ = cal5
    resids = {}
    for n in (2001, 4001):
        grid = make_grid(2e-3, res.r_star, 5.0, n)
        f0 = assemble_f0_vector(grid, res.r_star, 5.0)
        ker = assemble_kernel(grid, res.r_star, 5.0)
        f = solve_f_lambda(ker, f0, 1.0)
        resids[n] = ode_residual(f, grid, 1.0, res.r_star, 5.0)
    ratio = resids[2001] / resids[4001]
    ok = 3.0 <= ratio <= 5.0
    report(6, "differential residual refines at 2nd order", ok,
           f"resid 2001={resids[2001]:.2e}, 4001={resids[4001]:.2e}, ratio={ratio:.2f}")


def test_criterion_07_mean_time_to_alarm(batch5_pre, batch20_pre, cal5, cal20):
    parts, ok = [], True
    for gamma, (batch, cfg), (res, _) in (
        (5.0, batch5_pre, cal5),
        (20.0, batch20_pre, cal20),
    ):
        est = mc_mean_stop_time(res.r_star, gamma, cfg, paths=batch)
        tol = max(3.0 * est.std_err, 0.05 * gamma)
        dev = abs(est.mean - gamma)
        ok = ok and dev <= tol
        parts.append(f"gamma={gamma:g}: E[T]={est.mean:.4f} dev={dev:.3f} tol={tol:.3f}")
    report(7, "pre-change mean alarm time equals gamma", ok, "; ".join(parts))


def test_criterion_08_martingale_identity(batch5_pre, cal5):
    batch, cfg = batch5_pre
    res, _ = cal5
    chk = mc_martingale_check(res.r_star, 5.0, cfg, paths=batch)
    bound = 3.0 * chk.difference.std_err + chk.mean_overshoot
    ok = abs(chk.difference.mean) <= bound
    report(8, "E[R_T] = r* + E[T] within overshoot", ok,
           f"diff={chk.difference.mean:.4f} bound={bound:.4f} "
           f"(overshoot={chk.mean_overshoot:.4f})")


def test_criterion_09_equalized_delay(batch_eq, batch_post, cal5):
    res, _ = cal5
    g_star = g(res.r_star, res.r_star, 5.0)
    batch, cfg = batch_eq
    heads = (0.0, res.r_star, 3.0)
    ests = [mc_delay_ratio(r, 0.0, res.r_star, 5.0, cfg, paths=batch) for r in heads]
    ok = all(abs(e.mean - g_star) <= 3.0 * e.std_err for e in ests)
    for i in range(len(ests)):
        for j in range(i + 1, len(ests)):
            gap = abs(ests[i].mean - ests[j].mean)
            ok = ok and gap <= 3.0 * math.hypot(ests[i].std_err, ests[j].std_err)
    pb, pc = batch_post
    post = mc_mean_stop_time(res.r_star, 5.0, pc, paths=pb)
    rel = abs(post.mean - g_star) / g_star
    ok = ok and rel <= 0.02
    detail = (
        "D(r)=" + "/".join(f"{e.mean:.5f}" for e in ests)
        + f" vs g(r*)={g_star:.5f}; post-change E[T]={post.mean:.5f} rel={rel:.2%}"
    )
    report(9, "delay ratio is equalized across head starts", ok, detail)


def test_criterion_10_two_routes_agree(batch_f, fred_vals, cal5):
    batch, cfg = batch_f
    res, _ = cal5
    parts, ok = [], True
    for lam in (0.5, 2.0, 8.0):
        est = mc_f_lambda(res.r_star, 5.0, lam, cfg, paths=batch)
        z = (fred_vals[lam] - est.mean) / est.std_err
        ok = ok and abs(z) <= 2.576  # 99% two-sided
        parts.append(f"lam={lam:g}: solve={fred_vals[lam]:.5f} mc={est.mean:.5f} z={z:+.2f}")
    report(10, "solved f_lambda(r*) inside MC 99% CI", ok, "; ".join(parts))


def test_criterion_11_special_function_oracles():
    xs = np.logspace(-8, math.log10(600.0), 10_000)
    e1 = e1_scaled(xs)
    ref1 = np.array([float(oracle_e1_scaled(float(x))) for x in xs])
    err1 = float(np.max(np.abs(e1 - ref1) / ref1))

    xe = np.logspace(-8, math.log10(500.0), 10_000)
    ei = ei_scaled(xe)
    refe = np.array([float(oracle_ei_scaled(float(x))) for x in xe])
    scale = np.maximum(np.abs(refe), 1.0 / xe)
    erre = float(np.max(np.abs(ei - refe) / scale))

    lower = xs / (xs + 1.0)
    bracket = bool(np.all(lower < xs * e1) and np.all(xs * e1 < 1.0))
    ok = err1 <= 1e-12 and erre <= 1e-12 and bracket
    report(11, "scaled exponential integrals match oracles", ok,
           f"e1 rel={err1:.2e}, ei rel={erre:.2e}, bracketing={'ok' if bracket else 'BAD'}")
