"""Path simulation: exact chain identities, regimes, and estimators.

The strongest checks here are deterministic: the noiseless skeleton
alarms at exactly gamma, and the library, which steps its paths in time
blocks from noise a helper thread fills ahead in slabs, must match the
per-step loop below, reading g from a two-gather table, bit for bit at
any chunk, block and slab size.
"""

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srdetect import _checks, simulator
from srdetect.simulator import (
    SQRT2,
    HorizonCapError,
    SimConfig,
    _chunk_sizes,
    _DelayTable,
    _simulate_chunk,
    detect_stream,
    mc_f_lambda,
    mc_mean_stop_time,
    simulate_paths,
)
from srdetect.specfun import e1_scaled, g

R_STAR, GAMMA = 1.0707, 5.0
_kill_uniforms_real = simulator._kill_uniforms


def _grid_values(r_star, gamma):
    """g at the delay table's n_cells + 1 nodes on [0, A]."""
    A = r_star + gamma
    n_cells = simulator._TABLE_CELLS
    vals = np.empty(n_cells + 1)
    vals[0] = e1_scaled(1.0 / A)
    vals[1:] = g(np.linspace(0.0, A, n_cells + 1)[1:], r_star, gamma)
    return vals


def _two_gather_lookup(vals, A):
    """Linear interpolation reading the two cell ends, clamped to the last cell."""
    n_cells = vals.size - 1
    inv_h = n_cells / A

    def lookup(R):
        pos = R * inv_h
        i = np.minimum(pos.astype(np.int64), n_cells - 1)
        frac = pos - i
        return vals[i] + frac * (vals[i + 1] - vals[i])

    return lookup


def _reference_chunk(r_star, gamma, cfg, lams, chunk_index, m, lookup):
    """One step of every live path at a time, one draw of R.size normals per step.

    Like the engine, it runs at post-change drift sqrt(2).  A step stops a
    path when it crosses A on the grid, at the ln-R interpolation point,
    or when the bridge draw of a step with an end in the near band falls
    below the crossing probability, at mid-step; the last g term is
    weighted by the fraction of the step used.  The controls advance at
    every stride-th step and at the stop.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed & ((1 << 64) - 1), chunk_index], dtype=np.uint64))
    )
    A = r_star + gamma
    dt = cfg.dt
    half_drift = 0.5 * SQRT2 * SQRT2 * dt
    post = cfg.regime == "post_change"
    drift = half_drift if post else -half_drift
    e_skeleton = math.exp(half_drift) if post else 1.0
    sig = SQRT2 * math.sqrt(dt)
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 * gamma
    n_steps = int(math.ceil(t_max / dt))
    n_lam = lams.size
    a_near = A * math.exp(-math.sqrt(simulator._NEAR * sig * sig))
    kill_scale = -2.0 / (sig * sig)
    stride = simulator._stride(dt)
    degree = simulator._DEGREE
    if cfg.noiseless:
        coef = simulator._moment_powers(dt, math.log(e_skeleton), 0.0, stride)
    else:
        coef = simulator._moment_powers(dt, drift, sig * sig, stride)
        key = simulator._kill_key(cfg.seed, chunk_index)

    def moments(c, x):
        # Horner's rule from c[degree] on every row; the engine starts each
        # row at its leading coefficient and must give the same bits
        rows = []
        for p in range(degree):
            acc = c[degree, p] * x
            for l in range(degree - 1, 0, -1):
                acc = (acc + c[l, p]) * x
            rows.append(acc + c[0, p])
        return np.stack(rows)

    R = np.full(m, float(r_star))
    idx = np.arange(m)
    int_g_disc = np.zeros((n_lam, m))
    z = np.zeros((degree, n_lam, m))  # in slot order
    r_mark = np.full(m, float(r_star))  # in slot order

    out_step = np.full(m, n_steps)
    out_frac = np.ones(m)
    out_stopped = np.zeros(m, dtype=bool)
    out_r = np.empty(m)
    out_int_g_disc = np.zeros((n_lam, m))

    disc = np.ones(n_lam)
    decay = np.exp(-lams * dt)
    decay_stride = np.exp(-lams * (stride * dt))
    z_w = disc * decay_stride

    for k in range(n_steps):
        g_dt = lookup(R) * dt
        if cfg.noiseless:
            e = e_skeleton
        else:
            e = np.exp(drift + sig * rng.standard_normal(R.size))
        R_next = e * R + (0.5 * dt) * (e + 1.0)
        disc_next = disc * decay

        la = np.log(A / R)
        lb = np.log(A / R_next)
        crossed = R_next >= A
        stop = crossed.copy()
        if not cfg.noiseless:
            near = np.flatnonzero((R >= a_near) | (R_next >= a_near))
            p = np.exp(np.maximum(la[near] * lb[near], 0.0) * kill_scale)
            u = simulator._kill_uniforms(key, idx[near], np.int64(k))
            stop[near] |= u < p
        frac = np.where(crossed, la / np.where(crossed, la - lb, 1.0), 0.5)
        g_dt[stop] *= frac[stop]
        int_g_disc += disc[:, None] * g_dt[None, :]

        if (k + 1) % stride == 0:
            dz = moments(coef[0], R_next) - moments(coef[stride], r_mark[idx])
            z[:, :, idx] += z_w[:, None] * dz[:, None, :]
            r_mark[idx] = R_next
            z_w = disc_next * decay_stride
        R = R_next
        if stop.any():
            gone = idx[stop]
            out_step[gone] = k + 1
            out_frac[gone] = frac[stop]
            out_stopped[gone] = True
            out_r[gone] = R[stop]
            out_int_g_disc[:, gone] = int_g_disc[:, stop]
            if (k + 1) % stride:
                rest = stride - (k + 1) % stride
                dz = moments(coef[rest], R[stop]) - moments(coef[stride], r_mark[gone])
                z[:, :, gone] += z_w[:, None] * dz[:, None, :]
            keep = ~stop
            R = R[keep]
            idx = idx[keep]
            int_g_disc = int_g_disc[:, keep]
            if R.size == 0:
                break
        disc = disc_next

    if R.size:
        out_r[idx] = R
        out_int_g_disc[:, idx] = int_g_disc
        if n_steps % stride:
            rest = stride - n_steps % stride
            dz = moments(coef[rest], R) - moments(coef[stride], r_mark[idx])
            z[:, :, idx] += z_w[:, None] * dz[:, None, :]

    return out_step, out_frac, out_stopped, out_r, out_int_g_disc, z


_OUTPUTS = ("stop_step", "stop_frac", "stopped", "r_at_stop", "int_g_disc", "z")


def _chunks(simulate, r_star, gamma, cfg, lams):
    """The per-path outputs of every chunk of simulator._CHUNK paths, concatenated in order."""
    parts = [simulate(r_star, gamma, cfg, lams, c, m)
             for c, m in enumerate(_chunk_sizes(cfg.n_paths))]
    return [np.concatenate([p[j] for p in parts], axis=-1) for j in range(len(_OUTPUTS))]


def after_one_record(R, du, dt):
    """R after one detect_stream record whose log-likelihood increment is du."""
    _, t, out = detect_stream([(dt, (du + dt) / SQRT2)], R, GAMMA)
    assert t == dt
    return out


def test_step_statistic_formula_and_types():
    assert after_one_record(2.0, 0.0, 1e-3) == 2.0 + 1e-3
    assert after_one_record(1.0, np.log(2.0), 0.5) == pytest.approx(2.0 + 0.25 * 3.0)
    # bit for bit R' = e^du R + (dt/2)(e^du + 1), du = -dt + sqrt(2) dxi
    dt, dxi = 1e-3, 0.0371
    e = math.exp(-dt + SQRT2 * dxi)
    assert detect_stream([(dt, dxi)], 1.25, GAMMA)[2] == e * 1.25 + 0.5 * dt * (e + 1.0)
    stopped, t, R = detect_stream([(1e-3, -0.1)], 1.0, GAMMA)
    assert type(stopped) is bool and type(t) is float and type(R) is float


def test_step_statistic_rejects_bad_input():
    with pytest.raises(ValueError, match="record 1: dt"):
        detect_stream([(0.0, 0.0)], 1.0, GAMMA)
    with pytest.raises(ValueError, match="r_star"):
        detect_stream([(1e-3, 0.0)], -1.0, GAMMA)


@given(
    R=st.floats(0.0, 100.0, exclude_min=True),
    du=st.floats(-5.0, 5.0),
    dt=st.floats(1e-6, 1.0),
)
def test_step_statistic_positive_and_monotone(R, du, dt):
    out = after_one_record(R, du, dt)
    assert out > 0.0
    assert after_one_record(R + 1.0, du, dt) > out


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=0.0),
        dict(dt=math.inf),
        dict(t_max=0.0),
        dict(n_paths=0),
        dict(dt=-1e-3),
        dict(t_max=math.nan),
        dict(regime="bogus"),
        dict(regime="change_at"),
        dict(regime="random_prior"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_noiseless_skeleton_alarms_at_gamma():
    cfg = SimConfig(dt=1e-3, n_paths=3, noiseless=True)
    batch = simulate_paths(R_STAR, GAMMA, cfg)
    assert batch.stopped.all()
    assert np.allclose(batch.stop_time, GAMMA, rtol=0.0, atol=1e-9)
    assert np.all(batch.r_at_stop >= R_STAR + GAMMA)


def test_noiseless_post_change_alarms_early():
    cfg = SimConfig(dt=1e-3, n_paths=2, noiseless=True, regime="post_change")
    batch = simulate_paths(R_STAR, GAMMA, cfg)
    assert batch.stopped.all()
    assert np.all(batch.stop_time < GAMMA / 2)
    # deterministic: every path identical
    assert batch.stop_time[0] == batch.stop_time[1]


def test_bit_reproducible(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK", 256)
    cfg = SimConfig(dt=1e-3, seed=11, n_paths=700)
    a = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0, 1.0))
    b = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0, 1.0))
    assert np.array_equal(a.stop_time, b.stop_time)
    assert np.array_equal(a.r_at_stop, b.r_at_stop)
    assert np.array_equal(a.int_g_disc, b.int_g_disc)


# (r*, gamma, lams, config) cases for the bit-identity check; dt = 2e-3
# keeps the per-step oracle fast
_ENGINE_CASES = {
    "pre_change, 3 rates": (R_STAR, GAMMA, (0.0, 0.5, 2.0),
                            SimConfig(dt=2e-3, seed=3, n_paths=300)),
    "post_change, 1 rate": (R_STAR, GAMMA, (0.0,),
                            SimConfig(dt=2e-3, seed=4, n_paths=400, regime="post_change")),
    "noiseless": (R_STAR, GAMMA, (0.0, 1.0), SimConfig(dt=2e-3, n_paths=3, noiseless=True)),
    "noiseless post_change": (R_STAR, GAMMA, (0.5,),
                              SimConfig(dt=2e-3, n_paths=2, noiseless=True,
                                        regime="post_change")),
    "t_max capped": (1.524, 20.0, (0.0, 0.5),
                     SimConfig(dt=2e-3, seed=5, n_paths=200, t_max=3.0)),
    "1-path chunk": (R_STAR, GAMMA, (0.0, 0.5), SimConfig(dt=2e-3, seed=6, n_paths=1)),
    "chunk_size=1": (R_STAR, GAMMA, (0.0, 0.5), SimConfig(dt=2e-3, seed=7, n_paths=6)),
    "one rate, one live path": (R_STAR, GAMMA, (0.5,),
                                SimConfig(dt=2e-3, seed=8, n_paths=12)),
}
# paths per chunk of the cases that run several chunks; the others run
# at the default simulator._CHUNK
_CASE_CHUNKS = {"pre_change, 3 rates": 128, "chunk_size=1": 1}


@pytest.mark.parametrize("case", list(_ENGINE_CASES))
def test_blocked_engine_matches_per_step_loop_bitwise(case, monkeypatch):
    r_star, gamma, lams, cfg = _ENGINE_CASES[case]
    monkeypatch.setattr(simulator, "_CHUNK", _CASE_CHUNKS.get(case, simulator._CHUNK))
    lams = np.asarray(lams)
    lookup = _two_gather_lookup(_grid_values(r_star, gamma), r_star + gamma)
    ref = _chunks(lambda *a: _reference_chunk(*a, lookup), r_star, gamma, cfg, lams)
    table = _DelayTable(r_star, gamma)
    if case == "one rate, one live path":
        # the last path runs alone for a long stretch of steps
        last, second = np.sort(ref[0])[-2:][::-1]
        assert last - second > 500
    if case == "t_max capped":
        assert 0.0 < ref[2].mean() < 1.0
    step, frac, stopped, r_at_stop = ref[:4]
    killed = stopped & (r_at_stop < r_star + gamma)
    if cfg.noiseless:
        assert not killed.any()
    elif cfg.n_paths >= 200:
        # bridge kills at mid-step, grid crossings inside the step, and
        # stops between two marks of the controls
        assert killed.any() and np.all(frac[killed] == 0.5)
        assert np.any(stopped & ~killed & (frac < 1.0))
        assert np.any(stopped & (step % simulator._stride(cfg.dt) != 0))
    # slabs of one value and of seven, shorter than a row, so that rows
    # span many slabs, and the default slabs; crossed with blocks of one
    # step, the default blocks, and blocks four times larger.  A one-value
    # slab costs a thread hand-off per path-step, so it runs only on the
    # cases of a few paths.
    slabs = (1, 7, simulator._SLAB) if cfg.n_paths <= 12 else (7, simulator._SLAB)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for slab, cap in itertools.product(slabs, (1, simulator._BLOCK_CAP, 1 << 16)):
            monkeypatch.setattr(simulator, "_SLAB", slab)
            monkeypatch.setattr(simulator, "_BLOCK_CAP", cap)
            new = _chunks(lambda *a: _simulate_chunk(*a, table, pool), r_star, gamma, cfg, lams)
            for name, a, b in zip(_OUTPUTS, ref, new):
                assert a.dtype == b.dtype and np.array_equal(a, b), (slab, cap, name)


def _quadrature_moments(R, steps, dt, log_mean, log_var, nodes=30):
    """E[R_steps^p | R_0 = R], p = 1..d, by nested Gauss-Hermite quadrature over the du's."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    e = np.exp(log_mean + math.sqrt(log_var) * x)
    vals, weights = np.array([R]), np.array([1.0])
    for _ in range(steps):
        vals = (np.outer(vals, e) + 0.5 * dt * (e + 1.0)).ravel()
        weights = np.outer(weights, w).ravel()
    return np.array([weights @ vals**p for p in range(1, simulator._DEGREE + 1)])


@pytest.mark.parametrize("regime_sign", [-1.0, 1.0])
def test_moment_matrix_powers_are_the_chain_moments(regime_sign):
    dt, sig2 = 1e-3, 2e-3
    log_mean = regime_sign * 0.5 * sig2
    stride = simulator._stride(dt)
    d = simulator._DEGREE
    table = simulator._moment_powers(dt, log_mean, sig2, stride)
    assert d == 6 and table.shape == (stride + 1, d + 1, d)
    for steps in (1, 2):
        for R in (0.3, 2.0, 6.0):
            powers = R ** np.arange(d + 1)
            assert np.allclose(powers @ table[steps],
                               _quadrature_moments(R, steps, dt, log_mean, sig2),
                               rtol=1e-12, atol=0.0)
    # the stride's matrix is the stride-fold product of the one-step matrix
    P = np.column_stack([np.eye(d + 1)[:, 0], table[1]])
    assert np.allclose(table[stride], np.linalg.matrix_power(P, stride)[:, 1:],
                       rtol=1e-13, atol=0.0)
    assert np.array_equal(table[0], np.eye(d + 1)[:, 1:])
    if regime_sign < 0.0:
        # E[R_{k+r} | R_k] = R_k + r dt before the change
        assert np.allclose(table[stride][:2, 0], [stride * dt, 1.0], rtol=1e-13)


@pytest.mark.parametrize("stride_time", [simulator._Z_STRIDE, 1e-9])
def test_first_control_at_rate_zero_is_the_martingale_difference(stride_time, monkeypatch):
    # with a stride of one step, and with the default one, Z_{1,0}
    # telescopes to R_K - r* - K dt, including the paths capped at t_max
    monkeypatch.setattr(simulator, "_Z_STRIDE", stride_time)
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=2000, t_max=1.5)
    batch = simulate_paths(0.7868, 2.0, cfg, lams=(0.0, 1.0))
    assert 0.0 < batch.capped_fraction < 1.0 and batch.killed_fraction > 0.0
    diff = batch.r_at_stop - batch.r_star - batch.stop_step * cfg.dt
    assert np.allclose(batch.z[0, 0], diff, rtol=0.0, atol=1e-11)


@pytest.fixture(scope="module")
def cv_batch():
    cfg = SimConfig(dt=1e-3, seed=21, n_paths=20_000)
    return simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0, 0.5, 8.0))


def test_controls_have_mean_zero(cv_batch):
    z = cv_batch.z
    assert z.shape == (6, 3, 20_000)
    mean = z.mean(axis=2)
    se = z.std(axis=2, ddof=1) / math.sqrt(z.shape[2])
    assert np.all(np.abs(mean) <= 4.0 * se), mean / se


def test_control_variate_estimate_agrees_with_plain_mean(cv_batch):
    g_star = g(R_STAR, R_STAR, GAMMA)
    for j, lam in enumerate(cv_batch.lams):
        plain = cv_batch.int_g_disc[j] - g_star * cv_batch.int_disc[j]
        plain_se = np.std(plain, ddof=1) / math.sqrt(plain.size)
        est = mc_f_lambda(cv_batch, lam)
        assert abs(est.mean - np.mean(plain)) <= 4.0 * plain_se
        # the controls carry nearly all of the variance
        assert est.std_err < plain_se / 25.0
        assert est.variance_ratio == pytest.approx((plain_se / est.std_err) ** 2, rel=1e-3)


def test_control_variate_estimate_ignores_the_scale_of_a_control(cv_batch):
    # the fit scales each centred control to unit RMS, so one control taken
    # 1e6 times larger leaves the estimate as it is
    for p in (0, simulator._DEGREE - 1):
        z = cv_batch.z.copy()
        z[p] *= 1e6
        scaled = replace(cv_batch, z=z)
        for lam in cv_batch.lams:
            est, est_scaled = mc_f_lambda(cv_batch, lam), mc_f_lambda(scaled, lam)
            assert est_scaled.mean == pytest.approx(est.mean, rel=1e-9, abs=0.0), (p, lam)
            assert est_scaled.std_err == pytest.approx(est.std_err, rel=1e-9, abs=0.0), (p, lam)


def test_kill_draws_follow_the_bridge_formula(monkeypatch):
    A, dt = 6.0, 1e-3
    sig2 = 2.0 * dt
    a_near = A * math.exp(-math.sqrt(simulator._NEAR * sig2))
    rng = np.random.default_rng(0)
    lo = rng.uniform(0.8 * a_near, A, 2000)
    hi = rng.uniform(0.8 * a_near, A, 2000)
    H = np.stack([lo, hi])
    p = np.exp(-2.0 * np.log(A / lo) * np.log(A / hi) / sig2)
    in_band = (lo >= a_near) | (hi >= a_near)
    assert 0.5 < in_band.mean() < 0.9 and np.max(p[~in_band]) < 3e-20
    key = simulator._kill_key(3, 0)
    for q in (0.3, 2.0**-54):
        # every draw equal to q: a step stops when q < p, at mid-step
        monkeypatch.setattr(simulator, "_kill_uniforms",
                            lambda key, slots, steps: np.full(np.broadcast(slots, steps).shape, q))
        J, cols, frac = simulator._first_stops(H, A, a_near, -2.0 / sig2, key, np.arange(2000), 0)
        assert J == 1 and np.all(frac == 0.5)
        assert np.array_equal(cols, np.flatnonzero(in_band & (q < p)))
    # no draw is below 2^-54, so a step with both ends under a_near
    # (probability under 3e-20) never stops a path
    slots, steps = np.arange(1000), np.arange(200)[:, None]
    u = _kill_uniforms_real(key, slots, steps)
    assert u.shape == (200, 1000) and u.min() >= 2.0**-54 and u.max() < 1.0


def test_kill_uniforms_are_uniform_and_independent_across_steps():
    key = simulator._kill_key(7, 2)
    u = simulator._kill_uniforms(key, np.arange(2000), np.arange(100)[:, None])
    n = u.size
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / n)
    counts = np.histogram(u, bins=20, range=(0.0, 1.0))[0]
    chi2 = np.sum((counts - n / 20) ** 2 / (n / 20))
    assert chi2 < 50.0  # 19 degrees of freedom; p ~ 1e-4
    # consecutive steps of a path, and neighbouring paths, are uncorrelated
    for a, b in ((u[1:], u[:-1]), (u[:, 1:], u[:, :-1])):
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < 4.0 / math.sqrt(a.size)
    # another chunk or seed gives other draws
    other = simulator._kill_uniforms(simulator._kill_key(7, 3), np.arange(2000), np.int64(0))
    assert not np.any(other == u[0])


class _NumpyWith:
    """numpy with some of its functions replaced, for one module's view of it."""

    def __init__(self, **funcs):
        self.__dict__.update(funcs)

    def __getattr__(self, name):
        return getattr(np, name)


def test_first_stops_return_the_first_row_with_a_kill(monkeypatch):
    key = simulator._kill_key(5, 1)
    slots = np.array([0, 1, 7, 4095, 2**31 - 1, 12, 3, 999, 40, 41])
    k = 500
    u = _kill_uniforms_real(key, slots, np.arange(k, k + 3)[:, None])
    # columns 0-2 hold p = 2^-54 (no draw is below it), 0 and 1 (every
    # draw is below it), columns 3 and 7 p = u; kills come in the first
    # row that is not zeroed out, or in none
    p = u * np.array([0.5, 1.0, 1.5, 1.0, 2.0, 0.9, 1.1, 1.0, 3.0, 0.2])
    p[:, :3] = [2.0**-54, 0.0, 1.0]
    # a block of three rows, all in the near band and below A; the
    # simulator's np.exp, which turns the bridge exponents into crossing
    # probabilities, writes q instead
    A = 6.0
    H = np.full((4, slots.size), 5.9)
    for first in range(4):
        q = p.copy()
        q[:first] = 0.0
        monkeypatch.setattr(simulator, "np", _NumpyWith(exp=lambda x, out: np.copyto(out, q)))
        J, cols, frac = simulator._first_stops(H, A, 0.0, -1.0, key, slots, np.int64(k))
        monkeypatch.undo()
        if first == 3:
            assert (J, cols, frac) == (3, None, None)
            continue
        assert J - 1 == first
        assert np.array_equal(cols, np.flatnonzero(u[first] < q[first]))
        assert np.all(frac == 0.5)
        # p = 1 always kills; p = 2^-54, p = 0 and p = u never do
        assert 2 in cols and not {0, 1, 3} & set(cols.tolist())


@pytest.mark.parametrize("cols", [[], [0], [5], [11], [0, 11], [2, 3, 7], list(range(0, 12, 2))
                                  + [11, 3, 5, 7], list(range(12))])
def test_without_drops_the_columns_and_keeps_the_order(cols):
    cols = np.array(sorted(cols), dtype=np.intp)
    keep = np.ones(12, dtype=bool)
    keep[cols] = False
    for a in (np.arange(12.0), np.arange(12), np.arange(72.0).reshape(3, 2, 12)):
        out = simulator._without(a, cols)
        assert out.dtype == a.dtype and np.array_equal(out, a[..., keep])


def test_delay_table_matches_two_gather_formula_bitwise():
    for r_star, gamma in ((R_STAR, GAMMA), (1.524, 20.0)):
        A = r_star + gamma
        table = _DelayTable(r_star, gamma)
        ref = _two_gather_lookup(_grid_values(r_star, gamma), A)
        interior = np.random.default_rng(0).uniform(0.0, A, 10_000)
        # R = A lands on the last node, where the cell index is clamped
        edges = np.array([0.0, np.nextafter(A, 0.0), A])
        for R in (interior, edges, interior.reshape(100, 100)):
            assert np.array_equal(table.lookup(R), ref(R))


def test_helper_thread_is_joined_on_return_and_on_error(monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK", 128)
    cfg = SimConfig(dt=1e-2, seed=2, n_paths=300)
    start = threading.active_count()
    simulate_paths(R_STAR, GAMMA, cfg)
    assert threading.active_count() == start

    # a block of the first chunk fails while the helper is running
    lookup = _DelayTable.lookup
    alive = []

    def failing_lookup(self, R):
        alive.append(threading.active_count())
        if len(alive) == 20:
            raise RuntimeError("lookup failed")
        return lookup(self, R)

    monkeypatch.setattr(_DelayTable, "lookup", failing_lookup)
    with pytest.raises(RuntimeError, match="lookup failed"):
        simulate_paths(R_STAR, GAMMA, cfg)
    assert alive[-1] == start + 1
    assert threading.active_count() == start


def test_noiseless_run_starts_no_thread(monkeypatch):
    def no_start(self):
        raise AssertionError("a thread was started")

    start = threading.active_count()
    def no_draw(*args):
        raise AssertionError("a bridge kill was drawn")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    monkeypatch.setattr(simulator, "_kill_uniforms", no_draw)
    batch = simulate_paths(R_STAR, GAMMA, SimConfig(dt=1e-2, n_paths=5, noiseless=True))
    assert batch.stopped.all() and batch.killed_fraction == 0.0
    assert threading.active_count() == start


@pytest.mark.parametrize("cap", [64, simulator._BLOCK_CAP])
def test_chunk_draws_at_most_twice_the_normals_it_uses(cap, monkeypatch):
    drawn = []
    generator = np.random.Generator

    class Counting:
        """The chunk's generator, counting the normals it draws."""

        def __init__(self, bit_generator):
            self._rng = generator(bit_generator)
            self._i = len(drawn)
            drawn.append(0)

        def standard_normal(self, *, out):
            drawn[self._i] += out.size
            return self._rng.standard_normal(out=out)

    monkeypatch.setattr(simulator, "_BLOCK_CAP", cap)
    monkeypatch.setattr(simulator, "_CHUNK", 1)
    monkeypatch.setattr(simulator.np.random, "Generator", Counting)
    cfg = SimConfig(dt=1e-3, seed=9, n_paths=30)
    batch = simulate_paths(R_STAR, GAMMA, cfg)
    used = batch.stop_step
    assert len(drawn) == cfg.n_paths
    assert np.all(used <= drawn) and np.all(drawn <= 2 * used + cap)


def test_martingale_identity_within_noise():
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=4000)
    name, est, target, ok = _checks.martingale(simulate_paths(0.7868, 2.0, cfg))
    assert (name, target, ok) == ("martingale", 0.0, True)
    assert est.std_err > 0.0


def test_martingale_identity_survives_truncation():
    # optional stopping at a bounded time: capped paths do not bias it
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=5000, t_max=1.0)
    batch = simulate_paths(0.7868, 2.0, cfg)
    assert batch.capped_fraction > 0.2
    assert _checks.martingale(batch)[3]


def test_horizon_cap_guard():
    cfg = SimConfig(dt=1e-3, seed=2, n_paths=2000, t_max=2.0)
    with pytest.raises(HorizonCapError):
        mc_mean_stop_time(simulate_paths(R_STAR, GAMMA, cfg))


def test_post_change_delay_equals_stop_time():
    # with the change at t = 0 every alarm is a detection, and the mean
    # stop time is the detection delay
    cfg = SimConfig(dt=1e-3, seed=4, n_paths=200, regime="post_change")
    batch = simulate_paths(R_STAR, GAMMA, cfg)
    assert batch.stopped.all()
    est = mc_mean_stop_time(batch)
    assert est.mean == np.mean(batch.stop_time)
    assert (est.n_paths, est.seed) == (200, 4)


def test_discounted_integrals_ordered_and_consistent():
    cfg = SimConfig(dt=1e-3, seed=6, n_paths=400)
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0, 1.0, 4.0))
    # lam = 0 row is the undiscounted clock
    assert np.allclose(batch.int_disc[0], batch.stop_time, rtol=0.0, atol=1e-9)
    # heavier discount -> strictly less mass, path by path
    assert np.all(batch.int_disc[0] > batch.int_disc[1])
    assert np.all(batch.int_disc[1] > batch.int_disc[2])


def test_int_disc_closed_form_matches_direct_sum():
    # t_max = 1 caps a share of the paths, whose K is the horizon step;
    # the others stop inside step K, after the fraction stop_frac of it
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=1000, t_max=1.0)
    lams = (0.0, 0.5, 4.0, 50.0)
    batch = simulate_paths(0.7868, 2.0, cfg, lams=lams)
    assert 0.2 < batch.capped_fraction < 1.0
    K, frac = batch.stop_step, batch.stop_frac
    assert np.all(frac[~batch.stopped] == 1.0)
    assert np.all((0.0 < frac) & (frac <= 1.0)) and np.mean(frac[batch.stopped] < 1.0) > 0.5
    assert np.array_equal(batch.stop_time, (K - 1 + frac) * cfg.dt)
    for j, lam in enumerate(lams):
        terms = cfg.dt * np.exp(-lam * cfg.dt * np.arange(K.max()))
        direct = np.concatenate([[0.0], np.cumsum(terms)])[K - 1] + frac * terms[K - 1]
        assert np.allclose(batch.int_disc[j], direct, rtol=1e-11, atol=0.0)


def test_simulate_paths_validation():
    cfg = SimConfig(n_paths=10)
    with pytest.raises(ValueError):
        simulate_paths(0.0, GAMMA, cfg)
    with pytest.raises(ValueError):
        simulate_paths(R_STAR, -1.0, cfg)
    with pytest.raises(ValueError):
        simulate_paths(R_STAR, GAMMA, cfg, lams=())
    with pytest.raises(ValueError):
        simulate_paths(R_STAR, GAMMA, cfg, lams=(-1.0,))


def test_estimators_require_matching_batch():
    cfg = SimConfig(dt=1e-3, seed=7, n_paths=300)
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    with pytest.raises(ValueError, match="no discount rate"):
        mc_f_lambda(batch, 2.0)
    # the martingale check reads the control of rate 0
    rate_one = simulate_paths(R_STAR, GAMMA, replace(cfg, n_paths=20), lams=(1.0,))
    with pytest.raises(ValueError, match="no discount rate"):
        _checks.martingale(rate_one)
    # rates match exactly: 1e-16 reads its own row, not rate 0's
    pair = simulate_paths(R_STAR, GAMMA, replace(cfg, n_paths=20), lams=(0.0, 1e-16))
    assert simulator._lam_row(pair, 1e-16) == 1
    with pytest.raises(ValueError, match="no discount rate"):
        mc_f_lambda(pair, 1e-17)


def _cross_fit_reference(values, controls):
    """Least squares on each half of the paths, applied to the other half."""
    out = np.empty_like(values)
    for fit, use in ((0, 1), (1, 0)):
        X = np.column_stack([np.ones(values[fit::2].size), controls[:, fit::2].T])
        beta = np.linalg.lstsq(X, values[fit::2], rcond=None)[0][1:]
        out[use::2] = values[use::2] - controls[:, use::2].T @ beta
    return out


def test_estimators_read_r_star_gamma_and_seed_from_batch():
    cfg = SimConfig(dt=1e-3, seed=1, n_paths=300)
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    est = mc_f_lambda(batch, 0.0)
    assert est.seed == 1 and est.n_paths == 300
    g_star = g(R_STAR, R_STAR, GAMMA)
    plain = batch.int_g_disc[0] - g_star * batch.int_disc[0]
    # the cross-fitted control-variate mean of the plain values
    fitted = _cross_fit_reference(plain, batch.z[:, 0])
    assert est.mean == pytest.approx(np.mean(fitted), rel=1e-9, abs=1e-12)
    assert est.std_err == pytest.approx(np.std(fitted, ddof=1) / math.sqrt(300), rel=1e-9)
    assert est.variance_ratio == pytest.approx(np.var(plain) / np.var(fitted), rel=1e-9)
    mart = _checks.martingale(batch)[1]
    assert (mart.seed, mart.n_paths) == (1, 300)
    diff = batch.r_at_stop - R_STAR - batch.stop_step * cfg.dt
    assert mart.mean == pytest.approx(np.mean(diff), rel=0.0, abs=1e-11)
    assert mart.std_err == pytest.approx(np.std(diff, ddof=1) / math.sqrt(300), rel=1e-9)


def test_estimators_reject_post_change_batch():
    cfg = SimConfig(dt=1e-3, seed=7, n_paths=50, regime="post_change")
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    for call in (
        lambda: mc_f_lambda(batch, 0.0),
        lambda: _checks.martingale(batch),
    ):
        with pytest.raises(ValueError, match="requires the pre_change regime"):
            call()


def test_f_lambda_zero_is_centered_and_equalizer_flat():
    cfg = SimConfig(dt=1e-3, seed=7, n_paths=2000)
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    f_row = _checks.flambda(batch, 0.0)
    assert f_row[0] == "flambda(lambda=0)" and f_row[3]
    # D(r) = (r g* + mean int g) / (r + mean T), the delay ratio of a head
    # start r, is g* + f_0 / (r + mean T) on the same paths, with f_0 the
    # plain lambda = 0 mean: the identity the equalizer rows rest on
    g_star = g(R_STAR, R_STAR, GAMMA)
    t_bar = np.mean(batch.stop_time)
    f0_plain = np.mean(batch.int_g_disc[0] - g_star * batch.int_disc[0])
    rows = _checks.equalizer(batch)
    assert len(rows) == 3
    for r, (name, est, target, ok) in zip((0.0, R_STAR, 3.0), rows):
        ratio = (r * g_star + np.mean(batch.int_g_disc[0])) / (r + t_bar)
        assert ratio == pytest.approx(g_star + f0_plain / (r + t_bar), rel=0.0, abs=1e-12)
        assert name == f"equalizer(r={r:g})" and target == g_star and ok == f_row[3]
        assert est.mean == pytest.approx(g_star + f_row[1].mean / (r + t_bar), rel=0.0, abs=1e-14)
        assert est.std_err == pytest.approx(f_row[1].std_err / (r + t_bar), rel=1e-12)


def test_run_path_single_outcome():
    cfg = SimConfig(dt=1e-3, seed=9, n_paths=1, regime="post_change")
    out = simulate_paths(R_STAR, GAMMA, cfg, lams=(1.0,))
    assert out.stopped.shape == (1,) and out.int_disc.shape == (1, 1)
    assert out.stopped[0]
    assert out.stop_time[0] > 0.0
    assert out.lams.tolist() == [1.0]
    assert 0.0 < out.int_disc[0, 0] < out.stop_time[0] + 1e-9


def test_detect_stream_skeleton_alarm():
    dt = 1e-3
    stream = [(dt, dt / SQRT2)] * 6000  # du = 0: statistic climbs by dt
    stopped, t, R = detect_stream(stream, R_STAR, GAMMA)
    assert stopped
    assert t == pytest.approx(GAMMA, abs=1e-9)
    assert R >= R_STAR + GAMMA


def test_detect_stream_reads_no_record_after_alarm():
    dt = 1e-3
    stream = iter([(dt, dt / SQRT2)] * 6000)
    stopped, t, _ = detect_stream(stream, R_STAR, GAMMA)
    assert stopped
    assert len(list(stream)) == 6000 - round(t / dt)


def test_detect_stream_zero_observations_decay_without_alarm():
    dt = 1e-3
    stopped, t, R = detect_stream([(dt, 0.0)] * 4000, R_STAR, GAMMA)
    assert not stopped
    assert t == pytest.approx(4.0)
    assert 0.9 < R < 1.1


def test_detect_stream_empty():
    assert detect_stream([], R_STAR, GAMMA) == (False, 0.0, R_STAR)


@pytest.mark.parametrize(
    "stream,msg",
    [
        ([(1e-3, 0.0), "bogus"], "record 2"),
        ([(0.0, 0.1)], "record 1: dt"),
        ([(1e-3, 0.0), (1e-3, 0.0), (1e-3, math.nan)], "record 3: dxi"),
    ],
)
def test_detect_stream_names_bad_record(stream, msg):
    with pytest.raises(ValueError, match=msg):
        detect_stream(stream, R_STAR, GAMMA)
