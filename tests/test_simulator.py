"""Path simulation: exact chain identities, regimes, and estimators.

The strongest checks here are deterministic: the noiseless skeleton
alarms at exactly gamma, and rescaling (mu, dt, r*, gamma) by a power
of two reproduces the same chain bit for bit at 4x the scale, because
every factor in the update is scaled by an exact float operation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srdetect.simulator import (
    SQRT2,
    HorizonCapError,
    SimConfig,
    detect_stream,
    mc_delay_ratio,
    mc_f_lambda,
    mc_martingale_check,
    mc_mean_stop_time,
    simulate_paths,
)
from srdetect.specfun import g

R_STAR, GAMMA = 1.0707, 5.0


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
        dict(chunk_size=0),
        dict(drift_mu=0.0),
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


def test_bit_reproducible():
    cfg = SimConfig(dt=1e-3, seed=11, n_paths=700, chunk_size=256)
    a = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0, 1.0))
    b = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0, 1.0))
    assert np.array_equal(a.stop_time, b.stop_time)
    assert np.array_equal(a.r_at_stop, b.r_at_stop)
    assert np.array_equal(a.int_g_disc, b.int_g_disc)


def test_power_of_two_rescaling_is_exact():
    # (mu, dt, r*, gamma) -> (mu/2, 4 dt, 4 r*, 4 gamma) doubles du's
    # scale parameters without changing the driving normals, so stop
    # times and stopped values come out exactly 4x, path by path.
    c1 = SimConfig(dt=1e-3, seed=11, n_paths=500, chunk_size=256, drift_mu=SQRT2)
    c2 = SimConfig(dt=4e-3, seed=11, n_paths=500, chunk_size=256, drift_mu=SQRT2 / 2)
    b1 = simulate_paths(R_STAR, GAMMA, c1)
    b2 = simulate_paths(4 * R_STAR, 4 * GAMMA, c2)
    assert np.array_equal(b2.stop_time, 4.0 * b1.stop_time)
    assert np.array_equal(b2.r_at_stop, 4.0 * b1.r_at_stop)


def test_martingale_identity_within_noise():
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=4000)
    chk = mc_martingale_check(simulate_paths(0.7868, 2.0, cfg))
    assert abs(chk.difference.mean) <= 4.0 * chk.difference.std_err
    assert chk.mean_overshoot > 0.0


def test_martingale_identity_survives_truncation():
    # optional stopping at a bounded time: capped paths do not bias it
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=5000, t_max=1.0)
    batch = simulate_paths(0.7868, 2.0, cfg)
    assert batch.capped_fraction > 0.2
    chk = mc_martingale_check(batch)
    assert abs(chk.difference.mean) <= 4.0 * chk.difference.std_err


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
    # t_max = 1 caps a share of the paths, whose K is the horizon step
    cfg = SimConfig(dt=1e-3, seed=5, n_paths=1000, t_max=1.0)
    lams = (0.0, 0.5, 4.0, 50.0)
    batch = simulate_paths(0.7868, 2.0, cfg, lams=lams)
    assert 0.2 < batch.capped_fraction < 1.0
    K = np.rint(batch.stop_time / cfg.dt).astype(int)
    for j, lam in enumerate(lams):
        terms = cfg.dt * np.exp(-lam * cfg.dt * np.arange(K.max()))
        direct = np.concatenate([[0.0], np.cumsum(terms)])[K]
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
    with pytest.raises(ValueError, match="no discount rate"):
        mc_delay_ratio(batch, 0.0, 2.0)
    with pytest.raises(ValueError, match="lam \\* r"):
        mc_delay_ratio(batch, 3.0, 1.0)
    with pytest.raises(ValueError, match="r must be"):
        mc_delay_ratio(batch, -1.0, 0.0)


def test_estimators_read_r_star_gamma_and_seed_from_batch():
    cfg = SimConfig(dt=1e-3, seed=1, n_paths=300)
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    est = mc_f_lambda(batch, 0.0)
    assert est.seed == 1 and est.n_paths == 300
    g_star = g(R_STAR, R_STAR, GAMMA)
    assert est.mean == np.mean(batch.int_g_disc[0] - g_star * batch.int_disc[0])
    assert mc_delay_ratio(batch, 0.0, 0.0).seed == 1
    assert mc_martingale_check(batch).difference.mean == np.mean(
        batch.r_at_stop - R_STAR - batch.stop_time
    )


def test_estimators_reject_post_change_batch():
    cfg = SimConfig(dt=1e-3, seed=7, n_paths=50, regime="post_change")
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    for call in (
        lambda: mc_f_lambda(batch, 0.0),
        lambda: mc_martingale_check(batch),
        lambda: mc_delay_ratio(batch, 0.0, 0.0),
    ):
        with pytest.raises(ValueError, match="requires the pre_change regime"):
            call()


def test_f_lambda_zero_is_centered_and_equalizer_flat():
    cfg = SimConfig(dt=1e-3, seed=7, n_paths=2000)
    batch = simulate_paths(R_STAR, GAMMA, cfg, lams=(0.0,))
    est = mc_f_lambda(batch, 0.0)
    assert abs(est.mean) <= 4.0 * est.std_err
    d0 = mc_delay_ratio(batch, 0.0, 0.0)
    d3 = mc_delay_ratio(batch, 3.0, 0.0)
    gap = abs(d0.mean - d3.mean)
    assert gap <= 4.0 * math.sqrt(d0.std_err**2 + d3.std_err**2)


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
