"""Monte Carlo engine for the detection statistic.

The statistic starts at r*, alarms at A = r* + gamma, and evolves through
the log-likelihood-ratio increment of the observations,

    du = -(mu^2/2) dt + mu dxi,

which has mean -(mu^2/2) dt before the change and +(mu^2/2) dt after.
One step applies the exact-in-du trapezoid update

    R' = e^du R + (dt/2) (e^du + 1),

whose key property is E[e^du] = 1 before the change for any mu and dt:
the chain then satisfies E[R_{k+1}] = E[R_k] + dt exactly, so the
identities E[R_T] = r* + E[T] and E[T] = gamma hold without any
discretization bias beyond threshold overshoot.

Paths are simulated in fixed-size chunks, each driven by its own
counter-based generator keyed by (seed, chunk index).  Within a chunk
the live paths advance in time blocks: a block draws the normals of
several steps at once, runs the recursion a step-row at a time, and
keeps the steps up to the first alarm, after which the alarmed paths
leave and the next block starts.  Each step uses the same normals and
the same float operations, in the same order, as stepping one step at a
time, so results are bit-identical for a given (seed, chunk_size, dt,
n_paths) whatever the block size, and do not depend on how many chunks
run or in what order they are reduced.

The noiseless mode replaces du by its information skeleton: du = 0
before the change (the likelihood ratio stays flat, so R_t = r* + t and
the alarm fires at exactly gamma steps' worth of time) and
du = +(mu^2/2) dt after it.  Note this is not the same as feeding zero
observation increments, which gives du = -(mu^2/2) dt and drives the
statistic to its fixed point near 1 without ever alarming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from srdetect.specfun import e1_scaled, g

SQRT2 = math.sqrt(2.0)

_REGIMES = ("pre_change", "post_change")
_KEY_MASK = (1 << 64) - 1


class HorizonCapError(RuntimeError):
    """Too many paths hit the time horizon for an unbiased estimate."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; the change-point regime is part of the config.

    regime:
        pre_change    change never happens (false alarms, and every
                      change point through the estimators' reweighting)
        post_change   change at t = 0 (the delay from a change at 0)
    """

    dt: float = 1e-3
    t_max: float | None = None
    seed: int = 0
    n_paths: int = 100_000
    drift_mu: float = SQRT2
    regime: str = "pre_change"
    noiseless: bool = False
    chunk_size: int = 16384

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if self.t_max is not None and not (np.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError("t_max must be positive when given")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if not (np.isfinite(self.drift_mu) and self.drift_mu != 0.0):
            raise ValueError("drift_mu must be nonzero and finite")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_err: float
    n_paths: int
    seed: int


@dataclass(frozen=True)
class MartingaleCheck:
    """The paired difference R_T - r* - T, zero in mean, and the overshoot."""

    difference: McEstimate
    mean_overshoot: float


@dataclass(frozen=True)
class SimBatch:
    """Vectorized per-path outputs of simulate_paths.

    int_g_disc, summed over the steps in step order, and the property
    int_disc, summed in closed form, carry one row per requested lambda:
    row j holds the left-point sums of e^{-lams[j] t} g(R_t) dt and of
    e^{-lams[j] t} dt over the K = stop_time/dt steps before the stop.
    """

    stop_time: np.ndarray
    stopped: np.ndarray
    r_at_stop: np.ndarray
    int_g_disc: np.ndarray
    lams: np.ndarray
    r_star: float
    gamma: float
    config: SimConfig = field(repr=False)

    @property
    def capped_fraction(self) -> float:
        return float(1.0 - np.mean(self.stopped))

    @property
    def int_disc(self) -> np.ndarray:
        """sum_{k<K} dt e^{-lam k dt} in closed form, one row per lambda."""
        dt = self.config.dt
        K = np.rint(self.stop_time / dt)
        x = self.lams[:, None] * dt
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, dt * np.expm1(-safe * K) / np.expm1(-safe), K * dt)


class _DelayTable:
    """Uniform-grid linear interpolant of g(R) on [0, A].

    g is near-linear at both ends (g(R) ~ g(0+) - R as R -> 0), so with
    2^17 cells the interpolation error is below 1e-9, far inside Monte
    Carlo noise.  Each cell stores its left value and its slope side by
    side, so a lookup gathers one row per point.
    """

    def __init__(self, r_star: float, gamma: float, n_cells: int = 1 << 17):
        A = r_star + gamma
        xs = np.linspace(0.0, A, n_cells + 1)
        vals = np.empty(n_cells + 1)
        vals[0] = e1_scaled(1.0 / A)
        vals[1:] = g(xs[1:], r_star, gamma)
        self._cells = np.column_stack((vals[:-1], np.diff(vals)))
        self._inv_h = n_cells / A
        self._n_cells = n_cells

    def lookup(self, R: np.ndarray) -> np.ndarray:
        frac = R * self._inv_h
        i = np.floor(frac)
        np.minimum(i, self._n_cells - 1, out=i)
        frac -= i
        cell = self._cells.take(i.astype(np.intp), axis=0)
        frac *= cell[..., 1]
        frac += cell[..., 0]
        return frac


def _chunk_sizes(n_paths: int, chunk_size: int) -> list[int]:
    sizes = [chunk_size] * (n_paths // chunk_size)
    if n_paths % chunk_size:
        sizes.append(n_paths % chunk_size)
    return sizes


# most path-steps one time block holds; the block's work arrays are a few
# times this many floats, whatever t_max/dt is
_BLOCK_CAP = 1 << 14


def _simulate_chunk(
    r_star: float,
    gamma: float,
    cfg: SimConfig,
    lams: np.ndarray,
    chunk_index: int,
    m: int,
    table: _DelayTable,
):
    """Simulate one chunk of m paths in time blocks of B steps.

    Step k reads one normal per live path, in path order, from the chunk's
    stream.  A block reads B such rows ahead and keeps the rows up to the
    first one in which a path crosses; the normals of the rows it drops
    are read again by the next block, which has fewer live paths.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed & _KEY_MASK, chunk_index], dtype=np.uint64))
    )
    A = r_star + gamma
    dt = cfg.dt
    half_drift = 0.5 * cfg.drift_mu * cfg.drift_mu * dt
    post = cfg.regime == "post_change"
    # du has mean -half_drift before the change and +half_drift after it;
    # the noiseless skeleton keeps only the post-change gain (du = 0 before)
    drift = half_drift if post else -half_drift
    e_skeleton = math.exp(half_drift) if post else 1.0
    sig = abs(cfg.drift_mu) * math.sqrt(dt)
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 * gamma
    n_steps = int(math.ceil(t_max / dt))
    n_lam = lams.size

    # compact state (alive paths only); idx maps back to output slots
    R = np.full(m, float(r_star))
    idx = np.arange(m)
    int_g_disc = np.zeros((n_lam, m))

    out_stop = np.full(m, n_steps * dt)
    out_stopped = np.zeros(m, dtype=bool)
    out_r = np.empty(m)
    out_int_g_disc = np.zeros((n_lam, m))

    # left-endpoint discount weights e^{-lam t} of step k, advanced by one
    # decay factor per step
    disc = np.ones(n_lam)
    decay = np.exp(-lams * dt)

    normals = np.empty(0)  # the stream from step k on starts at normals[pos]
    pos = 0
    k = 0
    B = 1
    while k < n_steps and R.size:
        n = R.size
        B = min(B, n_steps - k, max(1, _BLOCK_CAP // n))
        if cfg.noiseless:
            E = np.full((B, 1), e_skeleton)
        else:
            if normals.size - pos < B * n:
                fresh = rng.standard_normal(max(B * n, _BLOCK_CAP))
                normals = np.concatenate((normals[pos:], fresh))
                pos = 0
            E = sig * normals[pos : pos + B * n].reshape(B, n)
            E += drift
            np.exp(E, out=E)
        # one step: R' = e R + (dt/2)(e + 1), row j + 1 of H from row j
        C = E + 1.0
        C *= 0.5 * dt
        H = np.empty((B + 1, n))
        H[0] = R
        h = H[0]
        for e, c, h_next in zip(E, C, H[1:]):
            np.multiply(e, h, h_next)
            np.add(h_next, c, h_next)
            h = h_next
        above = H[1:] >= A
        hit = above.any(axis=1)
        J = int(hit.argmax()) + 1 if hit.any() else B

        # D[j] holds the discount weights of step k + j
        D = np.empty((J + 1, n_lam))
        D[0] = disc
        D[1:] = decay
        np.multiply.accumulate(D, axis=0, out=D)
        g_dt = table.lookup(H[:J])
        g_dt *= dt
        # row by row, so each path's sum runs in step order (a reduce
        # over the rows may sum pairwise)
        for s in D[:J, :, None] * g_dt[:, None, :]:
            np.add(int_g_disc, s, int_g_disc)
        pos += J * n
        k += J
        R = H[J]
        disc = D[J]

        if hit[J - 1]:
            crossed = above[J - 1]
            gone = idx[crossed]
            # t + dt at the alarm step t = (k - 1) dt; k dt can round otherwise
            out_stop[gone] = (k - 1) * dt + dt
            out_stopped[gone] = True
            out_r[gone] = R[crossed]
            out_int_g_disc[:, gone] = int_g_disc[:, crossed]
            keep = ~crossed
            R = R[keep]
            idx = idx[keep]
            int_g_disc = int_g_disc[:, keep]
            B = 2 * J
        else:
            B = 2 * B

    if R.size:
        out_r[idx] = R
        out_int_g_disc[:, idx] = int_g_disc

    return out_stop, out_stopped, out_r, out_int_g_disc


def simulate_paths(r_star: float, gamma: float, config: SimConfig, lams=(0.0,)) -> SimBatch:
    """Simulate config.n_paths trajectories until alarm or horizon.

    lams lists the discount rates for which the per-path discounted
    delay integrals are accumulated (one pass over the paths covers them
    all); the discounted clock int_disc follows from the stop step.
    """
    if not (np.isfinite(r_star) and r_star > 0.0):
        raise ValueError("r_star must be positive and finite")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lams must be a non-empty 1-d sequence")
    if np.any(lams < 0.0) or not np.all(np.isfinite(lams)):
        raise ValueError("discount rates must be nonnegative and finite")
    table = _DelayTable(r_star, gamma)
    parts = []
    for chunk_index, m in enumerate(_chunk_sizes(config.n_paths, config.chunk_size)):
        parts.append(_simulate_chunk(r_star, gamma, config, lams, chunk_index, m, table))
    cols = [np.concatenate([p[j] for p in parts], axis=-1) for j in range(4)]
    return SimBatch(
        stop_time=cols[0],
        stopped=cols[1],
        r_at_stop=cols[2],
        int_g_disc=cols[3],
        lams=lams,
        r_star=r_star,
        gamma=gamma,
        config=config,
    )


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return McEstimate(mean=float(np.mean(values)), std_err=se, n_paths=n, seed=seed)


def _lam_row(batch: SimBatch, lam: float) -> int:
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be nonnegative and finite")
    rows = np.flatnonzero(np.isclose(batch.lams, lam, rtol=0.0, atol=1e-15))
    if rows.size == 0:
        raise ValueError(f"batch has no discount rate {lam}")
    return int(rows[0])


def _require_pre_change(batch: SimBatch, what: str):
    if batch.config.regime != "pre_change":
        raise ValueError(f"{what} requires the pre_change regime, got {batch.config.regime}")


def _check_cap(batch: SimBatch, what: str):
    frac = batch.capped_fraction
    if frac > 1e-3:
        raise HorizonCapError(
            f"{what}: {frac:.2%} of paths hit the horizon (limit 0.10%); "
            "raise t_max or lower dt"
        )


def mc_mean_stop_time(batch: SimBatch) -> McEstimate:
    """Mean alarm time: gamma before the change, the delay g(r*) after it.

    Raises HorizonCapError when more than 0.1% of paths were capped,
    since capping biases the mean downward.
    """
    _check_cap(batch, "mc_mean_stop_time")
    return _estimate(batch.stop_time, batch.config.seed)


def mc_martingale_check(batch: SimBatch) -> MartingaleCheck:
    """Check E[R_stop] = r* + E[stop] on a pre-change batch.

    The identity holds exactly for the discrete chain even for capped
    paths (optional stopping at a bounded time), so no cap guard is
    needed; the paired difference should be zero within noise.
    """
    _require_pre_change(batch, "mc_martingale_check")
    difference = _estimate(batch.r_at_stop - batch.r_star - batch.stop_time, batch.config.seed)
    A = batch.r_star + batch.gamma
    if batch.stopped.any():
        mean_overshoot = float(np.mean(batch.r_at_stop[batch.stopped] - A))
    else:
        mean_overshoot = float("nan")
    return MartingaleCheck(difference=difference, mean_overshoot=mean_overshoot)


def mc_f_lambda(batch: SimBatch, lam: float) -> McEstimate:
    """Estimate E[integral_0^T e^{-lam t} (g(R_t) - g(r*)) dt] on a pre-change batch.

    This is the Monte Carlo twin of the solved perturbation value
    f_lam(r*): zero at lam = 0 by calibration, conjectured negative for
    lam > 0.  The batch must carry the discount rate lam.
    """
    _require_pre_change(batch, "mc_f_lambda")
    j = _lam_row(batch, lam)
    g_star = g(batch.r_star, batch.r_star, batch.gamma)
    values = batch.int_g_disc[j] - g_star * batch.int_disc[j]
    return _estimate(values, batch.config.seed)


def mc_delay_ratio(batch: SimBatch, r: float, lam: float) -> McEstimate:
    """Worst-case discounted delay ratio for prior parameters (r, lam).

    Estimates
        [r g(r*) + (1 - lam r) E int e^{-lam t} g(R_t) dt]
        / [r + (1 - lam r) E int e^{-lam t} dt]
    from a pre-change batch carrying the rate lam; at lam = 0 it is the
    equalized delay, equal to g(r*) for every r.  The standard error is
    the delta-method value for a ratio of correlated means.
    """
    _require_pre_change(batch, "mc_delay_ratio")
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError("r must be nonnegative and finite")
    if lam * r > 1.0:
        raise ValueError("need lam * r <= 1 for a proper prior")
    j = _lam_row(batch, lam)
    g_star = g(batch.r_star, batch.r_star, batch.gamma)
    w = 1.0 - lam * r
    num = r * g_star + w * batch.int_g_disc[j]
    den = r + w * batch.int_disc[j]
    num_mean = float(np.mean(num))
    den_mean = float(np.mean(den))
    ratio = num_mean / den_mean
    n = num.size
    cov = np.cov(num, den, ddof=1)
    var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]) / n
    se = math.sqrt(max(var, 0.0)) / abs(den_mean)
    return McEstimate(mean=ratio, std_err=se, n_paths=n, seed=batch.config.seed)


def detect_stream(increments, r_star: float, gamma: float) -> tuple[bool, float, float]:
    """Run the detector over an iterable of (dt, dxi) records.

    dxi is the raw observation increment in units where the post-change
    drift is sqrt(2); the log-likelihood increment is du = -dt + sqrt(2) dxi.
    Returns (stopped, t, R): at the first alarm, with no record after it
    read, or with stopped=False once the stream is exhausted.  Malformed
    records raise ValueError naming the record.
    """
    if not (np.isfinite(r_star) and r_star > 0.0):
        raise ValueError("r_star must be positive and finite")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    A = r_star + gamma
    R = float(r_star)
    t = 0.0
    for recno, rec in enumerate(increments, start=1):
        try:
            dt_k, dxi_k = rec
            dt_k = float(dt_k)
            dxi_k = float(dxi_k)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"record {recno}: expected a (dt, dxi) pair") from exc
        if not (math.isfinite(dt_k) and dt_k > 0.0):
            raise ValueError(f"record {recno}: dt must be positive and finite")
        if not math.isfinite(dxi_k):
            raise ValueError(f"record {recno}: dxi must be finite")
        e = math.exp(-dt_k + SQRT2 * dxi_k)
        R = e * R + 0.5 * dt_k * (e + 1.0)
        t += dt_k
        if R >= A:
            return True, t, R
    return False, t, R
