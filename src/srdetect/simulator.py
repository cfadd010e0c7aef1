"""Monte Carlo engine for the detection statistic.

The statistic starts at r*, alarms at A = r* + gamma, and evolves through
the log-likelihood-ratio increment of the observations,

    du = -(mu^2/2) dt + mu dxi,

which has mean -(mu^2/2) dt before the change and +(mu^2/2) dt after.
The engine runs in the paper's units, mu = sqrt(2), as detect_stream
does.  One step applies the exact-in-du trapezoid update

    R' = e^du R + (dt/2) (e^du + 1),

whose key property is E[e^du] = 1 before the change for any mu and dt:
the chain then satisfies E[R_{k+1}] = E[R_k] + dt exactly, so
E[R_K] = r* + E[K] dt holds at the stop step K.

Watching the chain only at the grid points would alarm O(sqrt(dt)) late,
since ln R can cross ln A between two of them.  Each step therefore also
stops a path with the probability that a Brownian bridge of variance
mu^2 dt between the two ends of ln R crosses ln A (Gobet 2000), placed
at mid-step; a crossing on the grid is placed at its ln-R interpolation
point.  The stop time (K - 1 + theta) dt then carries the fraction theta
of the last step, and what remains of the bias is O(dt).

The chain's moments are exact too: E[R'^p | R] is a polynomial in R for
each p, so for p = 1..6 (_DEGREE) and each discount rate the engine
accumulates the martingales Z of R^p sampled every few steps, with mean
exactly zero by optional stopping.  They cost work only at those marks
and at the stops, never per path-step.  mc_f_lambda regresses on them as
control variates (Henderson and Glynn 2002).

Paths are simulated in fixed-size chunks, each driven by its own
counter-based generator keyed by (seed, chunk index).  Within a chunk
the live paths advance in time blocks: a block reads the step factors
e^du and (dt/2)(e^du + 1) of several steps at once, runs the recursion
a step-row at a time, and keeps the steps up to the first alarm, after
which the alarmed paths leave and the next block starts.

The step factors do not depend on the paths, so one helper thread
computes them ahead: it draws the chunk's normals into a ring of
preallocated slabs and forms the factors in place, while the main
thread updates the paths from an earlier slab.  numpy releases the
interpreter lock in the generator's fill and in the ufuncs, so the two
threads overlap.  Each step uses the same normals and the same float
operations, in the same order, as stepping one step at a time, so
results are bit-identical for a given (seed, dt, n_paths) whatever the
block size or the slab size, and do not depend on how many chunks run
or in what order they are reduced.  The bridge draws come from a
counter-based hash of (seed, chunk, path, step), made only on the few
steps with an end near A, so they leave the stream of normals as it is.

The noiseless mode replaces du by its information skeleton: du = 0
before the change (the likelihood ratio stays flat, so R_t = r* + t and
the alarm fires at exactly gamma steps' worth of time) and
du = +(mu^2/2) dt after it, and it makes no bridge draws.  Note this is
not the same as feeding zero observation increments, which gives
du = -(mu^2/2) dt and drives the statistic to its fixed point near 1
without ever alarming.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field, replace

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

    The post-change drift is sqrt(2), the paper's units, and the paths
    run in chunks of _CHUNK, so (seed, dt, n_paths) fix every path.

    regime:
        pre_change    change never happens (false alarms, and every
                      change point through the estimators' reweighting)
        post_change   change at t = 0 (the delay from a change at 0)
    """

    dt: float = 1e-3
    t_max: float | None = None
    seed: int = 0
    n_paths: int = 100_000
    regime: str = "pre_change"
    noiseless: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if self.t_max is not None and not (np.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError("t_max must be positive when given")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean and its standard error.

    variance_ratio is the plain per-path variance over the variance of the
    values averaged, the gain of any control variates (1 without them).
    """

    mean: float
    std_err: float
    n_paths: int
    seed: int
    variance_ratio: float = 1.0


@dataclass(frozen=True)
class SimBatch:
    """Vectorized per-path outputs of simulate_paths.

    A path stops in step K (1-based) after the fraction stop_frac of it, at
    stop_time = (K - 1 + stop_frac) dt; r_at_stop is the chain after step
    K, below A when the path stopped by a bridge crossing.  A path capped
    at the horizon has K = n_steps and stop_frac = 1.

    int_g_disc, summed over the steps in step order, and the property
    int_disc, summed in closed form, carry one row per requested lambda:
    row j holds the left-point sums of e^{-lams[j] t} g(R_t) dt and of
    e^{-lams[j] t} dt over the steps before the stop, the last weighted by
    stop_frac.  z[p - 1, j] holds the martingale control Z_{p, lams[j]}
    of R^p, p = 1.._DEGREE, with mean exactly zero.
    """

    stop_step: np.ndarray
    stop_frac: np.ndarray
    stopped: np.ndarray
    r_at_stop: np.ndarray
    int_g_disc: np.ndarray
    z: np.ndarray
    lams: np.ndarray
    r_star: float
    gamma: float
    config: SimConfig = field(repr=False)

    @property
    def stop_time(self) -> np.ndarray:
        return (self.stop_step - 1 + self.stop_frac) * self.config.dt

    @property
    def capped_fraction(self) -> float:
        return float(1.0 - np.mean(self.stopped))

    @property
    def killed_fraction(self) -> float:
        """Share of paths stopped by a bridge crossing, with the chain still below A."""
        return float(np.mean(self.stopped & (self.r_at_stop < self.r_star + self.gamma)))

    @property
    def int_disc(self) -> np.ndarray:
        """sum_{k<K-1} dt e^{-lam k dt} + stop_frac dt e^{-lam (K-1) dt}, one row per lambda."""
        dt = self.config.dt
        full = self.stop_step - 1
        x = self.lams[:, None] * dt
        safe = np.where(x > 0.0, x, 1.0)
        head = np.where(x > 0.0, dt * np.expm1(-safe * full) / np.expm1(-safe), full * dt)
        return head + self.stop_frac * dt * np.exp(-x * full)


# cells of the delay table on [0, A]
_TABLE_CELLS = 1 << 17


class _DelayTable:
    """Uniform-grid linear interpolant of g(R) on [0, A].

    g is near-linear at both ends (g(R) ~ g(0+) - R as R -> 0), so with
    2^17 cells the interpolation error is below 1e-9, far inside Monte
    Carlo noise.  Each cell stores its left value and its slope side by
    side, so a lookup gathers one row per point.
    """

    def __init__(self, r_star: float, gamma: float):
        A = r_star + gamma
        xs = np.linspace(0.0, A, _TABLE_CELLS + 1)
        vals = np.empty(_TABLE_CELLS + 1)
        vals[0] = e1_scaled(1.0 / A)
        vals[1:] = g(xs[1:], r_star, gamma)
        self._cells = np.column_stack((vals[:-1], np.diff(vals)))
        self._inv_h = _TABLE_CELLS / A

    def lookup(self, R: np.ndarray) -> np.ndarray:
        frac = R * self._inv_h
        i = np.floor(frac)
        np.minimum(i, _TABLE_CELLS - 1, out=i)
        frac -= i
        cell = self._cells.take(i.astype(np.intp), axis=0)
        frac *= cell[..., 1]
        frac += cell[..., 0]
        return frac


# paths per chunk, each chunk with its own stream of normals
_CHUNK = 16384


def _chunk_sizes(n_paths: int) -> list[int]:
    sizes = [_CHUNK] * (n_paths // _CHUNK)
    if n_paths % _CHUNK:
        sizes.append(n_paths % _CHUNK)
    return sizes


# most path-steps one time block holds; the block's work arrays are a few
# times this many floats, whatever t_max/dt is
_BLOCK_CAP = 1 << 14
# values of e^du, and as many of (dt/2)(e^du + 1), in one slab of the
# noise ring; its _N_SLABS slabs take 3 MB
_SLAB = 1 << 16
_N_SLABS = 3
# the martingale controls advance every round(_Z_STRIDE / dt) steps
_Z_STRIDE = 4e-3
# the controls are the martingales of R^p for p = 1.._DEGREE
_DEGREE = 6
# bridge draws are made on the steps with an end at or above
# A exp(-sqrt(_NEAR mu^2 dt)); below that the crossing probability is
# under exp(-2 _NEAR) < 3e-20
_NEAR = 22.5


def _stride(dt: float) -> int:
    return max(1, round(_Z_STRIDE / dt))


def _moment_powers(dt: float, log_mean: float, log_var: float, stride: int) -> np.ndarray:
    """Columns p = 1.._DEGREE of P^r for r = 0..stride, a (stride + 1, d + 1, d) array.

    P is the chain's one-step moment matrix, E[R'^p | R] = sum_l R^l P[l, p]
    for p, l = 0..d, d = _DEGREE.  With R' = e (R + a) + a, a = dt/2, and
    E[e^i] = exp(i log_mean + i^2 log_var / 2),

        P[l, p] = a^(p - l) sum_{i=l..p} C(p, i) C(i, l) E[e^i],

    and P[l, p] = 0 for l > p, so E[R_{k+r}^p | R_k] = sum_l R_k^l P^r[l, p].
    """
    d = _DEGREE
    a = 0.5 * dt
    ee = [math.exp(i * log_mean + 0.5 * i * i * log_var) for i in range(d + 1)]
    P = np.zeros((d + 1, d + 1))
    for p in range(d + 1):
        for l in range(p + 1):
            s = sum(math.comb(p, i) * math.comb(i, l) * ee[i] for i in range(l, p + 1))
            P[l, p] = a ** (p - l) * s
    powers = np.empty((stride + 1, d + 1, d + 1))
    powers[0] = np.eye(d + 1)
    for r in range(stride):
        powers[r + 1] = powers[r] @ P
    return powers[:, :, 1:]


def _moments(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_l x^l c[l, p - 1] for p = 1..d by Horner's rule, stacked on a new first axis.

    c is upper triangular, like the columns of _moment_powers, so row
    p - 1 starts from its leading coefficient c[p, p - 1]; the rule run
    from c[d] would only add exact zeros before it, to the same bits.
    """
    d = c.shape[1]
    c = c.reshape(c.shape + (1,) * x.ndim)
    out = np.empty((d,) + x.shape)
    out[...] = c[np.arange(1, d + 1), np.arange(d)]
    for l in range(d - 1, -1, -1):
        rows = out[l:]
        rows *= x
        rows += c[l, l:]
    return out


def _powers(x: np.ndarray) -> np.ndarray:
    """x, x^2, ..., x^d stacked on a new first axis: _moments of the identity, to the bit."""
    out = np.empty((_DEGREE,) + x.shape)
    out[0] = x
    for prev, nxt in zip(out, out[1:]):
        np.multiply(prev, x, out=nxt)
    return out


_U64 = {n: np.uint64(n) for n in (11, 27, 30, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)}


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array."""
    x ^= x >> _U64[30]
    x *= _U64[0xBF58476D1CE4E5B9]
    x ^= x >> _U64[27]
    x *= _U64[0x94D049BB133111EB]
    x ^= x >> _U64[31]
    return x


def _kill_key(seed: int, chunk_index: int) -> np.ndarray:
    x = _mix64(np.array([seed & _KEY_MASK], dtype=np.uint64))
    x ^= np.uint64(chunk_index)
    return _mix64(x)


def _kill_uniforms(key: np.ndarray, slots: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Uniforms on [2^-54, 1), a counter-based hash of (chunk key, path slot, step).

    slots and steps are int64 arrays that broadcast together.  The counter
    packs the slot and the step into 32 bits each; xor with the key and
    the splitmix64 finalizer turn it into 53 random bits, offset by half
    a unit so that no uniform is below 2^-54.
    """
    x = slots << 32
    x = x | steps
    x = x.view(np.uint64)
    x ^= key
    _mix64(x)
    x >>= _U64[11]
    u = x * 2.0**-53
    u += 2.0**-54
    return u


def _first_row(stop):
    """The first row of the mask stop with a True in it, and its columns; or (None, None)."""
    rows, at = np.nonzero(stop)
    if rows.size == 0:
        return None, None
    return rows[0], at[rows == rows[0]]


def _first_stops(H, A, a_near, kill_scale, key, slots, k):
    """The first step-row of the block H with a stop, and who stops in it, where.

    Row j takes R from H[j] to H[j + 1] in step k + j.  A path stops in it
    when it crosses A on the grid, at its ln-R interpolation point, or when
    its kill draw u(slot, k + j) of _kill_uniforms falls below the bridge
    crossing probability exp(kill_scale ln(A/H[j]) ln(A/H[j + 1])), at
    mid-step; key None draws no kills.  Draws are made in the columns that
    reach a_near, for every row of the block at once; a step with both
    ends below a_near has a probability under 3e-20, below any draw, so it
    never stops a path.  Returns (J, columns, fractions) with J - 1 the
    stop row, or (b, None, None) when no path of the b rows stops.
    """
    b = H.shape[0] - 1
    cols = np.flatnonzero((H >= a_near).any(axis=0))
    if cols.size == 0:
        return b, None, None
    Hc = H[:, cols]
    # l[j] = ln(A / H[j]), exact under a common power-of-two scaling of A and H
    l = np.divide(A, Hc)
    np.log(l, out=l)
    if key is None:
        row, at = _first_row(Hc[1:] >= A)
    else:
        p = l[:-1] * l[1:]
        np.maximum(p, 0.0, out=p)
        p *= kill_scale
        np.exp(p, out=p)
        steps = np.arange(k, k + p.shape[0])[:, None]
        row, at = _first_row(_kill_uniforms(key, slots[cols], steps) < p)
    if row is None:
        return b, None, None
    frac = np.full(at.size, 0.5)
    crossed = Hc[row + 1, at] >= A
    if crossed.any():
        la = l[row, at[crossed]]
        frac[crossed] = la / (la - l[row + 1, at[crossed]])
    return row + 1, cols[at], frac


def _fill(rng, E, C, sig, drift, half_dt):
    """Draw len(E) normals into E and turn them into the two step factors in place."""
    rng.standard_normal(out=E)
    E *= sig
    E += drift
    np.exp(E, out=E)
    np.add(E, 1.0, out=C)
    C *= half_dt


class _NoiseRing:
    """A chunk's step factors e^du and (dt/2)(e^du + 1), filled ahead on a helper thread.

    The chunk's stream of normals is cut into fills.  Each fill is one task
    on the single-worker pool, which writes the next stretch of the stream
    into the next slab of a ring, so the helper is the only user of the
    generator and fills run in stream order while the paths update.  The
    factors are formed with the ufuncs of the inline update, in the same
    order, so every value has the same bits.

    The first fill holds at most _BLOCK_CAP values and sizes double up to
    _SLAB.  A fill starts only while the total drawn stays within twice
    the values the paths are sure to use, plus _BLOCK_CAP, so a short
    chunk draws little more than it uses; a long one keeps every slab but
    the one being read in flight.
    """

    def __init__(self, rng, sig: float, drift: float, dt: float, pool):
        self._submit = lambda E, C: pool.submit(_fill, rng, E, C, sig, drift, 0.5 * dt)
        self._slabs = [(np.empty(_SLAB), np.empty(_SLAB)) for _ in range(_N_SLABS)]
        self._fills = collections.deque()  # (future, E, C) in stream order
        self._n_fills = 0
        self._size = min(_BLOCK_CAP, _SLAB)  # of the next fill
        self._drawn = 0
        self._used = 0  # the stream pointer
        self._off = 0  # the pointer's offset into the first fill
        self._ahead = 0  # values of a copied row consumed before advance

    def _top_up(self, need: int):
        """Start fills while the paths are sure to use `need` more values."""
        limit = 2 * (self._used + need) + _BLOCK_CAP
        while len(self._fills) < _N_SLABS and self._drawn + self._size <= limit:
            E, C = self._slabs[self._n_fills % _N_SLABS]
            E, C = E[: self._size], C[: self._size]
            self._fills.append((self._submit(E, C), E, C))
            self._n_fills += 1
            self._drawn += self._size
            self._size = min(2 * self._size, _SLAB)

    def _first(self):
        fut, E, C = self._fills[0]
        fut.result()
        return E, C

    def _consume(self, count: int):
        self._used += count
        self._off += count
        if self._off == self._fills[0][1].size:
            self._fills.popleft()
            self._off = 0

    def rows(self, n: int, B: int):
        """(E, C) for the next b <= B step-rows of n paths, as (b, n) arrays.

        The rows come as views of the first fill, as many as it holds.  A
        row that runs past the end of the fill is copied from the fills it
        spans and consumed at once, since a block always keeps its first
        row; it comes alone.
        """
        self._top_up(n)
        E, C = self._first()
        b = min(B, (E.size - self._off) // n)
        if b:
            s = slice(self._off, self._off + b * n)
            return E[s].reshape(b, n), C[s].reshape(b, n)
        row = np.empty((2, 1, n))
        got = 0
        while got < n:
            self._top_up(n - got)
            E, C = self._first()
            take = min(n - got, E.size - self._off)
            row[0, 0, got : got + take] = E[self._off : self._off + take]
            row[1, 0, got : got + take] = C[self._off : self._off + take]
            got += take
            self._consume(take)
        self._ahead = n
        return row[0], row[1]

    def advance(self, count: int):
        """Move the stream pointer past the `count` values the block kept."""
        if count > self._ahead:
            self._consume(count - self._ahead)
        self._ahead = 0

    def close(self):
        """Cancel the fills not yet started and wait for the others."""
        for fut, _, _ in self._fills:
            if not fut.cancel():
                fut.result()
        self._fills.clear()


def _add_rows(acc: np.ndarray, rows: np.ndarray):
    """Add rows[0], rows[1], ... into acc in place, each element summed in row order.

    A reduce over the rows may sum pairwise, so each row is one add.
    """
    for r in rows:
        np.add(acc, r, out=acc)


def _without(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a without the entries at the ascending positions cols of its last axis, in order.

    A few removals copy the slices between them, which is several times
    faster than a boolean mask over the whole axis.
    """
    if cols.size > 8:
        keep = np.ones(a.shape[-1], dtype=bool)
        keep[cols] = False
        return a[..., keep]
    edges = [-1, *cols.tolist(), a.shape[-1]]
    return np.concatenate([a[..., i + 1 : j] for i, j in zip(edges, edges[1:])], axis=-1)


def _finish_controls(z, K, x, r_mark, w, coef, stride):
    """Add to the controls z of paths stopped in step K at x the increment of a partial stride.

    r_mark is R at a path's last mark and w[:, i] the discount at its next
    mark.  Off a mark, a path adds w (E[R^p at the next mark | x] -
    E[R^p at the next mark | r_mark]), with the float operations it would
    take alone, so its bits do not depend on the paths done with it.
    """
    rest = stride - K % stride
    for r in np.unique(rest[rest < stride]):
        at = np.flatnonzero(rest == r)
        dz = _moments(coef[r], x[at])
        dz -= _moments(coef[stride], r_mark[at])
        z[:, :, at] += w[:, at] * dz[:, None, :]


def _simulate_chunk(
    r_star: float,
    gamma: float,
    cfg: SimConfig,
    lams: np.ndarray,
    chunk_index: int,
    m: int,
    table: _DelayTable,
    pool,
):
    """Simulate one chunk of m paths in time blocks of B steps.

    Step k reads one normal per live path, in path order, from the chunk's
    stream.  A block reads B such rows ahead and keeps the rows up to the
    first one in which a path stops; the normals of the rows it drops are
    read again by the next block, which has fewer live paths.  The step
    factors of the stream are filled ahead into a ring of slabs on the
    helper thread of `pool` (see _NoiseRing), and a block reads at most
    the rows left in a slab, so results are bit-identical for any slab
    size and any block size.

    The controls Z advance at the marks, the steps that are multiples of
    the stride s, by w_j (R^p - E[R^p | R at the mark before]), with w_j
    the discount at the end of the stride.  A path that stops in step K
    between two marks adds w_j (E[R^p at the next mark | R_K] - E[R^p at
    the next mark | R at the mark before]): that is the Doob martingale of
    the next mark's R^p stopped at K, so each Z keeps mean zero exactly.
    Z and R at the last mark are kept for the live paths, like the
    integrals, and leave with them; the partial strides of the paths that
    left are added at the end of the chunk, in one pass (_finish_controls).
    """
    A = r_star + gamma
    dt = cfg.dt
    half_drift = 0.5 * SQRT2 * SQRT2 * dt
    post = cfg.regime == "post_change"
    # du has mean -half_drift before the change and +half_drift after it;
    # the noiseless skeleton keeps only the post-change gain (du = 0 before)
    drift = half_drift if post else -half_drift
    e_skeleton = math.exp(half_drift) if post else 1.0
    sig = SQRT2 * math.sqrt(dt)
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 * gamma
    n_steps = int(math.ceil(t_max / dt))
    n_lam = lams.size
    a_near = A * math.exp(-math.sqrt(_NEAR * sig * sig))
    kill_scale = -2.0 / (sig * sig)
    stride = _stride(dt)

    if cfg.noiseless:
        noise = key = None
        coef = _moment_powers(dt, math.log(e_skeleton), 0.0, stride)
    else:
        philox = np.random.Philox(key=np.array([cfg.seed & _KEY_MASK, chunk_index], dtype=np.uint64))
        noise = _NoiseRing(np.random.Generator(philox), sig, drift, dt, pool)
        key = _kill_key(cfg.seed, chunk_index)
        coef = _moment_powers(dt, drift, sig * sig, stride)

    # compact state (alive paths only); idx maps back to output slots
    R = np.full(m, float(r_star))
    idx = np.arange(m)
    int_g_disc = np.zeros((n_lam, m))

    out_step = np.full(m, n_steps)
    out_frac = np.ones(m)
    out_stopped = np.zeros(m, dtype=bool)
    out_r = np.empty(m)
    out_int_g_disc = np.zeros((n_lam, m))
    # the controls, and R at the last mark
    z = np.zeros((_DEGREE, n_lam, m))
    r_mark = np.full(m, float(r_star))
    out_z = np.zeros((_DEGREE, n_lam, m))
    # R at the last mark and the discount at the next one, of the paths that left
    out_mark = np.empty(m)
    out_w = np.empty((n_lam, m))

    # left-endpoint discount weights e^{-lam t} of step k, advanced by one
    # decay factor per step; z_w is the discount at the next mark
    disc = np.ones(n_lam)
    decay = np.exp(-lams * dt)
    decay_stride = np.exp(-lams * (stride * dt))
    z_w = disc * decay_stride

    k = 0
    B = 1
    while k < n_steps and R.size:
        n = R.size
        B = min(B, n_steps - k, max(1, _BLOCK_CAP // n))
        if noise is None:
            E = np.full((B, 1), e_skeleton)
            C = E + 1.0
            C *= 0.5 * dt
        else:
            E, C = noise.rows(n, B)
        b = E.shape[0]
        # one step: R' = e R + (dt/2)(e + 1), row j + 1 of H from row j
        H = np.empty((b + 1, n))
        H[0] = R
        h = H[0]
        for e, c, h_next in zip(E, C, H[1:]):
            np.multiply(e, h, h_next)
            np.add(h_next, c, h_next)
            h = h_next
        J, cols, frac = _first_stops(H, A, a_near, kill_scale, key, idx, k)

        # D[j] holds the discount weights of step k + j
        D = np.empty((J + 1, n_lam))
        D[0] = disc
        D[1:] = decay
        np.multiply.accumulate(D, axis=0, out=D)
        g_dt = table.lookup(H[:J])
        g_dt *= dt
        if cols is not None:
            g_dt[J - 1, cols] *= frac
        _add_rows(int_g_disc, D[:J, :, None] * g_dt[:, None, :])

        # the marks among steps k + 1 .. k + J are after rows j0, j0 + stride, ...
        j0 = (-k - 1) % stride
        if j0 < J:
            at = np.arange(j0, J, stride)
            x = H[at + 1]
            prev = np.empty_like(x)
            prev[0] = r_mark
            prev[1:] = x[:-1]
            dz = _powers(x)
            dz -= _moments(coef[stride], prev)
            w = np.empty((at.size, n_lam))
            w[0] = z_w
            w[1:] = D[at[:-1] + 1] * decay_stride
            _add_rows(z, w[:, None, :, None] * dz.transpose(1, 0, 2)[:, :, None, :])
            r_mark = x[-1]
            z_w = D[at[-1] + 1] * decay_stride

        if noise is not None:
            noise.advance(J * n)
        k += J
        R = H[J]
        disc = D[J]

        if cols is not None:
            gone = idx[cols]
            out_step[gone] = k
            out_frac[gone] = frac
            out_stopped[gone] = True
            out_r[gone] = R[cols]
            out_int_g_disc[:, gone] = int_g_disc[:, cols]
            out_z[:, :, gone] = z[:, :, cols]
            out_mark[gone] = r_mark[cols]
            out_w[:, gone] = z_w[:, None]
            R = _without(R, cols)
            idx = _without(idx, cols)
            int_g_disc = _without(int_g_disc, cols)
            z = _without(z, cols)
            r_mark = _without(r_mark, cols)
            B = 2 * J
        else:
            B = 2 * B
    if noise is not None:
        noise.close()

    if R.size:
        out_r[idx] = R
        out_int_g_disc[:, idx] = int_g_disc
        out_z[:, :, idx] = z
        out_mark[idx] = r_mark
        out_w[:, idx] = z_w[:, None]
    _finish_controls(out_z, out_step, out_r, out_mark, out_w, coef, stride)

    return out_step, out_frac, out_stopped, out_r, out_int_g_disc, out_z


def simulate_paths(r_star: float, gamma: float, config: SimConfig, lams=(0.0,)) -> SimBatch:
    """Simulate config.n_paths trajectories until alarm or horizon.

    lams lists the discount rates for which the per-path discounted
    delay integrals and the martingale controls are accumulated (one pass
    over the paths covers them all); the discounted clock int_disc
    follows from the stop step and its fraction.  One
    helper thread fills the chunks' noise ahead of the paths; it is
    joined before this returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor

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
    sizes = _chunk_sizes(config.n_paths)
    with ThreadPoolExecutor(max_workers=1) as pool:
        parts = [_simulate_chunk(r_star, gamma, config, lams, c, m, table, pool)
                 for c, m in enumerate(sizes)]
    cols = [np.concatenate([p[j] for p in parts], axis=-1) for j in range(6)]
    return SimBatch(*cols, lams=lams, r_star=r_star, gamma=gamma, config=config)


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return McEstimate(mean=float(np.mean(values)), std_err=se, n_paths=n, seed=seed)


def _lam_row(batch: SimBatch, lam: float) -> int:
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be nonnegative and finite")
    rows = np.flatnonzero(batch.lams == lam)
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


def _cross_fit(values: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """values - controls.T @ beta, with beta fitted on the other half of the paths.

    The controls (one row each) have mean zero exactly.  beta is the least
    squares slope of values on the controls, fitted on the even-index paths
    and applied to the odd ones and the other way round, so it is
    independent of the paths it corrects and the mean stays unbiased.
    The powers R^p span many orders of magnitude, so each centred control
    is scaled to unit RMS before the fit, which leaves the fitted values
    the same but keeps the least-squares problem well conditioned.
    Batches too small to fit are returned as they are.
    """
    n = values.size
    if n < 4 * (controls.shape[0] + 1):
        return values
    X = controls.T
    out = np.empty(n)
    for fit, use in ((slice(0, None, 2), slice(1, None, 2)),
                     (slice(1, None, 2), slice(0, None, 2))):
        x, y = X[fit], values[fit]
        x = x - x.mean(axis=0)
        rms = np.sqrt(np.mean(x * x, axis=0))
        # a control constant over the paths (a noiseless batch) is all zero
        rms[rms == 0.0] = 1.0
        beta = np.linalg.lstsq(x / rms, y - y.mean(), rcond=None)[0] / rms
        out[use] = values[use] - X[use] @ beta
    return out


def mc_f_lambda(batch: SimBatch, lam: float) -> McEstimate:
    """Estimate E[integral_0^T e^{-lam t} (g(R_t) - g(r*)) dt] on a pre-change batch.

    This is the Monte Carlo twin of the solved perturbation value
    f_lam(r*): zero at lam = 0 by calibration, conjectured negative for
    lam > 0.  The batch must carry the discount rate lam.  The estimate is
    the cross-fitted control-variate mean on the martingales Z_{p, lam},
    p = 1..6 (see _cross_fit); its standard error is that of the corrected
    values, and variance_ratio is the gain over the plain mean.
    """
    _require_pre_change(batch, "mc_f_lambda")
    j = _lam_row(batch, lam)
    g_star = g(batch.r_star, batch.r_star, batch.gamma)
    values = batch.int_g_disc[j] - g_star * batch.int_disc[j]
    fitted = _cross_fit(values, batch.z[:, j])
    var = float(np.var(fitted))
    ratio = float(np.var(values)) / var if var > 0.0 else 1.0
    return replace(_estimate(fitted, batch.config.seed), variance_ratio=ratio)


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
