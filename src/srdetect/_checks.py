"""The statistical gates of the Monte Carlo checks, each defined once.

`srdetect simulate` and the acceptance criteria call the same gates.
Each takes a pre-change batch and returns rows (name, estimate, target,
ok), with the width of ok in standard errors (SE) of the estimate:

    stoptime     |E[T] - gamma| <= 3 SE
    martingale   |E[Z_{1,0}]| <= 3 SE
    flambda      |f_0| <= 4 SE at lambda = 0, f_lambda + 2 SE < 0 at lambda > 0
    equalizer    the lambda = 0 flambda row, restated as the delay ratio D(r)

The lambda = 0 gate is 4 SE, not 3: its control-variate SE shows the
O(dt) bias of the bridge-corrected stop, about 1.3 SE at simulate's
defaults (gamma = 5, dt = 2.5e-4, 20k paths).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

# estimators are read from the module at call time, so wrappers bound there apply
from srdetect import simulator
from srdetect.simulator import McEstimate, SimBatch
from srdetect.specfun import g

Row = tuple[str, McEstimate, float, bool]


def _within(est: McEstimate, target: float, width: float) -> bool:
    return abs(est.mean - target) <= width * est.std_err


def stoptime(batch: SimBatch) -> Row:
    """The mean alarm time equals gamma (HorizonCapError on a capped batch)."""
    est = simulator.mc_mean_stop_time(batch)
    return "stoptime", est, batch.gamma, _within(est, batch.gamma, 3.0)


def martingale(batch: SimBatch) -> Row:
    """E[R_K] = r* + E[K] dt at the stop step K, read from the control Z_{1,0}.

    Z_{1,0} telescopes to R_K - r* - K dt on every path, capped ones too,
    and has mean zero by optional stopping.  The batch must carry rate 0.
    """
    simulator._require_pre_change(batch, "martingale")
    z = batch.z[0, simulator._lam_row(batch, 0.0)]
    est = simulator._estimate(z)
    return "martingale", est, 0.0, _within(est, 0.0, 3.0)


def flambda(batch: SimBatch, lam: float) -> Row:
    """f_lambda(r*) is zero at lambda = 0 (calibration) and negative for lambda > 0."""
    est = simulator.mc_f_lambda(batch, lam)
    ok = _within(est, 0.0, 4.0) if lam == 0.0 else est.mean + 2.0 * est.std_err < 0.0
    return f"flambda(lambda={lam:g})", est, 0.0, ok


def equalizer(batch: SimBatch) -> list[Row]:
    """The delay ratio D(r) equals g(r*) at the head starts r = 0, r* and 3.

    On one batch D(r) = (r g* + mean int g(R_t) dt) / (r + T) is exactly
    g* + f_0 / (r + T), with f_0 the plain lambda = 0 estimate and T the
    mean stop time.  Each row puts the flambda(lambda=0) estimate, with
    its controls, in place of f_0, and keeps that row's verdict.
    """
    _, f0, _, ok = flambda(batch, 0.0)
    g_star = g(batch.r_star, batch.r_star, batch.gamma)
    t_bar = float(np.mean(batch.stop_time))
    return [(f"equalizer(r={r:g})",
             replace(f0, mean=g_star + f0.mean / (r + t_bar), std_err=f0.std_err / (r + t_bar)),
             g_star, ok) for r in (0.0, batch.r_star, 3.0)]
