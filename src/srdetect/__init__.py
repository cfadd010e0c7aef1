"""Numerics for the Shiryaev-Roberts-r drift-change detector.

Calibrates the head start r* that makes the procedure an equalizer over
change points, verifies the sign of the perturbation value f_lambda(r*)
on a lambda sweep, and cross-checks both against Monte Carlo simulation
of the detection statistic.
"""

from srdetect.calibration import (
    CalibrationResult,
    asymptotic_r_star,
    calibrate,
    f0_at,
)
from srdetect.fredholm import LambdaSweep, sweep_lambda
from srdetect.quadrature import Grid, make_grid
from srdetect.simulator import (
    HorizonCapError,
    McEstimate,
    SimBatch,
    SimConfig,
    detect_stream,
    mc_f_lambda,
    mc_mean_stop_time,
    simulate_paths,
)
from srdetect.specfun import e1_scaled, g

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "Grid",
    "HorizonCapError",
    "LambdaSweep",
    "McEstimate",
    "SimBatch",
    "SimConfig",
    "asymptotic_r_star",
    "calibrate",
    "detect_stream",
    "e1_scaled",
    "f0_at",
    "g",
    "make_grid",
    "mc_f_lambda",
    "mc_mean_stop_time",
    "simulate_paths",
    "sweep_lambda",
    "__version__",
]
