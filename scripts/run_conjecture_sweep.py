"""Sweep the discount rate and record the sign of f_lambda(r*).

The working conjecture is that the perturbation value f_lambda(r*) is
strictly negative for every lambda > 0 once r* is calibrated so that
f_0(r*) = 0.  This script solves the resolvent system on a lambda grid,
writes the values to CSV, and reports the sign tally plus a grid
refinement check of the solved function's differential residual.

Usage: python scripts/run_conjecture_sweep.py --gamma 5 --grid-n 2001 \
           --lambda-count 100 --out sweep_gamma5.csv
"""

import argparse
import sys
import time

import numpy as np

from srdetect.calibration import calibrate
from srdetect.fredholm import (
    assemble_f0_vector,
    assemble_kernel,
    ode_residual,
    solve_f_lambda,
    sweep_lambda,
)
from srdetect.quadrature import make_grid


def refinement_ratio(r_star: float, gamma: float, r_min: float, grid_n: int, lam: float):
    resids = []
    for n in (grid_n, 2 * grid_n - 1):
        grid = make_grid(r_min, r_star, gamma, n)
        f0 = assemble_f0_vector(grid, r_star, gamma)
        ker = assemble_kernel(grid, r_star, gamma)
        f = solve_f_lambda(ker, f0, lam)
        resids.append(ode_residual(f, grid, lam, r_star, gamma))
    return resids[0], resids[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=5.0)
    ap.add_argument("--grid-n", type=int, default=2001)
    ap.add_argument("--r-min", type=float, default=2e-3)
    ap.add_argument("--lambda-count", type=int, default=100)
    ap.add_argument("--lambda-max", type=float, default=10.0)
    ap.add_argument("--out", type=str, default=None)
    ap.add_argument("--skip-refinement", action="store_true")
    args = ap.parse_args()

    t0 = time.time()
    res = calibrate(args.gamma)
    print(f"gamma={args.gamma:g}: r* = {res.r_star:.6f} (|f0| = {abs(res.residual):.2e})")

    grid = make_grid(args.r_min, res.r_star, args.gamma, args.grid_n)
    lams = np.linspace(0.0, args.lambda_max, args.lambda_count + 1)[1:]
    sweep = sweep_lambda(grid, res.r_star, args.gamma, lams)

    pos = sweep.lambdas > 0.0
    vals = sweep.values[pos]
    n_neg = int(np.sum(vals < 0.0))
    print(f"f_lambda(r*) on {vals.size} rates in (0, {args.lambda_max:g}]: "
          f"{n_neg} negative, extremes [{np.min(vals):.3e}, {np.max(vals):.3e}]")
    for lam, msg in sweep.failures:
        print(f"  solve failed at lambda={lam:g}: {msg}", file=sys.stderr)

    if args.out:
        np.savetxt(args.out, np.column_stack([sweep.lambdas, sweep.values]),
                   delimiter=",", header="lambda,f_lambda_r_star", comments="")
        print(f"wrote {args.out}")

    if not args.skip_refinement:
        coarse, fine = refinement_ratio(res.r_star, args.gamma, args.r_min, args.grid_n, 1.0)
        print(f"differential residual at lambda=1: {coarse:.2e} -> {fine:.2e} "
              f"on grid doubling (ratio {coarse / fine:.2f}, ~4 means 2nd order)")

    verdict = "supported" if n_neg == vals.size and not sweep.failures else "VIOLATED"
    print(f"sign conjecture {verdict} ({time.time() - t0:.1f}s)")
    return 0 if verdict == "supported" else 1


if __name__ == "__main__":
    sys.exit(main())
