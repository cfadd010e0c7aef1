"""Command line front end.

Subcommands:

calibrate   solve f0(r*) = 0 for the head start at a given gamma
verify      lambda-sweep the solved perturbation value f_lambda(r*) and
            gate on its conjectured sign (plus an f0 scan for plotting)
simulate    Monte Carlo statistical checks of the calibrated procedure
detect      run the detector over a CSV of observation increments

Exit codes: 0 success, 2 bad arguments or calibration failure (in
simulate also a horizon that caps paths), 3 sign violation in verify, 4
failed statistical check in simulate, 5 missing or malformed detect
input.  detect resolves the head start before it opens its input, so a
bad --gamma or --r-star exits 2; it then reads one row at a time and
stops at the alarm, so only rows up to the alarm can exit 5.  Output
files are CSV; they land in the location named by --out or, by default,
under $SRDETECT_OUT or the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from srdetect.calibration import calibrate, f0_at
from srdetect.fredholm import sweep_lambda
from srdetect.quadrature import make_grid
from srdetect.simulator import (
    HorizonCapError,
    SimConfig,
    mc_delay_ratio,
    mc_f_lambda,
    mc_martingale_check,
    mc_mean_stop_time,
    simulate_paths,
    detect_stream,
)
from srdetect.specfun import g

_PRESETS = {
    "gamma5": dict(gamma=5.0, grid_n=2001, lambda_count=100),
    "gamma20": dict(gamma=20.0, grid_n=4001, lambda_count=200),
}

_CHECK_NAMES = ("stoptime", "martingale", "flambda", "equalizer")


def _out_dir(explicit: str | None) -> Path:
    base = explicit if explicit is not None else os.environ.get("SRDETECT_OUT", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_calibrate(args) -> int:
    try:
        res = calibrate(args.gamma)
    except ValueError as exc:
        return _fail(str(exc), 2)
    out = Path(args.out) if args.out else _out_dir(None) / "calibration.csv"
    _write_csv(
        out,
        ["gamma", "r_star", "residual", "iterations"],
        [[res.gamma, res.r_star, res.residual, res.iterations]],
    )
    print(f"gamma={res.gamma:g}: r_star={res.r_star:.6f} "
          f"(|f0|={abs(res.residual):.2e}, {res.iterations} Brent iterations) -> {out}")
    return 0


def cmd_verify(args) -> int:
    opts = dict(_PRESETS[args.preset]) if args.preset else {}
    gamma = args.gamma if args.gamma is not None else opts.get("gamma")
    if gamma is None:
        return _fail("need --gamma or --preset", 2)
    grid_n = args.grid_n if args.grid_n is not None else opts.get("grid_n", 2001)
    lambda_count = (
        args.lambda_count if args.lambda_count is not None else opts.get("lambda_count", 100)
    )
    if lambda_count < 1:
        return _fail("--lambda-count must be at least 1", 2)
    if args.lambda_max <= 0.0:
        return _fail("--lambda-max must be positive (the sweep is over (0, lambda-max])", 2)

    try:
        if args.r_star is not None:
            r_star = args.r_star
            residual = f0_at(r_star, r_star, gamma)
        else:
            res = calibrate(gamma)
            r_star, residual = res.r_star, res.residual
        out = _out_dir(args.out)

        scan_r = np.linspace(0.05, 2.3, args.scan_n)
        scan_vals = f0_at(scan_r, scan_r, gamma).tolist()
        scan_path = out / "f0_scan.csv"
        _write_csv(scan_path, ["r", "f0"], zip(scan_r.tolist(), scan_vals))

        grid = make_grid(args.r_min, r_star, gamma, grid_n)
        lams = np.linspace(0.0, args.lambda_max, lambda_count + 1)[1:]
        sweep = sweep_lambda(grid, r_star, gamma, lams)
    except ValueError as exc:
        return _fail(str(exc), 2)

    sweep_path = out / "lambda_sweep.csv"
    _write_csv(
        sweep_path,
        ["lambda", "f_lambda_r_star"],
        zip(sweep.lambdas.tolist(), sweep.values.tolist()),
    )
    print(f"gamma={gamma:g}: r_star={r_star:.6f}, f0(r_star)={residual:.3e}")
    print(f"wrote {scan_path} and {sweep_path}")
    for lam, msg in sweep.failures:
        print(f"solve failed at lambda={lam:g}: {msg}", file=sys.stderr)

    positive = sweep.lambdas > 0.0
    vals = sweep.values[positive]
    ok = np.all(np.isfinite(vals)) and np.all(vals < 0.0) and not sweep.failures
    n_neg = int(np.sum(vals < 0.0))
    verdict = "PASS" if ok else "FAIL"
    print(f"sign check f_lambda(r_star) < 0 for lambda > 0: {verdict} "
          f"({n_neg}/{vals.size} values negative)")
    return 0 if ok else 3


def _parse_checks(spec: str) -> list[str]:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if names == ["all"]:
        return list(_CHECK_NAMES)
    bad = [n for n in names if n not in _CHECK_NAMES]
    if bad or not names:
        raise ValueError(
            f"unknown checks {bad or spec!r}; choose from {', '.join(_CHECK_NAMES)} or all"
        )
    return names


def cmd_simulate(args) -> int:
    try:
        checks = _parse_checks(args.checks)
        if args.r_star is not None:
            r_star = args.r_star
        else:
            r_star = calibrate(args.gamma).r_star
        config = SimConfig(
            dt=args.dt,
            t_max=args.t_max,
            seed=args.seed,
            n_paths=args.n_paths,
            regime="pre_change",
            noiseless=args.noiseless,
        )
        lam = args.lam if args.lam is not None else 0.0
        if not all(math.isfinite(r) and r >= 0.0 for r in args.r or []):
            return _fail("--r must be nonnegative and finite", 2)
        lams = sorted({0.0, lam})
        batch = simulate_paths(r_star, args.gamma, config, lams=lams)
    except ValueError as exc:
        return _fail(str(exc), 2)

    gamma = args.gamma
    g_star = g(r_star, r_star, gamma)
    rows = []
    all_ok = True

    def record(check: str, est, target: float, ok: bool):
        nonlocal all_ok
        all_ok = all_ok and ok
        rows.append([check, est.mean, est.std_err, est.n_paths, target, int(ok)])
        print(f"{check:>24s}: {est.mean:.5f} +- {est.std_err:.5f} "
              f"vs {target:.5f} -> {'pass' if ok else 'FAIL'}")

    try:
        if "stoptime" in checks:
            est = mc_mean_stop_time(batch)
            tol = max(3.0 * est.std_err, 0.05 * gamma)  # overshoot allowance
            record("stoptime", est, gamma, abs(est.mean - gamma) <= tol)
        if "martingale" in checks:
            est = mc_martingale_check(batch).difference
            record("martingale", est, 0.0, abs(est.mean) <= 4.0 * est.std_err)
        if "flambda" in checks:
            est = mc_f_lambda(batch, lam)
            if lam == 0.0:
                ok = abs(est.mean) <= 4.0 * est.std_err
            else:
                ok = est.mean + 2.0 * est.std_err < 0.0
            record(f"flambda(lambda={lam:g})", est, 0.0, ok)
        if "equalizer" in checks:
            for r in args.r if args.r else [0.0, r_star, 3.0]:
                est = mc_delay_ratio(batch, r, 0.0)
                ok = abs(est.mean - g_star) <= 4.0 * est.std_err
                record(f"equalizer(r={r:g})", est, g_star, ok)
    except HorizonCapError as exc:
        return _fail(str(exc), 2)

    out = Path(args.out) if args.out else _out_dir(None) / "sim_checks.csv"
    _write_csv(out, ["check", "mean", "std_err", "n_paths", "target", "pass"], rows)
    print(f"wrote {out}")
    return 0 if all_ok else 4


def _read_increments(path: Path):
    """Yield (dt, dxi) records from a CSV file, one row at a time.

    A first row naming dxi is a header that picks the dt column, or a t
    column of strictly increasing time stamps; without one the columns
    are (dt, dxi).  Blank rows are skipped, and errors name the physical
    line of the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, r) for r in reader if any(cell.strip() for cell in r))
        first = next(rows, None)
        if first is None:
            return
        header = [c.strip().lower() for c in first[1]]
        if "dxi" in header:
            if "dt" in header:
                i_t, cumulative = header.index("dt"), False
            elif "t" in header:
                i_t, cumulative = header.index("t"), True
            else:
                raise ValueError("header must name a dt or t column next to dxi")
            i_x = header.index("dxi")
        else:
            i_t, i_x, cumulative = 0, 1, False
            rows = itertools.chain([first], rows)
        prev_t = 0.0
        for lineno, row in rows:
            if len(row) <= max(i_t, i_x):
                raise ValueError(f"line {lineno}: expected at least {max(i_t, i_x) + 1} columns")
            try:
                tval = float(row[i_t])
                xval = float(row[i_x])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-numeric value") from exc
            if cumulative:
                dt = tval - prev_t
                if dt <= 0.0:
                    raise ValueError(f"line {lineno}: time stamps must be strictly increasing")
                prev_t = tval
            else:
                dt = tval
            yield dt, xval


def cmd_detect(args) -> int:
    try:
        if not (math.isfinite(args.gamma) and args.gamma > 0.0):
            raise ValueError("gamma must be positive and finite")
        r_star = args.r_star if args.r_star is not None else calibrate(args.gamma).r_star
        if not (math.isfinite(r_star) and r_star > 0.0):
            raise ValueError("r_star must be positive and finite")
    except ValueError as exc:
        return _fail(str(exc), 2)
    path = Path(args.input)
    if not path.exists():
        return _fail(f"input file {path} does not exist", 5)
    try:
        with contextlib.closing(_read_increments(path)) as records:
            stopped, t, R = detect_stream(records, r_star, args.gamma)
    except (OSError, csv.Error, ValueError) as exc:
        return _fail(str(exc), 5)
    out = Path(args.out) if args.out else _out_dir(None) / "detection.csv"
    _write_csv(
        out,
        ["stopped", "alarm_time", "r_final", "threshold"],
        [[int(stopped), t, R, r_star + args.gamma]],
    )
    if stopped:
        print(f"alarm at t={t:.6g} (R={R:.6g}) -> {out}")
    else:
        print(f"no alarm by t={t:.6g} (final R={R:.6g}) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdetect",
        description="Calibrate, verify, and simulate the equalized drift-change detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve for the head start r*")
    p.add_argument("--gamma", type=float, required=True, help="mean time between false alarms")
    p.add_argument("--out", type=str, default=None, help="output CSV path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("verify", help="lambda sweep of the perturbation value")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                   help="bundled gamma/grid/lambda settings")
    p.add_argument("--r-star", type=float, default=None, help="skip calibration, use this value")
    p.add_argument("--grid-n", type=int, default=None)
    p.add_argument("--r-min", type=float, default=2e-3)
    p.add_argument("--lambda-count", type=int, default=None)
    p.add_argument("--lambda-max", type=float, default=10.0)
    p.add_argument("--scan-n", type=int, default=100)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo checks of the calibrated procedure")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--r-star", type=float, default=None)
    p.add_argument("--checks", type=str, default="all",
                   help=f"comma list from {{{','.join(_CHECK_NAMES)}}} or all")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="discount rate for the flambda check")
    p.add_argument("--r", type=float, action="append", default=None,
                   help="head-start values for the equalizer check (repeatable)")
    p.add_argument("--n-paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=2.5e-4,
                   help="step size; coarser steps bias the boundary checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run the detector over increment records")
    p.add_argument("--input", type=str, required=True,
                   help="CSV of (dt, dxi) or (t, dxi) records")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--r-star", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
