"""Command line front end.

Subcommands:

calibrate   solve f0(r*) = 0 for the head start at a given gamma
verify      lambda-sweep the solved perturbation value f_lambda(r*) and
            gate on its conjectured sign (plus an f0 scan for plotting)
simulate    Monte Carlo statistical checks of the calibrated procedure
detect      run the detector over a CSV of observation increments

Exit codes: 0 success, 2 bad arguments, calibration failure or an
--out that cannot be written (in simulate also a horizon that caps
paths), 3 sign violation in verify, 4 failed statistical check in
simulate, 5 missing or malformed detect input.  detect resolves the
head start before it opens its input, so a bad --gamma or --r-star
exits 2; it then reads its input in blocks of rows and still stops at
the alarm, so only rows up to the alarm can exit 5.  Output files are
CSV; they land in the location named by --out or, by default, under
$SRDETECT_OUT or the working directory, and missing parent directories
are created.
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

from srdetect import _checks
from srdetect.calibration import calibrate, f0_at
from srdetect.fredholm import sweep_lambda
from srdetect.quadrature import make_grid
from srdetect.simulator import (
    HorizonCapError,
    SimConfig,
    mc_f_lambda,
    simulate_paths,
    detect_stream,
)

_PRESETS = {
    "gamma5": dict(gamma=5.0, grid_n=2001, lambda_count=100),
    "gamma20": dict(gamma=20.0, grid_n=4001, lambda_count=200),
}

_CHECK_NAMES = ("stoptime", "martingale", "flambda", "equalizer")

_BLOCK_LINES = 4096  # detect input lines per np.loadtxt call


class _OutputError(Exception):
    """An output file that cannot be written."""


def _write_csv(out: str | None, name: str, header: list[str], rows, out_is_dir=False) -> Path:
    """Write to the --out file, or to name in the --out directory, $SRDETECT_OUT
    or '.', creating missing parent directories; return the path written."""
    if out and not out_is_dir:
        path = Path(out)
    else:
        path = Path(out or os.environ.get("SRDETECT_OUT", ".")) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc
    return path


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_calibrate(args) -> int:
    try:
        res = calibrate(args.gamma)
    except ValueError as exc:
        return _fail(str(exc), 2)
    out = _write_csv(
        args.out, "calibration.csv",
        ["gamma", "r_star", "residual", "iterations"],
        [[res.gamma, res.r_star, res.residual, res.iterations]],
    )
    print(f"gamma={res.gamma:g}: r_star={res.r_star:.6f} "
          f"(|f0|={abs(res.residual):.2e}, {res.iterations} Newton evaluations) -> {out}")
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
    if not (math.isfinite(args.lambda_max) and args.lambda_max > 0.0):
        return _fail("--lambda-max must be positive and finite "
                     "(the sweep is over (0, lambda-max])", 2)

    try:
        r_star = args.r_star if args.r_star is not None else calibrate(gamma).r_star
        # the grid is built before any file is written, so bad input leaves none
        grid = make_grid(args.r_min, r_star, gamma, grid_n)
        lams = np.linspace(0.0, args.lambda_max, lambda_count + 1)[1:]
        sweep = sweep_lambda(grid, lams)
        scan_r = np.linspace(0.05, 2.3, args.scan_n)
        scan_vals = f0_at(scan_r, scan_r, gamma).tolist()
    except ValueError as exc:
        return _fail(str(exc), 2)

    scan_path = _write_csv(args.out, "f0_scan.csv", ["r", "f0"],
                           zip(scan_r.tolist(), scan_vals), out_is_dir=True)
    sweep_path = _write_csv(args.out, "lambda_sweep.csv", ["lambda", "f_lambda_r_star"],
                            zip(sweep.lambdas.tolist(), sweep.values.tolist()), out_is_dir=True)
    # the sweep's lambda = 0 row is f0(r_star), the calibration residual
    print(f"gamma={gamma:g}: r_star={r_star:.6f}, f0(r_star)={sweep.values[0]:.3e}")
    print(f"wrote {scan_path} and {sweep_path}")
    for lam, msg in sweep.failures:
        print(f"solve failed at lambda={lam:g}: {msg}", file=sys.stderr)

    # a value inside the scheme's own error at lambda = 0 shows no sign
    vals = sweep.values[sweep.lambdas > 0.0]
    n_below = int(np.sum(vals < -sweep.grid_error))
    ok = np.all(np.isfinite(vals)) and n_below == vals.size and not sweep.failures
    print(f"sign check f_lambda(r_star) < -grid_error for lambda > 0: "
          f"{'PASS' if ok else 'FAIL'} ({n_below}/{vals.size} values below)")
    # fmax/fmin skip the NaNs of rates that were not factored
    print(f"solve diagnostics: worst residual {np.fmax.reduce(sweep.residuals):.3e}, "
          f"smallest pivot {np.fmin.reduce(sweep.min_pivots):.3e}")
    print(f"grid error: {sweep.grid_error:.3e} (|scheme at lambda=0 - f0(r_star)|)")
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
    if args.n_paths < 2:
        return _fail("--n-paths must be at least 2 for a standard error", 2)
    try:
        checks = _parse_checks(args.checks)
        if args.r_star is not None:
            r_star = args.r_star
        else:
            r_star = calibrate(args.gamma).r_star
        config = SimConfig(dt=args.dt, t_max=args.t_max, seed=args.seed, n_paths=args.n_paths)
        lams = sorted({0.0, args.lam})
        batch = simulate_paths(r_star, args.gamma, config, lams=lams)
    except ValueError as exc:
        return _fail(str(exc), 2)

    ratios = ", ".join(f"{mc_f_lambda(batch, l).variance_ratio:.3g} at lambda={l:g}"
                       for l in lams)
    print(f"bridge kills: {batch.killed_fraction:.2%} of paths; "
          f"control-variate variance ratio (plain/CV): {ratios}")
    rows = []
    try:
        if "stoptime" in checks:
            rows.append(_checks.stoptime(batch))
        if "martingale" in checks:
            rows.append(_checks.martingale(batch))
        if "flambda" in checks:
            rows.append(_checks.flambda(batch, args.lam))
        if "equalizer" in checks:
            rows += _checks.equalizer(batch)
    except HorizonCapError as exc:
        return _fail(str(exc), 2)

    for check, est, target, ok in rows:
        print(f"{check:>24s}: {est.mean:.5f} +- {est.std_err:.5f} "
              f"vs {target:.5f} -> {'pass' if ok else 'FAIL'}")
    out = _write_csv(args.out, "sim_checks.csv",
                     ["check", "mean", "std_err", "n_paths", "target", "pass"],
                     ([c, e.mean, e.std_err, e.n_paths, t, int(ok)] for c, e, t, ok in rows))
    print(f"wrote {out}")
    return 0 if all(row[3] for row in rows) else 4


def _read_increments(path: Path):
    """Yield (dt, dxi) records from a CSV file, read in blocks of rows.

    A first row naming dxi is a header that picks the dt column, or a t
    column of strictly increasing time stamps; without one the columns
    are (dt, dxi).  Blank rows are skipped, and errors name the physical
    line of the file.  np.loadtxt parses _BLOCK_LINES lines at a time; a
    block it rejects, or whose stamps do not increase, goes row by row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next((r for r in reader if any(cell.strip() for cell in r)), None)
        if first is None:
            return
        header = [c.strip().lower() for c in first]
        offset = reader.line_num
        if "dxi" in header:
            if "dt" in header:
                i_t, cumulative = header.index("dt"), False
            elif "t" in header:
                i_t, cumulative = header.index("t"), True
            else:
                raise ValueError("header must name a dt or t column next to dxi")
            i_x = header.index("dxi")
        else:  # the first row is data: read it with the rest
            i_t, i_x, cumulative, offset = 0, 1, False, 0
            fh.seek(0)
        prev_t, need = 0.0, max(i_t, i_x) + 1
        for lines in iter(lambda: list(itertools.islice(fh, _BLOCK_LINES)), []):
            start, offset = offset, offset + len(lines)
            try:
                if not any(map(str.strip, lines)):
                    raise ValueError  # np.loadtxt would warn; the rows below skip it
                cols = np.loadtxt(lines, delimiter=",", usecols=(i_t, i_x), ndmin=2,
                                  comments=None, quotechar='"')
                dt = np.diff(cols[:, 0], prepend=prev_t) if cumulative else cols[:, 0]
                block_ok = bool(np.all(dt > 0.0))
            except ValueError:
                block_ok = False
            if block_ok:
                prev_t = float(cols[-1, 0])
                yield from zip(dt.tolist(), cols[:, 1].tolist())
                continue
            reader = csv.reader(lines)
            for row in (r for r in reader if any(cell.strip() for cell in r)):
                lineno = start + reader.line_num
                if len(row) < need:
                    raise ValueError(f"line {lineno}: expected at least {need} columns")
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
    out = _write_csv(
        args.out, "detection.csv",
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

    p = sub.add_parser("simulate", help="Monte Carlo checks of the calibrated procedure",
                       allow_abbrev=False)  # so that --r is not read as --r-star
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--r-star", type=float, default=None)
    p.add_argument("--checks", type=str, default="all",
                   help=f"comma list from {{{','.join(_CHECK_NAMES)}}} or all")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="discount rate for the flambda check")
    p.add_argument("--n-paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=2.5e-4,
                   help="step size; coarser steps bias the boundary checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=None)
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
    try:
        return args.func(args)
    except _OutputError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
