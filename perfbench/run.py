"""Benchmark of the srdetect command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Runs from the root of a source checkout and imports the package from its
src/ directory.  One process drives the commands in-process through
srdetect.cli.main; the only children are the fresh interpreters that
time the package import, started one at a time (and, for --workload all,
one run of this script per workload, in turn).  BLAS gets at most one
thread per core.  Inputs and outputs live under perfbench/out/.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (see tracing.py) and the tracing overhead.  README.md defines
every metric, workload and tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3  # fresh-interpreter imports before the measurement, and again after it
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import srdetect.cli; "
    "print(time.perf_counter() - t)"
)

# per-layer metric -> unit; self times and counts are per command,
# averaged over the traced commands
PER_LAYER = {
    "specfun.e1_scaled.self_s": "s",
    "specfun.e1_scaled.evals": "count",
    "specfun.ei_scaled.self_s": "s",
    "specfun.g.self_s": "s",
    "quadrature.make_grid.self_s": "s",
    "quadrature.diff_weights.self_s": "s",
    "calibration.calibrate.self_s": "s",
    "calibration.f0_at.calls": "count",
    "calibration.f0_at.self_s": "s",
    "fredholm.solve_f_lambda.per_call_s": "s",
    "fredholm.solve_f_lambda.calls": "count",
    "fredholm.assemble_kernel.self_s": "s",
    "fredholm.kernel_bytes": "bytes_computed",
    "fredholm.assemble_f0_vector.self_s": "s",
    "fredholm.sweep_lambda.self_s": "s",
    "simulator.simulate_paths.self_s": "s",
    "simulator.path_steps": "count",
    "simulator.estimators.self_s": "s",
    "simulator.detect_stream.self_s": "s",
    "simulator.detect_stream.records": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
ESTIMATORS = ("mc_mean_stop_time", "mc_martingale_check", "mc_f_lambda", "mc_delay_ratio")


def limit_blas_threads() -> None:
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            os.environ[var] = str(cores)


def measure_setup(times: list[float], warm_up: bool = False) -> None:
    """Time SETUP_REPEATS imports of srdetect.cli, each in a fresh interpreter.

    The warm-up import writes the bytecode caches that every later import
    (and every user after the first) finds; its time is not kept.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for k in range(SETUP_REPEATS + warm_up):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if k or not warm_up:
            times.append(float(proc.stdout.split()[-1]))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.walls: list[float] = []         # untraced command times
        self.traced_walls: list[float] = []
        self.work = 0.0
        self.std_errs: list[float] = []
        self.notes: list[str] = []

    def add(self, wall: float, result, traced: bool) -> None:
        if traced:
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)
            self.work += result.work
            self.std_errs.append(result.std_err)
        for c in result.checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                self.correct = self.correct and c.kept_fault
                if len(self.notes) < 20:
                    self.notes.append(f"{'kept fault' if c.kept_fault else 'FAILED'}: "
                                      f"{c.name}: {c.detail}")


def run_command(cli, workload, i: int, argv: list[str], tally: Tally, tracer=None) -> None:
    from workloads import Check, Result

    workload.clear(i)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    if rc is None:
        result = Result([Check("exit", False, err.getvalue().strip().splitlines()[-1])])
    else:
        try:
            result = workload.check(i, rc, out.getvalue())
        except (OSError, ValueError, KeyError, AttributeError) as exc:  # missing or malformed output
            result = Result([Check("output", False, repr(exc))])
    if rc != 0:
        print(f"{' '.join(argv)}: exit {rc}\n{err.getvalue()}", file=sys.stderr)
    tally.add(wall, result, tracer is not None)


def run_rounds(cli, workload, tally: Tally, seconds: float, tracer=None) -> int:
    """Run whole rounds until the next one would end past `seconds`.

    With a tracer, each round runs twice on the same inputs, untraced and
    then traced, so that both halves see the same stretch of machine time;
    the tally keeps the two sets of command times apart.
    """
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                for i, argv in enumerate(workload.commands(k)):
                    run_command(cli, workload, i, argv, tally, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
        k += 1
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return k


def end_to_end(workload, tally: Tally, setup_s: float) -> dict:
    call_s = statistics.median(tally.walls)
    target_se = getattr(workload, "target_se", None)
    if target_se is None:   # a deterministic answer: one call reaches it
        se_target_s = call_s
    else:
        se_target_s = statistics.median(
            w * (se / target_se) ** 2 for w, se in zip(tally.walls, tally.std_errs))
    return {
        "setup_s": (setup_s, "s"),
        "call_s": (call_s, "s"),
        "work_per_s": (tally.work / sum(tally.walls), "1/s"),
        "se_target_s": (se_target_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, n_commands: int, overhead_s: float) -> dict:
    times = tracer.self_times()

    def self_s(*names):
        return sum(times.get(n, (0, 0.0))[1] for n in names) / n_commands

    def calls(name):
        return times.get(name, (0, 0.0))[0] / n_commands

    solves, solve_s = times.get("fredholm.solve_f_lambda", (0, 0.0))
    values = {
        "simulator.estimators.self_s": self_s(*(f"simulator.{n}" for n in ESTIMATORS)),
        "fredholm.solve_f_lambda.per_call_s": solve_s / solves if solves else 0.0,
        "trace.overhead_s": overhead_s,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        else:
            values[name] = tracer.counts.get(name, 0) / n_commands
    return {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import srdetect
    import srdetect.cli as cli
    from tracing import Tracer
    from workloads import WORKLOADS

    if not Path(srdetect.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported srdetect from {srdetect.__file__}, not from {SRC}")
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)

    # imports are timed before and after the measurement, so that their
    # median spans the same stretch of machine time as the commands
    setup_times: list[float] = []
    measure_setup(setup_times, warm_up=True)
    workload = WORKLOADS[name](seed, out)
    tally = Tally()
    if not trace:
        rounds = run_rounds(cli, workload, tally, seconds)
        measure_setup(setup_times)
        metrics = end_to_end(workload, tally, statistics.median(setup_times))
    else:
        tracer = Tracer(srdetect)
        rounds = 2 * run_rounds(cli, workload, tally, seconds, tracer)
        overhead = statistics.median(tally.traced_walls) - statistics.median(tally.walls)
        metrics = per_layer(tracer, len(tally.traced_walls), overhead)
        with open(out / "spans.json", "w") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)

    print(f"workload {name}: seed {seed}, {rounds} rounds, "
          f"{len(tally.walls) + len(tally.traced_walls)} commands, "
          f"{workload.work_unit}: {tally.work:.6g}")
    for note in tally.notes:
        print(f"  {note}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:38s} {v:14.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="verify-gamma20, simulate-gamma5, detect-ladder, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "srdetect" / "cli.py").is_file():
        print(f"error: no srdetect package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    # one child per workload, one at a time, so that each peak_rss_mb is its own
    results = {}
    for n in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", n, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[n] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
