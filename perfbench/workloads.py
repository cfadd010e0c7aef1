"""The three workloads: their commands, their oracles and their checks.

A workload prepares its inputs and oracle values once, outside the timed
region.  commands(k) lists the srdetect command lines of round k; after
each command the benchmark hands its index, exit code and captured
stdout to check(), which reads the command's CSV output and returns one
Check per checked output, plus the work the command completed.
Tolerances are derived in README.md.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import oracles
import streams

HEAD_START_TOL = 5e-5  # the paper quotes r* to four decimals


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    kept_fault: bool = False  # a failure here is the documented calibration fault


@dataclass(frozen=True)
class Result:
    checks: list[Check]
    work: float = 0.0           # work units the command completed
    std_err: float = math.nan   # standard error of the headline estimate, if any


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _failed(rc: int, n_ops: int) -> Result:
    return Result([Check("exit", False, f"exit code {rc}")] * n_ops)


class VerifyGamma20:
    """`verify --preset gamma20` on 10 of the preset's 200 rates."""

    name = "verify-gamma20"
    work_unit = "rates solved"
    gamma = 20.0
    rates = 10            # lambda = 1, 2, ..., 10: every 20th rate of the preset
    preset_n_quad = 1001  # the quadrature the gamma20 preset passes to calibrate
    fd_n = 20000
    # grid error of the 4001-node system, rounding of the printed r* and
    # the FD oracle's own error, with room to spare (README.md)
    tol_floor = 1e-5

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.r_star = oracles.r_star(self.gamma)
        self._fd: dict[float, tuple[float, list[tuple[float, float]]]] = {}
        self.argv = ["verify", "--preset", "gamma20", "--lambda-count", str(self.rates),
                     "--out", str(out)]

    def commands(self, k: int) -> list[list[str]]:
        return [self.argv]

    def clear(self, i: int) -> None:
        for f in ("lambda_sweep.csv", "f0_scan.csv"):
            (self.out / f).unlink(missing_ok=True)

    def _fd_oracle(self, r_prog: float):
        # FD values at the head start the program used, and the trapezoid
        # error of the f0 value the program pins at that node
        if r_prog not in self._fd:
            delta = oracles.trapezoid_error(r_prog, self.gamma, self.preset_n_quad)
            vals = [oracles.f_lambda(r_prog, self.gamma, float(lam), self.fd_n)
                    for lam in range(1, self.rates + 1)]
            self._fd[r_prog] = (delta, vals)
        return self._fd[r_prog]

    def check(self, i: int, rc: int, stdout: str) -> Result:
        if rc != 0:
            return _failed(rc, 2 + self.rates)
        r_prog = float(re.search(r"r_star=([0-9.]+)", stdout).group(1))
        checks = [
            Check("exit", True),
            Check("head start", abs(r_prog - self.r_star) <= HEAD_START_TOL,
                  f"r*={r_prog} oracle={self.r_star:.9f}"),
        ]
        solved = {float(a): float(b) for a, b in _rows(self.out / "lambda_sweep.csv")}
        delta, fd = self._fd_oracle(r_prog)
        tol = abs(delta) + self.tol_floor
        for lam, (ref, ref_err) in enumerate(fd, start=1):
            v = solved.get(float(lam), math.nan)
            ok = (math.isfinite(v) and v < 0.0 and ref < 0.0
                  and abs(v - ref) <= tol + 3.0 * ref_err)
            checks.append(Check(f"f_{lam}(r*)", ok, f"solved={v:.6e} fd={ref:.6e} tol={tol:.2e}"))
        return Result(checks, work=float(self.rates))


class SimulateGamma5:
    """`simulate --gamma 5 --checks all --lambda 0.5` at fixed dt, n_paths and seed."""

    name = "simulate-gamma5"
    work_unit = "path-steps"
    gamma = 5.0
    lam = 0.5
    dt = 1e-4
    n_paths = 6144
    # Fixed, not drawn from --seed: the CLI's own gates (3 SE on E[T], 4 SE
    # on D(r) with no step-size allowance) fail on a small share of seeds.
    sim_seed = 1
    target_se = 5e-4    # resolves f_8(r*) = -1.96e-3 at 4 SE
    fd_n = 10000
    bias_coef = 0.15    # dt-bias allowance on f_lambda: bias_coef * sqrt(dt)
    overshoot_coef = 1.5 * 0.5826  # allowance on E[T] - gamma: this * A * sqrt(2 dt)
    n_ops = 7           # exit code, E[T], martingale, three D(r), f_lambda

    def __init__(self, seed: int, out: Path):
        self.out = out / "sim_checks.csv"
        self.r_star = oracles.r_star(self.gamma)
        self.g_star = float(oracles.g(self.r_star, self.r_star, self.gamma))
        self.f_ref, self.f_err = oracles.f_lambda(self.r_star, self.gamma, self.lam, self.fd_n)
        self.argv = ["simulate", "--gamma", f"{self.gamma:g}", "--checks", "all",
                     "--lambda", str(self.lam), "--n-paths", str(self.n_paths),
                     "--dt", str(self.dt), "--seed", str(self.sim_seed), "--out", str(self.out)]

    def commands(self, k: int) -> list[list[str]]:
        return [self.argv]

    def clear(self, i: int) -> None:
        self.out.unlink(missing_ok=True)

    def check(self, i: int, rc: int, stdout: str) -> Result:
        if rc != 0:
            return _failed(rc, self.n_ops)
        rows = {r[0]: (float(r[1]), float(r[2])) for r in _rows(self.out)}
        checks = [Check("exit", True)]

        mean_t, se_t = rows["stoptime"]
        over = self.overshoot_coef * (self.r_star + self.gamma) * math.sqrt(2.0 * self.dt)
        checks.append(Check("E[T]", -4.0 * se_t <= mean_t - self.gamma <= 4.0 * se_t + over,
                            f"E[T]={mean_t:.5f}+-{se_t:.5f} allowance={over:.4f}"))

        d, se = rows["martingale"]
        checks.append(Check("E[R_T - r* - T]", abs(d) <= 4.0 * se, f"{d:.5f}+-{se:.5f}"))

        eq = sorted(k for k in rows if k.startswith("equalizer("))
        for k in eq:
            d, se = rows[k]
            checks.append(Check(k, abs(d - self.g_star) <= 4.0 * se,
                                f"D={d:.6f}+-{se:.6f} g*={self.g_star:.6f}"))

        f, se_f = rows[f"flambda(lambda={self.lam:g})"]
        allow = self.bias_coef * math.sqrt(self.dt)
        checks.append(Check("f_lambda", abs(f - self.f_ref) <= 4.0 * se_f + allow + self.f_err,
                            f"mc={f:.6f}+-{se_f:.6f} fd={self.f_ref:.6f} allowance={allow:.1e}"))
        if len(checks) != self.n_ops:
            checks = [Check("rows", False, f"{len(eq)} equalizer rows")] * self.n_ops
        return Result(checks, work=mean_t * self.n_paths / self.dt, std_err=se_f)


class DetectLadder:
    """`detect` over seeded streams: each round runs one fresh stream per ladder level."""

    name = "detect-ladder"
    work_unit = "records up to the alarm"
    ladder = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.r_star = {g: oracles.r_star(g) for g in self.ladder}
        self.results = [out / f"detection-{i}.csv" for i in range(len(self.ladder))]
        self.streams: list[streams.Stream] = []

    def commands(self, k: int) -> list[list[str]]:
        self.streams = [streams.make_stream(f"{self.seed}/{k}/{i}", g, self.r_star[g])
                        for i, g in enumerate(self.ladder)]
        argvs = []
        for i, s in enumerate(self.streams):
            path = self.out / f"stream-{i}.csv"
            s.write_csv(path)
            argvs.append(["detect", "--input", str(path), "--gamma", f"{s.gamma:g}",
                          "--out", str(self.results[i])])
        return argvs

    def clear(self, i: int) -> None:
        self.results[i].unlink(missing_ok=True)

    def check(self, i: int, rc: int, stdout: str) -> Result:
        if rc != 0:
            return _failed(rc, 2)
        s = self.streams[i]
        (stopped, alarm_time, r_final, threshold), = _rows(self.results[i])
        r0 = float(threshold) - s.gamma
        exp = streams.expected_outcome(s, r0)
        got_stopped = stopped == "1"
        got_record = round(float(alarm_time) / streams.DT)
        # the CSV prints 12 significant digits, so r0 carries a rounding
        # error of up to 5e-12 * threshold, which the recursion scales by gain
        r_tol = exp.gain * 1e-11 * float(threshold) + 1e-10 * abs(exp.r_final)
        ok = (got_stopped == exp.stopped and got_record == exp.alarm_record
              and abs(float(r_final) - exp.r_final) <= r_tol)
        err = abs(r0 - self.r_star[s.gamma])
        return Result([
            Check(f"alarm gamma={s.gamma:g}", ok,
                  f"got ({got_stopped}, {got_record}, {r_final}) expected "
                  f"({exp.stopped}, {exp.alarm_record}, {exp.r_final:.12g})"),
            Check(f"head start gamma={s.gamma:g}", err <= HEAD_START_TOL,
                  f"r*={r0:.9f} oracle={self.r_star[s.gamma]:.9f} error={err:.2e}",
                  kept_fault=True),
        ], work=float(exp.alarm_record))


WORKLOADS = {w.name: w for w in (VerifyGamma20, SimulateGamma5, DetectLadder)}
