"""End-to-end command line behavior via in-process main() calls."""

import csv
import math
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from srdetect import _checks, cli
from srdetect.calibration import calibrate, f0_at
from srdetect.cli import _BLOCK_LINES, _read_increments, main
from srdetect.simulator import McEstimate

SQRT2 = math.sqrt(2.0)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)


def skeleton_rows(n, dt=1e-3):
    # du = -dt + sqrt(2) dxi = 0 per record: statistic climbs by dt
    return [[dt, dt / SQRT2] for _ in range(n)]


def test_calibrate_writes_csv(tmp_path, capsys):
    out = tmp_path / "cal.csv"
    rc = main(["calibrate", "--gamma", "2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["gamma", "r_star", "residual", "iterations"]
    assert float(rows[0][1]) == pytest.approx(0.786762, abs=1e-4)
    assert "r_star=0.786" in capsys.readouterr().out


def test_calibrate_rejects_bad_gamma(capsys):
    rc = main(["calibrate", "--gamma", "-1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # a root below the bracket [0.05, 2.3] is bad input too
    assert main(["calibrate", "--gamma", "1e-3"]) == 2
    assert "no sign change on the bracket" in capsys.readouterr().err


def test_verify_small_domain(tmp_path, capsys):
    rc = main([
        "verify", "--gamma", "2", "--grid-n", "301", "--lambda-count", "5",
        "--scan-n", "10", "--r-min", "5e-3", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out

    header, rows = read_csv(tmp_path / "lambda_sweep.csv")
    assert header == ["lambda", "f_lambda_r_star"]
    assert len(rows) == 6  # lambda = 0 row prepended to the 5 requested
    lam0, val0 = float(rows[0][0]), float(rows[0][1])
    assert lam0 == 0.0
    # the lambda = 0 entry reproduces the calibration residual
    assert abs(val0 - calibrate(2.0).residual) <= 1e-6
    assert all(float(r[1]) < 0.0 for r in rows[1:])

    header, rows = read_csv(tmp_path / "f0_scan.csv")
    assert header == ["r", "f0"]
    assert len(rows) == 10


def test_verify_prints_solve_diagnostics(tmp_path, capsys):
    rc = main([
        "verify", "--gamma", "2", "--grid-n", "301", "--lambda-count", "5",
        "--scan-n", "10", "--r-min", "5e-3", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("gamma=2: r_star=")
    assert lines[2] == ("sign check f_lambda(r_star) < -grid_error for lambda > 0: "
                        "PASS (5/5 values below)")
    resid, pivot = re.fullmatch(
        r"solve diagnostics: worst residual (\S+), smallest pivot (\S+)", lines[3]
    ).groups()
    assert float(resid) <= 1e-12
    assert 0.1 <= float(pivot) <= 1.0
    grid_error = re.fullmatch(r"grid error: (\S+) \(.*\)", lines[4]).group(1)
    assert 0.0 < float(grid_error) <= 1e-7


def test_verify_fails_inside_grid_error(tmp_path, capsys):
    # at lambda = 1e-6 the value is negative, but closer to 0 than the
    # scheme's error at lambda = 0, so it shows no sign
    rc = main([
        "verify", "--gamma", "2", "--grid-n", "301", "--lambda-count", "1",
        "--lambda-max", "1e-6", "--scan-n", "5", "--r-min", "5e-3", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL (0/1 values below)" in out
    grid_error = float(re.search(r"grid error: (\S+)", out).group(1))
    _, rows = read_csv(tmp_path / "lambda_sweep.csv")
    assert -grid_error < float(rows[1][1]) < 0.0


def test_verify_reports_factorization_failure(tmp_path, capsys, monkeypatch):
    from scipy.linalg import lapack

    monkeypatch.setattr(lapack, "dpttrf", lambda d, e: (d, e, 1))
    rc = main([
        "verify", "--gamma", "2", "--grid-n", "301", "--lambda-count", "2",
        "--scan-n", "5", "--r-min", "5e-3", "--out", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert rc == 3
    assert "solve failed at lambda=5: dpttrf returned info = 1" in captured.err
    assert "FAIL (0/2 values below)" in captured.out


def test_verify_accepts_explicit_r_star(tmp_path, capsys):
    rc = main([
        "verify", "--gamma", "2", "--r-star", "0.7868", "--grid-n", "301",
        "--lambda-count", "5", "--scan-n", "5",
        "--r-min", "5e-3", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_csv(tmp_path / "lambda_sweep.csv")
    f0 = f0_at(0.7868, 0.7868, 2.0)
    assert float(rows[0][1]) == pytest.approx(f0, abs=1e-12)
    assert f"f0(r_star)={f0:.3e}" in capsys.readouterr().out


def test_verify_rejects_gamma_below_the_resolution_of_r_star(tmp_path, capsys):
    # A = r* + gamma rounds to r*: the run stops before it writes a file
    out = tmp_path / "out"
    assert main(["verify", "--gamma", "1e-17", "--r-star", "1", "--out", str(out)]) == 2
    assert "gamma=1e-17 is below the resolution of r_star=1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_argument_errors(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 2  # no gamma, no preset
    assert main(["verify", "--gamma", "2", "--lambda-count", "0",
                 "--out", str(tmp_path)]) == 2
    for bad in ("0", "nan", "inf"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--gamma", "2", "--lambda-max", bad,
                         "--out", str(tmp_path)]) == 2
        assert "--lambda-max must be positive and finite" in capsys.readouterr().err
    capsys.readouterr()


def test_simulate_small_run_passes(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    rc = main(["simulate", "--gamma", "2", "--n-paths", "2000", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["check", "mean", "std_err", "n_paths", "target", "pass"]
    names = [r[0] for r in rows]
    assert names[:3] == ["stoptime", "martingale", "flambda(lambda=0)"]
    assert sum(n.startswith("equalizer") for n in names) == 3
    assert all(r[5] == "1" for r in rows)
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    # the share of bridge kills and the control-variate gain at each rate
    assert "bridge kills:" in stdout
    assert "variance ratio (plain/CV):" in stdout and "at lambda=0" in stdout


def test_simulate_flags_miscalibrated_r_star(tmp_path, capsys):
    rc = main(["simulate", "--gamma", "5", "--r-star", "0.3", "--checks", "flambda",
               "--n-paths", "2000", "--dt", "1e-3", "--seed", "9",
               "--out", str(tmp_path / "bad.csv")])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


def test_simulate_argument_errors(tmp_path, capsys):
    assert main(["simulate", "--gamma", "2", "--checks", "nonsense",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown checks" in capsys.readouterr().err
    # the equalizer rows are computed at lambda = 0, whatever --lambda is
    assert main(["simulate", "--gamma", "2", "--checks", "equalizer",
                 "--lambda", "1.0", "--n-paths", "500",
                 "--out", str(tmp_path / "y.csv")]) == 0
    assert "equalizer(r=3)" in capsys.readouterr().out
    # the head starts are fixed, and there is no noiseless mode
    for flags in (["--r", "3"], ["--noiseless"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--gamma", "2", *flags, "--out", str(tmp_path / "z.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "z.csv").exists()
    # a horizon that caps most paths would bias E[T] low
    assert main(["simulate", "--gamma", "5", "--t-max", "1", "--n-paths", "200",
                 "--dt", "1e-3", "--out", str(tmp_path / "capped.csv")]) == 2
    assert "hit the horizon" in capsys.readouterr().err
    assert not (tmp_path / "capped.csv").exists()


def test_simulate_rejects_fewer_than_two_paths(tmp_path, capsys, monkeypatch):
    # one path has no standard error; the run stops before any path
    def no_paths(*args, **kwargs):
        raise AssertionError("paths were simulated")

    monkeypatch.setattr(cli, "simulate_paths", no_paths)
    for n in ("1", "0"):
        assert main(["simulate", "--gamma", "2", "--n-paths", n,
                     "--out", str(tmp_path / "one.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n-paths must be at least 2" in captured.err
    assert not (tmp_path / "one.csv").exists()


# each gate's width in standard errors, the estimator it reads, and the
# estimate's target on a gamma = 2 run
_GATES = {
    "stoptime": (3.0, "mc_mean_stop_time", 2.0),
    "martingale": (3.0, "_estimate", 0.0),
    "flambda": (4.0, "mc_f_lambda", 0.0),
    "equalizer": (4.0, "mc_f_lambda", 0.0),
}


@pytest.mark.parametrize("check", sorted(_GATES))
@pytest.mark.parametrize("side,offset,rc", [(1, 0.5, 4), (-1, 0.5, 4), (1, -0.1, 0)],
                         ids=["above", "below", "inside"])
def test_simulate_gates_sit_at_their_widths(tmp_path, capsys, monkeypatch, check, side, offset,
                                            rc):
    # an estimate (k + offset) SE above or below its target, k the gate's width
    k, estimator, target = _GATES[check]
    z, se = side * (k + offset), 0.01

    def shifted(*args, **kwargs):
        return McEstimate(mean=target + z * se, std_err=se, n_paths=200)

    monkeypatch.setattr(_checks.simulator, estimator, shifted)
    out = tmp_path / "gate.csv"
    # the flambda(lambda=0) row gives the equalizer rows their verdict
    checks = "flambda,equalizer" if check == "equalizer" else check
    assert main(["simulate", "--gamma", "2", "--checks", checks, "--n-paths", "200",
                 "--dt", "1e-3", "--out", str(out)]) == rc
    assert ("FAIL" in capsys.readouterr().out) == (rc == 4)
    _, rows = read_csv(out)
    names = {"flambda": ["flambda(lambda=0)"],
             "equalizer": ["flambda(lambda=0)", "equalizer(r=0)",
                           f"equalizer(r={calibrate(2.0).r_star:g})", "equalizer(r=3)"]}
    assert [row[0] for row in rows] == names.get(check, [check])
    assert all(row[5] == str(int(rc == 0)) for row in rows)


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SRDETECT_OUT", str(tmp_path / "results"))
    rc = main(["calibrate", "--gamma", "2"])
    assert rc == 0
    assert (tmp_path / "results" / "calibration.csv").exists()


def _out_argv(command, tmp_path):
    """Arguments for a quick run of command, up to its --out value."""
    if command == "detect":
        inp = tmp_path / "obs.csv"
        write_csv(inp, skeleton_rows(6000), header=["dt", "dxi"])
        return ["detect", "--input", str(inp), "--gamma", "5", "--r-star", "1.0707", "--out"]
    return {
        "calibrate": ["calibrate", "--gamma", "2", "--out"],
        "verify": ["verify", "--gamma", "2", "--grid-n", "301", "--lambda-count", "5",
                   "--scan-n", "10", "--r-min", "5e-3", "--out"],
        "simulate": ["simulate", "--gamma", "2", "--checks", "stoptime", "--n-paths", "500",
                     "--out"],
    }[command]


@pytest.mark.parametrize("command", ["calibrate", "verify", "simulate", "detect"])
def test_out_creates_missing_parent_directories(tmp_path, capsys, command):
    out = tmp_path / "new" / "nested" / "out.csv"
    assert main([*_out_argv(command, tmp_path), str(out)]) == 0
    if command == "verify":  # --out names a directory
        assert {p.name for p in out.iterdir()} == {"f0_scan.csv", "lambda_sweep.csv"}
    else:
        assert read_csv(out)[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["calibrate", "verify", "simulate", "detect"])
def test_unusable_out_exits_2_with_one_line(tmp_path, capsys, command):
    # a directory where a file is expected, and a file where verify expects a directory
    out = tmp_path / "taken"
    if command == "verify":
        out.write_text("keep\n")
    else:
        out.mkdir()
    assert main([*_out_argv(command, tmp_path), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(out) in err
    assert len(err.splitlines()) == 1
    if command == "verify":
        assert out.read_text() == "keep\n"
    else:
        assert not any(out.iterdir())


def test_detect_alarm_on_skeleton(tmp_path, capsys):
    inp = tmp_path / "obs.csv"
    write_csv(inp, skeleton_rows(6000), header=["dt", "dxi"])
    out = tmp_path / "det.csv"
    rc = main(["detect", "--input", str(inp), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(out)])
    assert rc == 0
    assert "alarm at t=5" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["stopped", "alarm_time", "r_final", "threshold"]
    assert rows[0][0] == "1"
    assert float(rows[0][1]) == pytest.approx(5.0, abs=1e-9)
    assert float(rows[0][2]) >= float(rows[0][3])


def test_detect_headerless_and_cumulative_time_agree(tmp_path):
    dt = 1e-3
    plain = tmp_path / "plain.csv"
    write_csv(plain, skeleton_rows(6000, dt))
    cumul = tmp_path / "cumul.csv"
    write_csv(cumul, [[(k + 1) * dt, dt / SQRT2] for k in range(6000)],
              header=["t", "dxi"])
    outs = []
    for inp in (plain, cumul):
        out = tmp_path / (inp.stem + "_det.csv")
        assert main(["detect", "--input", str(inp), "--gamma", "5",
                     "--r-star", "1.0707", "--out", str(out)]) == 0
        outs.append(read_csv(out)[1][0])
    assert outs[0][0] == outs[1][0] == "1"
    # reconstructing dt from stamps carries ulp jitter: allow one step
    assert float(outs[0][1]) == pytest.approx(float(outs[1][1]), abs=2e-3)


def test_detect_zero_increments_no_alarm(tmp_path, capsys):
    inp = tmp_path / "zeros.csv"
    write_csv(inp, [[1e-3, 0.0]] * 3000, header=["dt", "dxi"])
    rc = main(["detect", "--input", str(inp), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(tmp_path / "z.csv")])
    assert rc == 0
    assert "no alarm" in capsys.readouterr().out
    _, rows = read_csv(tmp_path / "z.csv")
    assert rows[0][0] == "0"
    assert float(rows[0][2]) == pytest.approx(1.0, abs=0.1)


def test_detect_missing_input(tmp_path, capsys):
    rc = main(["detect", "--input", str(tmp_path / "nope.csv"), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(tmp_path / "d.csv")])
    assert rc == 5
    assert "does not exist" in capsys.readouterr().err


def test_detect_malformed_row_names_line(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    write_csv(inp, [[1e-3, 0.0], ["abc", 0.0]], header=["dt", "dxi"])
    rc = main(["detect", "--input", str(inp), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(tmp_path / "d.csv")])
    assert rc == 5
    assert "line 3" in capsys.readouterr().err


def test_detect_names_physical_line_after_blank_row(tmp_path, capsys):
    inp = tmp_path / "blank.csv"
    inp.write_text("dt,dxi\n0.001,0\n\n0.001,0\nabc,0\n")
    rc = main(["detect", "--input", str(inp), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(tmp_path / "d.csv")])
    assert rc == 5
    assert "line 5" in capsys.readouterr().err


def test_detect_ignores_rows_after_alarm(tmp_path, capsys):
    inp = tmp_path / "tail.csv"
    write_csv(inp, skeleton_rows(6000) + [["abc", "def"], ["1e-3"]], header=["dt", "dxi"])
    out = tmp_path / "det.csv"
    rc = main(["detect", "--input", str(inp), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(out)])
    assert rc == 0
    assert "alarm at t=5" in capsys.readouterr().out
    assert read_csv(out)[1][0][0] == "1"


@pytest.mark.parametrize(
    "args,msg",
    [
        (["--gamma", "-1"], "gamma"),
        (["--gamma", "5", "--r-star", "-0.5"], "r_star"),
    ],
)
def test_detect_argument_errors_exit_2(tmp_path, capsys, args, msg):
    inp = tmp_path / "obs.csv"
    write_csv(inp, skeleton_rows(10), header=["dt", "dxi"])
    out = tmp_path / "d.csv"
    assert main(["detect", "--input", str(inp), "--out", str(out)] + args) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_detect_rejects_stalled_timestamps(tmp_path, capsys):
    inp = tmp_path / "stall.csv"
    write_csv(inp, [[1e-3, 0.0], [1e-3, 0.0]], header=["t", "dxi"])
    rc = main(["detect", "--input", str(inp), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(tmp_path / "d.csv")])
    assert rc == 5
    assert "strictly increasing" in capsys.readouterr().err


def per_row_records(path):
    """(dt, dxi) from float() on each non-blank csv row: the reader's reference."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    header = [c.strip().lower() for c in rows[0]]
    i_x = header.index("dxi")
    cumulative = "dt" not in header
    i_t = header.index("t" if cumulative else "dt")
    out, prev = [], 0.0
    for row in rows[1:]:
        tval, xval = float(row[i_t]), float(row[i_x])
        out.append((tval - prev if cumulative else tval, xval))
        prev = tval
    return out


def detect_exit(path, tmp_path, capsys):
    rc = main(["detect", "--input", str(path), "--gamma", "5",
               "--r-star", "1.0707", "--out", str(tmp_path / "d.csv")])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("j", [-2, -1, 0, 1, 2, 3])
def test_detect_bad_row_at_block_boundary_names_its_line(tmp_path, capsys, j):
    # line 1 is the header, so the blocks after it end at lines 1 + k * _BLOCK_LINES;
    # blank and ",," rows sit on both sides of the second boundary
    boundary = 1 + 2 * _BLOCK_LINES
    bad = boundary + j
    lines = ["dt,dxi"]
    for lineno in range(2, boundary + 10):
        if lineno == bad:
            lines.append("0.001,abc")
        elif lineno - boundary in (-4, 5):
            lines.append("")
        elif lineno - boundary in (-3, 4):
            lines.append(",,")
        else:
            lines.append("0.001,0")
    inp = tmp_path / "bad.csv"
    inp.write_text("\n".join(lines) + "\n")
    rc, out = detect_exit(inp, tmp_path, capsys)
    assert rc == 5
    assert f"line {bad}: non-numeric value" in out.err


@pytest.mark.parametrize("blank", [False, True])
def test_time_stamps_across_blocks_match_per_row_parse(tmp_path, blank):
    rng = random.Random(7)
    t, lines = 0.0, ["t,dxi"]
    for k in range(3 * _BLOCK_LINES + 17):
        t += rng.uniform(1e-4, 2e-3)
        lines.append(f"{t!r},{rng.gauss(0.0, 0.03)!r}")
        if blank and k % 1000 == 999:
            lines.append("")
    inp = tmp_path / "stamps.csv"
    inp.write_text("\n".join(lines) + "\n")
    got = list(_read_increments(inp))
    assert len(got) == 3 * _BLOCK_LINES + 17
    assert np.array(got).tobytes() == np.array(per_row_records(inp)).tobytes()


def test_dxi_before_dt_with_extra_column(tmp_path):
    rng = random.Random(3)
    rows = [[rng.gauss(0.0, 0.03), "note", rng.uniform(1e-4, 1e-3)]
            for _ in range(_BLOCK_LINES + 5)]
    inp = tmp_path / "order.csv"
    write_csv(inp, [[repr(x), n, repr(d)] for x, n, d in rows], header=["dxi", "note", "dt"])
    assert list(_read_increments(inp)) == [(d, x) for x, _, d in rows]


def test_quoted_numbers_and_crlf_lines(tmp_path):
    rng = random.Random(5)
    rows = [[rng.uniform(1e-4, 1e-3), rng.gauss(0.0, 0.03)] for _ in range(_BLOCK_LINES + 5)]
    inp = tmp_path / "quoted.csv"
    with open(inp, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n")
        w.writerow(["dt", "dxi"])
        w.writerows([repr(d), repr(x)] for d, x in rows)
    assert inp.read_bytes().count(b"\r\n") == len(rows) + 1
    assert list(_read_increments(inp)) == [tuple(r) for r in rows]


def test_detect_hash_in_a_cell_is_an_error(tmp_path, capsys):
    inp = tmp_path / "hash.csv"
    inp.write_text("dt,dxi\n0.001,0\n0.001,0 # comment\n0.001,0\n")
    rc, out = detect_exit(inp, tmp_path, capsys)
    assert rc == 5
    assert "line 3: non-numeric value" in out.err


@pytest.mark.parametrize("offset,rc", [(-500, 5), (100, 0)])
def test_bad_row_in_the_alarm_block(tmp_path, capsys, offset, rc):
    # the skeleton alarms at its 5000th record (line 5001), inside the
    # block of lines 2 + _BLOCK_LINES .. 1 + 2 * _BLOCK_LINES
    rows = skeleton_rows(6000)
    rows[5000 + offset - 1] = ["0.001", "abc"]
    inp = tmp_path / "alarm.csv"
    write_csv(inp, rows, header=["dt", "dxi"])
    code, out = detect_exit(inp, tmp_path, capsys)
    assert code == rc
    if rc == 5:
        assert f"line {5001 + offset}: non-numeric value" in out.err
    else:
        assert "alarm at t=5" in out.out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "srdetect.cli", "calibrate", "--gamma", "2",
         "--out", str(tmp_path / "cal.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "r_star=0.786" in proc.stdout
