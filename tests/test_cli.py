"""End-to-end command line behavior via in-process main() calls."""

import csv
import math
import subprocess
import sys

import pytest

from srdetect.calibration import calibrate, f0_at
from srdetect.cli import main

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


def test_verify_accepts_explicit_r_star(tmp_path):
    rc = main([
        "verify", "--gamma", "2", "--r-star", "0.7868", "--grid-n", "301",
        "--lambda-count", "5", "--scan-n", "5",
        "--r-min", "5e-3", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_csv(tmp_path / "lambda_sweep.csv")
    assert float(rows[0][1]) == pytest.approx(f0_at(0.7868, 0.7868, 2.0), abs=1e-12)


def test_verify_argument_errors(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 2  # no gamma, no preset
    assert main(["verify", "--gamma", "2", "--lambda-count", "0",
                 "--out", str(tmp_path)]) == 2
    assert main(["verify", "--gamma", "2", "--lambda-max", "0",
                 "--out", str(tmp_path)]) == 2
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
    assert "FAIL" not in capsys.readouterr().out


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
    # the equalizer rows are computed at lambda = 0, so --lambda does not
    # bound --r
    assert main(["simulate", "--gamma", "2", "--checks", "equalizer",
                 "--lambda", "1.0", "--r", "3.0", "--n-paths", "500",
                 "--out", str(tmp_path / "y.csv")]) == 0
    assert "equalizer(r=3)" in capsys.readouterr().out
    # bad head starts are caught before any path is simulated
    for bad in ("-1", "nan"):
        assert main(["simulate", "--gamma", "2", "--r", bad, "--n-paths", "100",
                     "--dt", "1e-3", "--out", str(tmp_path / "z.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--r must be nonnegative and finite" in captured.err
    assert not (tmp_path / "z.csv").exists()
    # a horizon that caps most paths would bias E[T] low
    assert main(["simulate", "--gamma", "5", "--t-max", "1", "--n-paths", "200",
                 "--dt", "1e-3", "--out", str(tmp_path / "capped.csv")]) == 2
    assert "hit the horizon" in capsys.readouterr().err
    assert not (tmp_path / "capped.csv").exists()


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SRDETECT_OUT", str(tmp_path / "results"))
    rc = main(["calibrate", "--gamma", "2"])
    assert rc == 0
    assert (tmp_path / "results" / "calibration.csv").exists()


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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "srdetect.cli", "calibrate", "--gamma", "2",
         "--out", str(tmp_path / "cal.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "r_star=0.786" in proc.stdout
