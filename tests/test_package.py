"""The package namespace."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srdetect


def test_all_names_resolve_and_are_unique():
    assert len(set(srdetect.__all__)) == len(srdetect.__all__)
    for name in srdetect.__all__:
        assert getattr(srdetect, name) is not None


def test_public_names_are_pinned():
    # a helper that only tests call does not belong here; adding a public
    # name is a deliberate edit of this list
    assert sorted(srdetect.__all__) == sorted([
        "CalibrationResult", "Grid", "HorizonCapError", "LambdaSweep", "McEstimate",
        "SimBatch", "SimConfig", "asymptotic_r_star", "calibrate", "detect_stream",
        "e1_scaled", "f0_at", "g", "make_grid", "mc_f_lambda",
        "mc_mean_stop_time", "simulate_paths", "sweep_lambda", "__version__",
    ])


def _names_read_outside_own_definition() -> set[str]:
    """Names the package's code reads, leaving out each top-level definition's
    references to itself; imports and comments do not count."""
    names = set()
    for path in Path(srdetect.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    names.add(name)
    return names


def test_public_definitions_are_exported_or_used():
    # a public function or class that only tests reach belongs in the tests
    used = _names_read_outside_own_definition()
    orphans = []
    for info in pkgutil.iter_modules(srdetect.__path__):
        mod = importlib.import_module(f"srdetect.{info.name}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == mod.__name__
                    and attr not in srdetect.__all__ and attr not in used):
                orphans.append(f"{mod.__name__}.{attr}")
    assert orphans == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy is most of the import time; it loads only when a command
    # calibrates or solves
    code = ("import sys, srdetect.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


@pytest.mark.parametrize("command", ["calibrate", "detect", "simulate"])
def test_commands_leave_scipy_unloaded(tmp_path, command):
    # only verify solves with LAPACK; the other commands start without
    # importing scipy, which would be most of their start-up time
    inp = tmp_path / "obs.csv"
    inp.write_text("dt,dxi\n" + "0.001,0.0007\n" * 100)
    argv = {
        "calibrate": ["calibrate", "--gamma", "5", "--out", str(tmp_path / "cal.csv")],
        "detect": ["detect", "--input", str(inp), "--gamma", "5", "--out", str(tmp_path / "d.csv")],
        "simulate": ["simulate", "--gamma", "5", "--n-paths", "64", "--dt", "1e-3",
                     "--out", str(tmp_path / "sim.csv")],
    }[command]
    code = ("import sys; from srdetect.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert rc in ("0", "4"), proc.stdout  # 4: a 64-path simulate may fail a check
    assert loaded == "[]", proc.stdout
