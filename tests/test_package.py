"""The package namespace."""

import subprocess
import sys

import srdetect


def test_all_names_resolve_and_are_unique():
    assert len(set(srdetect.__all__)) == len(srdetect.__all__)
    for name in srdetect.__all__:
        assert getattr(srdetect, name) is not None


def test_cli_import_leaves_scipy_unloaded():
    # scipy is most of the import time; it loads only when a command
    # calibrates or solves
    code = ("import sys, srdetect.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
