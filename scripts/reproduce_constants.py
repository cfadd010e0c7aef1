"""Reproduce the calibrated head-start constants and their large-gamma limit.

Prints r* for a ladder of false-alarm levels, the two headline values at
gamma = 5 and gamma = 20, and the limiting root of e^(1/r) E1(1/r) = 1.

Usage: python scripts/reproduce_constants.py
"""

import argparse

from srdetect.calibration import asymptotic_r_star, calibrate


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    print(f"{'gamma':>8s} {'r*':>10s} {'|f0(r*)|':>10s} {'steps':>6s}")
    for gamma in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0):
        res = calibrate(gamma)
        print(f"{gamma:8g} {res.r_star:10.6f} {abs(res.residual):10.2e} {res.iterations:6d}")

    root = asymptotic_r_star()
    print(f"\nlimiting head start (gamma -> inf): {root:.6f}")
    print("reference values: r*(5) = 1.0707, r*(20) = 1.5240, limit = 2.299812")


if __name__ == "__main__":
    main()
