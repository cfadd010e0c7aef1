"""The grid on the statistic axis that the f_lambda scheme solves on.

make_grid spaces n nodes uniformly on [r_min, A] and moves the nearest
interior node onto the head start r*, so the solution is read at r*
without interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [r_min, A] with one node snapped onto r_star.

    nodes[0] == r_min, nodes[-1] == A == r_star + gamma, and
    nodes[r_star_index] == r_star exactly (the nearest interior node is
    moved there, so spacing is uniform except around that node).
    """

    nodes: np.ndarray
    r_star_index: int
    gamma: float

    @property
    def r_star(self) -> float:
        return float(self.nodes[self.r_star_index])


def make_grid(r_min: float, r_star: float, gamma: float, n: int) -> Grid:
    """Build an n-point grid on [r_min, r_star + gamma] containing r_star.

    The snap target is clipped to the interior so the endpoints are never
    displaced.  Requires 0 < r_min < r_star and n >= 3.
    """
    if n < 3:
        raise ValueError("grid needs at least 3 nodes")
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    if not (np.isfinite(r_star) and r_star > 0.0):
        raise ValueError("r_star must be positive and finite")
    if not (0.0 < r_min < r_star):
        raise ValueError("need 0 < r_min < r_star")
    nodes = np.linspace(r_min, r_star + gamma, n)
    idx = int(np.argmin(np.abs(nodes - r_star)))
    idx = min(max(idx, 1), n - 2)
    nodes[idx] = r_star
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError("grid nodes are not strictly increasing after snapping")
    return Grid(nodes=nodes, r_star_index=idx, gamma=float(gamma))
