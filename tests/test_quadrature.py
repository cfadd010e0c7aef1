"""Grid construction."""

import numpy as np
import pytest

from srdetect.quadrature import Grid, make_grid


def test_snap_moves_nearest_node_onto_r_star():
    grid = make_grid(0.5, 1.0, 1.0, 3)
    assert np.array_equal(grid.nodes, [0.5, 1.0, 2.0])
    assert grid.r_star_index == 1
    assert grid.r_star == 1.0
    assert grid.gamma == 1.0


def test_snap_keeps_endpoints_fixed():
    grid = make_grid(2e-3, 1.070673, 5.0, 2001)
    assert grid.nodes[0] == 2e-3
    assert grid.nodes[-1] == 1.070673 + 5.0
    assert grid.nodes[grid.r_star_index] == 1.070673
    assert np.all(np.diff(grid.nodes) > 0.0)


def test_snap_clipped_to_interior():
    # nearest lattice point to r* is the left endpoint; the snap must
    # land on an interior node instead so the endpoints stay exact
    grid = make_grid(0.9, 1.0, 4.9, 3)
    assert grid.nodes[0] == 0.9
    assert grid.r_star_index == 1
    assert grid.nodes[1] == 1.0
    assert grid.nodes[-1] == pytest.approx(5.9)


_BAD_ARGUMENTS = [
    (0.0, 1.0, 5.0, 11, "r_min"),
    (-1.0, 1.0, 5.0, 11, "r_min"),
    (1.2, 1.0, 5.0, 11, "r_min"),
    (0.5, 1.0, 0.0, 11, "gamma must be positive and finite"),
    (0.5, 1.0, -2.0, 11, "gamma must be positive and finite"),
    (0.5, 1.0, np.nan, 11, "gamma must be positive and finite"),
    (0.5, 1.0, np.inf, 11, "gamma must be positive and finite"),
    (0.5, np.nan, 5.0, 11, "r_star must be positive and finite"),
    (0.5, np.inf, 5.0, 11, "r_star must be positive and finite"),
    (0.5, 1.0, 5.0, 2, "at least 3 nodes"),
    (0.5, 1.0, 1e-17, 11, "below the resolution of r_star"),
]


# ids name the arguments only, as in "0.5-1.0-nan-11"
@pytest.mark.parametrize("r_min,r_star,gamma,n,match", _BAD_ARGUMENTS,
                         ids=["-".join(map(str, case[:4])) for case in _BAD_ARGUMENTS])
def test_make_grid_rejects_bad_arguments(r_min, r_star, gamma, n, match):
    with pytest.raises(ValueError, match=match):
        make_grid(r_min, r_star, gamma, n)


def test_grid_is_frozen():
    grid = make_grid(0.5, 1.0, 1.0, 5)
    assert isinstance(grid, Grid)
    with pytest.raises(AttributeError):
        grid.r_star_index = 0
