"""Grid construction."""

import numpy as np
import pytest

from srdetect.quadrature import Grid, make_grid


def test_snap_moves_nearest_node_onto_r_star():
    grid = make_grid(0.5, 1.0, 1.0, 3)
    assert np.array_equal(grid.nodes, [0.5, 1.0, 2.0])
    assert grid.r_star_index == 1
    assert grid.r_star == 1.0
    assert grid.threshold == 2.0
    assert grid.n == 3


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


@pytest.mark.parametrize(
    "r_min,r_star,gamma,n",
    [
        (0.0, 1.0, 5.0, 11),
        (-1.0, 1.0, 5.0, 11),
        (1.2, 1.0, 5.0, 11),
        (0.5, 1.0, 0.0, 11),
        (0.5, 1.0, -2.0, 11),
        (0.5, 1.0, 5.0, 2),
    ],
)
def test_make_grid_rejects_bad_arguments(r_min, r_star, gamma, n):
    with pytest.raises(ValueError):
        make_grid(r_min, r_star, gamma, n)


def test_grid_is_frozen():
    grid = make_grid(0.5, 1.0, 1.0, 5)
    assert isinstance(grid, Grid)
    with pytest.raises(AttributeError):
        grid.r_star_index = 0
