"""Grid construction and trapezoid differential-measure weights."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srdetect.quadrature import Grid, diff_weights, make_grid


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


def test_diff_weights_telescope():
    b = np.exp(-np.linspace(0.1, 3.0, 57))
    w = diff_weights(b)
    assert np.sum(w) == pytest.approx(b[-1] - b[0], abs=1e-15)


def test_diff_weights_integrate_constant_exactly():
    b = np.cumsum(np.random.default_rng(0).uniform(0.1, 1.0, 23))
    w = diff_weights(b)
    assert np.full(23, 7.0) @ w == pytest.approx(7.0 * (b[-1] - b[0]), rel=1e-14)


def test_diff_weights_linear_in_b():
    # integral of b db = (b_end^2 - b_0^2)/2 for the trapezoid weights
    b = np.linspace(0.0, 2.0, 101)
    w = diff_weights(b)
    assert b @ w == pytest.approx(2.0, rel=1e-12)


def test_diff_weights_requires_three_samples():
    with pytest.raises(ValueError):
        diff_weights(np.array([1.0, 2.0]))


@given(
    st.integers(min_value=3, max_value=60),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_telescoping_property(n, b0, spread):
    b = b0 + np.linspace(0.0, spread, n) ** 2
    w = diff_weights(b)
    assert np.sum(w) == pytest.approx(b[-1] - b[0], abs=1e-12)


def test_grid_is_frozen():
    grid = make_grid(0.5, 1.0, 1.0, 5)
    assert isinstance(grid, Grid)
    with pytest.raises(AttributeError):
        grid.r_star_index = 0
