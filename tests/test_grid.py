from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchctrl.errors import ShapeMismatchError
from quenchctrl.grid import (
    Field,
    Grid,
    TimeGrid,
    Trajectory,
    _cosine_modes,
    inner_product,
    inner_product_spacetime,
    laplacian_values,
    norm_l2_spacetime,
    norm_lp_spacetime,
    solve_step_system,
    time_h1_norm,
    trapezoid_weights,
)


def test_grid_basic_geometry():
    g = Grid.line(4, 2.0)
    assert g.dim == 1
    assert g.spacing == (0.5,)
    assert g.cell_volume == 0.5
    assert np.allclose(g.centers()[0], [0.25, 0.75, 1.25, 1.75])

    b = Grid.box((3, 2), (3.0, 1.0))
    assert b.dim == 2
    assert b.shape == (3, 2)
    assert b.spacing == (1.0, 0.5)
    assert b.cell_volume == 0.5
    pts = b.center_points()
    assert pts.shape == (6, 2)
    # C order: the y index runs fastest, matching reshape(-1)
    assert np.allclose(pts[0], [0.5, 0.25])
    assert np.allclose(pts[1], [0.5, 0.75])
    assert np.allclose(pts[2], [1.5, 0.25])


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Grid((2, 2, 2), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid.line(0, 1.0)
    with pytest.raises(ValueError):
        Grid.line(4, -1.0)


def test_time_grid_endpoints_exact():
    tg = TimeGrid(1.0, 200)
    t = tg.times()
    assert t[0] == 0.0
    assert t[-1] == 1.0
    assert len(t) == tg.n_nodes == 201
    assert tg.tau == pytest.approx(1.0 / 200)


def test_field_validation():
    g = Grid.line(4)
    with pytest.raises(ShapeMismatchError):
        Field(g, np.zeros(5))
    with pytest.raises(ValueError):
        Field(g, np.array([1.0, np.nan, 0.0, 0.0]))


def test_laplacian_constant_is_zero():
    g = Grid.box((6, 4), (1.0, 2.0))
    out = laplacian_values(g, np.full(g.shape, 3.7))
    assert np.array_equal(out, np.zeros(g.shape))


def test_laplacian_conserves_mass_and_is_symmetric():
    rng = np.random.default_rng(3)
    for g in (Grid.line(17, 1.3), Grid.box((5, 7), (2.0, 1.0))):
        f = rng.standard_normal(g.shape)
        h = rng.standard_normal(g.shape)
        lf = laplacian_values(g, f)
        lh = laplacian_values(g, h)
        assert abs(np.sum(lf) * g.cell_volume) < 1e-12
        lhs = inner_product(g, lf, h)
        rhs = inner_product(g, f, lh)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_norms_frozen_values():
    g = Grid.line(4, 2.0)  # cell volume 0.5
    tg = TimeGrid(1.0, 2)
    traj = Trajectory.constant(tg, g, 3.0)
    # constant 3 over a domain of measure 2 and unit horizon
    assert norm_l2_spacetime(tg, g, traj.values) == pytest.approx(3.0 * np.sqrt(2.0))
    assert norm_lp_spacetime(tg, g, traj.values, 6.0) == pytest.approx(3.0 * 2.0 ** (1.0 / 6.0))


@pytest.mark.parametrize("extent", [1e300, 1e-300])
def test_lp_norm_finite_where_the_quadrature_weight_leaves_the_range(extent):
    # tau·cell_volume is 1.7e599 or 1.7e-601, but the norm, (horizon·length)^(1/6)
    # for a unit constant, is 1e100 or 1e-100
    tg, g = TimeGrid(extent, 2), Grid.line(3, extent)
    traj = Trajectory.constant(tg, g, 1.0)
    expected = extent ** (1.0 / 3.0)
    assert norm_lp_spacetime(tg, g, traj.values, 6.0) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("value", [1e160, -1e160, 1e-170])
def test_l2_norm_finite_where_the_squares_leave_the_range(value):
    # the squares overflow to inf or underflow to 0; the norm of a constant
    # over a unit horizon and a domain of measure 1 is its absolute value
    tg, g = TimeGrid(1.0, 5), Grid.line(4, 1.0)
    traj = Trajectory.constant(tg, g, value)
    assert norm_l2_spacetime(tg, g, traj.values) == pytest.approx(abs(value), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("magnitude", [1e-80, 1e-8, 1.0, 1e8, 1e80])
def test_l2_norm_keeps_its_bits_at_ordinary_magnitudes(magnitude):
    # no scaling inside |log2 max| <= 300: the norm is the square root of
    # the space-time inner product, bit for bit
    rng = np.random.default_rng(7)
    for g in (Grid.line(16, 1.3), Grid.box((5, 4), (1.0, 0.7))):
        tg = TimeGrid(0.9, 11)
        traj = Trajectory(tg, g, magnitude * rng.standard_normal((tg.n_nodes,) + g.shape))
        expected = float(np.sqrt(inner_product_spacetime(tg, g, traj.values, traj.values)))
        assert norm_l2_spacetime(tg, g, traj.values).hex() == expected.hex()


def test_trapezoid_weights():
    w = trapezoid_weights(5)
    assert np.array_equal(w, np.array([0.5, 1.0, 1.0, 1.0, 0.5]))


def test_inner_product_spacetime_linear_ramp():
    # f = t on [0,1], unit domain: integral of t^2 is 1/3; the trapezoid
    # rule on a quadratic has a known tau^2/6 defect
    g = Grid.line(8, 1.0)
    tg = TimeGrid(1.0, 100)
    t = tg.times()
    traj = Trajectory(tg, g, np.broadcast_to(t[:, None], (tg.n_nodes,) + g.shape).copy())
    got = inner_product_spacetime(tg, g, traj.values, traj.values)
    assert got == pytest.approx(1.0 / 3.0 + tg.tau**2 / 6.0, rel=1e-12)


def test_time_h1_norm_constant():
    g = Grid.line(4, 1.0)
    tg = TimeGrid(2.0, 20)
    traj = Trajectory.constant(tg, g, 2.0)
    # no time variation: just the L2 part, |const|*sqrt(T)
    assert time_h1_norm(tg, g, traj.values) == pytest.approx(2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("value", [1e160, -1e160, 1e-170])
def test_time_h1_norm_finite_where_the_squares_leave_the_range(value):
    # c·t on [0, 1] over a domain of measure 1: the L2 part squared is
    # c²(1/3 + tau²/6) by the trapezoid rule, the difference quotients are c
    g, tg = Grid.line(4, 1.0), TimeGrid(1.0, 5)
    assert time_h1_norm(tg, g, Trajectory.constant(tg, g, value).values) == pytest.approx(
        abs(value), rel=1e-15, abs=0.0
    )
    ramp = Trajectory(tg, g, value * np.repeat(tg.times()[:, None], 4, axis=1))
    expected = abs(value) * np.sqrt(4.0 / 3.0 + tg.tau**2 / 6.0)
    assert time_h1_norm(tg, g, ramp.values) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("magnitude", [1e-80, 1e-8, 1.0, 1e8, 1e80])
def test_time_h1_norm_keeps_its_bits_at_ordinary_magnitudes(magnitude):
    # no scaling inside |log2 max| <= 300: the unscaled formula, bit for bit
    rng = np.random.default_rng(11)
    for g in (Grid.line(16, 1.3), Grid.box((5, 4), (1.0, 0.7))):
        tg = TimeGrid(0.9, 11)
        traj = Trajectory(tg, g, magnitude * rng.standard_normal((tg.n_nodes,) + g.shape))
        diffs = np.diff(traj.values, axis=0) / tg.tau
        dt_part = float(np.sum(diffs * diffs) * tg.tau * g.cell_volume)
        expected = float(np.sqrt(norm_l2_spacetime(tg, g, traj.values) ** 2 + dt_part))
        assert time_h1_norm(tg, g, traj.values).hex() == expected.hex()


def test_spacetime_functionals_refuse_a_mismatched_shape():
    # one cell array per time node, exactly: a single node, which numpy
    # would broadcast, is refused as well
    g, tg = Grid.box((3, 2)), TimeGrid(1.0, 4)
    good = np.ones((tg.n_nodes,) + g.shape)
    for bad in (np.ones((1,) + g.shape), np.ones((tg.n_nodes, 2, 3)), np.ones((tg.n_nodes, 6))):
        calls = (
            lambda: inner_product_spacetime(tg, g, good, bad),
            lambda: inner_product_spacetime(tg, g, bad, good),
            lambda: norm_l2_spacetime(tg, g, bad),
            lambda: norm_lp_spacetime(tg, g, bad, 6.0),
            lambda: time_h1_norm(tg, g, bad),
        )
        for call in calls:
            with pytest.raises(ShapeMismatchError, match=r"expected shape \(5, 3, 2\)"):
                call()
    assert inner_product_spacetime(tg, g, good, good) == pytest.approx(1.0)


def test_constant_profile_broadcasts_and_copies():
    # one private copy of the profile, seen read-only at every time node
    g = Grid.line(4, 1.0)
    tg = TimeGrid(1.0, 3)
    prof = np.array([1.0, 2.0, 3.0, 4.0])
    traj = Trajectory.constant(tg, g, prof)
    assert traj.values.shape == (4, 4)
    assert np.array_equal(traj.values, np.tile(prof, (4, 1)))
    assert traj.values.strides[0] == 0
    assert not traj.values.flags.writeable
    with pytest.raises(ValueError):
        traj.values[0, 0] = 99.0
    prof[0] = 99.0  # a later write to the caller's array does not show
    assert np.all(traj.values[:, 0] == 1.0)
    for const in (Trajectory.constant(tg, g, 2.5), Trajectory.constant(tg, g, 0.0)):
        assert const.values.strides[0] == 0 and not const.values.flags.writeable
        assert np.all(const.values == const.values[0, 0])


def test_trajectory_validation_scans_a_held_slice():
    g = Grid.line(3, 1.0)
    tg = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="finite"):
        Trajectory.constant(tg, g, np.array([0.0, np.inf, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        Trajectory.constant(tg, g, np.nan)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40))
def test_laplacian_kills_constants_any_size(n):
    g = Grid.line(n, 1.0)
    assert np.array_equal(laplacian_values(g, np.full(n, 2.5)), np.zeros(n))


def test_cosine_modes_built_once_and_read_only():
    modes, eig = _cosine_modes(12, 0.25)
    again = _cosine_modes(12, 0.25)
    assert again[0] is modes and again[1] is eig
    assert np.allclose(modes.T @ modes, np.eye(12))
    for array in (modes, eig):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def _exact_line_solve(grid, a, rhs):
    """(diag(a) − Δ_h) x = rhs on a line, by Thomas elimination in exact
    rational arithmetic on the float inputs, rounded once at the end."""
    k = Fraction(grid.spacing[0]) ** -2
    n = len(a)
    diag = [Fraction(ai) + k * (2 - (i == 0) - (i == n - 1)) for i, ai in enumerate(a.tolist())]
    y = [Fraction(r) for r in rhs.tolist()]
    for i in range(1, n):
        m = k / diag[i - 1]
        y[i] += m * y[i - 1]
        diag[i] -= m * k
    x = [y[-1] / diag[-1]]
    for i in range(n - 2, -1, -1):
        x.append((y[i] + k * x[-1]) / diag[i])
    return np.array([float(v) for v in reversed(x)])


@pytest.mark.parametrize("length", [1.0, 1e-3, 1e-5, 1e-7, 1e-8])
def test_line_step_solve_matches_exact_elimination_on_small_cells(length):
    # h^-2 runs from 4.1e3 to 4.1e19, so a (about 200) is lost next to it
    # from length 1e-7 on; the solve must keep its digits all the same
    grid = Grid.line(64, length)
    rng = np.random.default_rng(7)
    systems = [
        (rng.uniform(150.0, 250.0, 64), rng.standard_normal(64)),
        (np.full(64, 200.0), np.ones(64)),
    ]
    for a, rhs in systems:
        exact = _exact_line_solve(grid, a, rhs)
        got = solve_step_system(grid, a, rhs)
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
