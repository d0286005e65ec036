import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchctrl.errors import ConfigError
from quenchctrl.costs import (
    AdmissibleSet,
    CostWeights,
    anchored_tracking_cost,
    project_admissible,
    tracking_cost,
    tracking_misfit_sq,
)
from quenchctrl.grid import Grid, TimeGrid, Trajectory, time_h1_norm
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.potentials import PotentialConfig
from quenchctrl.state import InitialData, solve_state


def make_weights(tg, g, rw=1.0, mw=0.5, cw=2.0, rho_t=0.8, mu_t=1.0):
    return CostWeights(
        rho_weight=rw,
        mu_weight=mw,
        control_weight=cw,
        rho_target=Trajectory.constant(tg, g, rho_t),
        mu_target=Trajectory.constant(tg, g, mu_t),
    )


def test_weight_validation_a4():
    g = Grid.line(4, 1.0)
    tg = TimeGrid(1.0, 2)
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        make_weights(tg, g, rw=-1.0)
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        make_weights(tg, g, rw=0.0, mw=0.0, cw=0.0)
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        AdmissibleSet(Trajectory.constant(tg, g, -1.0))
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        AdmissibleSet(Trajectory.constant(tg, g, 1.0), h1_budget=0.0)


def test_misfit_left_endpoint_rule():
    # misfit of a time ramp against zero: left-endpoint sum over nodes
    # 0..nt-1 of (n*tau)^2 * tau, unit measure domain
    g = Grid.line(5, 1.0)
    tg = TimeGrid(1.0, 4)
    t = tg.times()
    traj = Trajectory(tg, g, np.broadcast_to(t[:, None], (5, 5)).copy())
    zero = Trajectory.zeros(tg, g)
    expected = sum((n * tg.tau) ** 2 * tg.tau for n in range(4))
    assert tracking_misfit_sq(traj, zero) == pytest.approx(expected, rel=1e-14)
    # the value at the final node must not enter
    bumped = Trajectory(tg, g, traj.values.copy())
    bumped.values[-1] += 100.0
    assert tracking_misfit_sq(bumped, zero) == tracking_misfit_sq(traj, zero)


def test_misfit_rejects_mismatched_discretization():
    g = Grid.line(5, 1.0)
    tg = TimeGrid(1.0, 4)
    other = TimeGrid(1.0, 5)
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        tracking_misfit_sq(Trajectory.zeros(tg, g), Trajectory.zeros(other, g))


def test_tracking_cost_frozen_value():
    # constant fields make every term a closed form
    grid = Grid.line(8, 1.0)
    tg = TimeGrid(1.0, 10)
    model = PotentialConfig(f_strength=0.0, g_family="zero")
    op = NonlocalOperator(Kernel.zero(), grid)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.zeros(grid.shape))
    u = Trajectory.zeros(tg, grid)
    sol = solve_state(u, 1.0, init, model, op)
    w = make_weights(tg, grid, rw=2.0, mw=4.0, cw=6.0, rho_t=0.75, mu_t=0.5)
    # rho stays 0.5, mu stays 0: misfits are (0.25)^2 and (0.5)^2 over
    # unit space-time measure with the left-endpoint rule exact for
    # constants; control term is zero
    expected = 0.5 * 2.0 * 0.0625 + 0.5 * 4.0 * 0.25
    assert tracking_cost(sol, u, w) == pytest.approx(expected, rel=1e-12)


def test_anchored_cost_reduces_to_plain_at_anchor():
    grid = Grid.line(6, 1.0)
    tg = TimeGrid(1.0, 8)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tg, grid, 0.7)
    sol = solve_state(u, 1e-2, init, model, op)
    w = make_weights(tg, grid)
    plain = tracking_cost(sol, u, w)
    assert anchored_tracking_cost(sol, u, w, u) == plain
    shifted = Trajectory.constant(tg, grid, 0.2)
    # anchor a constant 0.5 away over unit space-time measure adds 1/2*0.25
    assert anchored_tracking_cost(sol, u, w, shifted) == pytest.approx(plain + 0.125, rel=1e-12)


def test_admissible_set_box_and_budget():
    g = Grid.line(4, 1.0)
    tg = TimeGrid(1.0, 3)
    box = AdmissibleSet(Trajectory.constant(tg, g, 2.0))
    inside = Trajectory.constant(tg, g, 1.0)
    outside = Trajectory.constant(tg, g, 2.5)
    assert box.contains_box(inside)
    assert not box.contains_box(outside)
    assert time_h1_norm(inside) <= box.h1_budget
    tight = AdmissibleSet(Trajectory.constant(tg, g, 2.0), h1_budget=1e-6)
    assert time_h1_norm(inside) > tight.h1_budget


def test_projection_clips_both_sides():
    g = Grid.line(3, 1.0)
    tg = TimeGrid(1.0, 2)
    box = AdmissibleSet(Trajectory.constant(tg, g, 1.0))
    vals = np.array([[-0.5, 0.3, 2.0]] * 3)
    proj = project_admissible(Trajectory(tg, g, vals), box)
    assert np.array_equal(proj.values, np.array([[0.0, 0.3, 1.0]] * 3))


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(-3, 5), min_size=8, max_size=8),
    ceil=st.floats(0.1, 3.0),
)
def test_projection_idempotent_and_nonexpansive(vals, ceil):
    g = Grid.line(4, 1.0)
    tg = TimeGrid(1.0, 1)
    box = AdmissibleSet(Trajectory.constant(tg, g, ceil))
    u = Trajectory(tg, g, np.array(vals).reshape(2, 4))
    p = project_admissible(u, box)
    again = project_admissible(p, box)
    assert np.array_equal(p.values, again.values)
    assert box.contains_box(p)
    v = Trajectory(tg, g, np.zeros((2, 4)))
    pv = project_admissible(v, box)
    gap_before = np.max(np.abs(u.values - v.values))
    gap_after = np.max(np.abs(p.values - pv.values))
    assert gap_after <= gap_before + 1e-15
