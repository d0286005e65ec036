import itertools

import numpy as np
import pytest

from quenchctrl.adjoint import AdjointSolution
from quenchctrl.config import ProblemConfig, build_problem
from quenchctrl.costs import AdmissibleSet, CostWeights
from quenchctrl.errors import ConfigError
from quenchctrl.grid import (
    Grid,
    TimeGrid,
    Trajectory,
    inner_product_spacetime,
    norm_l2_spacetime,
)
from quenchctrl.optimize import (
    _projection_residual,
    deep_quench_continuation,
    projected_gradient_descent,
    variational_inequality_min,
)
from quenchctrl.state import check_obstacle_signs


def small_problem(**keys):
    """The default config on 12 cells and 15 steps, with keys replaced."""
    return build_problem(ProblemConfig(cells_x=12, steps=15, **keys))


# zero tracking weights: the cost is the control energy alone
NO_TRACKING = dict(rho_weight=0.0, mu_weight=0.0, rho_target="constant:0", mu_target="constant:0")


def test_pure_control_cost_collapses_to_zero():
    # no tracking reward: the optimum is u = 0 and one projected step
    # from anywhere lands exactly on it
    p = small_problem(**NO_TRACKING, control_weight=1.0, tol=1e-10)
    res = projected_gradient_descent(p, p.control, 1e-2)
    assert res.converged
    assert res.iterations <= 2
    assert norm_l2_spacetime(p.tgrid, p.grid, res.control.values) <= 1e-12


def test_anchored_step_lands_on_projection_formula():
    # zero tracking weights decouple the adjoint, so the anchored gradient
    # is (cw + 1)u - anchor and one step of 1/(cw + 1) lands on the
    # projection formula P(anchor/(cw + 1)) = 0.2/4
    p = small_problem(**NO_TRACKING, control_weight=3.0, tol=1e-10)
    res = projected_gradient_descent(
        p, Trajectory.constant(p.tgrid, p.grid, 0.7), 1e-2,
        Trajectory.constant(p.tgrid, p.grid, 0.2),
    )
    assert res.converged
    assert res.iterations == 1
    assert np.max(np.abs(res.control.values - 0.05)) <= 1e-15
    assert [(row.step, row.backtracks) for row in res.history] == [(0.0, 0), (0.25, 0)]


def test_anchor_on_another_mesh_rejected():
    # an anchor of the control's shape on another time grid is refused,
    # as the cost's targets are
    p = build_problem(ProblemConfig(cells_x=8, steps=5))
    anchor = Trajectory.constant(TimeGrid(2.0, 5), p.grid, 0.5)
    assert anchor.values.shape == p.control.values.shape
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        projected_gradient_descent(p, p.control, 1e-2, anchor)


def test_history_costs_nonincreasing():
    p = small_problem(tol=1e-6, max_iters=60)
    res = projected_gradient_descent(p, p.control, 1e-2)
    costs = [row.cost for row in res.history]
    assert all(a >= b - 1e-15 for a, b in zip(costs, costs[1:]))
    assert res.history[0].iteration == 0
    assert res.cost == costs[-1]


def test_history_records_accepted_step_and_backtracks():
    # with a small control weight the first trial step 1/cw = 50 overshoots
    # the tracking curvature, so some iterations halve it before acceptance
    p = small_problem(rho_weight=5.0, control_weight=0.02, tol=1e-6, max_iters=60)
    res = projected_gradient_descent(p, p.control, 1e-2)
    assert res.converged
    assert (res.history[0].step, res.history[0].backtracks) == (0.0, 0)
    assert all(row.step == 50.0 * 0.5 ** row.backtracks for row in res.history[1:])
    assert any(row.backtracks > 0 for row in res.history)


def test_stationary_start_returns_immediately():
    p = small_problem(tol=1e-8, max_iters=100)
    first = projected_gradient_descent(p, p.control, 1e-2)
    assert first.converged
    again = projected_gradient_descent(p, first.control, 1e-2)
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.control.values, first.control.values)


def test_initial_point_is_projected():
    p = small_problem(tol=1e-5, max_iters=5)
    wild = Trajectory.constant(p.tgrid, p.grid, 50.0)
    res = projected_gradient_descent(p, wild, 1e-1)
    assert np.max(res.control.values) <= 2.0
    assert np.min(res.control.values) >= 0.0


def test_variational_inequality_min_matches_vertex_oracle():
    # 2 cells x 2 time nodes = 4 controls; the pairing is linear in v, so
    # its minimum over the box sits at one of the 16 vertices
    grid = Grid.line(2)
    tgrid = TimeGrid(1.0, 1)
    ceiling = Trajectory(tgrid, grid, np.array([[1.5, 0.5], [2.0, 0.25]]))
    box = AdmissibleSet(ceiling)
    u = Trajectory(tgrid, grid, np.array([[0.3, 0.1], [1.0, 0.2]]))
    g = Trajectory(tgrid, grid, np.array([[-0.7, 1.3], [0.4, -2.1]]))
    vertices = [
        Trajectory(tgrid, grid, np.reshape(bits, (2, 2)) * ceiling.values)
        for bits in itertools.product((0.0, 1.0), repeat=4)
    ]
    oracle = min(
        inner_product_spacetime(tgrid, grid, g.values, v.values - u.values) for v in vertices
    )
    assert oracle < 0.0
    assert abs(variational_inequality_min(u, g.values, box) - oracle) <= 1e-15

    # a nonnegative gradient at u = 0: v = 0 attains the minimum 0
    zero = Trajectory.constant(tgrid, grid, 0.0)
    assert variational_inequality_min(zero, np.abs(g.values), box) == 0.0


def test_projection_residual_of_hand_built_duals():
    # dyadic data, so u - P(-mu_dual/cw) is formed exactly; the
    # space-time norm of a constant c over [0, 1] x [0, 1] is |c|
    grid = Grid.line(4, 1.0)
    tgrid = TimeGrid(1.0, 4)
    zeros = Trajectory.constant(tgrid, grid, 0.0)
    mu_dual = Trajectory.constant(tgrid, grid, np.array([-5.0, -1.0, -0.5, -2.5]))
    adj = AdjointSolution(mu_dual.values, zeros.values, zeros.values)
    box = AdmissibleSet(Trajectory.constant(tgrid, grid, 2.0))
    weights = CostWeights(0.0, 0.0, 2.0, zeros, zeros)
    formula = np.array([2.0, 0.5, 0.25, 1.25])  # -mu_dual/2, clipped to the ceiling 2
    u = Trajectory.constant(tgrid, grid, formula)
    assert _projection_residual(u, adj, weights, box) == 0.0
    inside = Trajectory.constant(tgrid, grid, formula - 0.125)
    assert box.contains_box(inside)
    assert _projection_residual(inside, adj, weights, box) == 0.125
    no_weight = CostWeights(1.0, 0.0, 0.0, zeros, zeros)
    assert _projection_residual(u, adj, no_weight, box) is None


def test_continuation_small_run_structure():
    run = deep_quench_continuation(
        small_problem(schedule="1e-1,1e-2,1e-3,1e-4", tol=1e-6, max_iters=80)
    )
    assert [r.alpha for r in run.levels] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert run.all_converged
    # level 0 runs unanchored, so exactly the later levels report a gap
    assert run.levels[0].anchor_distance is None
    gaps = [r.anchor_distance for r in run.levels[1:]]
    assert all(d >= 0 for d in gaps)
    # obstacle limit: the last quench state is already close
    assert run.final_state_distance < 1e-2
    assert check_obstacle_signs(run.final_state) == []
    assert run.final_state.alpha == 0.0
    for rec in run.levels:
        assert rec.pairing >= 0.0
        assert rec.within_budget
        assert rec.cost_plain <= rec.cost + 1e-15
    # the anchored optimality condition ties the projection residual to
    # the anchored displacement, both shrinking along the schedule
    assert gaps[-1] < gaps[0]


def test_continuation_warm_start_continuity():
    # consecutive level optimizers stay close: the anchored gap at the
    # last level is far below the first one and the control moves little
    p = small_problem(schedule="1e-1,1e-2,1e-3", tol=1e-6, max_iters=80)
    run = deep_quench_continuation(p)
    last_gap = run.levels[-1].anchor_distance
    ctrl_norm = norm_l2_spacetime(p.tgrid, p.grid, run.levels[-1].control.values)
    assert last_gap <= 0.1 * max(ctrl_norm, 1e-12)
