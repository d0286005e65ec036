import itertools

import numpy as np

from quenchctrl.costs import AdmissibleSet, CostWeights, project_admissible
from quenchctrl.grid import (
    Grid,
    TimeGrid,
    Trajectory,
    inner_product_spacetime,
    norm_l2_spacetime,
)
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.optimize import (
    PGDOptions,
    deep_quench_continuation,
    projected_gradient_descent,
    variational_inequality_min,
)
from quenchctrl.potentials import PotentialConfig
from quenchctrl.state import InitialData


def small_problem(n=12, steps=15, rw=1.0, mw=0.5, cw=2.0, rho_t=0.8, mu_t=1.0):
    grid = Grid.line(n, 1.0)
    tgrid = TimeGrid(1.0, steps)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    weights = CostWeights(
        rho_weight=rw,
        mu_weight=mw,
        control_weight=cw,
        rho_target=Trajectory.constant(tgrid, grid, rho_t),
        mu_target=Trajectory.constant(tgrid, grid, mu_t),
    )
    box = AdmissibleSet(Trajectory.constant(tgrid, grid, 2.0))
    return grid, tgrid, model, op, init, weights, box


def test_pure_control_cost_collapses_to_zero():
    # no tracking reward: the optimum is u = 0 and one projected step
    # from anywhere lands exactly on it
    grid, tgrid, model, op, init, _, box = small_problem()
    weights = CostWeights(
        rho_weight=0.0,
        mu_weight=0.0,
        control_weight=1.0,
        rho_target=Trajectory.zeros(tgrid, grid),
        mu_target=Trajectory.zeros(tgrid, grid),
    )
    u0 = Trajectory.constant(tgrid, grid, 1.0)
    res = projected_gradient_descent(
        u0, 1e-2, weights, box,
        PGDOptions(tol=1e-10), init=init, model=model, op=op,
    )
    assert res.converged
    assert res.iterations <= 2
    assert norm_l2_spacetime(res.control) <= 1e-12


def test_anchored_step_lands_on_projection_formula():
    # zero tracking weights decouple the adjoint, so the anchored gradient
    # is (cw + 1)u - anchor and one step of 1/(cw + 1) lands on the
    # projection formula P(anchor/(cw + 1)) = 0.2/4
    grid, tgrid, model, op, init, _, box = small_problem()
    weights = CostWeights(
        rho_weight=0.0,
        mu_weight=0.0,
        control_weight=3.0,
        rho_target=Trajectory.zeros(tgrid, grid),
        mu_target=Trajectory.zeros(tgrid, grid),
    )
    res = projected_gradient_descent(
        Trajectory.constant(tgrid, grid, 0.7), 1e-2, weights, box,
        PGDOptions(tol=1e-10), init=init, model=model, op=op,
        anchor=Trajectory.constant(tgrid, grid, 0.2),
    )
    assert res.converged
    assert res.iterations == 1
    assert np.max(np.abs(res.control.values - 0.05)) <= 1e-15
    assert [(row.step, row.backtracks) for row in res.history] == [(0.0, 0), (0.25, 0)]


def test_history_costs_nonincreasing():
    grid, tgrid, model, op, init, weights, box = small_problem()
    u0 = Trajectory.constant(tgrid, grid, 1.0)
    res = projected_gradient_descent(
        u0, 1e-2, weights, box,
        PGDOptions(tol=1e-6, max_iters=60), init=init, model=model, op=op,
    )
    costs = [row.cost for row in res.history]
    assert all(a >= b - 1e-15 for a, b in zip(costs, costs[1:]))
    assert res.history[0].iteration == 0
    assert res.cost == costs[-1]


def test_history_records_accepted_step_and_backtracks():
    # with a small control weight the first trial step 1/cw = 50 overshoots
    # the tracking curvature, so some iterations halve it before acceptance
    grid, tgrid, model, op, init, weights, box = small_problem(rw=5.0, cw=0.02)
    res = projected_gradient_descent(
        Trajectory.constant(tgrid, grid, 1.0), 1e-2, weights, box,
        PGDOptions(tol=1e-6, max_iters=60), init=init, model=model, op=op,
    )
    assert res.converged
    assert (res.history[0].step, res.history[0].backtracks) == (0.0, 0)
    assert all(row.step == 50.0 * 0.5 ** row.backtracks for row in res.history[1:])
    assert any(row.backtracks > 0 for row in res.history)


def test_stationary_start_returns_immediately():
    grid, tgrid, model, op, init, weights, box = small_problem()
    u0 = Trajectory.constant(tgrid, grid, 1.0)
    first = projected_gradient_descent(
        u0, 1e-2, weights, box,
        PGDOptions(tol=1e-8, max_iters=100), init=init, model=model, op=op,
    )
    assert first.converged
    again = projected_gradient_descent(
        first.control, 1e-2, weights, box,
        PGDOptions(tol=1e-8, max_iters=100), init=init, model=model, op=op,
    )
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.control.values, first.control.values)


def test_initial_point_is_projected():
    grid, tgrid, model, op, init, weights, box = small_problem()
    wild = Trajectory.constant(tgrid, grid, 50.0)
    res = projected_gradient_descent(
        wild, 1e-1, weights, box,
        PGDOptions(tol=1e-5, max_iters=5), init=init, model=model, op=op,
    )
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
    oracle = min(inner_product_spacetime(g, v - u) for v in vertices)
    assert oracle < 0.0
    assert abs(variational_inequality_min(u, g, box) - oracle) <= 1e-15

    # a nonnegative gradient at u = 0: v = 0 attains the minimum 0
    zero = Trajectory.zeros(tgrid, grid)
    assert variational_inequality_min(zero, Trajectory(tgrid, grid, np.abs(g.values)), box) == 0.0


def test_continuation_small_run_structure():
    grid, tgrid, model, op, init, weights, box = small_problem()
    u0 = Trajectory.constant(tgrid, grid, 1.0)
    schedule = [1e-1, 1e-2, 1e-3, 1e-4]
    run = deep_quench_continuation(
        schedule, weights, box,
        PGDOptions(tol=1e-6, max_iters=80),
        u0=u0, init=init, model=model, op=op,
    )
    assert [r.alpha for r in run.levels] == schedule
    assert run.all_converged
    # level 0 runs unanchored, so exactly the later levels report a gap
    assert run.levels[0].anchor_distance is None
    gaps = [r.anchor_distance for r in run.levels[1:]]
    assert all(d >= 0 for d in gaps)
    # obstacle limit: the last quench state is already close
    assert run.final_state_distance < 1e-2
    assert run.final_sign_violations == []
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
    grid, tgrid, model, op, init, weights, box = small_problem()
    u0 = Trajectory.constant(tgrid, grid, 1.0)
    run = deep_quench_continuation(
        [1e-1, 1e-2, 1e-3], weights, box,
        PGDOptions(tol=1e-6, max_iters=80),
        u0=u0, init=init, model=model, op=op,
    )
    last_gap = run.levels[-1].anchor_distance
    ctrl_norm = norm_l2_spacetime(run.levels[-1].control)
    assert last_gap <= 0.1 * max(ctrl_norm, 1e-12)
