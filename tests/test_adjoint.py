from pathlib import Path

import numpy as np
import pytest

from quenchctrl.adjoint import concentration_metric, solve_adjoint, time_ramp_probe
from quenchctrl.config import build_problem, load_config
from quenchctrl.costs import CostWeights, tracking_cost
from quenchctrl.grid import Grid, TimeGrid, Trajectory, inner_product_spacetime
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.potentials import PotentialConfig
from quenchctrl.state import InitialData, solve_state
from quenchctrl.verify import taylor_remainder_slope

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_problem(n=16, steps=25, alpha=1e-2, g_family="linear"):
    grid = Grid.line(n, 1.0)
    tgrid = TimeGrid(1.0, steps)
    model = PotentialConfig(f_strength=0.25, g_family=g_family)
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, alpha, init, model, op)
    weights = CostWeights(
        rho_weight=1.0,
        mu_weight=0.5,
        control_weight=2.0,
        rho_target=Trajectory.constant(tgrid, grid, 0.8),
        mu_target=Trajectory.constant(tgrid, grid, 1.0),
    )
    return grid, tgrid, model, op, sol, weights, u


def test_adjoint_rejects_an_obstacle_state():
    # the dual system needs a quench level; an obstacle state (alpha = 0)
    # has no differentiable control-to-state map
    _, _, model, op, sol, weights, _ = make_problem(alpha=0.0)
    with pytest.raises(ValueError, match=r"alpha > 0"):
        solve_adjoint(sol, weights, model, op)


def test_pairing_value_nonnegative():
    for alpha in (1e-1, 1e-2, 1e-3):
        _, _, model, op, sol, weights, _ = make_problem(alpha=alpha)
        adj = solve_adjoint(sol, weights, model, op)
        assert adj.pairing_value >= 0.0


def test_multiplier_identity():
    # multiplier = scale * h''(rho) * rho_dual holds pointwise by
    # construction; check it numerically anyway
    _, _, model, op, sol, weights, _ = make_problem()
    adj = solve_adjoint(sol, weights, model, op)
    rho = sol.rho.values
    expect = adj.scale * (1.0 / (rho * (1.0 - rho))) * adj.rho_dual.values
    inner = slice(1, -1)
    assert np.allclose(adj.multiplier.values[inner], expect[inner], rtol=1e-12, atol=1e-300)


def test_concentration_identity_and_probe_validation():
    _, tgrid, model, op, sol, weights, _ = make_problem()
    adj = solve_adjoint(sol, weights, model, op)
    probe = time_ramp_probe(tgrid, sol.rho.grid)
    metric = concentration_metric(adj, sol, probe)
    # multiplier*rho(1-rho) = scale*rho_dual pointwise, so the two
    # quadratures agree to rounding
    assert metric.value == pytest.approx(metric.cross_check, rel=1e-12, abs=1e-300)
    bad = Trajectory(probe.tgrid, probe.grid, probe.values.copy())
    bad.values[0] = 1.0
    with pytest.raises(ValueError):
        concentration_metric(adj, sol, bad)


def test_concentration_shrinks_with_scale():
    values = []
    for alpha in (1e-1, 1e-2, 1e-3):
        _, tgrid, model, op, sol, weights, _ = make_problem(alpha=alpha)
        adj = solve_adjoint(sol, weights, model, op)
        probe = time_ramp_probe(tgrid, sol.rho.grid)
        values.append(abs(concentration_metric(adj, sol, probe).value))
    assert values[0] > values[1] > values[2]


def test_probe_ramp_shape():
    tg = TimeGrid(2.0, 4)
    g = Grid.line(3, 1.0)
    probe = time_ramp_probe(tg, g)
    assert np.array_equal(probe.values[:, 0], np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert np.all(probe.values == probe.values[:, :1])


def test_adjoint_diagnostics_finite():
    _, _, model, op, sol, weights, _ = make_problem(g_family="saturating")
    adj = solve_adjoint(sol, weights, model, op)
    assert np.isfinite(adj.pairing_value)


def test_gradient_taylor_slope_2d():
    # the adjoint must be the exact gradient of the discrete cost in 2D
    # too: the first-order Taylor remainder decays with slope two
    prob = build_problem(load_config(CONFIGS / "twod.cfg"))
    alpha = prob.config.alpha
    u = prob.control
    v = Trajectory(
        u.tgrid, u.grid, np.random.default_rng(6).uniform(-1.0, 1.0, u.values.shape)
    )

    def cost_at(w):
        sol = solve_state(w, alpha, prob.init, prob.model, prob.op)
        return tracking_cost(sol, w, prob.weights)

    adj = solve_adjoint(
        solve_state(u, alpha, prob.init, prob.model, prob.op), prob.weights, prob.model, prob.op
    )
    grad = Trajectory(u.tgrid, u.grid, prob.weights.control_weight * u.values + adj.mu_dual.values)
    _, slope = taylor_remainder_slope(cost_at, u, grad, v, [1e-1, 1e-2, 1e-3, 1e-4])
    assert 1.8 <= slope <= 2.2


@pytest.mark.parametrize("alpha", [1e-3, 1e-8])
@pytest.mark.parametrize("name", ["default", "twod"])
def test_gradient_agrees_with_central_difference_in_digits(name, alpha):
    # the central difference cancels the second-order term that the slope
    # gates test, so what is left is the gradient's own error: an exact
    # discrete gradient agrees to rounding in J, a discretized continuous
    # adjoint would be off by O(tau); the worst gap measured was 2.9e-9
    prob = build_problem(load_config(CONFIGS / f"{name}.cfg"))
    u = prob.control
    v = np.random.default_rng(2).uniform(-1.0, 1.0, u.values.shape)  # criterion 6's direction

    def cost_at(values):
        w = Trajectory(u.tgrid, u.grid, values)
        return tracking_cost(solve_state(w, alpha, prob.init, prob.model, prob.op), w, prob.weights)

    adj = solve_adjoint(
        solve_state(u, alpha, prob.init, prob.model, prob.op), prob.weights, prob.model, prob.op
    )
    grad = Trajectory(u.tgrid, u.grid, prob.weights.control_weight * u.values + adj.mu_dual.values)
    pair = inner_product_spacetime(grad, Trajectory(u.tgrid, u.grid, v))
    eps = 1e-2
    central = (cost_at(u.values + eps * v) - cost_at(u.values - eps * v)) / (2.0 * eps)
    assert abs(central - pair) / abs(pair) <= 1e-7
