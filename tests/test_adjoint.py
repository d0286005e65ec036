from pathlib import Path

import numpy as np
import pytest

from quenchctrl.adjoint import concentration_metric, solve_adjoint, time_ramp_probe
from quenchctrl.config import build_problem, load_config
from quenchctrl.costs import CostWeights, tracking_cost
from quenchctrl.grid import Field, Grid, TimeGrid, Trajectory
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.optimize import reduced_gradient
from quenchctrl.potentials import PotentialConfig
from quenchctrl.state import InitialData, solve_state
from quenchctrl.verify import taylor_remainder_slope

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_problem(n=16, steps=25, alpha=1e-2, g_family="linear"):
    grid = Grid.line(n, 1.0)
    tgrid = TimeGrid(1.0, steps)
    model = PotentialConfig(f_strength=0.25, g_family=g_family)
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 1.0))
    u = Trajectory.constant(tgrid, grid, 1.0)
    level = model.level(alpha)
    sol = solve_state(u, level, init, model, op)
    weights = CostWeights(
        rho_weight=1.0,
        mu_weight=0.5,
        control_weight=2.0,
        rho_target=Trajectory.constant(tgrid, grid, 0.8),
        mu_target=Trajectory.constant(tgrid, grid, 1.0),
    )
    return grid, tgrid, model, op, level, sol, weights, u


def test_terminal_and_initial_duals_exactly_zero():
    _, _, model, op, level, sol, weights, _ = make_problem()
    adj = solve_adjoint(level, sol, weights, model, op)
    assert np.array_equal(adj.mu_dual.values[-1], np.zeros_like(adj.mu_dual.values[-1]))
    assert np.array_equal(adj.rho_dual.values[-1], np.zeros_like(adj.rho_dual.values[-1]))
    assert np.array_equal(adj.mu_dual.values[0], np.zeros_like(adj.mu_dual.values[0]))
    assert np.array_equal(adj.rho_dual.values[0], np.zeros_like(adj.rho_dual.values[0]))


def test_zero_tracking_weights_give_zero_duals():
    grid, tgrid, model, op, level, sol, _, _ = make_problem()
    w0 = CostWeights(
        rho_weight=0.0,
        mu_weight=0.0,
        control_weight=1.0,
        rho_target=Trajectory.zeros(tgrid, grid),
        mu_target=Trajectory.zeros(tgrid, grid),
    )
    adj = solve_adjoint(level, sol, w0, model, op)
    assert np.array_equal(adj.mu_dual.values, np.zeros_like(adj.mu_dual.values))
    assert np.array_equal(adj.rho_dual.values, np.zeros_like(adj.rho_dual.values))
    assert adj.diagnostics.pairing_value == 0.0


def test_adjoint_requires_matching_level():
    _, _, model, op, level, sol, weights, _ = make_problem()
    other = model.level(0.5)
    with pytest.raises(ValueError):
        solve_adjoint(other, sol, weights, model, op)
    with pytest.raises(ValueError):
        solve_adjoint(None, sol, weights, model, op)


def test_pairing_value_nonnegative():
    for alpha in (1e-1, 1e-2, 1e-3):
        _, _, model, op, level, sol, weights, _ = make_problem(alpha=alpha)
        adj = solve_adjoint(level, sol, weights, model, op)
        assert adj.diagnostics.pairing_value >= 0.0


def test_multiplier_identity():
    # multiplier = scale * h''(rho) * rho_dual holds pointwise by
    # construction; check it numerically anyway
    _, _, model, op, level, sol, weights, _ = make_problem()
    adj = solve_adjoint(level, sol, weights, model, op)
    rho = sol.rho.values
    expect = adj.scale * (1.0 / (rho * (1.0 - rho))) * adj.rho_dual.values
    inner = slice(1, -1)
    assert np.allclose(adj.multiplier.values[inner], expect[inner], rtol=1e-12, atol=1e-300)


def test_concentration_identity_and_probe_validation():
    _, tgrid, model, op, level, sol, weights, _ = make_problem()
    adj = solve_adjoint(level, sol, weights, model, op)
    probe = time_ramp_probe(tgrid, sol.rho.grid)
    metric = concentration_metric(adj, sol, probe)
    # multiplier*rho(1-rho) = scale*rho_dual pointwise, so the two
    # quadratures agree to rounding
    assert metric.value == pytest.approx(metric.cross_check, rel=1e-12, abs=1e-300)
    bad = probe.copy()
    bad.values[0] = 1.0
    with pytest.raises(ValueError):
        concentration_metric(adj, sol, bad)


def test_concentration_shrinks_with_scale():
    values = []
    for alpha in (1e-1, 1e-2, 1e-3):
        _, tgrid, model, op, level, sol, weights, _ = make_problem(alpha=alpha)
        adj = solve_adjoint(level, sol, weights, model, op)
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
    _, _, model, op, level, sol, weights, _ = make_problem(g_family="saturating")
    adj = solve_adjoint(level, sol, weights, model, op)
    d = adj.diagnostics.as_dict()
    assert set(d) == {"pairing_value"}
    assert np.isfinite(d["pairing_value"])


def test_gradient_taylor_slope_2d():
    # the adjoint must be the exact gradient of the discrete cost in 2D
    # too: the first-order Taylor remainder decays with slope two
    prob = build_problem(load_config(CONFIGS / "twod.cfg"))
    level = prob.model.level(prob.config.alpha)
    u = prob.control
    v = Trajectory(
        u.tgrid, u.grid, np.random.default_rng(6).uniform(-1.0, 1.0, u.values.shape)
    )

    def cost_at(w):
        sol = solve_state(w, level, prob.init, prob.model, prob.op)
        return tracking_cost(sol, w, prob.weights)

    grad = reduced_gradient(u, level, prob.weights, None, prob.init, prob.model, prob.op)
    _, slope = taylor_remainder_slope(cost_at, u, grad, v, [1e-1, 1e-2, 1e-3, 1e-4])
    assert 1.8 <= slope <= 2.2
