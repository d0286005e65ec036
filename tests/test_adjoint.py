import dataclasses
from pathlib import Path

import numpy as np
import pytest

from quenchctrl import adjoint as adjoint_module
from quenchctrl.adjoint import (
    concentration_metric,
    solve_adjoint,
    time_ramp_probe,
    tracking_gradient,
)
from quenchctrl.config import build_problem, load_config
from quenchctrl.costs import CostWeights, tracking_cost
from quenchctrl.grid import (
    Grid,
    TimeGrid,
    Trajectory,
    inner_product_spacetime,
    solve_step_system,
)
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.potentials import PotentialConfig, log_potential_second, quench_scale
from quenchctrl.state import InitialData, mu_zeroth_coefficient, solve_state
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
    # the dual march is implemented on quench levels only: the obstacle
    # march (alpha = 0) is piecewise smooth, and its exact adjoint, which
    # exists off the kinks, is not implemented
    _, _, model, op, sol, weights, _ = make_problem(alpha=0.0)
    with pytest.raises(ValueError, match=r"alpha > 0"):
        solve_adjoint(sol, weights)


def test_pairing_value_nonnegative():
    for alpha in (1e-1, 1e-2, 1e-3):
        _, _, model, op, sol, weights, _ = make_problem(alpha=alpha)
        adj = solve_adjoint(sol, weights)
        assert concentration_metric(adj, sol).pairing >= 0.0


def test_adjoint_returns_only_the_march_arrays(monkeypatch):
    # the pairing is a per-level diagnostic of `concentration_metric`: the
    # march forms no quadrature, counted through the adjoint module's global
    _, _, model, op, sol, weights, _ = make_problem()
    calls = []
    quadrature = adjoint_module.inner_product_spacetime
    monkeypatch.setattr(
        adjoint_module, "inner_product_spacetime", lambda *a: calls.append(1) or quadrature(*a)
    )
    adj = solve_adjoint(sol, weights)
    assert calls == []
    assert [f.name for f in dataclasses.fields(adj)] == ["mu_dual", "rho_dual", "multiplier"]
    metric = concentration_metric(adj, sol)
    pairing = inner_product_spacetime(sol.tgrid, sol.grid, adj.multiplier, adj.rho_dual)
    assert metric.pairing == pairing


def test_multiplier_identity():
    # multiplier = scale * h''(rho) * rho_dual holds pointwise by
    # construction; check it numerically anyway
    _, _, model, op, sol, weights, _ = make_problem()
    adj = solve_adjoint(sol, weights)
    rho = sol.rho
    expect = sol.scale * (1.0 / (rho * (1.0 - rho))) * adj.rho_dual
    inner = slice(1, -1)
    assert np.allclose(adj.multiplier[inner], expect[inner], rtol=1e-12, atol=1e-300)


def test_concentration_identity():
    _, _, model, op, sol, weights, _ = make_problem()
    adj = solve_adjoint(sol, weights)
    metric = concentration_metric(adj, sol)
    # multiplier*rho(1-rho) = scale*rho_dual pointwise, so the two
    # quadratures agree to rounding
    assert metric.value == pytest.approx(metric.cross_check, rel=1e-12, abs=1e-300)


def test_concentration_shrinks_with_scale():
    values = []
    for alpha in (1e-1, 1e-2, 1e-3):
        _, _, model, op, sol, weights, _ = make_problem(alpha=alpha)
        adj = solve_adjoint(sol, weights)
        values.append(abs(concentration_metric(adj, sol).value))
    assert values[0] > values[1] > values[2]


def test_probe_ramp_shape():
    tg = TimeGrid(2.0, 4)
    g = Grid.line(3, 1.0)
    probe = time_ramp_probe(tg, g)
    assert np.array_equal(probe[:, 0], np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert np.all(probe == probe[:, :1])


def test_adjoint_diagnostics_finite():
    _, _, model, op, sol, weights, _ = make_problem(g_family="saturating")
    adj = solve_adjoint(sol, weights)
    assert np.isfinite(concentration_metric(adj, sol).pairing)


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
        return tracking_cost(sol, prob.weights)

    state = solve_state(u, alpha, prob.init, prob.model, prob.op)
    grad = tracking_gradient(state, solve_adjoint(state, prob.weights), prob.weights)
    _, slope = taylor_remainder_slope(cost_at, u, grad, v.values, [1e-1, 1e-2, 1e-3, 1e-4])
    assert 1.8 <= slope <= 2.2


@pytest.mark.parametrize("alpha", [1e-3, 1e-8])
@pytest.mark.parametrize(
    ("name", "overrides"),
    [
        ("default", {}),
        ("twod", {}),
        # g'' = 0 on the shipped linear family; saturating checks the
        # adjoint's g_second terms against the cost
        ("default", {"g_family": "saturating"}),
        ("twod", {"g_family": "saturating"}),
    ],
    ids=["default", "twod", "default-saturating", "twod-saturating"],
)
def test_gradient_agrees_with_central_difference_in_digits(name, overrides, alpha):
    # the central difference cancels the second-order term that the slope
    # gates test, so what is left is the gradient's own error: an exact
    # discrete gradient agrees to rounding in J, a discretized continuous
    # adjoint would be off by O(tau); the worst gap measured was 2.9e-9
    prob = build_problem(load_config(CONFIGS / f"{name}.cfg", overrides))
    u = prob.control
    v = np.random.default_rng(2).uniform(-1.0, 1.0, u.values.shape)  # criterion 6's direction

    def cost_at(values):
        w = Trajectory(u.tgrid, u.grid, values)
        return tracking_cost(solve_state(w, alpha, prob.init, prob.model, prob.op), prob.weights)

    state = solve_state(u, alpha, prob.init, prob.model, prob.op)
    grad = tracking_gradient(state, solve_adjoint(state, prob.weights), prob.weights)
    pair = inner_product_spacetime(u.tgrid, u.grid, grad, v)
    eps = 1e-2
    central = (cost_at(u.values + eps * v) - cost_at(u.values - eps * v)) / (2.0 * eps)
    assert abs(central - pair) / abs(pair) <= 1e-7


def _per_node_adjoint(state, weights, model, op):
    """The backward march with every coefficient evaluated inside the loop,
    one node at a time: the reference for `solve_adjoint`'s one pass over
    the stacked nodes.  Returns (mu_dual, rho_dual, multiplier) arrays."""
    rho, mu = state.rho, state.mu
    grid, tau, nt = state.grid, state.tgrid.tau, state.tgrid.steps
    scale = quench_scale(state.alpha, model.quench_exponent)
    b1, b2 = weights.rho_weight, weights.mu_weight
    rho_tgt, mu_tgt = weights.rho_target.values, weights.mu_target.values
    p = np.zeros_like(rho)
    q = np.zeros_like(rho)
    curv = log_potential_second(rho[1:nt])
    for m in range(nt - 1, 0, -1):
        a_m, _, _ = mu_zeroth_coefficient(rho[m], rho[m - 1], tau, model)
        gp_m = model.g_prime(rho[m])
        rhs = (
            (1.0 + 2.0 * model.g(rho[m + 1])) * p[m + 1] / tau
            + gp_m * q[m + 1]
            + b2 * (mu[m] - mu_tgt[m])
        )
        p[m] = solve_step_system(grid, a_m, rhs)
        source = (
            b1 * (rho[m] - rho_tgt[m])
            - (model.f_second(rho[m]) - mu[m] * model.g_second(rho[m])) * q[m + 1]
            - op.apply_adjoint_values(q[m + 1])
            - (
                2.0 * gp_m * (mu[m] - mu[m - 1])
                + model.g_second(rho[m]) * (rho[m] - rho[m - 1]) * mu[m]
                + gp_m * mu[m]
            )
            * p[m]
            / tau
            + model.g_prime(rho[m + 1]) * mu[m + 1] * p[m + 1] / tau
        )
        q[m] = (q[m + 1] + tau * source) / (1.0 + tau * scale * curv[m - 1])
    lam = np.zeros_like(q)
    lam[1:nt] = scale * curv * q[1:nt]
    return p, q, lam


@pytest.mark.parametrize("g_family", ["linear", "saturating", "zero"])
@pytest.mark.parametrize("grid", [Grid.line(16, 1.0), Grid.box((5, 4))], ids=["1d", "2d"])
def test_coefficient_pass_matches_the_per_node_march_bit_for_bit(grid, g_family):
    # saturating is the one family whose g' is an array, and no shipped
    # config runs it; the data vary in space and time so no term is uniform
    rng = np.random.default_rng(11)
    tgrid = TimeGrid(1.0, 12)
    model = PotentialConfig(f_strength=0.25, g_family=g_family)
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(grid, rng.uniform(0.2, 0.8, grid.shape), rng.uniform(0.5, 1.5, grid.shape))
    u = Trajectory(tgrid, grid, rng.uniform(0.0, 2.0, (tgrid.n_nodes,) + grid.shape))
    state = solve_state(u, 1e-2, init, model, op)
    weights = CostWeights(
        rho_weight=1.0,
        mu_weight=0.5,
        control_weight=2.0,
        rho_target=Trajectory.constant(tgrid, grid, rng.uniform(0.0, 1.0, grid.shape)),
        mu_target=Trajectory.constant(tgrid, grid, 1.0),
    )
    adj = solve_adjoint(state, weights)
    ref = _per_node_adjoint(state, weights, model, op)
    for got, want in zip((adj.mu_dual, adj.rho_dual, adj.multiplier), ref):
        assert got.tobytes() == want.tobytes()
    pairing = inner_product_spacetime(tgrid, grid, ref[2], ref[1])
    got = concentration_metric(adj, state).pairing
    assert np.float64(got).tobytes() == np.float64(pairing).tobytes()
