import dataclasses
from pathlib import Path

import numpy as np
import pytest

from quenchctrl import grid as grid_module
from quenchctrl import state as state_module
from quenchctrl.adjoint import solve_adjoint
from quenchctrl.config import build_problem, load_config
from quenchctrl.costs import CostWeights
from quenchctrl.errors import ConfigError, NonFiniteError, ShapeMismatchError, SolverError
from quenchctrl.grid import (
    Field,
    Grid,
    TimeGrid,
    Trajectory,
    inner_product,
    laplacian_values,
    solve_step_system,
)
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.potentials import PotentialConfig, quench_scale
from quenchctrl.state import (
    COEFFICIENT_FLOOR,
    InitialData,
    check_march,
    check_obstacle_signs,
    energy_residual,
    energy_residual_profile,
    mu_zeroth_coefficient,
    solve_state,
    state_diagnostics,
    step_mu,
)
from quenchctrl.verify import dense_laplacian, dense_mu_step, rk4_scalar_relaxation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_setup(n=16, steps=20, g_family="linear", f_strength=0.25, kernel=None, horizon=1.0):
    grid = Grid.line(n, 1.0)
    tgrid = TimeGrid(horizon, steps)
    model = PotentialConfig(f_strength=f_strength, g_family=g_family)
    op = NonlocalOperator(kernel or Kernel.gaussian(1.0, 0.1), grid)
    return grid, tgrid, model, op


def test_initial_data_a2_validation():
    g = Grid.line(4, 1.0)
    with pytest.raises(ShapeMismatchError):
        InitialData(g, np.full(5, 0.5), np.ones(g.shape))
    with pytest.raises(NonFiniteError):
        InitialData(g, np.full(g.shape, 0.5), np.array([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        InitialData(g, np.zeros(g.shape), np.ones(g.shape))
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        InitialData(g, np.ones(g.shape), np.ones(g.shape))
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        InitialData(g, np.full(g.shape, 0.5), np.full(g.shape, -0.1))
    InitialData(g, np.full(g.shape, 0.5), np.zeros(g.shape))  # boundary mu ok


# long thin boxes, which assemble densely in under 500 cells
WIDE_GRIDS = [Grid.box((6, 64)), Grid.box((5, 97)), Grid.box((3, 128))]


def floored_system(grid, seed):
    """Random SPD step system with every third cell at the coefficient floor."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(10.0, 400.0, grid.shape)
    a.reshape(-1)[::3] = COEFFICIENT_FLOOR  # clamped cells, the worst-conditioned case
    return a, rng


@pytest.mark.parametrize(
    "grid",
    [Grid.line(1), Grid.line(64), Grid.box((7, 5)), Grid.box((1, 6)), Grid.box((6, 1))]
    + WIDE_GRIDS,
    ids=lambda g: "x".join(map(str, g.cells)),
)
def test_solve_step_system_matches_dense_assembly(grid):
    a, rng = floored_system(grid, 5)
    rhs = rng.standard_normal(grid.shape)
    x = solve_step_system(grid, a, rhs)
    mat = np.diag(a.reshape(-1)) - dense_laplacian(grid)
    residual = mat @ x.reshape(-1) - rhs.reshape(-1)
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("grid", WIDE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_solve_step_system_symmetric(grid):
    # the exact adjoint reuses the forward solve as its transpose
    a, rng = floored_system(grid, 6)
    r1, r2 = rng.standard_normal((2,) + grid.shape)
    x1 = solve_step_system(grid, a, r1)
    x2 = solve_step_system(grid, a, r2)
    lhs, rhs = np.vdot(x1, r2), np.vdot(r1, x2)
    scale = np.linalg.norm(x1) * np.linalg.norm(r2) + np.linalg.norm(r1) * np.linalg.norm(x2)
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_solve_step_system_matrix_free_residual_128():
    grid = Grid.box((128, 128))
    a, rng = floored_system(grid, 7)
    rhs = rng.standard_normal(grid.shape)
    x = solve_step_system(grid, a, rhs)
    residual = a * x - laplacian_values(grid, x) - rhs
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("grid", [Grid.box((7, 5)), Grid.box((6, 64))], ids=["7x5", "6x64"])
def test_solve_step_system_scales_bitwise_by_powers_of_two(grid):
    # rhs is divided by a power of two near its max before the iteration
    a, rng = floored_system(grid, 8)
    b = rng.standard_normal(grid.shape)
    scaled = solve_step_system(grid, a, np.ldexp(b, 900))
    assert np.array_equal(scaled, np.ldexp(solve_step_system(grid, a, b), 900))


def test_solve_step_system_zero_rhs_gives_zero():
    grid = Grid.box((7, 5))
    a, _ = floored_system(grid, 11)
    x = solve_step_system(grid, a, np.zeros(grid.shape))
    assert np.array_equal(x, np.zeros(grid.shape))


@pytest.mark.parametrize("bad", ["rhs", "a"])
def test_solve_step_system_non_finite_input_gives_nan(monkeypatch, bad):
    # NaNs at once, as a direct solve gives: no iteration runs
    matvecs = []
    monkeypatch.setattr(
        grid_module, "laplacian_values", lambda g, v: matvecs.append(1) or laplacian_values(g, v)
    )
    grid = Grid.box((7, 5))
    a, rng = floored_system(grid, 9)
    rhs = rng.standard_normal(grid.shape)
    (rhs if bad == "rhs" else a)[3, 2] = np.nan
    assert np.isnan(solve_step_system(grid, a, rhs)).all()
    assert not matvecs


def test_solve_step_system_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(grid_module, "CG_MAX_ITERATIONS", 1)
    grid = Grid.box((7, 5))
    a, rng = floored_system(grid, 10)
    with pytest.raises(SolverError, match=r"in 1 iterations \(residual ratio \d\.\d{3}e[-+]\d+\)"):
        solve_step_system(grid, a, rng.standard_normal(grid.shape))


def test_trivial_configuration_is_exactly_stationary():
    # zero kernel, flat F, zero control, mu0 = 0: rho = 1/2 and mu = 0
    # are fixed points of the scheme to machine precision
    grid, tgrid, model, op = make_setup(
        n=8, steps=30, f_strength=0.0, kernel=Kernel.zero()
    )
    init = InitialData(grid, np.full(grid.shape, 0.5), np.zeros(grid.shape))
    u = Trajectory.constant(tgrid, grid, 0.0)
    for alpha in (1.0, 1e-3, 0.0):
        sol = solve_state(u, alpha, init, model, op)
        assert np.max(np.abs(sol.rho - 0.5)) <= 1e-14
        assert np.max(np.abs(sol.mu)) <= 1e-14


def test_mu_step_matches_dense_oracle():
    rng = np.random.default_rng(3)
    grid, tgrid, model, op = make_setup(n=20, steps=4)
    tau = tgrid.tau
    mu_n = np.abs(rng.standard_normal(20)) + 0.1
    rho_n = rng.uniform(0.2, 0.8, 20)
    rho_np1 = np.clip(rho_n + 0.02 * rng.standard_normal(20), 0.05, 0.95)
    u_np1 = rng.uniform(0, 1, 20)
    fast = step_mu(
        Field(grid, mu_n), Field(grid, rho_n), Field(grid, rho_np1), Field(grid, u_np1), tau, model
    )
    slow = dense_mu_step(mu_n, rho_n, rho_np1, u_np1, tau, model, grid)
    assert np.max(np.abs(fast.values - slow)) <= 1e-12


def test_mu_coefficient_floor_counts_clamps():
    model = PotentialConfig(f_strength=0.0, g_family="linear")
    tau = 1.0
    # 1 + 2*0.1 + 1*(0.1-0.9) = 0.4 stays positive: no clamp here
    a, clamps, weight = mu_zeroth_coefficient(np.full(4, 0.1), np.full(4, 0.9), tau, model)
    assert clamps == 0
    assert np.allclose(a, 0.4)
    assert np.all(weight == 1.0 + 2.0 * 0.1)  # 1 + 2 g, which the step's rhs reuses
    # saturating g: 1 + 2*g(0.05) + g'(0.05)*(0.05-0.999) < 0 triggers the floor
    sat = PotentialConfig(f_strength=0.0, g_family="saturating")
    a2, clamps2, _ = mu_zeroth_coefficient(np.full(4, 0.05), np.full(4, 0.999), tau, sat)
    assert clamps2 == 4
    assert np.all(a2 == COEFFICIENT_FLOOR)


def test_single_cell_against_rk4():
    # one cell kills the Laplacian and the convolution reduces to a
    # multiple of rho itself; with mu0 = 0 and u = 0, mu stays 0 and rho
    # follows the scalar relaxation ODE
    grid = Grid.line(1, 1.0)
    tgrid = TimeGrid(0.5, 400)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.zero(), grid)
    init = InitialData(grid, np.full(grid.shape, 0.3), np.zeros(grid.shape))
    u = Trajectory.constant(tgrid, grid, 0.0)
    sol = solve_state(u, 0.5, init, model, op)
    ref = rk4_scalar_relaxation(0.3, 0.5, 0.25, 0.5, 20000)
    assert abs(float(sol.rho[-1, 0]) - ref) <= 5e-4


def test_state_bounds_and_nonnegativity():
    grid, tgrid, model, op = make_setup(n=32, steps=100)
    x = grid.centers()[0]
    init = InitialData(grid, 0.4 + 0.2 * np.sin(2 * np.pi * x), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    for alpha in (1e-1, 1e-3):
        sol = solve_state(u, alpha, init, model, op)
        d = state_diagnostics(sol)
        assert d.min_mu >= -1e-10
        assert d.mu_nonneg_ok
        assert 0.0 < d.min_rho
        assert d.max_rho < 1.0
    sol0 = solve_state(u, 0.0, init, model, op)
    d0 = state_diagnostics(sol0)
    assert d0.min_mu >= -1e-10
    assert 0.0 <= d0.min_rho
    assert d0.max_rho <= 1.0
    assert check_obstacle_signs(sol0) == []


def test_obstacle_contact_produces_active_set():
    # strong persistent forcing drives rho onto the upper obstacle, in 1D
    grid, tgrid, model, op = make_setup(n=64, steps=200)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, 0.0, init, model, op)
    d = state_diagnostics(sol)
    assert d.max_rho == 1.0
    assert d.xi_l6 > 0.1
    assert check_obstacle_signs(sol) == []

    # and in 2D: twod_contact.cfg reaches it on 6 972 of its 12 000 cells
    # after time 0
    p = build_problem(load_config(CONFIGS / "twod_contact.cfg"))
    sol = solve_state(p.control, 0.0, p.init, p.model, p.op)
    assert state_diagnostics(sol).max_rho == 1.0
    assert np.count_nonzero(sol.rho == 1.0) == 6972
    assert check_obstacle_signs(sol) == []


def test_sign_check_rejects_quench_runs():
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.zeros(grid.shape))
    u = Trajectory.constant(tgrid, grid, 0.0)
    sol = solve_state(u, 0.5, init, model, op)
    with pytest.raises(ValueError):
        check_obstacle_signs(sol)


def test_energy_residual_first_order_in_tau():
    grid = Grid.line(64, 1.0)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    residuals = []
    for steps in (100, 200, 400):
        tgrid = TimeGrid(1.0, steps)
        u = Trajectory.constant(tgrid, grid, 1.0)
        sol = solve_state(u, 1e-3, init, model, op)
        residuals.append(energy_residual(sol))
    assert residuals[1] <= 0.05
    ratio = residuals[0] / residuals[1]
    assert 1.6 <= ratio <= 2.6
    ratio2 = residuals[1] / residuals[2]
    assert 1.5 <= ratio2 <= 2.6


def energy_residual_profile_loop(sol, u, model):
    """Node-by-node reference for energy_residual_profile."""
    tgrid = sol.tgrid
    grid = sol.grid
    nodes = tgrid.n_nodes
    tau = tgrid.tau

    stored = np.empty(nodes)
    dissip = np.empty(nodes)
    source = np.empty(nodes)
    for n in range(nodes):
        mu_n = sol.mu[n]
        g_n = model.g(sol.rho[n])
        stored[n] = float(np.sum((0.5 + g_n) * mu_n * mu_n)) * grid.cell_volume
        # discrete ∫|∇mu|² from the interior face differences
        dissip[n] = 0.0
        for axis, h in enumerate(grid.spacing):
            d = np.diff(mu_n, axis=axis) / h
            dissip[n] += float(np.sum(d * d) * grid.cell_volume)
        source[n] = inner_product(grid, u.values[n], sol.mu[n])

    res = np.zeros(nodes)
    cum_d = 0.0
    cum_s = 0.0
    for n in range(1, nodes):
        cum_d += 0.5 * tau * (dissip[n - 1] + dissip[n])
        cum_s += 0.5 * tau * (source[n - 1] + source[n])
        lhs = stored[n] + cum_d
        rhs = stored[0] + cum_s
        scale = max(abs(stored[n]), abs(stored[0]), abs(cum_d), abs(cum_s))
        gap = abs(lhs - rhs)
        res[n] = 0.0 if gap == 0.0 else gap / max(scale, 1e-300)
    return res


def test_energy_residual_profile_matches_node_loop():
    # each profile entry is already a defect relative to the balance-law
    # terms, so 1e-12 absolute on it is 1e-12 relative to those terms
    grid, tgrid, model, op = make_setup(n=32, steps=60, g_family="saturating")
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, 1e-2, init, model, op)
    grid2 = Grid.box((6, 5), (1.0, 0.8))
    tgrid2 = TimeGrid(0.25, 20)
    op2 = NonlocalOperator(Kernel.gaussian(1.0, 0.15), grid2)
    init2 = InitialData(grid2, np.full(grid2.shape, 0.5), np.ones(grid2.shape))
    u2 = Trajectory.constant(tgrid2, grid2, 1.0)
    sol2 = solve_state(u2, 1e-3, init2, model, op2)
    for s, v in ((sol, u), (sol2, u2)):
        ref = energy_residual_profile_loop(s, v, model)
        fast = energy_residual_profile(s)
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= 1e-12
        assert np.max(ref) > 0.0


def test_solver_is_deterministic():
    grid, tgrid, model, op = make_setup(n=24, steps=50)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    a = solve_state(u, 1e-2, init, model, op)
    b = solve_state(u, 1e-2, init, model, op)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.xi, b.xi)


def test_grid_mismatch_rejected():
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    other = Grid.line(9, 1.0)
    init = InitialData(other, np.full(other.shape, 0.5), np.zeros(other.shape))
    u = Trajectory.constant(tgrid, grid, 0.0)
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        solve_state(u, 0.5, init, model, op)


@pytest.mark.parametrize(
    "grid, other",
    [
        (Grid.line(7, 1.0), Grid.line(4, 1.0)),  # np.convolve would broadcast one value
        (Grid.line(7, 1.0), Grid.line(7, 5.0)),  # same cells, other spacing
        (Grid.box((6, 4)), Grid.box((6, 4), (2.0, 1.0))),
    ],
    ids=["fewer-cells", "other-length", "2d-other-length"],
)
def test_operator_on_another_grid_rejected(grid, other):
    # the forward march refuses an operator whose weights were laid out for
    # another grid, as it refuses a control off the initial data's; the
    # adjoint steps with the state's own operator, so it cannot be handed one
    tgrid = TimeGrid(1.0, 5)
    model = PotentialConfig(f_strength=0.25)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    wrong = NonlocalOperator(Kernel.gaussian(1.0, 0.1), other)
    with pytest.raises(ConfigError, match=r"\(A3\) nonlocal operator grid"):
        solve_state(u, 1e-2, init, model, wrong)


def test_state_records_the_control_model_and_operator_it_stepped_with():
    # the state holds the march's own objects: the control's values array
    # itself (a held control stays a stride-0 view), the model and the operator
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    held = Trajectory.constant(tgrid, grid, 1.0)
    full = Trajectory(tgrid, grid, np.ones((tgrid.n_nodes,) + grid.shape))
    for u in (held, full):
        for alpha in (1e-2, 0.0):
            sol = solve_state(u, alpha, init, model, op)
            assert (sol.u is u.values, sol.model is model, sol.op is op) == (True, True, True)
    assert held.values.strides[0] == 0


def test_state_records_the_scale_it_stepped_with():
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    for alpha, exponent in ((1e-2, 1.0), (1e-2, 0.5), (0.0, 1.0)):
        m = dataclasses.replace(model, quench_exponent=exponent)
        expect = quench_scale(alpha, exponent) if alpha > 0.0 else 0.0
        assert solve_state(u, alpha, init, m, op).scale == expect


def test_solve_state_checks_alpha_and_never_runs_an_underflowed_level(monkeypatch):
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    for alpha in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            solve_state(u, alpha, init, model, op)
    # 1e-200 ** 2 underflows to a zero scale, the step rule of the
    # obstacle problem; a positive alpha must raise instead
    obstacle_calls = []
    obstacle_resolvent = state_module.obstacle_resolvent
    monkeypatch.setattr(
        state_module,
        "obstacle_resolvent",
        lambda *a: obstacle_calls.append(1) or obstacle_resolvent(*a),
    )
    deep = PotentialConfig(quench_exponent=2.0)
    with pytest.raises(ValueError, match=r"underflows to 0"):
        solve_state(u, 1e-200, init, deep, op)
    assert obstacle_calls == []
    solve_state(u, 0.0, init, deep, op)  # the counter sees an obstacle march
    assert len(obstacle_calls) == tgrid.steps


def test_two_dimensional_run_smoke():
    grid = Grid.box((8, 6), (1.0, 1.0))
    tgrid = TimeGrid(0.5, 20)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.15), grid)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, 1e-2, init, model, op)
    assert sol.rho.shape == (21, 8, 6)
    d = state_diagnostics(sol)
    assert d.min_mu >= -1e-10
    assert 0.0 < d.min_rho <= d.max_rho < 1.0


def test_march_builds_no_field(monkeypatch):
    built = []
    post_init = Field.__post_init__
    monkeypatch.setattr(Field, "__post_init__", lambda self: built.append(1) or post_init(self))
    for grid in (Grid.line(8, 1.0), Grid.box((4, 5), (1.0, 1.0))):
        tgrid = TimeGrid(0.5, 6)
        op = NonlocalOperator(Kernel.gaussian(1.0, 0.15), grid)
        model = PotentialConfig()
        init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
        u = Trajectory.constant(tgrid, grid, 1.0)
        for alpha in (1e-2, 0.0):
            solve_state(u, alpha, init, model, op)
    assert built == []
    Field(grid, np.zeros(grid.shape))  # the counter sees a construction
    assert built == [1]


def test_march_computes_no_diagnostics(monkeypatch):
    # the march returns its arrays and clamp count; the energy residual and
    # the rest of the record are state_diagnostics', called by name through
    # the module global
    calls = []
    residual = state_module.energy_residual
    monkeypatch.setattr(state_module, "energy_residual", lambda *a: calls.append(1) or residual(*a))
    grid, tgrid, model, op = make_setup(n=8, steps=6)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, 1e-2, init, model, op)
    assert calls == []
    assert sol.clamp_events == 0
    d = state_diagnostics(sol)
    assert calls == [1]
    assert d.energy_residual_max == residual(sol)
    assert (d.alpha, d.clamp_events, d.mu_nonneg_ok) == (1e-2, 0, True)


def test_marches_build_no_trajectory(monkeypatch):
    # the forward and the backward march return raw arrays on the control's
    # mesh; a Trajectory is only a control or a config profile
    grid, tgrid, model, op = make_setup(n=8, steps=6)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    u = Trajectory.constant(tgrid, grid, 1.0)
    zeros = Trajectory.constant(tgrid, grid, 0.0)
    weights = CostWeights(1.0, 0.5, 1.0, Trajectory.constant(tgrid, grid, 0.3), zeros)
    built = []
    post_init = Trajectory.__post_init__
    monkeypatch.setattr(
        Trajectory, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    state = solve_state(u, 1e-2, init, model, op)
    adj = solve_adjoint(state, weights)
    assert built == []
    assert (state.tgrid, state.grid) == (tgrid, grid)
    assert all(type(a) is np.ndarray for a in (state.mu, state.rho, state.xi))
    assert all(type(a) is np.ndarray for a in (adj.mu_dual, adj.rho_dual, adj.multiplier))
    Trajectory.constant(tgrid, grid, 0.0)  # the counter sees a construction
    assert built == [1]


def test_march_stops_at_the_first_non_finite_mu(monkeypatch):
    # mu, about u·tau/(1 + 2g) ≈ 1e305·2e4/2, overflows in the first
    # obstacle step, so no later step is taken
    grid, tgrid, model, op = make_setup(n=64, steps=5, horizon=1e5)
    init = InitialData(grid, np.full(grid.shape, 0.5), np.ones(grid.shape))
    calls = []
    step_rho = state_module.step_rho
    monkeypatch.setattr(state_module, "step_rho", lambda *a: calls.append(1) or step_rho(*a))
    with pytest.raises(SolverError, match=r"^forward march: a non-finite value at time node 1 of 5$"):
        solve_state(Trajectory.constant(tgrid, grid, 1e305), 0.0, init, model, op)
    assert len(calls) == 1


def test_check_march_names_the_first_node_reached():
    tgrid = TimeGrid(1.0, 4)
    a = np.zeros((5, 3))
    b = np.zeros((5, 3))
    assert check_march("m", tgrid, (a, b)) is None
    a[1, 2] = np.nan
    b[3, 0] = np.inf
    with pytest.raises(SolverError, match=r"^m: a non-finite value at time node 1 of 4$"):
        check_march("m", tgrid, (a, b))
    with pytest.raises(SolverError, match=r"node 3 of 4, marching backward$"):
        check_march("m", tgrid, (a, b), backward=True)