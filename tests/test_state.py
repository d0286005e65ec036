import numpy as np
import pytest

from quenchctrl.errors import ConfigError
from quenchctrl.grid import (
    Field,
    Grid,
    TimeGrid,
    Trajectory,
    h1_seminorm_sq,
    inner_product,
    solve_step_system,
)
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.potentials import PotentialConfig
from quenchctrl.state import (
    COEFFICIENT_FLOOR,
    InitialData,
    check_obstacle_signs,
    energy_residual,
    energy_residual_profile,
    mu_zeroth_coefficient,
    solve_state,
    step_mu,
)
from quenchctrl.verify import dense_laplacian, dense_mu_step, rk4_scalar_relaxation


def make_setup(n=16, steps=20, g_family="linear", f_strength=0.25, kernel=None, horizon=1.0):
    grid = Grid.line(n, 1.0)
    tgrid = TimeGrid(horizon, steps)
    model = PotentialConfig(f_strength=f_strength, g_family=g_family)
    op = NonlocalOperator(kernel or Kernel.gaussian(1.0, 0.1), grid)
    return grid, tgrid, model, op


def test_initial_data_a2_validation():
    g = Grid.line(4, 1.0)
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        InitialData(Field.constant(g, 0.0), Field.constant(g, 1.0))
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        InitialData(Field.constant(g, 1.0), Field.constant(g, 1.0))
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        InitialData(Field.constant(g, 0.5), Field.constant(g, -0.1))
    InitialData(Field.constant(g, 0.5), Field.constant(g, 0.0))  # boundary mu ok


@pytest.mark.parametrize(
    "grid",
    [Grid.line(1), Grid.line(64), Grid.box((7, 5)), Grid.box((1, 6)), Grid.box((6, 1))],
    ids=lambda g: "x".join(map(str, g.cells)),
)
def test_solve_step_system_matches_dense_assembly(grid):
    rng = np.random.default_rng(5)
    a = rng.uniform(10.0, 400.0, grid.shape)
    a.reshape(-1)[::3] = COEFFICIENT_FLOOR  # clamped cells, the worst-conditioned case
    rhs = rng.standard_normal(grid.shape)
    x = solve_step_system(grid, a, rhs)
    mat = np.diag(a.reshape(-1)) - dense_laplacian(grid)
    residual = mat @ x.reshape(-1) - rhs.reshape(-1)
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


def test_trivial_configuration_is_exactly_stationary():
    # zero kernel, flat F, zero control, mu0 = 0: rho = 1/2 and mu = 0
    # are fixed points of the scheme to machine precision
    grid, tgrid, model, op = make_setup(
        n=8, steps=30, f_strength=0.0, kernel=Kernel.zero()
    )
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 0.0))
    u = Trajectory.zeros(tgrid, grid)
    for level in (model.level(1.0), model.level(1e-3), None):
        sol = solve_state(u, level, init, model, op)
        assert np.max(np.abs(sol.rho.values - 0.5)) <= 1e-14
        assert np.max(np.abs(sol.mu.values)) <= 1e-14


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
    a, clamps = mu_zeroth_coefficient(np.full(4, 0.1), np.full(4, 0.9), tau, model)
    assert clamps == 0
    assert np.allclose(a, 0.4)
    # saturating g: 1 + 2*g(0.05) + g'(0.05)*(0.05-0.999) < 0 triggers the floor
    sat = PotentialConfig(f_strength=0.0, g_family="saturating")
    a2, clamps2 = mu_zeroth_coefficient(np.full(4, 0.05), np.full(4, 0.999), tau, sat)
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
    init = InitialData(Field.constant(grid, 0.3), Field.constant(grid, 0.0))
    u = Trajectory.zeros(tgrid, grid)
    level = model.level(0.5)
    sol = solve_state(u, level, init, model, op)
    ref = rk4_scalar_relaxation(0.3, 0.5, 0.25, 0.5, 20000)
    assert abs(float(sol.rho.values[-1, 0]) - ref) <= 5e-4


def test_state_bounds_and_nonnegativity():
    grid, tgrid, model, op = make_setup(n=32, steps=100)
    x = grid.centers()[0]
    init = InitialData(
        Field(grid, 0.4 + 0.2 * np.sin(2 * np.pi * x)),
        Field.constant(grid, 1.0),
    )
    u = Trajectory.constant(tgrid, grid, 1.0)
    for level in (model.level(1e-1), model.level(1e-3)):
        sol = solve_state(u, level, init, model, op)
        assert sol.diagnostics.min_mu >= -1e-10
        assert sol.diagnostics.mu_nonneg_ok
        assert 0.0 < sol.diagnostics.min_rho
        assert sol.diagnostics.max_rho < 1.0
    sol0 = solve_state(u, None, init, model, op)
    assert sol0.diagnostics.min_mu >= -1e-10
    assert 0.0 <= sol0.diagnostics.min_rho
    assert sol0.diagnostics.max_rho <= 1.0
    assert check_obstacle_signs(sol0) == []


def test_obstacle_contact_produces_active_set():
    # strong persistent forcing drives rho onto the upper obstacle
    grid, tgrid, model, op = make_setup(n=64, steps=200)
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 1.0))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, None, init, model, op)
    assert sol.diagnostics.max_rho == 1.0
    assert sol.diagnostics.xi_l6 > 0.1
    assert check_obstacle_signs(sol) == []


def test_sign_check_rejects_quench_runs():
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 0.0))
    u = Trajectory.zeros(tgrid, grid)
    sol = solve_state(u, model.level(0.5), init, model, op)
    with pytest.raises(ValueError):
        check_obstacle_signs(sol)


def test_energy_residual_first_order_in_tau():
    grid = Grid.line(64, 1.0)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), grid)
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 1.0))
    residuals = []
    for steps in (100, 200, 400):
        tgrid = TimeGrid(1.0, steps)
        u = Trajectory.constant(tgrid, grid, 1.0)
        sol = solve_state(u, model.level(1e-3), init, model, op)
        residuals.append(energy_residual(sol, u, model))
    assert residuals[1] <= 0.05
    ratio = residuals[0] / residuals[1]
    assert 1.6 <= ratio <= 2.6
    ratio2 = residuals[1] / residuals[2]
    assert 1.5 <= ratio2 <= 2.6


def energy_residual_profile_loop(sol, u, model):
    """Node-by-node reference for energy_residual_profile."""
    tgrid = sol.mu.tgrid
    grid = sol.mu.grid
    nodes = tgrid.n_nodes
    tau = tgrid.tau

    stored = np.empty(nodes)
    dissip = np.empty(nodes)
    source = np.empty(nodes)
    for n in range(nodes):
        mu_n = sol.mu.values[n]
        g_n = model.g(sol.rho.values[n])
        stored[n] = float(np.sum((0.5 + g_n) * mu_n * mu_n)) * grid.cell_volume
        dissip[n] = h1_seminorm_sq(sol.mu.snapshot(n))
        source[n] = inner_product(u.snapshot(n), sol.mu.snapshot(n))

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
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 1.0))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, model.level(1e-2), init, model, op)
    grid2 = Grid.box((6, 5), (1.0, 0.8))
    tgrid2 = TimeGrid(0.25, 20)
    op2 = NonlocalOperator(Kernel.gaussian(1.0, 0.15), grid2)
    init2 = InitialData(Field.constant(grid2, 0.5), Field.constant(grid2, 1.0))
    u2 = Trajectory.constant(tgrid2, grid2, 1.0)
    sol2 = solve_state(u2, model.level(1e-3), init2, model, op2)
    for s, v in ((sol, u), (sol2, u2)):
        ref = energy_residual_profile_loop(s, v, model)
        fast = energy_residual_profile(s, v, model)
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= 1e-12
        assert np.max(ref) > 0.0


def test_solver_is_deterministic():
    grid, tgrid, model, op = make_setup(n=24, steps=50)
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 1.0))
    u = Trajectory.constant(tgrid, grid, 1.0)
    a = solve_state(u, model.level(1e-2), init, model, op)
    b = solve_state(u, model.level(1e-2), init, model, op)
    assert np.array_equal(a.rho.values, b.rho.values)
    assert np.array_equal(a.mu.values, b.mu.values)
    assert np.array_equal(a.xi.values, b.xi.values)


def test_grid_mismatch_rejected():
    grid, tgrid, model, op = make_setup(n=8, steps=5)
    other = Grid.line(9, 1.0)
    init = InitialData(Field.constant(other, 0.5), Field.constant(other, 0.0))
    u = Trajectory.zeros(tgrid, grid)
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        solve_state(u, model.level(0.5), init, model, op)


def test_two_dimensional_run_smoke():
    grid = Grid.box((8, 6), (1.0, 1.0))
    tgrid = TimeGrid(0.5, 20)
    model = PotentialConfig(f_strength=0.25, g_family="linear")
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.15), grid)
    init = InitialData(Field.constant(grid, 0.5), Field.constant(grid, 1.0))
    u = Trajectory.constant(tgrid, grid, 1.0)
    sol = solve_state(u, model.level(1e-2), init, model, op)
    assert sol.rho.values.shape == (21, 8, 6)
    assert sol.diagnostics.min_mu >= -1e-10
    assert 0.0 < sol.diagnostics.min_rho <= sol.diagnostics.max_rho < 1.0
