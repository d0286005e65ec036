"""Semi-implicit time stepping for the coupled state system.

Per step, the order-parameter update is pointwise: everything smooth and
the nonlocal term are frozen at the old node, only the monotone
constraint term (obstacle or quench logarithm) is implicit, so the
update is a resolvent evaluation.  The chemical-potential update then
solves one symmetric positive definite linear system: directly in 1D,
by preconditioned conjugate gradients in 2D (`solve_step_system`).  The
constraint term must be the implicit one, otherwise the iterates leave
[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, SolverError
from .grid import (
    Field,
    Grid,
    TimeGrid,
    Trajectory,
    norm_lp_spacetime,
    solve_step_system,
    validated,
)
from .nonlocal_op import NonlocalOperator
from .potentials import (
    PotentialConfig,
    log_potential_prime,
    obstacle_resolvent,
    quench_resolvent_detail,
    quench_scale,
)

__all__ = [
    "InitialData",
    "StateDiagnostics",
    "StateSolution",
    "step_rho",
    "step_mu",
    "wrap_march",
    "solve_state",
    "energy_residual_profile",
    "energy_residual",
    "check_obstacle_signs",
]

# lower clamp on the zeroth-order coefficient of the mu step system,
# shared by the forward and the backward march
COEFFICIENT_FLOOR = 1e-8


@dataclass
class InitialData:
    """Initial order parameter and chemical potential, as cell arrays on grid.

    Both must have the grid's shape and be finite.  The well-posedness
    assumptions, rejected under the (A2) tag, also need rho strictly
    inside (0, 1) and mu nonnegative.
    """

    grid: Grid
    rho0: np.ndarray
    mu0: np.ndarray

    def __post_init__(self):
        self.rho0 = validated(self.rho0, self.grid.shape, "InitialData rho0")
        self.mu0 = validated(self.mu0, self.grid.shape, "InitialData mu0")
        if np.min(self.rho0) <= 0.0 or np.max(self.rho0) >= 1.0:
            raise ConfigError("(A2) initial rho must lie strictly inside (0, 1)")
        if np.min(self.mu0) < 0.0:
            raise ConfigError("(A2) initial mu must be nonnegative")


@dataclass
class StateDiagnostics:
    alpha: float
    min_mu: float
    min_rho: float
    max_rho: float
    xi_l6: float
    energy_residual_max: float
    clamp_events: int
    mu_nonneg_ok: bool | None


@dataclass
class StateSolution:
    """Forward trajectories plus run diagnostics.

    xi is the constraint reaction: the obstacle multiplier at alpha = 0
    and scale·log_potential_prime(rho) on a quench level.
    """

    mu: Trajectory
    rho: Trajectory
    xi: Trajectory
    alpha: float
    diagnostics: StateDiagnostics


def mu_zeroth_coefficient(
    rho_new: np.ndarray,
    rho_old: np.ndarray,
    tau: float,
    model: PotentialConfig,
) -> tuple[np.ndarray, int]:
    """Zeroth-order coefficient of the chemical-potential solve.

    (1 + 2 g(rho_new) + g'(rho_new)(rho_new - rho_old)) / tau, clamped
    below at COEFFICIENT_FLOOR so the system stays positive definite;
    the clamp count is reported.  The backward solve reuses this
    function verbatim so that its operator is the exact transpose of
    the forward one.
    """
    c = (1.0 + 2.0 * model.g(rho_new) + model.g_prime(rho_new) * (rho_new - rho_old)) / tau
    clamped = c < COEFFICIENT_FLOOR
    n = int(np.count_nonzero(clamped))
    if n:
        c = np.where(clamped, COEFFICIENT_FLOOR, c)
    return c, n


def step_rho(
    rho_n: np.ndarray,
    mu_n: np.ndarray,
    scale: float,
    tau: float,
    model: PotentialConfig,
    op: NonlocalOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """One order-parameter update on raw arrays, returning (rho, xi).

    scale is the march's quench_scale(alpha, quench_exponent); scale 0
    is the obstacle problem, alpha = 0."""
    b = rho_n + tau * (mu_n * model.g_prime(rho_n) - model.f_prime(rho_n) - op.apply_values(rho_n))
    if scale == 0.0:
        return obstacle_resolvent(b, tau)
    rho, slope = quench_resolvent_detail(b, tau * scale)
    return rho, scale * slope


def _mu_update(grid: Grid, mu_n, rho_n, rho_np1, u_np1, tau: float, model: PotentialConfig):
    """`step_mu` on raw arrays; returns the new mu and the clamp count."""
    a, clamps = mu_zeroth_coefficient(rho_np1, rho_n, tau, model)
    rhs = (1.0 + 2.0 * model.g(rho_np1)) * mu_n / tau + u_np1
    return solve_step_system(grid, a, rhs), clamps


def step_mu(
    mu_n: Field,
    rho_n: Field,
    rho_np1: Field,
    u_np1: Field,
    tau: float,
    model: PotentialConfig,
) -> Field:
    """One chemical-potential update, one solve of the SPD step system, on
    Fields: the single-step entry point around the march's `_mu_update`."""
    grid = mu_n.grid
    mu, _ = _mu_update(grid, mu_n.values, rho_n.values, rho_np1.values, u_np1.values, tau, model)
    return Field(grid, mu)


def wrap_march(
    march: str, tgrid: TimeGrid, grid: Grid, arrays: tuple[np.ndarray, ...], backward: bool = False
) -> list[Trajectory]:
    """A finished march's arrays (time along axis 0) as Trajectories.

    Their validation is the march's one finiteness check.  When it fails,
    SolverError names the node where the march first met a non-finite
    value: the lowest such node marching forward, the highest backward.
    """
    try:
        return [Trajectory(tgrid, grid, a) for a in arrays]
    except NonFiniteError:
        finite = np.ones(tgrid.n_nodes, dtype=bool)
        for a in arrays:
            finite &= np.isfinite(a).reshape(len(a), -1).all(axis=1)
        bad = np.flatnonzero(~finite)
        node, way = (bad[-1], ", marching backward") if backward else (bad[0], "")
        raise SolverError(
            f"{march}: a non-finite value at time node {node} of {tgrid.steps}{way}"
        ) from None


def solve_state(
    u: Trajectory,
    alpha: float,
    init: InitialData,
    model: PotentialConfig,
    op: NonlocalOperator,
) -> StateSolution:
    """March the coupled system over the whole time grid at quench
    parameter alpha; alpha = 0 is the obstacle problem, as in the config.

    u supplies the source of the chemical-potential equation; the step
    from node n to n+1 consumes u at node n+1.  Each step, on raw arrays,
    is `step_rho` at the scale quench_scale(alpha, quench_exponent), 0 on
    the obstacle problem, then the mu solve.  An alpha outside [0, 1],
    or NaN, raises ValueError (from quench_scale), and so does an
    alpha > 0 whose scale underflows to 0: that march must not run as
    the obstacle problem.  The march stops at the first node whose mu is
    non-finite, and `wrap_march` names the first non-finite node.
    """
    tgrid = u.tgrid
    grid = u.grid
    if grid != init.grid:
        raise ConfigError("(A2) control grid does not match the initial data")
    tau = tgrid.tau
    nodes = tgrid.n_nodes

    rho = np.empty((nodes,) + grid.shape)
    mu = np.empty_like(rho)
    xi = np.empty_like(rho)
    rho[0] = init.rho0
    mu[0] = init.mu0
    if alpha == 0.0:
        scale = 0.0
        xi[0] = 0.0  # interior start, multiplier inactive at t = 0
    else:
        scale = quench_scale(alpha, model.quench_exponent)
        if scale == 0.0:
            raise ValueError(f"quench scale at alpha = {alpha:g} underflows to 0")
        xi[0] = scale * log_potential_prime(rho[0])

    clamp_events = 0
    for n in range(tgrid.steps):
        rho[n + 1], xi[n + 1] = step_rho(rho[n], mu[n], scale, tau, model, op)
        mu[n + 1], clamps = _mu_update(
            grid, mu[n], rho[n], rho[n + 1], u.values[n + 1], tau, model
        )
        clamp_events += clamps
        if not np.isfinite(mu[n + 1]).all():
            # stop: this mu would fail the next quench resolvent and hide the
            # node; the unwritten later nodes lie past the one wrap_march names
            break
    mu_t, rho_t, xi_t = wrap_march("forward march", tgrid, grid, (mu, rho, xi))

    control_nonneg = bool(np.min(u.values) >= 0.0)  # InitialData holds mu0 >= 0
    min_mu = float(np.min(mu))
    diag = StateDiagnostics(
        alpha=alpha,
        min_mu=min_mu,
        min_rho=float(np.min(rho)),
        max_rho=float(np.max(rho)),
        xi_l6=norm_lp_spacetime(xi_t, 6.0),
        energy_residual_max=0.0,
        clamp_events=clamp_events,
        mu_nonneg_ok=(min_mu >= -1e-10) if control_nonneg else None,
    )
    sol = StateSolution(mu=mu_t, rho=rho_t, xi=xi_t, alpha=alpha, diagnostics=diag)
    diag.energy_residual_max = energy_residual(sol, u, model)
    return sol


def energy_residual_profile(sol: StateSolution, u: Trajectory, model: PotentialConfig) -> np.ndarray:
    """Relative defect of the balance law

        ∫ (1/2 + g(rho(t))) mu(t)² + ∫₀ᵗ∫ |∇mu|² = same at t=0 + ∫₀ᵗ∫ u·mu

    evaluated on the discrete solution with trapezoidal time quadrature.
    The scheme satisfies it to first order in the step size.  Every term
    is quadratic in (mu, u), so where the squares would overflow both are
    divided by their max first; the relative defect does not change.
    """
    tau = sol.mu.tgrid.tau
    grid = sol.mu.grid
    mu = sol.mu.values
    source_u = u.values
    space = tuple(range(1, mu.ndim))
    top = max(abs(float(x)) for x in (mu.min(), mu.max(), source_u.min(), source_u.max()))
    if top > 2.0**300:
        mu, source_u = mu / top, source_u / top

    stored = np.sum((0.5 + model.g(sol.rho.values)) * mu * mu, axis=space) * grid.cell_volume
    dissip = np.zeros(len(mu))
    for axis, h in enumerate(grid.spacing):
        d = np.diff(mu, axis=axis + 1) / h
        dissip += np.sum(d * d, axis=space) * grid.cell_volume
    source = np.sum(source_u * mu, axis=space) * grid.cell_volume

    cum_d = np.concatenate(([0.0], np.cumsum(0.5 * tau * (dissip[:-1] + dissip[1:]))))
    cum_s = np.concatenate(([0.0], np.cumsum(0.5 * tau * (source[:-1] + source[1:]))))
    gap = np.abs((stored + cum_d) - (stored[0] + cum_s))
    scale = np.maximum(
        np.maximum(np.abs(stored), abs(stored[0])), np.maximum(np.abs(cum_d), np.abs(cum_s))
    )
    return gap / np.maximum(scale, 1e-300)


def energy_residual(sol: StateSolution, u: Trajectory, model: PotentialConfig) -> float:
    return float(np.max(energy_residual_profile(sol, u, model)))


def check_obstacle_signs(sol: StateSolution) -> list[str]:
    """Exact multiplier sign structure for an obstacle run.

    Strictly interior cells must carry xi = 0, cells pinned at 0 need
    xi ≤ 0 and cells pinned at 1 need xi ≥ 0; no tolerance anywhere.
    Returns a list of violation descriptions (empty when clean).
    """
    if sol.alpha != 0.0:
        raise ValueError("sign structure applies to obstacle runs only")
    out: list[str] = []
    rho = sol.rho.values
    xi = sol.xi.values
    if np.any(rho < 0.0) or np.any(rho > 1.0):
        out.append("rho leaves [0, 1]")
    interior = (rho > 0.0) & (rho < 1.0)
    if np.any(xi[interior] != 0.0):
        out.append("xi != 0 at interior cells")
    if np.any(xi[rho == 0.0] > 0.0):
        out.append("xi > 0 at cells pinned to 0")
    if np.any(xi[rho == 1.0] < 0.0):
        out.append("xi < 0 at cells pinned to 1")
    return out
