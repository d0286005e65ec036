"""Semi-implicit time stepping for the coupled state system.

Per step, the order-parameter update is pointwise: everything smooth and
the nonlocal term are frozen at the old node, only the monotone
constraint term (obstacle or quench logarithm) is implicit, so the
update is a resolvent evaluation.  The chemical-potential update then
solves one symmetric positive definite linear system directly.  The
constraint term must be the implicit one, otherwise the iterates leave
[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import (
    Field,
    Grid,
    Trajectory,
    norm_lp_spacetime,
    solve_step_system,
)
from .nonlocal_op import NonlocalOperator
from .potentials import (
    PotentialConfig,
    QuenchLevel,
    log_potential_prime,
    obstacle_resolvent,
    quench_resolvent_detail,
)

__all__ = [
    "InitialData",
    "StateDiagnostics",
    "StateSolution",
    "step_rho",
    "step_mu",
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
    """Initial order parameter and chemical potential.

    The order parameter must start strictly inside (0, 1) and the
    chemical potential must be nonnegative; both are requirements of the
    well-posedness assumptions, rejected under the (A2) tag.
    """

    rho0: Field
    mu0: Field

    def __post_init__(self):
        if self.rho0.grid != self.mu0.grid:
            raise ConfigError("(A2) initial fields live on different grids")
        if np.min(self.rho0.values) <= 0.0 or np.max(self.rho0.values) >= 1.0:
            raise ConfigError("(A2) initial rho must lie strictly inside (0, 1)")
        if np.min(self.mu0.values) < 0.0:
            raise ConfigError("(A2) initial mu must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.rho0.grid


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

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "min_mu": self.min_mu,
            "min_rho": self.min_rho,
            "max_rho": self.max_rho,
            "xi_l6": self.xi_l6,
            "energy_residual_max": self.energy_residual_max,
            "clamp_events": self.clamp_events,
            "mu_nonneg_ok": self.mu_nonneg_ok,
        }


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
    rho_n: Field,
    mu_n: Field,
    level: QuenchLevel | None,
    tau: float,
    model: PotentialConfig,
    op: NonlocalOperator,
) -> tuple[Field, Field]:
    """One order-parameter update; level None means the obstacle problem."""
    drive = (
        mu_n.values * model.g_prime(rho_n.values)
        - model.f_prime(rho_n.values)
        - op.apply_values(rho_n.values)
    )
    b = rho_n.values + tau * drive
    if level is None:
        rho, xi = obstacle_resolvent(b, tau)
    else:
        rho, slope = quench_resolvent_detail(b, tau * level.scale)
        xi = level.scale * slope
    return Field(rho_n.grid, rho), Field(rho_n.grid, xi)


def step_mu(
    mu_n: Field,
    rho_n: Field,
    rho_np1: Field,
    u_np1: Field,
    tau: float,
    model: PotentialConfig,
    stats: dict | None = None,
) -> Field:
    """One chemical-potential update: a direct solve of the SPD step system."""
    grid = mu_n.grid
    a, clamps = mu_zeroth_coefficient(rho_np1.values, rho_n.values, tau, model)
    rhs = (1.0 + 2.0 * model.g(rho_np1.values)) * mu_n.values / tau + u_np1.values
    if stats is not None:
        stats["clamp_events"] = stats.get("clamp_events", 0) + clamps
    return Field(grid, solve_step_system(grid, a, rhs))


def solve_state(
    u: Trajectory,
    level: QuenchLevel | None,
    init: InitialData,
    model: PotentialConfig,
    op: NonlocalOperator,
) -> StateSolution:
    """March the coupled system over the whole time grid.

    u supplies the source of the chemical-potential equation; the step
    from node n to n+1 consumes u at node n+1.
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
    rho[0] = init.rho0.values
    mu[0] = init.mu0.values
    if level is None:
        xi[0] = 0.0  # interior start, multiplier inactive at t = 0
        alpha = 0.0
    else:
        xi[0] = level.scale * log_potential_prime(rho[0])
        alpha = level.alpha

    stats: dict = {}
    rho_f = Field(grid, rho[0])
    mu_f = Field(grid, mu[0])
    for n in range(tgrid.steps):
        rho_next, xi_next = step_rho(rho_f, mu_f, level, tau, model, op)
        mu_next = step_mu(mu_f, rho_f, rho_next, u.snapshot(n + 1), tau, model, stats)
        rho[n + 1] = rho_next.values
        xi[n + 1] = xi_next.values
        mu[n + 1] = mu_next.values
        rho_f, mu_f = rho_next, mu_next

    mu_t = Trajectory(tgrid, grid, mu)
    rho_t = Trajectory(tgrid, grid, rho)
    xi_t = Trajectory(tgrid, grid, xi)

    control_nonneg = bool(np.min(u.values) >= 0.0) and bool(np.min(init.mu0.values) >= 0.0)
    min_mu = float(np.min(mu))
    diag = StateDiagnostics(
        alpha=alpha,
        min_mu=min_mu,
        min_rho=float(np.min(rho)),
        max_rho=float(np.max(rho)),
        xi_l6=norm_lp_spacetime(xi_t, 6.0),
        energy_residual_max=0.0,
        clamp_events=stats.get("clamp_events", 0),
        mu_nonneg_ok=(min_mu >= -1e-10) if control_nonneg else None,
    )
    sol = StateSolution(mu=mu_t, rho=rho_t, xi=xi_t, alpha=alpha, diagnostics=diag)
    diag.energy_residual_max = energy_residual(sol, u, model)
    return sol


def energy_residual_profile(sol: StateSolution, u: Trajectory, model: PotentialConfig) -> np.ndarray:
    """Relative defect of the balance law

        ∫ (1/2 + g(rho(t))) mu(t)² + ∫₀ᵗ∫ |∇mu|² = same at t=0 + ∫₀ᵗ∫ u·mu

    evaluated on the discrete solution with trapezoidal time quadrature.
    The scheme satisfies it to first order in the step size.
    """
    tau = sol.mu.tgrid.tau
    grid = sol.mu.grid
    mu = sol.mu.values
    space = tuple(range(1, mu.ndim))

    stored = np.sum((0.5 + model.g(sol.rho.values)) * mu * mu, axis=space) * grid.cell_volume
    dissip = np.zeros(len(mu))
    for axis, h in enumerate(grid.spacing):
        d = np.diff(mu, axis=axis + 1) / h
        dissip += np.sum(d * d, axis=space) * grid.cell_volume
    source = np.sum(u.values * mu, axis=space) * grid.cell_volume

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
