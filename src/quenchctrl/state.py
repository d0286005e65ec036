"""Semi-implicit time stepping for the coupled state system.

Per step, the order-parameter update is pointwise: everything smooth and
the nonlocal term are frozen at the old node, only the monotone
constraint term (obstacle or quench logarithm) is implicit, so the
update is a resolvent evaluation.  The chemical-potential update then
solves one symmetric positive definite linear system: directly in 1D,
by preconditioned conjugate gradients in 2D (`solve_step_system`).  The
constraint term must be the implicit one, otherwise the iterates leave
[0, 1].  Each march ends in `check_march`, its one finiteness check,
and returns its arrays, its clamp count and the control, model and
operator it stepped with; every consumer reads those off the state.
The bounds, the reaction norm and the energy-balance defect of a state
are `state_diagnostics`, which a command calls once per reported state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
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
    "check_march",
    "solve_state",
    "state_diagnostics",
    "energy_residual_profile",
    "energy_residual",
    "check_obstacle_signs",
    "state_violations",
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
    """Forward march: mu, rho and xi as arrays on one mesh; the control
    values u (the array itself), model and op it stepped with, its scale,
    and the number of mu step coefficients clamped at COEFFICIENT_FLOOR.

    xi is the constraint reaction: the obstacle multiplier at alpha = 0
    and scale·log_potential_prime(rho) on a quench level.
    """

    tgrid: TimeGrid
    grid: Grid
    mu: np.ndarray
    rho: np.ndarray
    xi: np.ndarray
    u: np.ndarray
    alpha: float
    scale: float
    clamp_events: int
    model: PotentialConfig
    op: NonlocalOperator


def mu_zeroth_coefficient(
    rho_new: np.ndarray,
    rho_old: np.ndarray,
    tau: float,
    model: PotentialConfig,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Zeroth-order coefficient of the chemical-potential solve.

    (1 + 2 g(rho_new) + g'(rho_new)(rho_new - rho_old)) / tau, clamped
    below at COEFFICIENT_FLOOR so the system stays positive definite.
    Returns the coefficient, the clamp count and the weight
    1 + 2 g(rho_new) it was formed from, which the forward step's
    right-hand side reuses.  The backward solve calls it once on all
    nodes stacked, elementwise the same bits, so that its operator and
    weight are the forward ones and it is the exact transpose.
    """
    weight = 1.0 + 2.0 * model.g(rho_new)
    c = (weight + model.g_prime(rho_new) * (rho_new - rho_old)) / tau
    clamped = c < COEFFICIENT_FLOOR
    n = int(np.count_nonzero(clamped))
    if n:
        c = np.where(clamped, COEFFICIENT_FLOOR, c)
    return c, n, weight


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
    a, clamps, weight = mu_zeroth_coefficient(rho_np1, rho_n, tau, model)
    rhs = weight * mu_n / tau + u_np1
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
    Fields, around the march's `_mu_update`.  No command calls it: only the
    benchmark's per-step probe (perfbench/child.py) and its own unit tests
    do, and `verify` steps arrays through `_mu_update`."""
    grid = mu_n.grid
    mu, _ = _mu_update(grid, mu_n.values, rho_n.values, rho_np1.values, u_np1.values, tau, model)
    return Field(grid, mu)


def check_march(march: str, tgrid: TimeGrid, arrays: tuple, backward: bool = False) -> None:
    """A finished march's one finiteness check over its arrays (time along
    axis 0).  SolverError names the node where the march first met a
    non-finite value: the lowest such node marching forward, the highest backward."""
    finite = [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in arrays]
    bad = np.flatnonzero(~np.logical_and.reduce(finite))
    if len(bad):
        node, way = (bad[-1], ", marching backward") if backward else (bad[0], "")
        raise SolverError(f"{march}: a non-finite value at time node {node} of {tgrid.steps}{way}")


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
    the obstacle problem, then the mu solve.  An operator or initial data
    on another grid than u's raise ConfigError.  An alpha outside [0, 1],
    or NaN, raises ValueError (from quench_scale), and so does an
    alpha > 0 whose scale underflows to 0: that march must not run as
    the obstacle problem.  The march stops at the first node whose mu is
    non-finite, and `check_march` names the first non-finite node.  A step
    whose resolvent or step solve raises SolverError (a drive beyond the
    double range, say) is re-raised naming the time node it steps to.
    """
    tgrid = u.tgrid
    grid = u.grid
    if grid != init.grid:
        raise ConfigError("(A2) control grid does not match the initial data")
    if grid != op.grid:
        raise ConfigError("(A3) nonlocal operator grid does not match the control")
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
    cells = grid.n_cells
    try:
        for n in range(tgrid.steps):
            rho[n + 1], xi[n + 1] = step_rho(rho[n], mu[n], scale, tau, model, op)
            mu[n + 1], clamps = _mu_update(
                grid, mu[n], rho[n], rho[n + 1], u.values[n + 1], tau, model
            )
            clamp_events += clamps
            # counted, not .all(): on the few cells of a step the reduction's
            # call costs more than the test
            if np.count_nonzero(np.isfinite(mu[n + 1])) < cells:
                # stop: the next quench resolvent would fail on this mu and name
                # the node after it; the unwritten later nodes lie past the one
                # check_march names
                break
    except SolverError as exc:
        raise SolverError(
            f"forward march, step to time node {n + 1} of {tgrid.steps}: {exc}"
        ) from exc
    check_march("forward march", tgrid, (mu, rho, xi))
    return StateSolution(tgrid, grid, mu, rho, xi, u.values, alpha, scale, clamp_events, model, op)


def state_diagnostics(sol: StateSolution) -> StateDiagnostics:
    """The reported record of the march sol: its bounds, the L6 norm of
    xi, the energy-balance defect and the clamp count.  mu_nonneg_ok is
    None unless the control sol.u is nonnegative, the case in which mu
    stays nonnegative (InitialData holds mu0 >= 0)."""
    control_nonneg = bool(np.min(sol.u) >= 0.0)
    min_mu = float(np.min(sol.mu))
    return StateDiagnostics(
        alpha=sol.alpha,
        min_mu=min_mu,
        min_rho=float(np.min(sol.rho)),
        max_rho=float(np.max(sol.rho)),
        xi_l6=norm_lp_spacetime(sol.tgrid, sol.grid, sol.xi, 6.0),
        energy_residual_max=energy_residual(sol),
        clamp_events=sol.clamp_events,
        mu_nonneg_ok=(min_mu >= -1e-10) if control_nonneg else None,
    )


def energy_residual_profile(sol: StateSolution) -> np.ndarray:
    """Relative defect of the balance law

        ∫ (1/2 + g(rho(t))) mu(t)² + ∫₀ᵗ∫ |∇mu|² = same at t=0 + ∫₀ᵗ∫ u·mu

    evaluated on sol with its own control and g, by the trapezoidal rule in time.
    The scheme satisfies it to first order in the step size.  Every term
    is quadratic in (mu, u), so where the squares would overflow both are
    divided by their max first; the relative defect does not change.
    """
    tau, grid, mu, source_u = sol.tgrid.tau, sol.grid, sol.mu, sol.u
    space = tuple(range(1, mu.ndim))
    top = max(abs(float(x)) for x in (mu.min(), mu.max(), source_u.min(), source_u.max()))
    if top > 2.0**300:
        mu, source_u = mu / top, source_u / top

    stored = np.sum((0.5 + sol.model.g(sol.rho)) * mu * mu, axis=space) * grid.cell_volume
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


def energy_residual(sol: StateSolution) -> float:
    return float(np.max(energy_residual_profile(sol)))


def check_obstacle_signs(sol: StateSolution) -> list[str]:
    """Exact multiplier sign structure for an obstacle run.

    Strictly interior cells must carry xi = 0, cells pinned at 0 need
    xi ≤ 0 and cells pinned at 1 need xi ≥ 0; no tolerance anywhere.
    Returns a list of violation descriptions (empty when clean).
    """
    if sol.alpha != 0.0:
        raise ValueError("sign structure applies to obstacle runs only")
    out: list[str] = []
    rho, xi = sol.rho, sol.xi
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


def state_violations(sol: StateSolution, d: StateDiagnostics) -> list[str]:
    """What every reported state must satisfy, as violation descriptions
    (empty when clean); d is sol's `state_diagnostics`, the record written."""
    out: list[str] = []
    if d.mu_nonneg_ok is False:
        out.append(f"min mu = {d.min_mu:.3e} under nonnegative data")
    if sol.alpha > 0.0:
        if not (d.min_rho > 0.0 and d.max_rho < 1.0):
            out.append("rho touched an obstacle on a quench run")
    else:
        out.extend(check_obstacle_signs(sol))
    return out
