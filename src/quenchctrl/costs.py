"""Tracking cost, admissible control set, and the box projection.

The cost is quadratic tracking of the two state fields plus a control
energy term.  The control terms use trapezoidal time quadrature; the
state-tracking terms use the left-endpoint rule.  That choice makes the
discrete adjoint of the time stepper satisfy exactly zero terminal
conditions while its output is still the exact gradient of the discrete
cost, so the Taylor test of the gradient is clean down to rounding.
The cost takes a state alone and charges its control, `StateSolution.u`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid, TimeGrid, Trajectory, _square, inner_product_spacetime, norm_l2_spacetime
from .state import StateSolution

__all__ = [
    "CostWeights",
    "AdmissibleSet",
    "tracking_misfit_sq",
    "tracking_cost",
    "anchored_tracking_cost",
    "project_admissible",
]


@dataclass
class CostWeights:
    """Nonnegative weights and target trajectories of the tracking cost."""

    rho_weight: float
    mu_weight: float
    control_weight: float
    rho_target: Trajectory
    mu_target: Trajectory

    def __post_init__(self):
        if min(self.rho_weight, self.mu_weight, self.control_weight) < 0.0:
            raise ConfigError("(A4) cost weights must be nonnegative")
        if self.rho_weight + self.mu_weight + self.control_weight <= 0.0:
            raise ConfigError("(A4) at least one cost weight must be positive")


@dataclass
class AdmissibleSet:
    """Box constraint 0 ≤ u ≤ ceiling plus a time-H1 budget.

    The box is enforced by projection; the H1 budget is monitored and
    reported, never enforced.
    """

    ceiling: Trajectory
    h1_budget: float = 1e6

    def __post_init__(self):
        if np.min(self.ceiling.values) < 0.0:
            raise ConfigError("(A4) control ceiling must be nonnegative")
        if self.h1_budget <= 0.0:
            raise ConfigError("(A4) control H1 budget must be positive")

    def contains_box(self, u: Trajectory) -> bool:
        return bool(np.all(u.values >= 0.0) and np.all(u.values <= self.ceiling.values))


def _check_target(tgrid: TimeGrid, grid: Grid, a: np.ndarray, target: Trajectory) -> None:
    """Refuse (A4) a target for the array a on (tgrid, grid) that lies on
    another mesh, even one of a's shape: the cost and the adjoint share it."""
    if target.tgrid != tgrid or target.grid != grid or np.shape(a) != target.values.shape:
        raise ConfigError("(A4) target does not match the state discretization")


def tracking_misfit_sq(tgrid: TimeGrid, grid: Grid, a: np.ndarray, target: Trajectory) -> float:
    """Squared L2 misfit of the array a on (tgrid, grid) over space-time,
    left-endpoint rule in time, against a target on the same mesh."""
    _check_target(tgrid, grid, a, target)
    diff = a[:-1] - target.values[:-1]
    return float(np.sum(diff * diff) * tgrid.tau * grid.cell_volume)


def tracking_cost(sol: StateSolution, w: CostWeights) -> float:
    """Quadratic tracking of sol plus the energy of its control; always ≥ 0."""
    cost = 0.0
    if w.rho_weight > 0.0:
        cost += 0.5 * w.rho_weight * tracking_misfit_sq(sol.tgrid, sol.grid, sol.rho, w.rho_target)
    if w.mu_weight > 0.0:
        cost += 0.5 * w.mu_weight * tracking_misfit_sq(sol.tgrid, sol.grid, sol.mu, w.mu_target)
    if w.control_weight > 0.0:
        cost += 0.5 * w.control_weight * _square(norm_l2_spacetime(sol.tgrid, sol.grid, sol.u))
    return cost


def anchored_tracking_cost(sol: StateSolution, w: CostWeights, anchor: Trajectory) -> float:
    """Tracking cost plus a proximity penalty ½‖sol.u - anchor‖² that ties a
    continuation level to the optimizer of the previous one; the anchor
    must lie on the state's mesh."""
    _check_target(sol.tgrid, sol.grid, sol.u, anchor)
    gap = sol.u - anchor.values
    return tracking_cost(sol, w) + 0.5 * inner_product_spacetime(sol.tgrid, sol.grid, gap, gap)


def project_admissible(u: Trajectory, box: AdmissibleSet) -> Trajectory:
    """Pointwise clip onto [0, ceiling]; idempotent, 1-Lipschitz.

    Only the box part of the admissible set is projected; the H1 budget
    is deliberately left to monitoring.
    """
    if u.grid != box.ceiling.grid or u.tgrid != box.ceiling.tgrid:
        raise ConfigError("(A4) control does not match the admissible set discretization")
    return Trajectory(u.tgrid, u.grid, np.clip(u.values, 0.0, box.ceiling.values))
