"""Backward-in-time dual solve for the reduced gradient.

The dual pair (mu_dual, rho_dual) marches backward with the time mirror
of the forward scheme: the mu_dual update solves the same SPD operator
the forward chemical-potential step used at that node (conservative
form of the (1+2g) time derivative), and the rho_dual update is
pointwise with the quench curvature term implicit and all couplings
taken one-sided, consistent with the backward march.  These lag choices
make the march the exact transpose of the forward stepping, so
mu_dual + control_weight·u is the exact gradient of the discrete cost
(in 2D, exact to the step solve's 1e-14 relative tolerance); it is at
the same time a consistent discretization of the continuous dual system.

The terminal dual values vanish identically, and the node-0 values are
stored as zero as well: the initial data carry no dual degree of
freedom, which mirrors the fact that admissible probe functions vanish
at t = 0.  The quench level is the state's alpha, which must be
positive: the obstacle problem (alpha = 0) has no differentiable
control-to-state map, its optimality system is reached through the
continuation instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CostWeights
from .errors import ConfigError
from .grid import Trajectory, inner_product_spacetime, solve_step_system
from .nonlocal_op import NonlocalOperator
from .potentials import PotentialConfig, log_potential_second, quench_scale
from .state import StateSolution, mu_zeroth_coefficient, wrap_march

__all__ = [
    "AdjointSolution",
    "solve_adjoint",
    "ConcentrationMetric",
    "concentration_metric",
    "time_ramp_probe",
]


@dataclass
class AdjointSolution:
    """Dual trajectories: mu_dual drives the gradient, rho_dual pairs with
    the constraint, multiplier = scale·log_potential_second(rho)·rho_dual,
    and pairing_value = ∫∫ multiplier·rho_dual."""

    mu_dual: Trajectory
    rho_dual: Trajectory
    multiplier: Trajectory
    scale: float
    pairing_value: float


def solve_adjoint(
    state: StateSolution,
    weights: CostWeights,
    model: PotentialConfig,
    op: NonlocalOperator,
) -> AdjointSolution:
    """Backward march over the stored state trajectories, at the state's
    quench level: scale = quench_scale(state.alpha, quench_exponent).

    An obstacle state (alpha = 0) raises ValueError.
    """
    if state.alpha <= 0.0:
        raise ValueError("the dual system is only defined on quench levels (alpha > 0)")
    rho = state.rho.values
    mu = state.mu.values
    tgrid = state.rho.tgrid
    grid = state.rho.grid
    if weights.rho_target.values.shape != rho.shape or weights.mu_target.values.shape != mu.shape:
        raise ConfigError("(A4) target does not match the state discretization")
    tau = tgrid.tau
    nt = tgrid.steps
    scale = quench_scale(state.alpha, model.quench_exponent)

    p = np.zeros_like(rho)
    q = np.zeros_like(rho)
    b1 = weights.rho_weight
    b2 = weights.mu_weight
    rho_tgt = weights.rho_target.values
    mu_tgt = weights.mu_target.values
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

    mu_dual, rho_dual, multiplier = wrap_march(
        "adjoint march", tgrid, grid, (p, q, lam), backward=True
    )

    return AdjointSolution(
        mu_dual=mu_dual,
        rho_dual=rho_dual,
        multiplier=multiplier,
        scale=scale,
        pairing_value=inner_product_spacetime(multiplier, rho_dual),
    )


class ConcentrationMetric(NamedTuple):
    value: float        # ∫∫ multiplier · rho(1-rho) · probe
    cross_check: float  # scale · ∫∫ rho_dual · probe, identical in exact arithmetic


def time_ramp_probe(tgrid, grid) -> Trajectory:
    """Canonical probe t/T: vanishes at t = 0, spatially constant."""
    ramp = tgrid.times() / tgrid.horizon
    vals = np.broadcast_to(
        ramp.reshape((-1,) + (1,) * len(grid.shape)), (tgrid.n_nodes,) + grid.shape
    ).copy()
    return Trajectory(tgrid, grid, vals)


def concentration_metric(adj: AdjointSolution, state: StateSolution) -> ConcentrationMetric:
    """Pair multiplier·rho(1-rho) with the probe t/T of `time_ramp_probe`.

    The pointwise identity multiplier·rho(1-rho) = scale·rho_dual makes
    value and cross_check agree to rounding; across quench levels the
    metric shrinks linearly with the scale factor.
    """
    probe = time_ramp_probe(state.rho.tgrid, state.rho.grid)
    rho = state.rho.values
    weighted = Trajectory(probe.tgrid, probe.grid, adj.multiplier.values * rho * (1.0 - rho))
    value = inner_product_spacetime(weighted, probe)
    cross = adj.scale * inner_product_spacetime(adj.rho_dual, probe)
    return ConcentrationMetric(value=value, cross_check=cross)
