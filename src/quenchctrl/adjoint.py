"""Backward-in-time dual solve for the reduced gradient.

The dual pair (mu_dual, rho_dual) marches backward with the time mirror
of the forward scheme: the mu_dual update solves the same SPD operator
the forward chemical-potential step used at that node, and the rho_dual
update is pointwise with the quench curvature term implicit and all
couplings taken one-sided.  Before the march, every coefficient that
reads only the state is formed once over all nodes, the operator and
its 1 + 2g weight by the forward step's own `mu_zeroth_coefficient`.
These lag choices make the march the exact transpose of the forward
stepping, so `tracking_gradient`, control_weight·u + mu_dual, is the
exact gradient of the discrete cost (in 2D, exact to the step solve's
1e-14 relative tolerance) and a consistent discretization of the
continuous dual system.  The duals, the gradient and the probe are arrays.
The march and the gradient read model, operator, scale and control off the state.

The terminal dual values vanish identically, and the node-0 values are
stored as zero as well: the initial data carry no dual degree of
freedom, which mirrors the fact that admissible probe functions vanish
at t = 0.  `solve_adjoint` covers quench levels (alpha > 0) only.  The
obstacle march is piecewise smooth (clip's derivative is [0 < rho < 1]),
so its exact adjoint exists off the kinks, but it is not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CostWeights, _check_target
from .grid import inner_product_spacetime, solve_step_system
from .potentials import log_potential_second
from .state import StateSolution, check_march, mu_zeroth_coefficient

__all__ = [
    "AdjointSolution",
    "solve_adjoint",
    "tracking_gradient",
    "ConcentrationMetric",
    "concentration_metric",
    "time_ramp_probe",
]


@dataclass
class AdjointSolution:
    """Dual arrays on the state's mesh: mu_dual drives the gradient, rho_dual
    pairs with the constraint, multiplier = state.scale·log_potential_second(rho)·rho_dual."""

    mu_dual: np.ndarray
    rho_dual: np.ndarray
    multiplier: np.ndarray


def solve_adjoint(state: StateSolution, weights: CostWeights) -> AdjointSolution:
    """Backward march over the stored state trajectories, with the model,
    operator and scale the forward march stepped with: `state.model`,
    `state.op` and `state.scale`.

    An obstacle state (alpha = 0) raises ValueError; a target off the
    state's mesh raises ConfigError.
    """
    if state.alpha <= 0.0:
        raise ValueError("the dual system is only defined on quench levels (alpha > 0)")
    rho, mu = state.rho, state.mu
    tgrid, grid = state.tgrid, state.grid
    _check_target(tgrid, grid, rho, weights.rho_target)
    _check_target(tgrid, grid, mu, weights.mu_target)
    tau, nt, scale, model, op = tgrid.tau, tgrid.steps, state.scale, state.model, state.op

    # each state-only coefficient once over the stacked nodes, in one node's
    # operation order; g' gets a row per node even where it is a float
    a, _, weight = mu_zeroth_coefficient(rho[1:], rho[:-1], tau, model)
    gp = np.broadcast_to(model.g_prime(rho), rho.shape)
    g2 = model.g_second(rho)
    mu_misfit = weights.mu_weight * (mu - weights.mu_target.values)
    rho_misfit = weights.rho_weight * (rho - weights.rho_target.values)
    q_coef = model.f_second(rho) - mu * g2
    gp_mu = gp * mu
    p_coef = 2.0 * gp[1:] * (mu[1:] - mu[:-1]) + g2 * (rho[1:] - rho[:-1]) * mu[1:] + gp_mu[1:]
    curv = log_potential_second(rho[1:nt])
    den = 1.0 + tau * scale * curv

    p = np.zeros_like(rho)
    q = np.zeros_like(rho)
    for m in range(nt - 1, 0, -1):
        rhs = weight[m] * p[m + 1] / tau + gp[m] * q[m + 1] + mu_misfit[m]
        p[m] = solve_step_system(grid, a[m - 1], rhs)
        source = (
            rho_misfit[m]
            - q_coef[m] * q[m + 1]
            - op.apply_adjoint_values(q[m + 1])
            - p_coef[m - 1] * p[m] / tau
            + gp_mu[m + 1] * p[m + 1] / tau
        )
        q[m] = (q[m + 1] + tau * source) / den[m - 1]

    lam = np.zeros_like(q)
    lam[1:nt] = scale * curv * q[1:nt]

    check_march("adjoint march", tgrid, (p, q, lam), backward=True)
    return AdjointSolution(p, q, lam)


def tracking_gradient(state: StateSolution, adj: AdjointSolution, weights: CostWeights) -> np.ndarray:
    """control_weight·u + mu_dual, the reduced gradient of the tracking cost at
    the state's control u from adj, the adjoint of state, as an array on the
    state's space-time mesh: what PGD descends along and verify checks."""
    return weights.control_weight * state.u + adj.mu_dual


class ConcentrationMetric(NamedTuple):
    value: float        # ∫∫ multiplier · rho(1-rho) · probe
    cross_check: float  # scale · ∫∫ rho_dual · probe, identical in exact arithmetic
    pairing: float      # ∫∫ multiplier · rho_dual, the complementarity pairing


def time_ramp_probe(tgrid, grid) -> np.ndarray:
    """Canonical probe t/T, a read-only space-time array: vanishes at
    t = 0, spatially constant."""
    ramp = tgrid.times() / tgrid.horizon
    return np.broadcast_to(ramp.reshape((-1,) + (1,) * grid.dim), (tgrid.n_nodes,) + grid.shape)


def concentration_metric(adj: AdjointSolution, state: StateSolution) -> ConcentrationMetric:
    """Pair multiplier·rho(1-rho) with the probe t/T of `time_ramp_probe`,
    and the multiplier with rho_dual; adj is the adjoint of state.

    The pointwise identity multiplier·rho(1-rho) = scale·rho_dual makes
    value and cross_check agree to rounding; across quench levels the
    metric shrinks linearly with the scale factor.
    """
    tgrid, grid, rho = state.tgrid, state.grid, state.rho
    probe = time_ramp_probe(tgrid, grid)
    weighted = adj.multiplier * rho * (1.0 - rho)
    value = inner_product_spacetime(tgrid, grid, weighted, probe)
    cross = state.scale * inner_product_spacetime(tgrid, grid, adj.rho_dual, probe)
    pairing = inner_product_spacetime(tgrid, grid, adj.multiplier, adj.rho_dual)
    return ConcentrationMetric(value=value, cross_check=cross, pairing=pairing)
