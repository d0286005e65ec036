"""Projected gradient descent and the deep-quench continuation.

Each continuation level solves a box-constrained control problem at a
fixed quench parameter.  Level 0 minimizes the plain tracking cost; each
later level minimizes the anchored cost whose proximity term is
centered at the optimizer of the previous level and is warm-started
there, so the controls form a Cauchy-like chain whose tail approximates
the obstacle-limit optimality system.  After the last level the state is
re-solved with the obstacle constraint and the limit diagnostics are
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointSolution, concentration_metric, solve_adjoint, time_ramp_probe
from .costs import (
    AdmissibleSet,
    CostWeights,
    anchored_tracking_cost,
    project_admissible,
    tracking_cost,
)
from .grid import Trajectory, inner_product_spacetime, norm_l2_spacetime, time_h1_norm
from .nonlocal_op import NonlocalOperator
from .potentials import PotentialConfig
from .state import InitialData, StateSolution, check_obstacle_signs, solve_state

__all__ = [
    "PGDOptions",
    "HistoryRow",
    "PGDResult",
    "projected_gradient_descent",
    "LevelRecord",
    "ContinuationRun",
    "deep_quench_continuation",
    "variational_inequality_min",
]


# Armijo line search: accept at a cost drop of ARMIJO_SIGMA·‖u - u_trial‖²/s,
# else shrink s by STEP_SHRINK, at most MAX_BACKTRACKS times
ARMIJO_SIGMA = 1e-4
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class PGDOptions:
    tol: float = 1e-7          # stationarity residual target
    max_iters: int = 200


@dataclass
class HistoryRow:
    iteration: int
    step: float          # accepted trial step that produced this iterate (0 on row 0)
    backtracks: int      # halvings before that step was accepted
    cost: float
    stationarity: float


@dataclass
class PGDResult:
    control: Trajectory
    state: StateSolution
    adjoint: AdjointSolution
    cost: float
    stationarity: float
    converged: bool
    iterations: int
    stalled: bool
    history: list[HistoryRow] = field(default_factory=list)


def _gradient_trajectory(
    u: Trajectory, adj: AdjointSolution, w: CostWeights, anchor: Trajectory | None
) -> Trajectory:
    vals = w.control_weight * u.values + adj.mu_dual.values
    if anchor is not None:
        vals = vals + (u.values - anchor.values)
    return Trajectory(u.tgrid, u.grid, vals)


def _cost_of(
    u: Trajectory,
    alpha: float,
    weights: CostWeights,
    anchor: Trajectory | None,
    init: InitialData,
    model: PotentialConfig,
    op: NonlocalOperator,
) -> tuple[float, StateSolution]:
    state = solve_state(u, alpha, init, model, op)
    if anchor is None:
        return tracking_cost(state, u, weights), state
    return anchored_tracking_cost(state, u, weights, anchor), state


def projected_gradient_descent(
    u0: Trajectory,
    alpha: float,
    weights: CostWeights,
    box: AdmissibleSet,
    opts: PGDOptions = PGDOptions(),
    *,
    init: InitialData,
    model: PotentialConfig,
    op: NonlocalOperator,
    anchor: Trajectory | None = None,
) -> PGDResult:
    """Armijo projected gradient on the reduced cost at one quench level
    alpha > 0.

    The stationarity residual is ‖u - P(u - s0·g)‖ with the fixed
    reference step s0 = 1/control_weight (1 if that weight is 0).  The
    first trial step is the inverse curvature of the cost's quadratic
    part: s0 on the plain cost, 1/(control_weight + 1) on the anchored
    one, whose proximity term adds 1.  Where the adjoint does not depend
    on u, that step lands on the projection formula
    P((anchor - mu_dual)/(control_weight + 1)) in one iteration.  A trial
    step is accepted when the cost drop reaches
    ARMIJO_SIGMA·‖u - u_trial‖²/s, else it is halved.  Cost history is
    nonincreasing by construction; if no acceptable step exists the run
    stops flagged as stalled.
    """
    step0 = 1.0 / weights.control_weight if weights.control_weight > 0.0 else 1.0
    first_trial = step0 if anchor is None else 1.0 / (weights.control_weight + 1.0)

    u = project_admissible(u0, box)
    cost, state = _cost_of(u, alpha, weights, anchor, init, model, op)
    adj = solve_adjoint(state, weights, model, op)
    grad = _gradient_trajectory(u, adj, weights, anchor)

    history: list[HistoryRow] = []
    converged = False
    stalled = False
    iterations = 0
    stationarity = float("inf")
    s, backtracks = 0.0, 0

    for it in range(opts.max_iters + 1):
        reference = project_admissible(
            Trajectory(u.tgrid, u.grid, u.values - step0 * grad.values), box
        )
        stationarity = norm_l2_spacetime(u - reference)
        history.append(HistoryRow(it, s, backtracks, cost, stationarity))
        if stationarity <= opts.tol:
            converged = True
            break
        if it == opts.max_iters:
            break

        s = first_trial
        accepted = False
        for backtracks in range(MAX_BACKTRACKS):
            trial = project_admissible(
                Trajectory(u.tgrid, u.grid, u.values - s * grad.values), box
            )
            move_sq = norm_l2_spacetime(u - trial) ** 2
            if move_sq == 0.0:
                break  # projection pinned every coordinate; stationary
            trial_cost, trial_state = _cost_of(trial, alpha, weights, anchor, init, model, op)
            if cost - trial_cost >= ARMIJO_SIGMA * move_sq / s:
                accepted = True
                break
            s *= STEP_SHRINK
        if not accepted:
            stalled = True
            break

        u, cost, state = trial, trial_cost, trial_state
        adj = solve_adjoint(state, weights, model, op)
        grad = _gradient_trajectory(u, adj, weights, anchor)
        iterations = it + 1

    return PGDResult(
        control=u,
        state=state,
        adjoint=adj,
        cost=cost,
        stationarity=stationarity,
        converged=converged,
        iterations=iterations,
        stalled=stalled,
        history=history,
    )


def variational_inequality_min(
    u_star: Trajectory, plain_gradient: Trajectory, box: AdmissibleSet
) -> float:
    """Min over admissible v of ∫∫ (mu_dual + w·u)(v - u), exactly.

    The pairing is linear in v and the quadrature weights are positive,
    so the minimum over the box sits at the vertex v = ceiling where the
    gradient is negative and v = 0 elsewhere.  Nonnegative (up to the
    stationarity tolerance) at a box-constrained minimizer of the plain
    cost.
    """
    g = plain_gradient.values
    v = Trajectory(u_star.tgrid, u_star.grid, np.where(g < 0.0, box.ceiling.values, 0.0))
    return inner_product_spacetime(plain_gradient, v - u_star)


@dataclass
class LevelRecord:
    alpha: float
    scale: float
    control: Trajectory
    cost: float
    cost_plain: float
    stationarity: float
    converged: bool
    stalled: bool
    iterations: int
    anchor_distance: float | None
    pairing: float
    concentration: float
    concentration_cross: float
    projection_residual: float | None
    vi_min: float
    control_h1: float
    within_budget: bool
    history: list[HistoryRow] = field(default_factory=list)


@dataclass
class ContinuationRun:
    levels: list[LevelRecord]
    final_state: StateSolution          # obstacle solve with the final control
    final_sign_violations: list[str]
    final_state_distance: float          # ‖rho(last level) - rho(obstacle)‖ over space-time

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.levels)


def _projection_residual(
    u_star: Trajectory, adj: AdjointSolution, weights: CostWeights, box: AdmissibleSet
) -> float | None:
    """Distance of u to the projection form P(-mu_dual / control_weight)."""
    if weights.control_weight <= 0.0:
        return None
    candidate = Trajectory(
        u_star.tgrid, u_star.grid, -adj.mu_dual.values / weights.control_weight
    )
    return norm_l2_spacetime(u_star - project_admissible(candidate, box))


def deep_quench_continuation(
    schedule: list[float],
    weights: CostWeights,
    box: AdmissibleSet,
    opts: PGDOptions = PGDOptions(),
    *,
    u0: Trajectory,
    init: InitialData,
    model: PotentialConfig,
    op: NonlocalOperator,
    probe: Trajectory | None = None,
) -> ContinuationRun:
    """Drive the quench parameter down the schedule, re-optimizing at
    each level, then report the obstacle-limit diagnostics.

    The schedule comes validated from `ProblemConfig.schedule_values()`:
    nonempty, strictly decreasing, in (0, 1], and with a nonzero
    resolvent step tau·quench_scale(alpha) at every level.
    """
    if probe is None:
        probe = time_ramp_probe(u0.tgrid, u0.grid)

    levels: list[LevelRecord] = []
    u = project_admissible(u0, box)
    anchor: Trajectory | None = None
    result: PGDResult | None = None

    for alpha in schedule:
        result = projected_gradient_descent(
            u,
            alpha,
            weights,
            box,
            opts,
            init=init,
            model=model,
            op=op,
            anchor=anchor,
        )
        # a non-converged level is recorded and the later levels still run
        u_star = result.control
        metric = concentration_metric(result.adjoint, result.state, probe)
        plain_grad = _gradient_trajectory(u_star, result.adjoint, weights, anchor=None)
        control_h1 = time_h1_norm(u_star)
        rec = LevelRecord(
            alpha=alpha,
            scale=result.adjoint.scale,
            control=u_star,
            cost=result.cost,
            cost_plain=tracking_cost(result.state, u_star, weights),
            stationarity=result.stationarity,
            converged=result.converged,
            stalled=result.stalled,
            iterations=result.iterations,
            anchor_distance=None if anchor is None else norm_l2_spacetime(u_star - anchor),
            pairing=result.adjoint.pairing_value,
            concentration=metric.value,
            concentration_cross=metric.cross_check,
            projection_residual=_projection_residual(u_star, result.adjoint, weights, box),
            vi_min=variational_inequality_min(u_star, plain_grad, box),
            control_h1=control_h1,
            within_budget=control_h1 <= box.h1_budget,
            history=result.history,
        )
        levels.append(rec)
        anchor = u_star
        u = u_star

    obstacle_state = solve_state(u, 0.0, init, model, op)
    return ContinuationRun(
        levels=levels,
        final_state=obstacle_state,
        final_sign_violations=check_obstacle_signs(obstacle_state),
        final_state_distance=norm_l2_spacetime(result.state.rho - obstacle_state.rho),
    )
