"""Projected gradient descent and the deep-quench continuation.

Both entry points take the one `config.Problem` they solve and read
from it the cost weights, the box, the options `tol` and `max_iters`,
and the march's initial data, model and operator; the continuation also
reads the schedule and its start control.

Each continuation level solves a box-constrained control problem at a
fixed quench parameter.  Level 0 minimizes the plain tracking cost; each
later level minimizes the anchored cost whose proximity term is
centered at the optimizer of the previous level and is warm-started
there, so the controls form a Cauchy-like chain whose tail approximates
the obstacle-limit optimality system.  After the last level the state is
re-solved with the obstacle constraint.  The returned `ContinuationRun`
holds every number of the limit report: a `LevelRecord` per level and
the `FinalRecord` that is the report's `final` block field for field,
with the re-solve's sign table and its diagnostics, the one
`state_diagnostics` record of the run.  The level marches compute none:
PGD reads only their arrays, through the cost and the adjoint.

Both work on raw arrays: the iterate, the gradient, the descent
direction, every trial point and every level metric are numpy arrays,
and the box projection is np.clip.  A Trajectory is built only for
each control whose state is solved, since `solve_state` takes one; the
cost, the adjoint and the gradient read that control off the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .adjoint import AdjointSolution, concentration_metric, solve_adjoint, tracking_gradient
from .costs import (
    AdmissibleSet,
    CostWeights,
    anchored_tracking_cost,
    project_admissible,
    tracking_cost,
)
from .grid import Trajectory, _square, inner_product_spacetime, norm_l2_spacetime, time_h1_norm
from .state import (
    StateDiagnostics, StateSolution, check_obstacle_signs, solve_state, state_diagnostics
)

if TYPE_CHECKING:
    from .config import Problem

__all__ = [
    "HistoryRow",
    "PGDResult",
    "projected_gradient_descent",
    "LevelRecord",
    "FinalRecord",
    "ContinuationRun",
    "deep_quench_continuation",
    "variational_inequality_min",
]


# Armijo line search: accept at a cost drop of ARMIJO_SIGMA·‖u - u_trial‖²/s,
# else shrink s by STEP_SHRINK, at most MAX_BACKTRACKS times
ARMIJO_SIGMA = 1e-4
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 40


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


def projected_gradient_descent(
    problem: Problem, u0: Trajectory, alpha: float, anchor: Trajectory | None = None
) -> PGDResult:
    """Armijo projected gradient on the problem's reduced cost at one
    quench level alpha > 0, from u0, plain or anchored at `anchor`.

    The weights, the box, `tol`, `max_iters` and the march's initial
    data, model and operator all come from `problem`.  The run stops
    converged once the stationarity residual ‖u - P(u - s0·g)‖, with the
    fixed reference step s0 = 1/control_weight (1 if that weight is 0),
    is at most `tol`, or unconverged after `max_iters` accepted steps.
    The first trial step is the inverse curvature of the cost's quadratic
    part: s0 on the plain cost, 1/(control_weight + 1) on the anchored
    one, whose proximity term adds 1.  Where the adjoint does not depend
    on u, that step lands on the projection formula
    P((anchor - mu_dual)/(control_weight + 1)) in one iteration.  A trial
    step is accepted when the cost drop reaches
    ARMIJO_SIGMA·‖u - u_trial‖²/s, else it is halved.  Cost history is
    nonincreasing by construction; if no acceptable step exists the run
    stops flagged as stalled.
    """
    weights, box, cfg = problem.weights, problem.box, problem.config
    step0 = 1.0 / weights.control_weight if weights.control_weight > 0.0 else 1.0
    first_trial = step0 if anchor is None else 1.0 / (weights.control_weight + 1.0)
    tgrid, grid, ceiling = u0.tgrid, u0.grid, box.ceiling.values

    def evaluate(control: Trajectory) -> tuple[float, StateSolution]:
        state = solve_state(control, alpha, problem.init, problem.model, problem.op)
        if anchor is None:
            return tracking_cost(state, weights), state
        return anchored_tracking_cost(state, weights, anchor), state

    def direction(state: StateSolution) -> tuple[AdjointSolution, np.ndarray]:
        adj = solve_adjoint(state, weights)
        grad = tracking_gradient(state, adj, weights)
        return adj, grad if anchor is None else grad + (state.u - anchor.values)

    u = project_admissible(u0, box)
    cost, state = evaluate(u)
    adj, grad = direction(state)

    history: list[HistoryRow] = []
    converged = stalled = False
    iterations = 0
    stationarity = float("inf")
    s, backtracks = 0.0, 0

    for it in range(cfg.max_iters + 1):
        x = u.values
        stationarity = norm_l2_spacetime(tgrid, grid, x - np.clip(x - step0 * grad, 0.0, ceiling))
        history.append(HistoryRow(it, s, backtracks, cost, stationarity))
        if stationarity <= cfg.tol:
            converged = True
            break
        if it == cfg.max_iters:
            break

        s = first_trial
        accepted = False
        for backtracks in range(MAX_BACKTRACKS):
            trial = np.clip(x - s * grad, 0.0, ceiling)
            move_sq = _square(norm_l2_spacetime(tgrid, grid, x - trial))
            if move_sq == 0.0:
                break  # projection pinned every coordinate; stationary
            trial_u = Trajectory(tgrid, grid, trial)
            trial_cost, trial_state = evaluate(trial_u)
            if cost - trial_cost >= ARMIJO_SIGMA * move_sq / s:
                accepted = True
                break
            s *= STEP_SHRINK
        if not accepted:
            stalled = True
            break

        u, cost, state = trial_u, trial_cost, trial_state
        adj, grad = direction(state)
        iterations = it + 1

    return PGDResult(
        control=u, state=state, adjoint=adj, cost=cost, stationarity=stationarity,
        converged=converged, iterations=iterations, stalled=stalled, history=history,
    )


def variational_inequality_min(
    u_star: Trajectory, plain_gradient: np.ndarray, box: AdmissibleSet
) -> float:
    """Min over admissible v of ∫∫ (mu_dual + w·u)(v - u), exactly.

    The pairing is linear in v and the quadrature weights are positive,
    so the minimum over the box sits at the vertex v = ceiling where the
    gradient is negative and v = 0 elsewhere.  Nonnegative (up to the
    stationarity tolerance) at a box-constrained minimizer of the plain
    cost.
    """
    v = np.where(plain_gradient < 0.0, box.ceiling.values, 0.0)
    return inner_product_spacetime(u_star.tgrid, u_star.grid, plain_gradient, v - u_star.values)


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
class FinalRecord:
    """limit_report.json's `final` block, field for field."""

    vi_min: float                        # the last level's
    projection_residual: float | None    # the last level's
    sign_violations: list[str]           # check_obstacle_signs of the obstacle re-solve
    state_distance: float                # ‖rho(last level) - rho(obstacle)‖ over space-time
    all_converged: bool
    concentration_slope: float | None    # log-log slope of concentration over scale
    stationarity_tol: float              # the config's tol
    obstacle_diagnostics: StateDiagnostics  # state_diagnostics of the obstacle re-solve


@dataclass
class ContinuationRun:
    levels: list[LevelRecord]
    final_state: StateSolution  # obstacle solve with the final control
    final: FinalRecord


def _projection_residual(
    u_star: Trajectory, adj: AdjointSolution, weights: CostWeights, box: AdmissibleSet
) -> float | None:
    """Distance of u to the projection form P(-mu_dual / control_weight)."""
    if weights.control_weight <= 0.0:
        return None
    candidate = np.clip(-adj.mu_dual / weights.control_weight, 0.0, box.ceiling.values)
    return norm_l2_spacetime(u_star.tgrid, u_star.grid, u_star.values - candidate)


def deep_quench_continuation(problem: Problem) -> ContinuationRun:
    """Drive the quench parameter down the problem's schedule from its
    control, re-optimizing at each level, then re-solve the state with
    the obstacle constraint and fill the `FinalRecord` from the last
    level, the config's `tol` and that re-solve.

    The schedule comes validated from `ProblemConfig.schedule_values()`:
    nonempty, strictly decreasing, in (0, 1], and with a resolvent step
    tau·quench_scale(alpha) of finite reciprocal at every level.  The
    concentration slope is the least-squares slope of log concentration
    over log scale on the levels whose concentration is positive, and
    None when fewer than two are.
    """
    tgrid, grid, weights, box = problem.tgrid, problem.grid, problem.weights, problem.box
    levels: list[LevelRecord] = []
    anchor: Trajectory | None = None
    result: PGDResult | None = None

    for alpha in problem.config.schedule_values():
        # each level starts at the previous level's optimizer
        result = projected_gradient_descent(
            problem, problem.control if anchor is None else anchor, alpha, anchor
        )
        # a non-converged level is recorded and the later levels still run
        u_star = result.control
        metric = concentration_metric(result.adjoint, result.state)
        plain_grad = tracking_gradient(result.state, result.adjoint, weights)
        control_h1 = time_h1_norm(tgrid, grid, u_star.values)
        gap = None if anchor is None else u_star.values - anchor.values
        levels.append(LevelRecord(
            alpha=alpha,
            scale=result.state.scale,
            control=u_star,
            cost=result.cost,
            cost_plain=tracking_cost(result.state, weights),
            stationarity=result.stationarity,
            converged=result.converged,
            stalled=result.stalled,
            iterations=result.iterations,
            anchor_distance=None if gap is None else norm_l2_spacetime(tgrid, grid, gap),
            pairing=metric.pairing,
            concentration=metric.value,
            concentration_cross=metric.cross_check,
            projection_residual=_projection_residual(u_star, result.adjoint, weights, box),
            vi_min=variational_inequality_min(u_star, plain_grad, box),
            control_h1=control_h1,
            within_budget=control_h1 <= box.h1_budget,
            history=result.history,
        ))
        anchor = u_star

    usable = [(r.scale, r.concentration) for r in levels if r.concentration > 0.0]
    slope = None
    if len(usable) >= 2:
        xs, ys = np.log(np.array(usable)).T
        slope = float(np.polyfit(xs, ys, 1)[0])
    obstacle_state = solve_state(result.control, 0.0, problem.init, problem.model, problem.op)
    final = FinalRecord(
        vi_min=levels[-1].vi_min,
        projection_residual=levels[-1].projection_residual,
        sign_violations=check_obstacle_signs(obstacle_state),
        state_distance=norm_l2_spacetime(tgrid, grid, result.state.rho - obstacle_state.rho),
        all_converged=all(r.converged for r in levels),
        concentration_slope=slope,
        stationarity_tol=problem.config.tol,
        obstacle_diagnostics=state_diagnostics(obstacle_state),
    )
    return ContinuationRun(levels, obstacle_state, final)
