"""Command-line entry point.

Four commands over one flat config format:

    simulate     one forward solve, fields.csv + diagnostics.json
    optimize     continuation run, control_<L>.csv + history.csv + limit_report.json
    sweep-alpha  forward solves along a quench ladder, sweep.csv
    verify       the oracle suite, table on stdout + verify_report.json

Exit codes: 0 success, 1 post-run invariant violation, 2 configuration
error, 3 solver failure.  All floats are printed with 17 significant
digits so reading a file back reproduces the run bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import build_problem, load_config
from .errors import ConfigError, SolverError
from .grid import Trajectory, norm_l2_spacetime
from .optimize import ContinuationRun, deep_quench_continuation
from .state import StateSolution, check_obstacle_signs, solve_state
from .verify import run_suite

__all__ = ["main", "write_fields_csv", "read_fields_csv", "write_control_csv"]


_INDEX_HEADER = ["t_index", "cell_index", "cell_index_y"]


def _write_csv(path: Path, header: list[str], int_columns, float_columns) -> None:
    """Write equally shaped (or broadcastable) columns as one CSV table.

    Integer columns come first as %d, float columns follow as %.17g, rows
    end in CRLF.  The table is formatted one slice of the first axis (one
    time node) at a time, so memory stays at one node's worth of text.
    A slice is stacked as float64, which holds every index and count
    here exactly, so %d prints them unchanged.
    """
    columns = np.broadcast_arrays(*int_columns, *float_columns)
    row = ",".join(["%d"] * len(int_columns) + ["%.17g"] * len(float_columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(columns[0].shape[0]):
            block = np.stack([c[k].ravel() for c in columns], axis=-1)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_fields_csv(path: Path, sol: StateSolution, u: Trajectory) -> None:
    shape = u.values.shape
    _write_csv(
        path,
        _INDEX_HEADER[: len(shape)] + ["mu", "rho", "xi", "u"],
        np.indices(shape, sparse=True),
        [sol.mu.values, sol.rho.values, sol.xi.values, u.values],
    )


def read_fields_csv(path: Path) -> dict[str, np.ndarray]:
    """Read fields.csv back into arrays keyed by column name.

    Shapes are inferred from the index columns; parsing the 17-digit
    decimals reproduces the written float64 values exactly.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    n_idx = sum(name in _INDEX_HEADER for name in header)
    shape = tuple(int(table[:, i].max()) + 1 for i in range(n_idx))
    return {name: table[:, n_idx + k].reshape(shape) for k, name in enumerate(header[n_idx:])}


def write_control_csv(path: Path, u: Trajectory) -> None:
    shape = u.values.shape
    _write_csv(path, _INDEX_HEADER[: len(shape)] + ["u"], np.indices(shape, sparse=True), [u.values])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _state_invariant_violations(sol: StateSolution) -> list[str]:
    """Post-run checks whose failure means the solver broke a contract."""
    out: list[str] = []
    d = sol.diagnostics
    if d.mu_nonneg_ok is False:
        out.append(f"min mu = {d.min_mu:.3e} under nonnegative data")
    if sol.alpha > 0.0:
        if not (d.min_rho > 0.0 and d.max_rho < 1.0):
            out.append("rho touched an obstacle on a quench run")
    else:
        if not (d.min_rho >= 0.0 and d.max_rho <= 1.0):
            out.append("rho left [0, 1] on an obstacle run")
        out.extend(check_obstacle_signs(sol))
    return out


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    alpha = cfg.alpha if args.alpha is None else float(args.alpha)
    if alpha < 0.0:
        raise ConfigError("(A1) quench parameter must be >= 0 (0 = obstacle)")
    level = None if alpha == 0.0 else problem.model.level(alpha)
    sol = solve_state(problem.control, level, problem.init, problem.model, problem.op)

    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_fields_csv(out / "fields.csv", sol, problem.control)
    _write_json(out / "diagnostics.json", sol.diagnostics.as_dict())

    violations = _state_invariant_violations(sol)
    if violations:
        for v in violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'fields.csv'} and {out / 'diagnostics.json'}")
    return 0


def _continuation_report(run: ContinuationRun, tol: float) -> dict:
    levels = []
    for rec in run.levels:
        levels.append(
            {
                "alpha": rec.alpha,
                "scale": rec.scale,
                "cost": rec.cost,
                "cost_plain": rec.cost_plain,
                "stationarity": rec.stationarity,
                "converged": rec.converged,
                "stalled": rec.stalled,
                "iterations": rec.iterations,
                "anchor_distance": rec.anchor_distance,
                "pairing": rec.pairing_value,
                "concentration": rec.concentration_value,
                "concentration_cross": rec.concentration_cross,
                "projection_residual": rec.projection_residual,
                "vi_min": rec.vi_min,
                "control_h1": rec.control_h1,
                "within_budget": rec.within_budget,
            }
        )
    usable = [
        (r.scale, r.concentration_value) for r in run.levels if r.concentration_value > 0.0
    ]
    slope = None
    if len(usable) >= 2:
        xs = np.log([s for s, _ in usable])
        ys = np.log([c for _, c in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])
    final = {
        "vi_min": run.levels[-1].vi_min,
        "projection_residual": run.levels[-1].projection_residual,
        "sign_violations": run.final_sign_violations,
        "state_distance": run.final_state_distance,
        "all_converged": run.all_converged,
        "concentration_slope": slope,
        "stationarity_tol": tol,
        "obstacle_diagnostics": run.final_state.diagnostics.as_dict(),
    }
    return {"levels": levels, "final": final}


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    run = deep_quench_continuation(
        cfg.schedule_values(),
        problem.weights,
        problem.box,
        problem.pgd_opts,
        u0=problem.control,
        init=problem.init,
        model=problem.model,
        op=problem.op,
    )

    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for lvl, rec in enumerate(run.levels):
        write_control_csv(out / f"control_{lvl}.csv", rec.control)
    history = [(lvl, row) for lvl, rec in enumerate(run.levels) for row in rec.history]
    _write_csv(
        out / "history.csv",
        ["level", "iteration", "cost", "stationarity"],
        [[lvl for lvl, _ in history], [row.iteration for _, row in history]],
        [[row.cost for _, row in history], [row.stationarity for _, row in history]],
    )
    _write_json(out / "limit_report.json", _continuation_report(run, cfg.tol))

    violations: list[str] = []
    for lvl, rec in enumerate(run.levels):
        if not problem.box.contains_box(rec.control):
            violations.append(f"level {lvl} control leaves the box")
        costs = [row.cost for row in rec.history]
        if any(b > a + 1e-15 * max(1.0, abs(a)) for a, b in zip(costs, costs[1:])):
            violations.append(f"level {lvl} cost history increased")
        if rec.pairing_value < 0.0:
            violations.append(f"level {lvl} pairing negative")
    violations.extend(run.final_sign_violations)
    if violations:
        for v in violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return 1
    print(f"wrote {len(run.levels)} control files, history.csv, limit_report.json in {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    alphas = (
        cfg.sweep_values()
        if args.alphas is None
        else [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    )
    if any(a <= 0.0 for a in alphas):
        raise ConfigError("(A1) sweep quench parameters must be positive")

    base = solve_state(problem.control, None, problem.init, problem.model, problem.op)
    rows = []
    solutions = [base]
    for alpha in alphas:
        sol = solve_state(
            problem.control,
            problem.model.level(alpha),
            problem.init,
            problem.model,
            problem.op,
        )
        solutions.append(sol)
        rows.append(
            (
                alpha,
                norm_l2_spacetime(sol.rho - base.rho),
                norm_l2_spacetime(sol.mu - base.mu),
                sol.diagnostics.xi_l6,
                sol.diagnostics.energy_residual_max,
            )
        )
    rows.append(
        (0.0, 0.0, 0.0, base.diagnostics.xi_l6, base.diagnostics.energy_residual_max)
    )

    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "sweep.csv",
        ["alpha", "rho_distance", "mu_distance", "xi_l6", "energy_residual"],
        [],
        np.array(rows).T,
    )

    violations: list[str] = []
    for sol in solutions:
        violations.extend(_state_invariant_violations(sol))
    if violations:
        for v in violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def _cmd_verify(args) -> int:
    if args.config is not None:
        build_problem(load_config(args.config))  # constructibility check only
    report = run_suite(seed=args.seed)
    print(report.format_table())
    out = Path(load_config(args.config).out_dir if args.config else "out")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", report.as_dict())
    return 0 if report.all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quenchctrl",
        description="Phase-field control runs: forward solves, quench sweeps, "
        "continuation optimization, and the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one forward solve")
    p_sim.add_argument("--config", default=None, help="path to a key=value config file")
    p_sim.add_argument("--alpha", default=None, help="quench parameter (0 = obstacle)")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("optimize", help="deep-quench continuation run")
    p_opt.add_argument("--config", default=None)
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=_cmd_optimize)

    p_swp = sub.add_parser("sweep-alpha", help="forward solves along a quench ladder")
    p_swp.add_argument("--config", default=None)
    p_swp.add_argument("--alphas", default=None, help="comma-separated quench parameters")
    p_swp.add_argument("--out", default=None)
    p_swp.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the oracle suite")
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
