"""Command-line entry point.

Four commands over one flat config format:

    simulate     one forward solve, fields.csv + diagnostics.json
    optimize     continuation run, control_<L>.csv + history.csv + limit_report.json
    sweep-alpha  forward solves along a quench ladder, sweep.csv
    verify       the oracle suite, table on stdout + verify_report.json

Exit codes: 0 success, 1 post-run invariant violation (each named on
stderr), 2 configuration error, 3 solver failure.  All floats are printed with 17 significant
digits so reading a file back reproduces the run bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import Problem, build_problem, load_config
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

    An integer column either varies along the first axis only (the time
    index; every column of a 1D table) or not at all along it (the cell
    indices), and the first kind precede the second.  The text of the
    second kind is built once per table into the row templates, that of
    the first once per slice as the rows' common prefix, so only the
    float columns go through % per row.
    """
    ints = [np.asarray(c) for c in int_columns]
    columns = np.broadcast_arrays(*ints, *float_columns)
    floats = columns[len(ints):]
    per_slice = [c.reshape(-1).tolist() for c in ints if c.shape[0] > 1]
    per_table = [c[0].ravel().tolist() for c in columns[len(per_slice) : len(ints)]]
    cell = ",".join(["%.17g"] * len(floats))
    if per_table:
        rows = ["".join("%d," % i for i in idx) + cell for idx in zip(*per_table)]
    else:
        rows = [cell] * floats[0][0].size
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(floats[0].shape[0]):
            prefix = "".join("%d," % c[k] for c in per_slice)
            template = prefix + ("\r\n" + prefix).join(rows) + "\r\n"
            block = np.stack([c[k].ravel() for c in floats], axis=-1)
            fh.write(template % tuple(block.ravel().tolist()))


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
# commands: each runs its work on the built problem and returns its
# invariant violations and the line to print when there are none


def _cmd_simulate(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    alpha = problem.config.alpha if args.alpha is None else float(args.alpha)
    if alpha < 0.0:
        raise ConfigError("(A1) quench parameter must be >= 0 (0 = obstacle)")
    level = None if alpha == 0.0 else problem.model.level(alpha)
    sol = solve_state(problem.control, level, problem.init, problem.model, problem.op)

    out.mkdir(parents=True, exist_ok=True)
    write_fields_csv(out / "fields.csv", sol, problem.control)
    _write_json(out / "diagnostics.json", asdict(sol.diagnostics))
    return (
        _state_invariant_violations(sol),
        f"wrote {out / 'fields.csv'} and {out / 'diagnostics.json'}",
    )


def _continuation_report(run: ContinuationRun, tol: float) -> dict:
    levels = [
        {f.name: getattr(rec, f.name) for f in fields(rec) if f.name not in ("control", "history")}
        for rec in run.levels
    ]
    usable = [(r.scale, r.concentration) for r in run.levels if r.concentration > 0.0]
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
        "obstacle_diagnostics": asdict(run.final_state.diagnostics),
    }
    return {"levels": levels, "final": final}


def _cmd_optimize(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    tol = problem.pgd_opts.tol
    run = deep_quench_continuation(
        problem.config.schedule_values(),
        problem.weights,
        problem.box,
        problem.pgd_opts,
        u0=problem.control,
        init=problem.init,
        model=problem.model,
        op=problem.op,
    )

    out.mkdir(parents=True, exist_ok=True)
    for lvl, rec in enumerate(run.levels):
        write_control_csv(out / f"control_{lvl}.csv", rec.control)
    history = [(lvl, row) for lvl, rec in enumerate(run.levels) for row in rec.history]
    # backtracks sits between float columns; %.17g prints a whole number as %d does
    _write_csv(
        out / "history.csv",
        ["level", "iteration", "step", "backtracks", "cost", "stationarity"],
        [[lvl for lvl, _ in history], [row.iteration for _, row in history]],
        [
            [getattr(row, name) for _, row in history]
            for name in ("step", "backtracks", "cost", "stationarity")
        ],
    )
    _write_json(out / "limit_report.json", _continuation_report(run, tol))

    violations: list[str] = []
    for lvl, rec in enumerate(run.levels):
        if not rec.converged:
            why = "stalled" if rec.stalled else "iteration cap reached"
            print(
                f"warning: level {lvl} (alpha {rec.alpha:g}) did not converge: {why} "
                f"(stationarity {rec.stationarity:.3e} > tol {tol:g})",
                file=sys.stderr,
            )
        if not problem.box.contains_box(rec.control):
            violations.append(f"level {lvl} control leaves the box")
        costs = [row.cost for row in rec.history]
        if any(b > a + 1e-15 * max(1.0, abs(a)) for a, b in zip(costs, costs[1:])):
            violations.append(f"level {lvl} cost history increased")
        if rec.pairing < 0.0:
            violations.append(f"level {lvl} pairing negative")
    violations.extend(run.final_sign_violations)
    return (
        violations,
        f"wrote {len(run.levels)} control files, history.csv, limit_report.json in {out}",
    )


def _cmd_sweep(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    alphas = (
        problem.config.sweep_values()
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

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "sweep.csv",
        ["alpha", "rho_distance", "mu_distance", "xi_l6", "energy_residual"],
        [],
        np.array(rows).T,
    )
    violations = [v for sol in solutions for v in _state_invariant_violations(sol)]
    return violations, f"wrote {out / 'sweep.csv'} ({len(rows)} rows)"


def _cmd_verify(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    # the problem is built only to check that the config is constructible
    report = run_suite(seed=args.seed)
    print(report.format_table())
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", report.as_dict())
    violations = [f"verify check {c.name} failed" for c in report.checks if not c.passed]
    return violations, f"wrote {out / 'verify_report.json'}"


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
    p_ver.set_defaults(func=_cmd_verify, out=None)  # writes to the config's out_dir

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        problem = build_problem(cfg)
        out = Path(cfg.out_dir if args.out is None else args.out)
        violations, success_line = args.func(args, problem, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for v in violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    if violations:
        return 1
    print(success_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
