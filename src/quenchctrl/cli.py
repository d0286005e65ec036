"""Command-line entry point.

Four commands over one flat config format:

    simulate     one forward solve, fields.csv + diagnostics.json
    optimize     continuation run, control_<L>.csv + history.csv + limit_report.json
    sweep-alpha  forward solves along a quench ladder, sweep.csv
    verify       the oracle suite, table on stdout + verify_report.json

Exit codes: 0 success, 1 post-run invariant violation (each named on
stderr), 2 configuration error, 3 solver failure, a non-finite value in
a march or an output included.  One kernel prints every CSV number as
%.17g, so reading a file back reproduces the run bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import warnings
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import Problem, build_problem, load_config
from .errors import ConfigError, SolverError
from .grid import Trajectory, norm_l2_spacetime
from .state import StateSolution, solve_state, state_diagnostics, state_violations

if TYPE_CHECKING:
    from .optimize import ContinuationRun

__all__ = ["main", "write_fields_csv", "write_control_csv"]


_INDEX_HEADER = ["t_index", "cell_index", "cell_index_y"]


# CSV text is built in PAD-filled uint8 matrices, one table row per matrix
# row and one fixed-width slot per column; the file gets the matrix's bytes
# with the PADs deleted.
_PAD = 0
_CHUNK_ROWS = 2048  # table rows per pass; bounds the transient text matrices
_DOT = np.uint8(ord("."))
_FLOAT_SLOT = 25  # the longest %.17g text, "-2.2250738585072014e-308", and a comma
# 10^k is an exact double for 0 <= k <= 22
_POW10 = np.array([float(10**k) for k in range(23)])


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII text of 0000..9999 as one uint32 word each, then again
    with the trailing zeros as PAD."""
    i = np.arange(10000, dtype=np.uint16)
    text = np.empty((2, 10000, 4), dtype=np.uint8)
    for col, k in enumerate((1000, 100, 10, 1)):
        text[:, :, col] = i // k % 10 + ord("0")
        text[1, i % (10 * k) == 0, col] = _PAD
    table = text.view(np.uint32).ravel()
    table.flags.writeable = False  # shared by every call
    return table


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into two halves of 26 significant bits."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's TwoProduct: a·b exactly, as the double p plus the double err."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _decimal_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits D and the exponent E of each x in v.

    For 1e-6 <= |x| < 1e17, with E = floor(log10|x|), x·10^(16−E) is
    formed exactly and rounded half to even, as CPython's dtoa rounds, so
    that |x| ≈ D·10^(E−16) with 10^16 <= D < 10^17.  The third array
    marks those x; D and E of the others are meaningless.
    """
    a = np.abs(v)
    fast = (a >= 1e-6) & (a < 1e17)
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 16)
    p, err = _two_product(a, _POW10[16 - e])
    low = (p < 1e16) | ((p == 1e16) & (err < 0.0))
    high = p >= 1e17
    if low.any() or high.any():  # log10 was one off next to a power of ten
        e = np.clip(e - low + high, -6, 16)
        p, err = _two_product(a, _POW10[16 - e])
        fast &= (p < 1e17) & ((p > 1e16) | ((p == 1e16) & (err >= 0.0)))
    # p >= 1e16 > 2^53 is an even integer, so rounding err half to even
    # rounds p + err half to even
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, fast & (e <= 16)


def _digit_text(d: np.ndarray) -> np.ndarray:
    """The 17 digits of each D in d as ASCII rows, and the same rows with
    the trailing zeros as PAD."""
    lead, rest = np.divmod(d, 10**16)
    hi, lo = (x.astype(np.int32) for x in np.divmod(rest, 10**8))
    # five uint32 words per D: its leading digit ("000d") and four groups
    # of four; a group followed by zero groups only is looked up trimmed
    quads = _quads()
    words = np.empty((2, len(d), 5), dtype=np.uint32)
    words[:, :, 0] = np.take(quads, lead)
    zeros_after = np.ones(len(d), dtype=bool)
    for j, g in zip((4, 3, 2, 1), (lo % 10**4, lo // 10**4, hi % 10**4, hi // 10**4)):
        words[0, :, j] = np.take(quads, g)
        words[1, :, j] = np.take(quads, g + 10000 * zeros_after)
        zeros_after &= g == 0
    return words.view(np.uint8)[:, :, 3:]


def _float_text(v: np.ndarray) -> np.ndarray:
    """Rows of "%.17g," % x for each x of v, as a PAD-filled (len(v), _FLOAT_SLOT) matrix.

    The values within `_decimal_digits`' range are sorted by exponent, so
    that each layout is written with slices.  0 and -0 are vectorized too;
    any other value (tiny, huge, subnormal, non-finite) goes through % on
    its own.
    """
    n = len(v)
    d, e, fast = _decimal_digits(v)
    # layout key: E + 6 (0..22), then zeros (23), then the rest (24)
    key = np.where(fast, e + 6, 24 - (v == 0.0)).astype(np.uint8)
    order = np.argsort(key, kind="stable")  # a radix sort on uint8
    ends = np.cumsum(np.bincount(key, minlength=25)).tolist()
    v = v[order]
    digits, trimmed = _digit_text(d[order])

    out = np.full((n, _FLOAT_SLOT), _PAD, dtype=np.uint8)
    out[:, 0] = np.uint8(ord("-")) * np.signbit(v)
    out[:, -1] = ord(",")
    start = 0
    for exp, end in zip(range(-6, 17), ends):
        r, start = slice(start, end), end
        if r.start == r.stop:
            continue
        if exp >= 0:  # ddd.ddd
            out[r, 1 : exp + 2] = digits[r, : exp + 1]
            if exp < 16:
                out[r, exp + 2] = _DOT * (trimmed[r, exp + 1] != _PAD)
                out[r, exp + 3 : 19] = trimmed[r, exp + 1 :]
        elif exp >= -4:  # 0.000ddd
            out[r, 1 : 2 - exp] = np.frombuffer(b"0." + b"0" * (-1 - exp), dtype=np.uint8)
            out[r, 2 - exp : 19 - exp] = trimmed[r]
        else:  # d.ddde-05, d.ddde-06
            out[r, 1] = digits[r, 0]
            out[r, 2] = _DOT * (trimmed[r, 1] != _PAD)
            out[r, 3:19] = trimmed[r, 1:]
            out[r, 19:23] = np.frombuffer(b"e-%02d" % -exp, dtype=np.uint8)
    out[ends[22] : ends[23], 1] = ord("0")
    for i in range(ends[23], n):
        text = b"%.17g" % v[i]
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        out[i, len(text) : -1] = _PAD
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return np.take(out, inverse, axis=0)


def _column_text(values: list[np.ndarray]) -> np.ndarray:
    """Text of equally long value columns side by side, one row per value;
    %.17g prints a whole number below 2^53, as every index is, as %d does."""
    return _float_text(np.stack(values, axis=1, dtype=float).ravel()).reshape(len(values[0]), -1)


def _squeeze(text: np.ndarray) -> np.ndarray:
    """A text matrix with each row's PADs moved to its start and the columns
    then PAD in every row cut; each row still ends in its comma."""
    kept = text != _PAD
    count = kept.sum(axis=1)
    width = int(count.max())
    out = np.full((len(text), width), _PAD, dtype=np.uint8)
    out[np.arange(width) >= width - count[:, None]] = text[kept]  # both in C order
    return out


def _csv_columns(name: str, header: list[str], int_columns, float_columns) -> list[np.ndarray]:
    """The columns of the CSV table `name`, broadcast to one shape:
    integers first as int64, then floats.  A NaN or an infinity in a float
    column is a SolverError naming the first bad row by its integer
    columns, printed as whole numbers, so that a command can check every
    table before it creates its output directory."""
    ints = [np.asarray(c, dtype=np.int64) for c in int_columns]
    columns = np.broadcast_arrays(*ints, *(np.asarray(c, dtype=float) for c in float_columns))
    floats = columns[len(ints):]
    if all(np.isfinite(c[0] if c.strides[0] == 0 else c).all() for c in floats):
        return columns
    bad = np.stack([~np.isfinite(c.reshape(-1)) for c in floats])
    row = int(np.argmax(bad.any(axis=0)))
    col = int(np.argmax(bad[:, row]))
    at = ", ".join(f"{label} {c.flat[row]}" for label, c in zip(header, columns[: len(ints)]))
    raise SolverError(
        f"{name}: column {header[len(ints) + col]} holds NaN or an infinity "
        f"({floats[col].flat[row]} at {at or f'row {row}'})"
    )


def _write_columns(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write columns from `_csv_columns` as one CSV table.

    Every column prints as %.17g, so the integer ones as %d; rows end in
    CRLF, and the columns are read in C order.  _CHUNK_ROWS rows at a time,
    each run of neighbouring columns that repeat alike is formatted in one
    vector pass, and the rows' text is written without its PAD bytes.  A
    column that repeats along the first axis (stride 0, as the cell-index
    columns and a time-constant control do) is formatted once, for one
    slice, and its rows are looked up by row mod slice size.  A column that
    repeats along every other axis (as the time index does, and each column
    of a table of one axis) is formatted once per first-axis index, and its
    rows by row // slice size.  Text formatted once is `_squeeze`d once.
    """
    total, cells = columns[0].size, columns[0][0].size
    runs = []  # (columns, squeezed text of their repeated values or None, held)
    for (held, per_node), run in itertools.groupby(
        columns, key=lambda c: (c.strides[0] == 0, not any(c.strides[1:]))
    ):
        run = list(run)
        repeated = [c[0].reshape(-1) if held else c.flat[::cells] for c in run]
        runs.append((run, _squeeze(_column_text(repeated)) if held or per_node else None, held))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, total, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, total)
            node, cell = np.divmod(np.arange(start, stop), cells)
            parts = [
                _column_text([c.flat[start:stop] for c in run])
                if text is None
                else np.take(text, cell if held else node, axis=0)
                for run, text, held in runs
            ]
            parts.append(np.full((stop - start, 1), ord("\n"), np.uint8))
            lines = np.concatenate(parts, axis=1)
            lines[:, -2] = ord("\r")  # in place of the last comma
            fh.write(lines.tobytes().translate(None, bytes([_PAD])))


def _write_csv(path: Path, header: list[str], int_columns, float_columns) -> None:
    """Check and write one CSV table; a NaN or an infinity in a float
    column raises SolverError before the file is opened."""
    _write_columns(path, header, _csv_columns(path.name, header, int_columns, float_columns))


def write_fields_csv(path: Path, sol: StateSolution) -> None:
    shape = sol.u.shape
    _write_csv(
        path,
        _INDEX_HEADER[: len(shape)] + ["mu", "rho", "xi", "u"],
        np.indices(shape, sparse=True),
        [sol.mu, sol.rho, sol.xi, sol.u],
    )


def write_control_csv(path: Path, u: Trajectory) -> None:
    shape = u.values.shape
    _write_csv(path, _INDEX_HEADER[: len(shape)] + ["u"], np.indices(shape, sparse=True), [u.values])


def _non_finite_keys(value, path: str = ""):
    """Yield (key path, value) for each NaN or infinity in a JSON payload,
    in the sorted-key order the file is written in."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _non_finite_keys(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite_keys(item, f"{path}[{i}]")
    elif isinstance(value, float) and not np.isfinite(value):
        yield path, value


def _json_text(name: str, payload: dict) -> str:
    """The text of the JSON file `name`; a NaN or an infinity, which JSON
    has no literal for, is a SolverError naming its key."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        path, value = next(_non_finite_keys(payload))
        raise SolverError(f"{name}: key {path} holds NaN or an infinity ({value})") from None


def _write_json(path: Path, text: str) -> None:
    """Write a text from `_json_text`; perfbench's tracer times the JSON
    writes by this name."""
    path.write_text(text)


# ---------------------------------------------------------------------------
# commands: each runs its work on the built problem and returns its
# invariant violations and the line to print when there are none;
# optimize and verify import their modules when they run, so that no
# other command loads them.  Each forms and checks every JSON text and
# every table of derived values before it creates the output directory,
# so that a failed check writes nothing; field and control tables hold
# trajectories, which are finite by construction.


def _cmd_simulate(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    sol = solve_state(
        problem.control, problem.config.alpha, problem.init, problem.model, problem.op
    )
    diag = state_diagnostics(sol)

    diagnostics = _json_text("diagnostics.json", asdict(diag))
    out.mkdir(parents=True, exist_ok=True)
    write_fields_csv(out / "fields.csv", sol)
    _write_json(out / "diagnostics.json", diagnostics)
    return (
        state_violations(sol, diag),
        f"wrote {out / 'fields.csv'} and {out / 'diagnostics.json'}",
    )


def _continuation_report(run: ContinuationRun) -> dict:
    levels = [
        {f.name: getattr(rec, f.name) for f in fields(rec) if f.name not in ("control", "history")}
        for rec in run.levels
    ]
    return {"levels": levels, "final": asdict(run.final)}


def _cmd_optimize(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    from .optimize import HistoryRow, deep_quench_continuation

    tol = problem.config.tol
    run = deep_quench_continuation(problem)

    # level, then HistoryRow's fields; level and iteration label the rows
    history_header = ["level", *(f.name for f in fields(HistoryRow))]
    history = list(zip(
        *((lvl, *astuple(row)) for lvl, rec in enumerate(run.levels) for row in rec.history)
    ))
    history_columns = _csv_columns("history.csv", history_header, history[:2], history[2:])
    report = _json_text("limit_report.json", _continuation_report(run))

    out.mkdir(parents=True, exist_ok=True)
    for lvl, rec in enumerate(run.levels):
        write_control_csv(out / f"control_{lvl}.csv", rec.control)
    _write_columns(out / "history.csv", history_header, history_columns)
    _write_json(out / "limit_report.json", report)

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
    violations.extend(state_violations(run.final_state, run.final.obstacle_diagnostics))
    return (
        violations,
        f"wrote {len(run.levels)} control files, history.csv, limit_report.json in {out}",
    )


def _cmd_sweep(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    alphas = problem.config.sweep_values()
    solutions = []  # (state, its diagnostics), the obstacle base first
    for alpha in (0.0, *alphas):
        sol = solve_state(problem.control, alpha, problem.init, problem.model, problem.op)
        solutions.append((sol, state_diagnostics(sol)))
    base, base_diag = solutions[0]
    rows = [
        (
            alpha,
            norm_l2_spacetime(problem.tgrid, problem.grid, sol.rho - base.rho),
            norm_l2_spacetime(problem.tgrid, problem.grid, sol.mu - base.mu),
            diag.xi_l6,
            diag.energy_residual_max,
        )
        for alpha, (sol, diag) in zip(alphas, solutions[1:])
    ]
    rows.append((0.0, 0.0, 0.0, base_diag.xi_l6, base_diag.energy_residual_max))

    header = ["alpha", "rho_distance", "mu_distance", "xi_l6", "energy_residual"]
    columns = _csv_columns("sweep.csv", header, [], np.array(rows).T)
    out.mkdir(parents=True, exist_ok=True)
    _write_columns(out / "sweep.csv", header, columns)
    violations = [v for sol, diag in solutions for v in state_violations(sol, diag)]
    return violations, f"wrote {out / 'sweep.csv'} ({len(rows)} rows)"


def _cmd_verify(args, problem: Problem, out: Path) -> tuple[list[str], str]:
    from .verify import run_suite

    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    # the problem is built only to check that the config is constructible
    report = run_suite(seed=args.seed)
    text = _json_text("verify_report.json", report.as_dict())
    print(report.format_table())
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", text)
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
    p_sim.add_argument("--alpha", help="quench parameter (0 = obstacle), in place of the config's")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("optimize", help="deep-quench continuation run")
    p_opt.add_argument("--config", default=None)
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=_cmd_optimize)

    p_swp = sub.add_parser("sweep-alpha", help="forward solves along a quench ladder")
    p_swp.add_argument("--config", default=None)
    p_swp.add_argument(
        "--alphas", dest="sweep_alphas", help="comma-separated quench parameters, in place of the config's"
    )
    p_swp.add_argument("--out", default=None)
    p_swp.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the oracle suite")
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify, out=None)  # writes to the config's out_dir

    args = parser.parse_args(argv)
    # warnings are shown once the run ends in exit 0 or 1, so exit 2 and 3 print
    # one line; the filters act when a warning occurs, so "error" raises there
    with warnings.catch_warnings(record=True) as held:
        try:
            # --alpha and --alphas replace config keys and are validated as such
            overrides = {
                key: getattr(args, key)
                for key in ("alpha", "sweep_alphas")
                if getattr(args, key, None) is not None
            }
            cfg = load_config(args.config, overrides)
            problem = build_problem(cfg)
            out = Path(cfg.out_dir if args.out is None else args.out)
            # a file on the output path would make mkdir fail after the run
            if files := [p for p in (out, *out.parents) if p.exists() and not p.is_dir()]:
                raise ConfigError(f"output path {out}: {files[0]} exists and is not a directory")
            violations, success_line = args.func(args, problem, out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 3
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    for v in violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    if violations:
        return 1
    print(success_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
