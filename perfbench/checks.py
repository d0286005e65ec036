"""Output checks for one workload sample, and the seed-0 reference values.

A sample fails when any command exits nonzero or any check below finds
a problem.  Every workload also has its outputs compared byte for byte
with earlier runs at the same source tree (see `digests`).

Reference tolerances (seed 0 only; values in reference.json were
recorded at the commit that introduced this benchmark):

* fields and sweep distances: |x - ref| <= 1e-9 * max(1, |ref|).  Each
  step solves its linear system to cg_rtol = 1e-12 and its resolvent to
  1e-13.  Measured drift from the reference: 1.8e-10 in the fields and
  7e-12 in the sweep at cg_rtol = 1e-10, the loosest the config accepts;
  8e-13 in rho and 1.7e-12 relative in mu for a direct solve in place of
  CG.  A change of the discretization moves the fields at O(tau) = 5e-3.
* final plain cost of the continuation: relative 1e-6, ten times the
  stationarity threshold tol = 1e-7.  A valid solver change may end a
  level at another iterate within O(tol) of the level optimum;
  cg_rtol = 1e-10 moved the cost by 2e-16 relative.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FIELD_RTOL = 1e-9
COST_RTOL = 1e-6
REFERENCE = Path(__file__).resolve().parent / "reference.json"
FIELD_ROWS = 64  # sampled rows per fields.csv kept in the reference


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file under a sample directory."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _load_fields(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def field_summary(path: Path) -> dict:
    """Column sums plus an evenly spaced sample of rows of fields.csv."""
    data = _load_fields(path)
    stride = max(1, len(data) // FIELD_ROWS)
    return {
        "sum": data.sum(axis=0).tolist(),
        "abs_sum": np.abs(data).sum(axis=0).tolist(),
        "stride": stride,
        "rows": data[::stride].tolist(),
    }


def _off(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Mask of values further than FIELD_RTOL * max(1, |ref|) from ref."""
    return np.abs(values - ref) > FIELD_RTOL * np.maximum(1.0, np.abs(ref))


def _compare_fields(path: Path, ref: dict, label: str) -> list[str]:
    data = _load_fields(path)
    problems = []
    for k, (s, r, scale) in enumerate(zip(data.sum(axis=0), ref["sum"], ref["abs_sum"])):
        if abs(s - r) > FIELD_RTOL * max(1.0, scale):
            problems.append(f"{label}: column {k} sum {s!r} differs from reference {r!r}")
    rows = data[:: ref["stride"]]
    ref_rows = np.asarray(ref["rows"])
    if rows.shape != ref_rows.shape:
        return problems + [f"{label}: shape {data.shape} differs from reference"]
    bad = _off(rows, ref_rows)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(
            f"{label}: {int(bad.sum())} sampled values off reference, first at row "
            f"{i * ref['stride']} column {j}: {rows[i, j]!r} vs {ref_rows[i, j]!r}"
        )
    return problems


def _rho_bounds(path: Path, closed: bool, label: str) -> list[str]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rho = _load_fields(path)[:, header.index("rho")]
    ok = (rho >= 0.0).all() and (rho <= 1.0).all() if closed else (
        (rho > 0.0).all() and (rho < 1.0).all()
    )
    if ok and np.isfinite(rho).all():
        return []
    return [f"{label}: rho leaves {'[0, 1]' if closed else '(0, 1)'}"]


# -- per workload --------------------------------------------------------


def check_opt(out: Path, ref: dict | None) -> list[str]:
    report = json.loads((out / "limit_report.json").read_text())
    final = report["final"]
    tol = final["stationarity_tol"]
    problems = []
    if not final["all_converged"]:
        problems.append("not every continuation level converged")
    if final["sign_violations"]:
        problems.append(f"obstacle sign violations: {final['sign_violations']}")
    for k, lvl in enumerate(report["levels"]):
        if not lvl["stationarity"] <= tol:
            problems.append(f"level {k} stationarity {lvl['stationarity']:.3e} > tol {tol:g}")
        if not (out / f"control_{k}.csv").is_file():
            problems.append(f"control_{k}.csv missing")
    if not (out / "history.csv").is_file():
        problems.append("history.csv missing")
    if ref is not None:
        cost = report["levels"][-1]["cost_plain"]
        if abs(cost - ref["final_cost_plain"]) > COST_RTOL * abs(ref["final_cost_plain"]):
            problems.append(
                f"final plain cost {cost!r} differs from reference {ref['final_cost_plain']!r}"
            )
    return problems


def check_forward(out: Path, ref: dict | None) -> list[str]:
    problems = _rho_bounds(out / "quench" / "fields.csv", False, "quench")
    problems += _rho_bounds(out / "obstacle" / "fields.csv", True, "obstacle")
    sweep = _load_fields(out / "sweep" / "sweep.csv")
    if not np.isfinite(sweep).all():
        problems.append("sweep.csv has non-finite values")
    if ref is not None:
        problems += _compare_fields(out / "quench" / "fields.csv", ref["quench"], "quench")
        problems += _compare_fields(out / "obstacle" / "fields.csv", ref["obstacle"], "obstacle")
        ref_sweep = np.asarray(ref["sweep"])
        if sweep.shape != ref_sweep.shape:
            problems.append(f"sweep.csv shape {sweep.shape} differs from reference")
        elif _off(sweep, ref_sweep).any():
            problems.append("sweep distances differ from reference")
    return problems


def check_twod(out: Path, ref: dict | None) -> list[str]:
    problems = _rho_bounds(out / "quench" / "fields.csv", False, "quench")
    if ref is not None:
        problems += _compare_fields(out / "quench" / "fields.csv", ref["quench"], "quench")
    return problems


def check_verify(out: Path, ref: dict | None) -> list[str]:
    report = json.loads((out / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    problems = [f"verify check failed: {name}" for name in failed]
    if not report["checks"]:
        problems.append("verify report has no checks")
    return problems


CHECKS = {
    "opt-default": check_opt,
    "forward-default": check_forward,
    "twod-large": check_twod,
    "verify-suite": check_verify,
}


def reference_for(workload: str, seed: int) -> dict | None:
    if seed != 0:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def check_outputs(workload: str, out: Path, seed: int) -> list[str]:
    """Problems found in one sample's outputs; empty when it passes."""
    try:
        return CHECKS[workload](out, reference_for(workload, seed))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def record_reference(workload: str, out: Path) -> dict:
    """Reference entry for a passing seed-0 sample (see record_reference.py)."""
    if workload == "opt-default":
        report = json.loads((out / "limit_report.json").read_text())
        return {"final_cost_plain": report["levels"][-1]["cost_plain"]}
    if workload == "forward-default":
        return {
            "quench": field_summary(out / "quench" / "fields.csv"),
            "obstacle": field_summary(out / "obstacle" / "fields.csv"),
            "sweep": _load_fields(out / "sweep" / "sweep.csv").tolist(),
        }
    if workload == "twod-large":
        return {"quench": field_summary(out / "quench" / "fields.csv")}
    return {}
