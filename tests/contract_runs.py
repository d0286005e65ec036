"""Run the CLI's contract set into one directory, for a byte-identity diff.

Usage: python tests/contract_runs.py OUT

Every run is a fresh `python -m quenchctrl.cli` on this checkout's `src`
and `configs`, under PYTHONWARNINGS=error::RuntimeWarning, so that a
numpy overflow or invalid-value warning fails it.  Run NAME writes its
files to OUT/NAME, and beside them its stdout.txt, stderr.txt and
exit_code.txt.  In the logs the output root reads <OUT> and the source
root <SRC>, and verify's wall-time line is dropped, so that two trees
run into two roots compare equal:

    python tests/contract_runs.py rerun/a      # on one tree
    python tests/contract_runs.py rerun/b      # on the other
    diff -r rerun/a rerun/b

The derived configs go to OUT/configs.  The script exits 1 if any run
exits non-zero.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
SHIPPED = ("default", "smooth", "trivial", "twod", "twod_contact", "twod_large")
VERIFY_SEEDS = (0, 1, 2, 3, 17, 101, 4096)
WALL_TIME_LINE = re.compile(rb"^\d+/\d+ checks passed in \S+ s\r?\n", re.MULTILINE)

# configs derived from shipped ones: (name, base, {line: replacement})
DERIVED = (
    # cells of 1.6e-9: a (about 200) is lost next to h^-2 = 4.1e17 in the
    # 1D step solve
    ("small_domain", "default", {"length_x = 1.0": "length_x = 1e-7"}),
    # saturating is the one g family whose g' is an array; no shipped
    # config runs it
    ("saturating", "default",
     {"g_family = linear": "g_family = saturating", "steps = 200": "steps = 40"}),
    # every shipped config with a kernel runs the Gaussian one; the adjoint
    # steps with the operator its state records
    ("newtonian", "default",
     {"kernel = gaussian": "kernel = newtonian", "steps = 200": "steps = 40"}),
)


def derive(base: Path, edits: dict[str, str], target: Path) -> None:
    """Write base with each whole line of edits replaced; each must occur."""
    lines = base.read_text().splitlines()
    for old, new in edits.items():
        if old not in lines:
            sys.exit(f"{base}: no line {old!r} to replace")
        lines = [new if line == old else line for line in lines]
    target.write_text("\n".join(lines) + "\n")


def contract_runs(configs: Path) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments); a run without --out writes to its own
    working directory (verify writes to the config's out_dir, `out`)."""
    runs = []
    for name in SHIPPED:
        cfg = str(CONFIGS / f"{name}.cfg")
        runs += [
            (f"{name}/simulate", ["simulate", "--config", cfg]),
            (f"{name}/optimize", ["optimize", "--config", cfg]),
            (f"{name}/sweep", ["sweep-alpha", "--config", cfg]),
        ]
    default, contact = (str(CONFIGS / f"{name}.cfg") for name in ("default", "twod_contact"))
    small, saturating, newtonian = (str(configs / f"{name}.cfg") for name, _, _ in DERIVED)
    runs += [
        ("default/obstacle", ["simulate", "--config", default, "--alpha", "0"]),
        ("twod_contact/obstacle", ["simulate", "--config", contact, "--alpha", "0"]),
        ("small_domain/simulate", ["simulate", "--config", small]),
        ("small_domain/sweep", ["sweep-alpha", "--config", small]),
        ("saturating/optimize", ["optimize", "--config", saturating]),
        ("newtonian/optimize", ["optimize", "--config", newtonian]),
    ]
    runs += [
        (f"verify/seed_{seed}", ["verify", "--config", default, "--seed", str(seed)])
        for seed in VERIFY_SEEDS
    ]
    return runs


def masked(text: bytes, out: Path) -> bytes:
    for root, tag in ((out, b"<OUT>"), (SRC, b"<SRC>")):
        text = text.replace(os.fsencode(root), tag)
    return WALL_TIME_LINE.sub(b"", text)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name, base, edits in DERIVED:
        derive(CONFIGS / f"{base}.cfg", edits, configs / f"{name}.cfg")

    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "PYTHONWARNINGS": "error::RuntimeWarning",
    }
    runs, failed = contract_runs(configs), []
    t0 = time.perf_counter()
    for name, args in runs:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        if args[0] != "verify":
            args = [*args, "--out", str(run_dir)]
        command = [sys.executable, "-m", "quenchctrl.cli", *args]
        proc = subprocess.run(command, cwd=run_dir, env=env, capture_output=True)
        (run_dir / "stdout.txt").write_bytes(masked(proc.stdout, out))
        (run_dir / "stderr.txt").write_bytes(masked(proc.stderr, out))
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        if proc.returncode != 0:
            failed.append(f"{name} (exit {proc.returncode})")
    elapsed = time.perf_counter() - t0
    print(f"{len(runs)} runs in {elapsed:.1f} s, {len(failed)} exited non-zero", *failed, sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
