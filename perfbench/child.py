"""Entry points the benchmark runs in fresh interpreters.

    python3 perfbench/child.py trace OUT.json RUN_ID -- CLI ARGS...
        one quenchctrl CLI command with every target of tracer.TARGETS
        wrapped; the trace is written to OUT.json at exit
    python3 perfbench/child.py setup CONFIG
        load_config + build_problem on CONFIG, timed; prints JSON
    python3 perfbench/child.py probes
        isolated timings of public calls on fixed inputs; prints JSON

The package is imported from the checkout's `src/`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def trace(out: str, run_id: int, argv: list[str]) -> int:
    from tracer import Tracer

    t0 = time.perf_counter()
    import quenchctrl.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(run_id)
    tracer.install()
    try:
        with tracer.span("cli.main", "cli"):
            rc = cli.main(argv)
    finally:
        tracer.uninstall()
        payload = tracer.as_dict()
        payload["import_s"] = import_s
        Path(out).write_text(json.dumps(payload))
    return rc


def setup(config: str) -> int:
    from quenchctrl.config import build_problem, load_config

    t0 = time.perf_counter()
    build_problem(load_config(config))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _per_call_us(fn, min_seconds: float = 0.2) -> float:
    """Median over 5 batches of the mean time per call, in microseconds."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_seconds / 5 or n >= 1 << 20:
            break
        n *= 2
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        batches.append((time.perf_counter() - t0) / n)
    return statistics.median(batches) * 1e6


def probes() -> int:
    import numpy as np

    from quenchctrl.grid import Field, Grid, laplacian_values
    from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
    from quenchctrl.potentials import PotentialConfig, quench_resolvent_detail
    from quenchctrl.state import step_mu

    out: dict[str, float] = {}
    # right-hand sides straddling both obstacles, as deep-quench steps see them
    b = np.linspace(-0.1, 1.1, 64)
    for label, s in (("5e-4", 5e-4), ("5e-11", 5e-11)):
        out[f"potentials.quench_resolvent.us_s{label}"] = _per_call_us(
            lambda s=s: quench_resolvent_detail(b, s)
        )

    g1 = Grid.line(64, 1.0)
    x = np.linspace(0.0, 1.0, 64)
    rho_n = Field(g1, 0.5 + 0.2 * np.sin(3.0 * x))
    rho_np1 = Field(g1, 0.5 + 0.21 * np.sin(3.0 * x))
    mu_n = Field(g1, 1.0 + 0.1 * np.cos(2.0 * x))
    u = Field(g1, np.ones(64))
    model = PotentialConfig()
    out["state.step_mu.us_1d64"] = _per_call_us(
        lambda: step_mu(mu_n, rho_n, rho_np1, u, 0.005, model)
    )

    g2 = Grid.box((64, 64), (1.0, 1.0))
    v1 = np.cos(np.arange(64.0))
    v2 = np.cos(np.arange(64.0 * 64)).reshape(64, 64)
    out["grid.laplacian.us_1d64"] = _per_call_us(lambda: laplacian_values(g1, v1))
    out["grid.laplacian.us_2d64"] = _per_call_us(lambda: laplacian_values(g2, v2))

    kernel = Kernel.gaussian(1.0, 0.1)
    for label, grid, v in (("1d64", g1, v1), ("2d64", g2, v2)):
        op = NonlocalOperator(kernel, grid)
        out[f"nonlocal_op.apply.us_{label}"] = _per_call_us(lambda op=op, v=v: op.apply_values(v))
        # computed, not measured: the table is read once, the vector in and out once each
        table = getattr(op, "weights", None)
        table_bytes = table.nbytes if table is not None else 0
        out[f"nonlocal_op.apply.computed_bytes_{label}"] = float(table_bytes + 2 * v.nbytes)
        del op
    print(json.dumps(out))
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace":
        sep = argv.index("--")
        return trace(argv[1], int(argv[2]), argv[sep + 1:])
    if mode == "setup":
        return setup(argv[1])
    if mode == "probes":
        return probes()
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
