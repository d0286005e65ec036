"""quenchctrl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command of a workload runs in a
fresh interpreter (import included), one at a time, closed loop: the
next sample starts when the previous one has ended and been checked.

--trace 0 measures the end-to-end metrics:
  wall_s       median wall time of one sample (all of the workload's
               commands, each from spawn to exit); a sample counts only
               if every exit code is 0 and its outputs pass checks.py
  setup_s      median over fresh processes of load_config + build_problem
               on the workload's config
  peak_rss_mb  largest ru_maxrss of any command process
and prints fail_ratio (failed over attempted samples), the sample count
and every sample's wall time with them.

On the shared 2-CPU host this was built on, the speed of both CPUs
changes by up to 1.4x from one minute to the next with the neighbours'
load.  Over 20 s windows of 1-4 s optimize runs, the window median moved
by 13-25% (interquartile range over median) and the window's fastest run
by 23-29%, so wall_s is the median and its bound in BENCHMARK.json is
the widest allowed.

--trace 1 runs at least two traced samples with every function in
tracer.TARGETS wrapped, the first two alternating with untraced ones,
then the layer probes (child.py), and reports the per-layer metrics.
Counts come from the first traced sample and must repeat exactly in
every later one; times are medians over traced samples; percentiles
pool the spans of all of them.  trace.overhead_s is the median traced sample's wall time minus
the median untraced one's.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Inputs and outputs live under
perfbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from machine import machine_record, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_REPEATS = (3, 9)  # fresh processes: at least 3, at most 9 ...
SETUP_BUDGET_S = 6.0  # ... stopping once this much time has gone by
SOLVE_SPAN_POOL = 100  # p90 needs at least ten samples beyond it
TRACE_BUDGET_S = 75.0  # ... unless pooling that many takes longer


# the program's default: one BLAS thread per CPU this process may use
BLAS_THREADS = len(os.sched_getaffinity(0))


class Run:
    """One benchmark invocation: inputs, child environment, deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path = WORK):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.work = work
        self.dir = work / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.problems: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    # -- processes -------------------------------------------------------
    def spawn(self, argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall s, peak RSS MB)."""
        result: dict = {}
        with open(log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            result.update(wall=time.perf_counter() - t0, status=status, rss=usage.ru_maxrss)

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(max(self.remaining(), 1.0))
        if reaper.is_alive():
            proc.kill()
            reaper.join()
        proc.returncode = os.waitstatus_to_exitcode(result["status"])
        return proc.returncode, result["wall"], result["rss"] * 1024 / 1e6

    # -- inputs ----------------------------------------------------------
    def prepare(self) -> Path:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        cfg = self.dir / "input.cfg"
        cfg.write_text(workloads.config_text(self.workload, self.seed))
        # compile the package's bytecode once, as an installed package has it
        warmup = [sys.executable, "-c", "import quenchctrl.cli"]
        self.spawn(warmup, self.dir, self.dir / "warmup.log")
        return cfg

    def setup_times(self, cfg: Path) -> list[float]:
        times = []
        t0 = time.perf_counter()
        for k in range(SETUP_REPEATS[1]):
            if k >= SETUP_REPEATS[0] and time.perf_counter() - t0 > SETUP_BUDGET_S:
                break
            log = self.dir / f"setup_{k}.log"
            rc, _, _ = self.spawn([sys.executable, str(HERE / "child.py"), "setup", str(cfg)],
                                  self.dir, log)
            if rc != 0:
                self.problems.append(f"setup process exited {rc}")
                continue
            times.append(json.loads(log.read_text().strip().splitlines()[-1])["setup_s"])
        return times

    # -- samples ---------------------------------------------------------
    def sample(self, cfg: Path, k: int, trace: bool) -> dict:
        """Run the workload's commands once and check the outputs."""
        sdir = self.dir / f"{'traced' if trace else 'sample'}_{k}"
        out = sdir / "out"
        sdir.mkdir()
        walls, rss, codes, traces = [], [], [], []
        for i, args in enumerate(workloads.command_lines(self.workload, cfg, out, self.seed)):
            if trace:
                tfile = sdir / f"trace_{i}.json"
                argv = [sys.executable, str(HERE / "child.py"), "trace", str(tfile), str(k), "--"]
                traces.append(tfile)
            else:
                argv = [sys.executable, "-m", "quenchctrl.cli"]
            rc, wall, peak = self.spawn(argv + args, sdir, sdir / "log.txt")
            walls.append(wall)
            rss.append(peak)
            codes.append(rc)
        problems = [f"command {i} exited {rc}" for i, rc in enumerate(codes) if rc != 0]
        if not problems:
            problems = checks.check_outputs(self.workload, out, self.seed)
        return {
            "wall": sum(walls),
            "rss": max(rss),
            "problems": problems,
            "digests": checks.digests(out) if out.is_dir() else {},
            "output_mb": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6,
            "traces": [json.loads(t.read_text()) for t in traces if t.is_file()],
        }

    def check_determinism(self, samples: list[dict]) -> None:
        """Byte-identical outputs within this run and against earlier runs
        of the same source tree, workload and seed."""
        store = self.work / "digests.json"
        inputs = hashlib.sha256(workloads.config_text(self.workload, self.seed).encode())
        key = f"{self.workload}/{self.seed}/{tree_digest(ROOT)}/{inputs.hexdigest()}"
        known = json.loads(store.read_text()) if store.is_file() else {}
        passing = [s for s in samples if not s["problems"]]
        if not passing:
            return
        expected = known.get(key, passing[0]["digests"])
        for s in passing:
            if s["digests"] != expected:
                s["problems"].append("outputs differ from an earlier run (not byte-identical)")
        known[key] = expected
        store.write_text(json.dumps(known, indent=1, sort_keys=True))

    def sample_loop(self, cfg: Path, budget: float) -> list[dict]:
        """Untraced samples until the next one would end after `budget` s."""
        samples: list[dict] = []
        t0 = time.perf_counter()
        while True:
            samples.append(self.sample(cfg, len(samples), trace=False))
            elapsed = time.perf_counter() - t0
            per_sample = elapsed / len(samples)
            if elapsed + per_sample > budget or per_sample > self.remaining() - 15.0:
                return samples


# -- trace aggregation ---------------------------------------------------

COUNT_METRICS = (
    "optimize.pgd_iterations", "optimize.cost_evals", "optimize.backtracks",
    "optimize.step_accept_ratio", "state.solve_state.calls", "state.step_rho.calls",
    "state.mu_solve.iterations", "potentials.quench_resolvent.calls",
    "adjoint.solve_adjoint.calls", "adjoint.mu_dual_solve.iterations",
    "nonlocal_op.table_mb", "nonlocal_op.apply.calls", "grid.laplacian.calls",
    "grid.field_validations", "cli.output_mb", "trace.spans",
)


def traced_sample_metrics(sample: dict) -> tuple[dict, list[float], list[float]]:
    """Per-layer metrics of one traced sample (several commands), plus
    the solve_state and solve_adjoint span durations in ms."""
    calls: dict = {}
    busy: dict = {}
    self_s: dict = {}
    iters: dict = {}
    table_bytes = 0
    import_s = 0.0
    cost_evals = trials = 0
    solve_ms: list[float] = []
    adjoint_ms: list[float] = []
    n_spans = 0
    for tr in sample["traces"]:
        for src, dst in ((tr["calls"], calls), (tr["busy"], busy), (tr["self_s"], self_s),
                         (tr["iterations"], iters)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
        table_bytes = max(table_bytes, tr["table_bytes"])
        import_s += tr["import_s"]
        spans = tr["spans"]
        n_spans += len(spans)
        for name, start, end, parent, _run in spans:
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name == "state.solve_state":
                solve_ms.append((end - start) * 1e3)
                cost_evals += parent_name in (
                    "optimize.projected_gradient_descent", "optimize.deep_quench_continuation"
                )
                trials += parent_name == "optimize.projected_gradient_descent"
            elif name == "adjoint.solve_adjoint":
                adjoint_ms.append((end - start) * 1e3)
    # each PGD call evaluates its start point once; the rest are trial steps
    trials -= calls.get("optimize.projected_gradient_descent", 0)
    accepted = iters.get("optimize.projected_gradient_descent", 0)
    qr_calls = calls.get("potentials.quench_resolvent", 0)
    m = {
        "optimize.pgd_iterations": accepted,
        "optimize.cost_evals": cost_evals,
        "optimize.backtracks": trials - accepted,
        "optimize.step_accept_ratio": accepted / trials if trials else 0.0,
        "optimize.self_s": self_s.get("optimize", 0.0),
        "state.solve_state.calls": calls.get("state.solve_state", 0),
        "state.solve_state.busy_s": busy.get("state.solve_state", 0.0),
        "state.step_rho.calls": calls.get("state.step_rho", 0),
        "state.step_rho.busy_s": busy.get("state.step_rho", 0.0),
        "state.step_mu.busy_s": busy.get("state.step_mu", 0.0),
        "state.mu_solve.iterations": iters.get("state.mu_solve", 0),
        "state.mu_solve.busy_s": busy.get("state.mu_solve", 0.0),
        "state.energy_residual.busy_s": busy.get("state.energy_residual", 0.0),
        "state.self_s": self_s.get("state", 0.0),
        "potentials.quench_resolvent.calls": qr_calls,
        "potentials.quench_resolvent.busy_s": busy.get("potentials.quench_resolvent", 0.0),
        "potentials.quench_resolvent.us_per_call": (
            busy.get("potentials.quench_resolvent", 0.0) / qr_calls * 1e6 if qr_calls else 0.0
        ),
        "potentials.obstacle_resolvent.busy_s": busy.get("potentials.obstacle_resolvent", 0.0),
        "adjoint.solve_adjoint.calls": calls.get("adjoint.solve_adjoint", 0),
        "adjoint.solve_adjoint.busy_s": busy.get("adjoint.solve_adjoint", 0.0),
        "adjoint.mu_dual_solve.iterations": iters.get("adjoint.mu_dual_solve", 0),
        "adjoint.mu_dual_solve.busy_s": busy.get("adjoint.mu_dual_solve", 0.0),
        "adjoint.self_s": self_s.get("adjoint", 0.0),
        "nonlocal_op.build_s": busy.get("nonlocal_op.build", 0.0),
        "nonlocal_op.table_mb": table_bytes / 1e6,
        "nonlocal_op.apply.calls": calls.get("nonlocal_op.apply", 0),
        "nonlocal_op.apply.busy_s": busy.get("nonlocal_op.apply", 0.0),
        "grid.laplacian.calls": calls.get("grid.laplacian", 0),
        "grid.laplacian.busy_s": busy.get("grid.laplacian", 0.0),
        "grid.field_validations": calls.get("grid.field_validation", 0),
        "costs.busy_s": busy.get("costs", 0.0),
        "cli.import_s": import_s,
        "cli.write_s": busy.get("cli.write", 0.0),
        "cli.output_mb": sample["output_mb"],
        "verify.run_suite_s": busy.get("verify.run_suite", 0.0),
        "config.build_problem_s": busy.get("config.build_problem", 0.0),
        "trace.spans": n_spans,
        "trace.wall_s": sample["wall"],
    }
    return m, solve_ms, adjoint_ms


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


# -- modes -----------------------------------------------------------------


def run_untraced(run: Run, cfg: Path) -> tuple[dict, list[dict]]:
    setup = run.setup_times(cfg)
    samples = run.sample_loop(cfg, budget=run.seconds)
    run.check_determinism(samples)
    good = [s for s in samples if not s["problems"]] or samples
    walls = [s["wall"] for s in good]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": max(s["rss"] for s in good), "unit": "MB"},
    }
    failed = sum(1 for s in samples if s["problems"])
    print(f"workload {run.workload} seed {run.seed}")
    print(f"  wall_s       {metrics['wall_s']['value']:.4f} s    median of {len(walls)} samples")
    print(f"  setup_s      {metrics['setup_s']['value']:.5f} s    median of {len(setup)} processes")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB   max over {len(good)} samples")
    print(f"  fail_ratio   {failed / len(samples):.4f}      "
          f"{failed} failed of {len(samples)} samples")
    print("  sample walls " + " ".join(f"{w:.3f}" for w in walls) + " s")
    return metrics, samples


def run_traced(run: Run, cfg: Path) -> tuple[dict, list[dict]]:
    # the first two traced samples alternate with untraced ones, which
    # give the baseline for the tracing overhead
    untraced: list[dict] = []
    traced: list[dict] = []
    want = 2
    per_sample_s = 0.0
    while len(traced) < want and run.remaining() > 2 * per_sample_s + 15.0:
        if len(untraced) < 2:
            untraced.append(run.sample(cfg, len(untraced), trace=False))
        t0 = time.perf_counter()
        traced.append(run.sample(cfg, len(traced), trace=True))
        if len(traced) == 1:
            per_sample_s = time.perf_counter() - t0
            solves = traced_sample_metrics(traced[0])[0]["state.solve_state.calls"]
            # enough traced samples to pool SOLVE_SPAN_POOL solve spans,
            # unless that would take longer than TRACE_BUDGET_S
            pooled = math.ceil(SOLVE_SPAN_POOL / solves) if solves else 2
            want = max(2, pooled if pooled * per_sample_s <= TRACE_BUDGET_S else 2)
    samples = untraced + traced
    run.check_determinism(samples)

    per_sample = []
    solve_ms: list[float] = []
    adjoint_ms: list[float] = []
    for s in traced:
        m, sms, ams = traced_sample_metrics(s)
        per_sample.append(m)
        solve_ms += sms
        adjoint_ms += ams
    first = per_sample[0]
    for k, m in enumerate(per_sample[1:], start=1):
        diff = [n for n in COUNT_METRICS if m[n] != first[n]]
        if diff:
            traced[k]["problems"].append(f"traced counts differ from the first traced run: {diff}")
    metrics = {
        name: (first[name] if name in COUNT_METRICS
               else statistics.median(m[name] for m in per_sample))
        for name in first
    }
    metrics["state.solve_state.ms_p50"] = _percentile(solve_ms, 50)
    metrics["state.solve_state.ms_p90"] = _percentile(solve_ms, 90)
    metrics["state.solve_state.samples"] = len(solve_ms)
    metrics["adjoint.solve_adjoint.ms_p50"] = _percentile(adjoint_ms, 50)
    untraced_wall = statistics.median(s["wall"] for s in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.samples"] = len(traced)

    log = run.dir / "probes.log"
    rc, _, _ = run.spawn([sys.executable, str(HERE / "child.py"), "probes"], run.dir, log)
    if rc == 0:
        metrics.update(json.loads(log.read_text().strip().splitlines()[-1]))
    else:
        run.problems.append(f"probe process exited {rc}")

    units = per_layer_units()
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.problems.append(f"per-layer metrics not measured: {missing}")
    print(f"workload {run.workload} seed {run.seed}: {len(traced)} traced samples, "
          f"{len(solve_ms)} pooled solve_state spans")
    print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s (median traced sample "
          f"{metrics['trace.wall_s']:.4f} s, median untraced {untraced_wall:.4f} s)")
    for tr in traced[0]["traces"]:
        for entry in tr["missing"]:
            print(f"  target not found, not traced: {entry}")
    result = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    return result, samples


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "quenchctrl" / "cli.py", workloads.DEFAULT_CFG):
        if not needed.is_file():
            print(f"benchmark needs {needed.relative_to(ROOT)}; run it from a full checkout",
                  file=sys.stderr)
            return 2

    run = Run(args.workload, args.seed, args.seconds)
    print("machine " + json.dumps(machine_record(ROOT, BLAS_THREADS), sort_keys=True))
    cfg = run.prepare()
    if args.trace:
        metrics, samples = run_traced(run, cfg)
    else:
        metrics, samples = run_untraced(run, cfg)

    failed = sum(1 for s in samples if s["problems"])
    for k, s in enumerate(samples):
        for problem in s["problems"]:
            print(f"  sample {k} failed: {problem}")
    for problem in run.problems:
        print(f"  benchmark problem: {problem}")
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
