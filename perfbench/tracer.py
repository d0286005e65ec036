"""In-memory tracer that wraps quenchctrl's public functions from outside.

`Tracer.install` replaces each target function at every name its callers
resolve: a function imported with `from .state import solve_state` is
looked up in the importing module's globals, so the wrapper must be set
there, not only on the defining module.  Methods are wrapped on their
class.  `uninstall` puts every original object back.

Each wrapped call is one frame on a stack.  A frame's self time is its
duration minus the durations of the wrapped calls made inside it, and
is charged to the frame's layer (the quenchctrl module name), so a
layer's self time is the wall time during which its code was the
innermost wrapped call.  Span-mode targets also record
(name, start, end, parent span, run id); count-mode targets, used on
the hot inner calls, only add to counts and busy time.  `busy` counts
only the outermost frame of a name, so nested calls in one group are
not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


PACKAGE = "quenchctrl"


@dataclass(frozen=True)
class Target:
    name: str        # metric name, e.g. "state.solve_state"
    module: str      # quenchctrl submodule that owns the object
    attr: str        # "func" or "Class.method"
    span: bool       # record spans (else counts and busy time only)
    everywhere: bool = True  # also replace the name in importing modules
    hook: str = ""   # result hook, see Tracer._hooks


TARGETS = (
    Target("cli.write", "cli", "write_fields_csv", False),
    Target("cli.write", "cli", "write_control_csv", False),
    Target("cli.write", "cli", "_write_json", False),
    Target("config.load_config", "config", "load_config", False),
    Target("config.build_problem", "config", "build_problem", True),
    Target("optimize.deep_quench_continuation", "optimize", "deep_quench_continuation", True),
    Target("optimize.projected_gradient_descent", "optimize", "projected_gradient_descent", True,
           hook="pgd"),
    Target("optimize.reduced_gradient", "optimize", "reduced_gradient", True),
    Target("optimize.sample_variational_inequality", "optimize", "sample_variational_inequality",
           False),
    Target("state.solve_state", "state", "solve_state", True),
    Target("state.step_rho", "state", "step_rho", True),
    Target("state.step_mu", "state", "step_mu", True),
    # one function, two callers: the forward mu solve and the adjoint's
    # mu_dual solve are told apart by the module whose global is replaced
    Target("state.mu_solve", "state", "conjugate_gradient", True, everywhere=False, hook="cg"),
    Target("adjoint.mu_dual_solve", "adjoint", "conjugate_gradient", True, everywhere=False,
           hook="cg"),
    Target("state.energy_residual", "state", "energy_residual", False),
    Target("adjoint.solve_adjoint", "adjoint", "solve_adjoint", True),
    Target("adjoint.concentration_metric", "adjoint", "concentration_metric", False),
    Target("potentials.quench_resolvent", "potentials", "quench_resolvent_detail", False),
    Target("potentials.obstacle_resolvent", "potentials", "obstacle_resolvent", False),
    Target("nonlocal_op.build", "nonlocal_op", "NonlocalOperator.__init__", False, hook="table"),
    Target("nonlocal_op.apply", "nonlocal_op", "NonlocalOperator.apply_values", False),
    Target("nonlocal_op.apply", "nonlocal_op", "NonlocalOperator.apply_adjoint_values", False),
    Target("grid.laplacian", "grid", "laplacian_values", False),
    Target("grid.field_validation", "grid", "Field.__post_init__", False),
    Target("grid.field_validation", "grid", "Trajectory.__post_init__", False),
    Target("costs", "costs", "tracking_cost", False),
    Target("costs", "costs", "anchored_tracking_cost", False),
    Target("costs", "costs", "project_admissible", False),
    Target("verify.run_suite", "verify", "run_suite", True),
)


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.iterations: Counter = Counter()
        self.table_bytes = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [start, child seconds, enclosing span index]
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _enter(self, name: str, span: bool) -> list:
        t0 = time.perf_counter()
        parent = self._stack[-1][2] if self._stack else -1
        index = parent
        if span:
            index = len(self.spans)
            self.spans.append([name, t0, t0, parent, self.run_id])
        frame = [t0, 0.0, index]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, name: str, layer: str, span: bool, frame: list) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self._depth[name] -= 1
        dur = t1 - frame[0]
        self.calls[name] += 1
        if self._depth[name] == 0:
            self.busy[name] += dur
        self.self_s[layer] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if span:
            self.spans[frame[2]][2] = t1

    def span(self, name: str, layer: str):
        """Context manager recording a span around code that is not a call."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter(name, True)

            def __exit__(self, *exc):
                tracer._exit(name, layer, True, self.frame)
                return False

        return _Span()

    def _hooks(self, kind: str, name: str, args, result) -> None:
        if kind == "cg":
            self.iterations[name] += int(result[1])
        elif kind == "pgd":
            self.iterations[name] += int(result.iterations)
        elif kind == "table":
            self.table_bytes = max(self.table_bytes, int(args[0].weights.nbytes))

    def _wrap(self, target: Target, layer: str, fn):
        tracer = self
        name, span, hook = target.name, target.span, target.hook

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, layer, span, frame)
            if hook:
                tracer._hooks(hook, name, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for target in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError:
                self.missing.append(f"{target.name}: {target.module}")
                continue
            owner = module
            *path, attr = target.attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{target.name}: {target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, target.module, original)
            self._set(owner, attr, wrapper)
            if target.everywhere and not path:
                for mod_name, mod in list(sys.modules.items()):
                    in_package = mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                    if mod is module or not in_package:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "iterations": dict(self.iterations),
            "table_bytes": self.table_bytes,
            "missing": self.missing,
        }
