"""The tracer restores what it wraps and counts what the solvers do."""

import importlib
import inspect
import sys

import pytest

import quenchctrl.cli as cli
import quenchctrl.config as config
from quenchctrl.errors import ConfigError
from run import traced_sample_metrics
from tracer import TARGETS, Tracer

TINY = """\
cells_x = 4
steps = 3
schedule = 1e-1,1e-2
sweep_alphas = 1e-1,1e-2
vi_samples = 2
"""


def _bindings():
    """Every (owner, attribute) -> object the tracer may replace."""
    out = {}
    for t in TARGETS:
        module = importlib.import_module(f"quenchctrl.{t.module}")
        owner = module
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        out[(id(owner), attr)] = (owner, attr, original)
        if t.everywhere and not path:
            for name, mod in list(sys.modules.items()):
                if name.startswith("quenchctrl"):
                    for key, value in vars(mod).items():
                        if value is original:
                            out[(id(mod), key)] = (mod, key, value)
    return out


def test_uninstall_restores_every_original():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing
    replaced = [b for b in before.values() if getattr(b[0], b[1]) is not b[2]]
    assert len(replaced) == len(before)
    # the optimizer resolves solve_state in its own globals
    import quenchctrl.optimize as optimize

    assert optimize.solve_state.__wrapped__ is before[(id(optimize), "solve_state")][2]
    tracer.uninstall()
    for owner, attr, original in before.values():
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"


def test_uninstall_after_an_exception_in_a_wrapped_call(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ConfigError):
            config.load_config(tmp_path / "missing.cfg")
    finally:
        tracer.uninstall()
    assert tracer.calls["config.load_config"] == 1
    assert not tracer._stack
    assert all(getattr(o, a) is v for o, a, v in before.values())


def _traced(argv):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main", "cli"):
            rc = cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    trace = tracer.as_dict()
    trace["import_s"] = 0.0
    return traced_sample_metrics({"traces": [trace], "output_mb": 0.0, "wall": 0.0})[0], tracer


@pytest.fixture
def tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    return cfg


def test_simulate_counts_match_hand_derived(tiny_cfg, tmp_path):
    m, tracer = _traced(["simulate", "--config", str(tiny_cfg), "--out", str(tmp_path)])
    steps, solves = 3, 1
    assert m["state.solve_state.calls"] == solves
    assert m["state.step_rho.calls"] == steps * solves
    assert tracer.calls["state.step_mu"] == steps * solves
    assert tracer.calls["state.mu_solve"] == steps * solves
    assert m["potentials.quench_resolvent.calls"] == steps * solves
    assert m["nonlocal_op.apply.calls"] == steps * solves
    # CG applies the operator once for the start residual and once per iteration
    assert m["grid.laplacian.calls"] == steps * solves + m["state.mu_solve.iterations"]
    assert m["adjoint.solve_adjoint.calls"] == 0
    assert m["optimize.pgd_iterations"] == 0
    # each step builds at least the new rho, xi and mu Fields
    assert m["grid.field_validations"] >= 3 * steps * solves


def test_sweep_counts_one_solve_per_alpha_plus_obstacle(tiny_cfg, tmp_path):
    m, _ = _traced(["sweep-alpha", "--config", str(tiny_cfg), "--out", str(tmp_path)])
    steps, solves = 3, 3  # obstacle base + two alphas
    assert m["state.solve_state.calls"] == solves
    assert m["state.step_rho.calls"] == steps * solves
    assert m["potentials.quench_resolvent.calls"] == steps * 2


def test_optimize_counts_are_consistent_and_repeat(tiny_cfg, tmp_path):
    argv = ["optimize", "--config", str(tiny_cfg), "--out", str(tmp_path)]
    m, tracer = _traced(argv)
    levels = 2
    assert tracer.calls["optimize.projected_gradient_descent"] == levels
    # one start evaluation per level, one per accepted or rejected trial,
    # one final obstacle solve
    trials = m["optimize.pgd_iterations"] + m["optimize.backtracks"]
    assert m["optimize.cost_evals"] == levels + trials + 1
    assert m["state.solve_state.calls"] == m["optimize.cost_evals"]
    # one adjoint per level start and per accepted step
    assert m["adjoint.solve_adjoint.calls"] == levels + m["optimize.pgd_iterations"]
    assert m["state.step_rho.calls"] == 3 * m["state.solve_state.calls"]
    again, _ = _traced(argv)
    counts = [k for k in m if k.endswith((".calls", ".iterations", "_evals", "backtracks"))]
    assert {k: m[k] for k in counts} == {k: again[k] for k in counts}


def test_self_time_never_exceeds_the_span():
    tracer = Tracer()
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            sum(range(10000))
    outer = tracer.spans[0]
    assert tracer.spans[1][3] == 0  # parent of inner is outer
    assert tracer.self_s["a"] + tracer.self_s["b"] == pytest.approx(outer[2] - outer[1])
    assert tracer.self_s["a"] >= 0.0


def test_targets_name_real_functions():
    for t in TARGETS:
        module = importlib.import_module(f"quenchctrl.{t.module}")
        obj = module
        for part in t.attr.split("."):
            obj = getattr(obj, part)
        assert inspect.isfunction(obj), t
