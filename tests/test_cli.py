import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenchctrl import cli, verify
from quenchctrl import optimize as optimize_module
from quenchctrl import state as state_module
from quenchctrl.cli import main
from quenchctrl.errors import SolverError
from quenchctrl.grid import Grid, TimeGrid, Trajectory
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.potentials import PotentialConfig
from quenchctrl.state import StateSolution
from quenchctrl.verify import CheckResult, VerificationReport

from fields_csv import read_fields_csv


SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"
# subprocesses import the package from this checkout, installed or not
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}

SMALL = """
cells_x = 16
steps = 20
"""

OPT = "cells_x = 8\nsteps = 10\nschedule = 1e-1,1e-2\ntol = 1e-5\nmax_iters = 60\n"

DIAGNOSTICS_KEYS = {
    "alpha", "min_mu", "min_rho", "max_rho", "xi_l6", "energy_residual_max",
    "clamp_events", "mu_nonneg_ok",
}
LEVEL_KEYS = {
    "alpha", "scale", "cost", "cost_plain", "stationarity", "converged", "stalled",
    "iterations", "anchor_distance", "pairing", "concentration", "concentration_cross",
    "projection_residual", "vi_min", "control_h1", "within_budget",
}
FINAL_KEYS = {
    "vi_min", "projection_residual", "sign_violations", "state_distance", "all_converged",
    "concentration_slope", "stationarity_tol", "obstacle_diagnostics",
}


def obstacle_state(tg, g, mu, rho, xi, u):
    """A hand-built obstacle StateSolution over the given arrays, for the
    field table writer, which reads its arrays and control u."""
    return StateSolution(
        tg, g, mu, rho, xi, u, 0.0, 0.0, 0, PotentialConfig(), NonlocalOperator(Kernel.zero(), g)
    )


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_exit_zero_and_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fields.csv").is_file()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == DIAGNOSTICS_KEYS
    assert diag["mu_nonneg_ok"] is True
    assert 0.0 < diag["min_rho"] and diag["max_rho"] < 1.0  # quench run default


def test_simulate_alpha_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--alpha", "0", "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["alpha"] == 0.0


def test_fields_csv_round_trip_bit_exact(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    fields = read_fields_csv(out / "fields.csv")
    assert set(fields) == {"mu", "rho", "xi", "u"}
    assert fields["rho"].shape == (21, 16)
    # rerun in memory and compare raw float64 bit patterns
    from quenchctrl.config import build_problem, load_config
    from quenchctrl.state import solve_state

    c = load_config(cfg)
    prob = build_problem(c)
    sol = solve_state(prob.control, c.alpha, prob.init, prob.model, prob.op)
    assert np.array_equal(fields["rho"], sol.rho)
    assert np.array_equal(fields["mu"], sol.mu)
    assert np.array_equal(fields["xi"], sol.xi)


def test_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "fields.csv").read_bytes() == (b / "fields.csv").read_bytes()
    assert (a / "diagnostics.json").read_bytes() == (b / "diagnostics.json").read_bytes()


def test_reruns_byte_identical_2d_split_blocks(tmp_path):
    # a long thin box: the 2D step solve's conjugate gradients must repeat bit for bit
    cfg = write_cfg(tmp_path, "dim = 2\ncells_x = 4\ncells_y = 64\nsteps = 4\nhorizon = 0.1\n")
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("fields.csv", "diagnostics.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_csv_writers_golden_bytes(tmp_path):
    # exact bytes: integer index columns, 17 significant digits (so 0.1
    # and 1/3 show their binary value, -0.0 keeps its sign and 1e-300
    # its exponent) and CRLF row ends
    tg = TimeGrid(1.0, 1)
    vals = np.array([0.1, 1.0 / 3.0, -0.0, 1e-300])
    u2 = Trajectory(tg, Grid.box((1, 2)), vals.reshape(2, 1, 2))
    cli.write_control_csv(tmp_path / "control.csv", u2)
    assert (tmp_path / "control.csv").read_bytes() == (
        b"t_index,cell_index,cell_index_y,u\r\n"
        b"0,0,0,0.10000000000000001\r\n"
        b"0,0,1,0.33333333333333331\r\n"
        b"1,0,0,-0\r\n"
        b"1,0,1,1e-300\r\n"
    )
    g = Grid.line(2)
    mu, rho, xi, u = (Trajectory(tg, g, (k * vals).reshape(2, 2)) for k in (1.0, -2.0, 3e5, 1e-7))
    sol = obstacle_state(tg, g, mu.values, rho.values, xi.values, u.values)
    cli.write_fields_csv(tmp_path / "fields.csv", sol)
    assert (tmp_path / "fields.csv").read_bytes() == (
        b"t_index,cell_index,mu,rho,xi,u\r\n"
        b"0,0,0.10000000000000001,-0.20000000000000001,30000,1e-08\r\n"
        b"0,1,0.33333333333333331,-0.66666666666666663,100000,3.3333333333333327e-08\r\n"
        b"1,0,-0,0,-0,-0\r\n"
        b"1,1,1e-300,-2.0000000000000001e-300,3e-295,9.9999999999999991e-308\r\n"
    )
    back = read_fields_csv(tmp_path / "fields.csv")
    for name, traj in zip(["mu", "rho", "xi", "u"], [mu, rho, xi, u]):
        assert np.array_equal(back[name], traj.values)


def test_fields_csv_held_control_matches_materialized(tmp_path):
    # a time-constant control is a read-only view over one slice, so its
    # column is formatted once per table; the bytes must not depend on that
    tg, g = TimeGrid(1.0, 300), Grid.box((3, 5))  # rows span several chunks
    rng = np.random.default_rng(5)
    mu, rho, xi = (Trajectory(tg, g, rng.standard_normal((301, 3, 5))) for _ in range(3))
    profile = rng.standard_normal((3, 5))
    profile[0, :3] = [-0.0, 1e-300, 5e-324]
    held = Trajectory.constant(tg, g, profile)
    full = Trajectory(tg, g, np.tile(profile, (301, 1, 1)))
    assert held.values.strides[0] == 0 and full.values.strides[0] != 0
    for name, u in (("held", held), ("full", full)):
        sol = obstacle_state(tg, g, mu.values, rho.values, xi.values, u.values)
        cli.write_fields_csv(tmp_path / f"{name}.csv", sol)
    assert (tmp_path / "held.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_fields_csv_2d_matches_per_row_format(tmp_path):
    # several nodes and cells per axis, so every index column changes; the
    # values include -0.0, 1e-300 and a subnormal.  The second table has
    # 100·35 = 3 500 rows, more than one chunk, and its first chunk ends
    # inside time node 58 (2 048 = 58·35 + 18)
    for tg, g in ((TimeGrid(1.0, 2), Grid.box((4, 5))), (TimeGrid(1.0, 99), Grid.box((7, 5)))):
        nodes, (nx, ny) = tg.n_nodes, g.shape
        vals = np.random.default_rng(8).standard_normal((4, nodes, nx, ny))
        vals.reshape(-1)[:3] = [-0.0, 1e-300, 5e-324]
        mu, rho, xi, u = vals
        cli.write_fields_csv(tmp_path / "fields.csv", obstacle_state(tg, g, mu, rho, xi, u))
        expected = "t_index,cell_index,cell_index_y,mu,rho,xi,u\r\n" + "".join(
            "%d,%d,%d,%.17g,%.17g,%.17g,%.17g\r\n" % ((n, i, j) + tuple(vals[:, n, i, j]))
            for n in range(nodes)
            for i in range(nx)
            for j in range(ny)
        )
        assert (tmp_path / "fields.csv").read_bytes() == expected.encode()


def _ulps_around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# 1e14 + m/8 and 1e7 + m/1024 (m odd) end exactly halfway between two
# 17-digit decimals, so they pin the half-to-even rounding
TIES = [1e14 + m / 8 for m in range(1, 40, 2)] + [1e7 + m / 1024 for m in range(1, 40, 2)]
# ties, the ends of the vectorized range 1e-6 <= |x| < 1e17, the switch
# to fixed notation at 1e-4, and values that take % one by one
FORMAT_EDGES = TIES + [x for b in (1e-6, 1e-4, 1e16, 1e17) for x in _ulps_around(b)] + [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.5, 0.125, 1e-5,
]


def _float_text_rows(values):
    text = cli._float_text(np.asarray(values, dtype=float))
    return [bytes(row[row != 0]) for row in text]


def test_float_text_edges_match_percent_format():
    values = FORMAT_EDGES + [-x for x in FORMAT_EDGES]
    assert _float_text_rows(values) == [b"%.17g," % x for x in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example(TIES)
def test_float_text_matches_percent_format(values):
    # one call holds values of many exponents, as a table's float columns do
    assert _float_text_rows(values) == [b"%.17g," % x for x in values]


def test_whole_numbers_print_as_percent_d():
    # integer columns go through the %.17g kernel, which prints a whole
    # number below 2^53 as %d does
    values = [0, 1, 9, 10, 99, 4095, 10**15, 2**53]
    values += [-i for i in values[1:]]
    text = cli._column_text([np.array(values, dtype=np.int64)])
    assert [bytes(row[row != 0]) for row in text] == [b"%d," % i for i in values]


def test_held_and_per_node_columns_match_per_row_format(tmp_path):
    # a per-node integer column, then a held integer column and a held
    # float column, which share one run and end every row; 7 nodes of 900
    # cells span several chunks, with chunk ends inside a node
    nodes, cells = 7, 900
    assert nodes * cells > 3 * cli._CHUNK_ROWS
    rng = np.random.default_rng(5)
    per_node = np.array([0, 7, 99, 1000, 4095, 10**15, 2**53])
    held = rng.choice([-1.0, 1.0], cells) * 10.0 ** rng.uniform(-9, 18, cells)
    held[:3] = [0.0, 3.0, -0.0]
    path = tmp_path / "table.csv"
    header = ["node", "cell", "value"]
    cli._write_csv(path, header, [per_node[:, None], np.arange(cells)], [held])
    expected = ",".join(header) + "\r\n" + "".join(
        "%d,%d,%.17g\r\n" % (per_node[n], i, held[i]) for n in range(nodes) for i in range(cells)
    )
    assert path.read_bytes() == expected.encode()


def test_history_shaped_table_matches_per_row_format(tmp_path):
    # int columns whose width changes between row chunks, whole-number
    # floats, and values below 1e-6 that are formatted one by one; every
    # column of a one-axis table is formatted once and squeezed
    n = 2 * cli._CHUNK_ROWS + 100
    rng = np.random.default_rng(3)
    level, iteration = np.arange(n) // 1000, np.arange(n)
    backtracks = rng.integers(0, 6, n).astype(float)
    step = 2.0 ** -backtracks
    cost = rng.random(n)
    stationarity = 10.0 ** rng.uniform(-12, 0, n)
    path = tmp_path / "history.csv"
    header = ["level", "iteration", "step", "backtracks", "cost", "stationarity"]
    cli._write_csv(path, header, [level, iteration], [step, backtracks, cost, stationarity])
    expected = ",".join(header) + "\r\n" + "".join(
        "%d,%d,%.17g,%.17g,%.17g,%.17g\r\n" % row
        for row in zip(level.tolist(), iteration.tolist(), step.tolist(),
                       backtracks.tolist(), cost.tolist(), stationarity.tolist())
    )
    assert path.read_bytes() == expected.encode()


def test_two_dimensional_fields_header(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "dim = 2\ncells_x = 5\ncells_y = 4\nsteps = 6\nhorizon = 0.1\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "fields.csv").read_text().splitlines()[0]
    assert header == "t_index,cell_index,cell_index_y,mu,rho,xi,u"
    fields = read_fields_csv(out / "fields.csv")
    assert fields["rho"].shape == (7, 5, 4)


def test_config_error_exit_2(tmp_path, capsys):
    bad = write_cfg(tmp_path, "nosuch_key = 1\n")
    assert main(["simulate", "--config", bad]) == 2
    missing = str(tmp_path / "missing.cfg")
    assert main(["simulate", "--config", missing]) == 2
    # (A2): initial rho on the boundary of the unit interval
    a2 = write_cfg(tmp_path, SMALL + "rho0 = constant:1.0\n", name="a2.cfg")
    assert main(["simulate", "--config", a2]) == 2
    neg = write_cfg(tmp_path, SMALL, name="neg.cfg")
    assert main(["simulate", "--config", neg, "--alpha", "-1"]) == 2
    capsys.readouterr()
    # input the program cannot read: a config file that is not UTF-8, and
    # csv profiles numpy cannot parse; each error names the file
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(SMALL.encode() + b"# \xff\n")
    assert main(["simulate", "--config", str(latin)]) == 2
    assert f"config error: config file {latin} is not UTF-8 text" in capsys.readouterr().err
    for name, data in (("header", "x,y\n1,2\n"), ("ragged", "1,2\n3\n")):
        table = tmp_path / f"{name}.csv"
        table.write_text(data)
        cfg = write_cfg(tmp_path, SMALL + f"control = csv:{table}\n", name=f"{name}.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: profile file {table} is not" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ["--alpha", "abc"]),
        ("simulate", ["--alpha", "nan"]),
        ("simulate", ["--alpha", "inf"]),
        ("simulate", ["--alpha", "2"]),
        ("sweep-alpha", ["--alphas", "1e-2,x"]),
        ("sweep-alpha", ["--alphas", ","]),
        ("sweep-alpha", ["--alphas", "1e-2,2"]),
    ],
)
def test_invalid_quench_flag_exit_2(tmp_path, capsys, command, extra):
    cfg = write_cfg(tmp_path, SMALL)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *extra]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "line",
    [
        "alpha = 2",
        "alpha = nan",
        "sweep_alphas = 2",
        "schedule = 1e-1,2",
        "schedule = 1e-2,1e-1",
        "schedule = 1e-1,-1e-3",
    ],
)
def test_invalid_quench_config_exit_2(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, SMALL + line + "\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


# every float key of ProblemConfig: NaN passes a range test, and inf most
# of them, so each is refused first; only h1_budget = inf (no budget) is valid
FLOAT_KEYS = (
    "length_x", "length_y", "horizon", "kernel_amplitude", "kernel_width",
    "kernel_core_radius", "kernel_radius", "f_strength", "quench_exponent", "alpha",
    "rho_weight", "mu_weight", "control_weight", "h1_budget", "tol",
)
NON_FINITE_KEYS = (
    [(key, "nan", "simulate") for key in FLOAT_KEYS]
    + [(key, "inf", "simulate") for key in FLOAT_KEYS if key != "h1_budget"]
    + [("h1_budget", "-inf", "simulate"), ("tol", "nan", "optimize"), ("tol", "inf", "optimize")]
)


@pytest.mark.parametrize("key, value, command", NON_FINITE_KEYS)
def test_non_finite_float_key_exit_2_writes_nothing(tmp_path, capsys, key, value, command):
    text = f"cells_x = 4\nsteps = 3\nmax_iters = 3\nschedule = 1e-1,1e-2\n{key} = {value}\n"
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {key}: expected a finite number, got {value}\n"
    assert not (tmp_path / "o").exists()


def test_infinite_h1_budget_is_no_budget(tmp_path):
    text = "cells_x = 4\nsteps = 3\nmax_iters = 3\nschedule = 1e-1,1e-2\nh1_budget = inf\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


# case: (config key, config text) of a quench parameter whose resolvent
# step (horizon/steps)·alpha^quench_exponent underflows to 0
UNDERFLOW = {
    "alpha-squared": ("alpha", "alpha = 1e-200\nquench_exponent = 2\n"),
    "alpha-short-step": ("alpha", "alpha = 1e-320\nhorizon = 1e-10\nsteps = 3\n"),
    "schedule": ("schedule", "schedule = 1e-1,1e-200\nquench_exponent = 2\n"),
    "sweep": ("sweep_alphas", "sweep_alphas = 1e-1,1e-200\nquench_exponent = 2\n"),
}


@pytest.mark.parametrize("key, text", UNDERFLOW.values(), ids=UNDERFLOW.keys())
@pytest.mark.parametrize("command", ["simulate", "optimize", "sweep-alpha"])
def test_quench_step_underflow_exit_2_writes_nothing(tmp_path, capsys, key, text, command):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: (A1) {key}: quench parameter ")
    assert err.endswith("(horizon/steps)·alpha^quench_exponent = 0\n")
    assert not (tmp_path / "o").exists()


# finite values that the solvers cannot use: h^-2, a gaussian's width²
# (of the kernel or of a bump profile) or the optimizer's reference step
# 1/control_weight would overflow, or the width² underflow to 0
UNUSABLE = {
    "tiny-length": ("length_x = 1e-300", "length_x: the cell size 3.33333e-301 has no finite h^-2"),
    "zero-cell": ("length_x = 5e-324", "length_x: the cell size 0 has no finite h^-2"),
    "tiny-length-y": ("dim = 2\nlength_y = 1e-300", "length_y: the cell size 1.25e-301 has no finite h^-2"),
    "wide-kernel": ("kernel_width = 1e300", "(A3) gaussian kernel width 1e+300 has no finite positive square"),
    "narrow-kernel": ("kernel_width = 1e-300", "(A3) gaussian kernel width 1e-300 has no finite positive square"),
    "tiny-control-weight": ("control_weight = 5e-324", "control_weight: 5e-324 has no finite reciprocal"),
    "wide-bump": (
        "control = gaussian-bump:1,0.5,1e200",
        "profile 'gaussian-bump:1,0.5,1e200' needs a width > 0 with a finite positive square",
    ),
    "narrow-bump": (
        "control = gaussian-bump:1,0.5,1e-200",
        "profile 'gaussian-bump:1,0.5,1e-200' needs a width > 0 with a finite positive square",
    ),
}


@pytest.mark.parametrize("line, message", UNUSABLE.values(), ids=UNUSABLE.keys())
@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_unusable_finite_value_exit_2_writes_nothing(tmp_path, capsys, command, line, message):
    cfg = write_cfg(tmp_path, f"cells_x = 3\nsteps = 2\n{line}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_small_cells_solve_exit_0(tmp_path):
    # next to h^-2 = 4.1e19 the step coefficient a (about 10) is lost, yet
    # the 1D step solve keeps its digits and the run ends normally
    cfg = write_cfg(tmp_path, "length_x = 1e-8\nsteps = 5\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert np.all(read_fields_csv(out / "fields.csv")["mu"] > 0.0)


def test_verify_negative_seed_exit_2_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"out_dir = {tmp_path / 'v'}\n")
    assert main(["verify", "--config", cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed must be nonnegative, got -1\n"
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-file", "under-file"])
@pytest.mark.parametrize("command", ["simulate", "optimize", "sweep-alpha", "verify"])
def test_out_path_through_a_file_exit_2_before_solving(tmp_path, monkeypatch, capsys, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    target = blocker / below
    if command == "verify":  # verify writes to the config's out_dir
        argv = ["verify", "--config", write_cfg(tmp_path, f"out_dir = {target}\n")]
    else:
        argv = [command, "--config", write_cfg(tmp_path, OPT), "--out", str(target)]
    # nothing may run: a solve or the suite fails the test if it starts
    for name in ("cli.solve_state", "optimize.solve_state", "verify.run_suite"):
        monkeypatch.setattr(f"quenchctrl.{name}", lambda *a, **k: pytest.fail("ran"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: output path {target}: {blocker} exists and is not a directory\n"
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]


@pytest.mark.parametrize("line", ["resolvent_tol = 1e-13", "coefficient_floor = 1e-8"])
def test_removed_solver_key_exit_2(tmp_path, capsys, line):
    # the inner-solver tolerances are module constants, not config keys
    cfg = write_cfg(tmp_path, SMALL + line + "\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_solver_failure_exit_3(tmp_path, capsys):
    # a kernel this strong makes the resolvent bracket b/s overflow; that
    # must surface as a solver failure before any iteration runs
    cfg = write_cfg(tmp_path, SMALL + "kernel_amplitude = 1e308\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "quench resolvent bracket [(b-1)/s, b/s] is not finite" in capsys.readouterr().err


def _strict_json(path):
    """Parse JSON that must hold no NaN or infinity."""

    def reject(name):
        raise ValueError(f"{path.name} holds {name}")

    return json.loads(path.read_text(), parse_constant=reject)


# each on top of the defaults with steps = 5
NON_FINITE_MU = "steps = 5\nhorizon = 1e5\ncontrol = constant:1e305\n"


def test_non_finite_march_exit_3(tmp_path, capsys):
    # the chemical potential, about u·tau/(1 + 2g) ≈ 1e305·2e4/2, overflows
    # in the first step
    cfg = write_cfg(tmp_path, NON_FINITE_MU)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: forward march: a non-finite value at time node 1 of 5")
    assert not (tmp_path / "o").exists()


def test_non_finite_obstacle_march_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, NON_FINITE_MU)
    assert main(["simulate", "--config", cfg, "--alpha", "0", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: forward march: a non-finite value at time node 1 of 5")
    assert not (tmp_path / "o").exists()


# mu at node 1 is finite, near 2e308, and the drive of the step to node 2
# overflows; on top of the defaults, alpha = 1e-3
DRIVE_OVERFLOW = "steps = 5\nhorizon = 1e4\ncontrol = constant:1e305\n"


@pytest.mark.parametrize(
    "level, message",
    [
        ([], "forward march, step to time node 2 of 5: quench resolvent bracket"),
        (["--alpha", "0"], "forward march: a non-finite value at time node 2 of 5"),
    ],
    ids=["quench", "obstacle"],
)
def test_overflowing_drive_names_its_step_exit_3(tmp_path, level, message):
    # the quench resolvent raises on the infinite drive, and the march names
    # the step; the obstacle clip passes it and mu leaves the range there.
    # numpy warns of the overflow on the way (once, and twice at alpha 0);
    # with no warning filter, stderr still holds the one message line
    cfg = write_cfg(tmp_path, DRIVE_OVERFLOW)
    out = tmp_path / "o"
    env = {key: value for key, value in SUBPROCESS_ENV.items() if key != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "simulate", "--config", cfg, *level,
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"solver failure: {message}"), proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("violations, code", [([], 0), (["level 0 cost history increased"], 1)])
def test_warnings_of_a_finished_run_reach_the_filters(tmp_path, monkeypatch, capsys, violations, code):
    # a run that ends in exit 0 or 1 hands its warnings on: an "error"
    # filter raises them where they occur, any other shows them
    def noisy(args, problem, out):
        warnings.warn("overflow encountered in multiply", RuntimeWarning)
        return violations, "done"

    monkeypatch.setattr(cli, "_cmd_simulate", noisy)
    argv = ["simulate", "--config", write_cfg(tmp_path, "steps = 5\n"), "--out", str(tmp_path / "o")]
    with pytest.raises(RuntimeWarning, match="overflow"):
        main(argv)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(argv) == code
    assert capsys.readouterr().err.count("invariant violation: ") == len(violations)


def test_non_finite_march_in_2d_exit_3(tmp_path):
    # in process, the test filter would raise numpy's overflow warning,
    # hence a subprocess
    text = "dim = 2\ncells_x = 4\ncells_y = 5\nsteps = 5\nmu0 = constant:1e308\nalpha = 0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert "solver failure: forward march: a non-finite value at time node 1 of 5" in proc.stderr
    assert not out.exists()


def test_huge_finite_mu0_in_2d_gives_finite_diagnostics(tmp_path):
    # the 2D step solve scales rhs by a power of two, so its norms do not overflow
    cfg = write_cfg(tmp_path, "dim = 2\ncells_x = 4\ncells_y = 5\nsteps = 5\nmu0 = constant:1e305\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    diag = _strict_json(out / "diagnostics.json")
    assert all(np.isfinite(diag[key]) for key in DIAGNOSTICS_KEYS - {"mu_nonneg_ok"})
    assert diag["min_mu"] > 1e304


def test_non_finite_cost_exit_3_writes_nothing(tmp_path):
    # a huge finite target overflows the tracking cost; numpy's overflow
    # warnings would be raised in process, hence a subprocess
    cfg = write_cfg(tmp_path, "steps = 5\nschedule = 1e-1,1e-2\nrho_target = constant:1e200\n")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "optimize", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert (
        "solver failure: history.csv: column cost holds NaN or an infinity "
        "(inf at level 0, iteration 0)" in proc.stderr
    )
    assert not out.exists()


HUGE_CONTROL = "steps = 5\nschedule = 1e-1,1e-2\ncontrol = constant:1e155\nceiling = constant:1e155\n"


def test_overflowing_control_norm_square_exit_3_writes_nothing(tmp_path):
    # ‖u‖ = 1e155 squares past the largest double: the control cost is
    # inf, not an OverflowError, and the march on these data then fails;
    # numpy's overflow warnings would be raised in process, hence a subprocess
    cfg = write_cfg(tmp_path, HUGE_CONTROL)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "optimize", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "solver failure: adjoint march: a non-finite value at time node 3 of 5, marching backward\n"
    )
    assert not out.exists()


HUGE_GRADIENT = (
    "steps = 5\nschedule = 1e-1,1e-2\ncontrol_weight = 1e300\n"
    "control = constant:1e10\nceiling = constant:1e10\n"
)


@pytest.mark.parametrize(
    "extra, message",
    [
        # control_weight·u overflows, and so does the control cost
        ("", "history.csv: column cost holds NaN or an infinity (inf at level 0, iteration 0)"),
        # on a horizon of 1e-100 the cost is finite (5e219), but not the
        # gradient, so the level report's vi_min is -inf
        ("horizon = 1e-100\n", "limit_report.json: key final.vi_min holds NaN or an infinity "
         "(-inf)"),
    ],
)
def test_overflowing_gradient_exit_3_writes_nothing(tmp_path, extra, message):
    # the reduced gradient is an array: its overflow reaches the CLI's
    # non-finite backstops, not a traceback; numpy's overflow warnings
    # would be raised in process, hence a subprocess
    cfg = write_cfg(tmp_path, HUGE_GRADIENT + extra)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "optimize", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"solver failure: {message}\n"
    assert not out.exists()


def test_huge_control_without_control_cost_exit_0(tmp_path):
    # every number of this run is finite; the control's H1 norm squares
    # 1e155 only after scaling it
    text = HUGE_CONTROL + "g_family = zero\nmu_weight = 0.0\ncontrol_weight = 0.0\n"
    out = tmp_path / "o"
    assert main(["optimize", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    levels = _strict_json(out / "limit_report.json")["levels"]
    assert [lvl["control_h1"] for lvl in levels] == [1e155, 1e155]


def test_csv_writer_refuses_non_finite(tmp_path):
    # the backstop: a NaN or an infinity that reaches a CSV writer is a solver failure
    for bad in (np.nan, np.inf):
        path = tmp_path / "t.csv"
        with pytest.raises(SolverError, match=r"t\.csv: column v holds NaN or an infinity"):
            cli._write_csv(path, ["i", "v"], [np.arange(3)], [np.array([1.0, bad, 2.0])])
        assert not path.exists()


@pytest.mark.parametrize("line", ["control = constant:1e305", "kernel_amplitude = 1e300"])
def test_huge_finite_data_give_finite_diagnostics(tmp_path, line):
    # the states stay finite, so must the energy residual and the L6 norm of xi
    cfg = write_cfg(tmp_path, f"steps = 5\n{line}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    diag = _strict_json(out / "diagnostics.json")
    assert all(np.isfinite(diag[key]) for key in DIAGNOSTICS_KEYS - {"mu_nonneg_ok"})
    assert diag["xi_l6"] > 1e298


def test_huge_kernel_floors_rho_at_the_smallest_normal(tmp_path):
    # the kernel drives rho below every normal double; the floor keeps the
    # log-potential curvature 1/(rho (1 - rho)) finite there
    cfg = write_cfg(tmp_path, "steps = 5\nkernel_amplitude = 1e300\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert _strict_json(out / "diagnostics.json")["min_rho"] == np.finfo(float).tiny


def test_non_finite_adjoint_exit_3(tmp_path):
    # the dual march's nonlocal term overflows at this kernel amplitude;
    # numpy's overflow warnings would be raised in process, hence a subprocess
    cfg = write_cfg(tmp_path, "steps = 5\nschedule = 1e-1,1e-2\nkernel_amplitude = 1e300\n")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "optimize", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 3, proc.stderr
    assert "solver failure: adjoint march: a non-finite value at time node" in proc.stderr
    assert not out.exists()


def test_non_finite_json_value_exit_3(tmp_path, monkeypatch, capsys):
    # the backstop: a NaN that reaches a JSON writer is a solver failure
    checks = [CheckResult("nan_check", True, float("nan"), 1.0)]
    monkeypatch.setattr(verify, "run_suite", lambda seed: VerificationReport(checks, 0.25))
    cfg = write_cfg(tmp_path, f"out_dir = {tmp_path / 'v'}\n")
    assert main(["verify", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "solver failure: verify_report.json: key checks[0].value holds NaN or an infinity (nan)\n"
    )
    assert captured.out == ""  # the table is printed only once the report is valid
    assert not (tmp_path / "v" / "verify_report.json").exists()


def test_invariant_violation_exit_1(tmp_path, monkeypatch, capsys):
    # exit-code plumbing: a reported violation must turn into exit 1
    cfg = write_cfg(tmp_path, SMALL)
    monkeypatch.setattr(cli, "state_violations", lambda sol, diag: ["synthetic check"])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "synthetic check" in capsys.readouterr().err


def test_optimize_applies_the_state_invariants_to_its_re_solve(tmp_path, monkeypatch, capsys):
    # the obstacle re-solve is the one state optimize reports: a record with
    # mu_nonneg_ok False fails the run, as it fails simulate and sweep-alpha
    real = optimize_module.state_diagnostics

    def negative_mu(*args):
        return dataclasses.replace(real(*args), min_mu=-0.5, mu_nonneg_ok=False)

    monkeypatch.setattr(optimize_module, "state_diagnostics", negative_mu)
    cfg = write_cfg(tmp_path, OPT)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "invariant violation: min mu = -5.000e-01 under nonnegative data\n" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("command, calls", [("simulate", 1), ("sweep-alpha", 6), ("optimize", 1)])
def test_each_reported_state_gets_one_energy_residual(tmp_path, monkeypatch, command, calls):
    # the default config at 10 steps; a command computes the diagnostics of
    # the states it reports only: optimize makes 23 marches and reports the
    # obstacle re-solve's, sweep-alpha reports its base and five levels.  The
    # residual is counted through the state module's global, as the
    # benchmark's tracer counts it
    seen = []
    residual = state_module.energy_residual
    monkeypatch.setattr(state_module, "energy_residual", lambda *a: seen.append(1) or residual(*a))
    text = (CONFIGS / "default.cfg").read_text()
    assert "\nsteps = 200\n" in text
    cfg = write_cfg(tmp_path, text.replace("\nsteps = 200\n", "\nsteps = 10\n"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(seen) == calls


def test_sweep_alpha_output(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    code = main(["sweep-alpha", "--config", cfg, "--alphas", "1e-1,1e-2,1e-3", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,rho_distance,mu_distance,xi_l6,energy_residual"
    assert len(lines) == 1 + 3 + 1  # header, three quench rows, obstacle row
    rows = [ln.split(",") for ln in lines[1:]]
    dists = [float(r[1]) for r in rows[:3]]
    assert dists[0] > dists[1] > dists[2] > 0.0
    assert float(rows[-1][0]) == 0.0
    assert float(rows[-1][1]) == 0.0


def test_sweep_rejects_nonpositive_alpha(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["sweep-alpha", "--config", cfg, "--alphas", "1e-1,0"]) == 2


def test_optimize_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPT)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert (out / "control_0.csv").is_file()
    assert (out / "control_1.csv").is_file()
    hist = (out / "history.csv").read_text().splitlines()
    assert hist[0] == "level,iteration,step,backtracks,cost,stationarity"
    assert len(hist) > 2
    report = json.loads((out / "limit_report.json").read_text())
    assert len(report["levels"]) == 2
    # one row per iterate: each level counts its iterations up from 0
    assert [tuple(line.split(",")[:2]) for line in hist[1:]] == [
        (str(lvl), str(it))
        for lvl, rec in enumerate(report["levels"])
        for it in range(rec["iterations"] + 1)
    ]
    assert all(set(level) == LEVEL_KEYS for level in report["levels"])
    assert set(report["final"]) == FINAL_KEYS
    assert set(report["final"]["obstacle_diagnostics"]) == DIAGNOSTICS_KEYS
    assert report["final"]["all_converged"] is True
    assert report["final"]["sign_violations"] == []
    assert report["levels"][0]["anchor_distance"] is None
    assert report["levels"][1]["anchor_distance"] is not None
    assert report["final"]["vi_min"] == report["levels"][-1]["vi_min"]

    # nothing in optimize is random: the seed key is parsed and ignored
    reseeded = tmp_path / "reseeded"
    cfg7 = write_cfg(tmp_path, OPT + "seed = 7\n", name="seed7.cfg")
    assert main(["optimize", "--config", cfg7, "--out", str(reseeded)]) == 0
    for name in ("control_0.csv", "control_1.csv", "history.csv", "limit_report.json"):
        assert (reseeded / name).read_bytes() == (out / name).read_bytes(), name


def test_optimize_warns_on_unconverged_level(tmp_path, capsys):
    # a level that stops short of the tolerance still exits 0, but says so
    cfg = write_cfg(tmp_path, OPT.replace("max_iters = 60", "max_iters = 0"))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for level, (line, alpha) in enumerate(zip(err, ("0.1", "0.01"))):
        assert line.startswith(
            f"warning: level {level} (alpha {alpha}) did not converge: "
            "iteration cap reached (stationarity "
        )
        assert line.endswith(" > tol 1e-05)")
    report = json.loads((out / "limit_report.json").read_text())
    assert report["final"]["all_converged"] is False


def test_verify_failed_check_exit_1(tmp_path, monkeypatch, capsys):
    checks = [CheckResult("fine_check", True, 0.5, 1.0), CheckResult("broken_check", False, 2.0, 1.0)]
    monkeypatch.setattr(verify, "run_suite", lambda seed: VerificationReport(checks, 0.25))
    cfg = write_cfg(tmp_path, f"out_dir = {tmp_path / 'v'}\n")
    assert main(["verify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "PASS  fine_check" in captured.out and "FAIL  broken_check" in captured.out
    assert "1/2 checks passed in 0.25 s" in captured.out
    assert captured.err.splitlines() == ["invariant violation: verify check broken_check failed"]
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["all_passed"] is False


def test_verify_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"out_dir = {tmp_path / 'v'}\n")
    assert main(["verify", "--config", cfg, "--seed", "0"]) == 0
    table = capsys.readouterr().out
    assert "PASS" in table and "FAIL" not in table
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) >= 25


def test_console_script_end_to_end(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "quenchctrl.cli", "simulate", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "fields.csv").is_file()


def test_cli_import_pulls_in_no_scipy():
    # numpy is the only runtime dependency; importing scipy would also
    # raise the peak memory of every command
    code = (
        "import quenchctrl.cli, sys; "
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV
    )
    assert proc.returncode == 0, proc.stderr


def _modules_loaded(tmp_path, code):
    """The quenchctrl modules a fresh interpreter holds after running code."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('quenchctrl'))))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_command_loads_only_its_own_modules(tmp_path):
    forward = {"quenchctrl"} | {
        f"quenchctrl.{m}"
        for m in ("errors", "grid", "potentials", "nonlocal_op", "state", "costs", "config", "cli")
    }
    small, opt = write_cfg(tmp_path, SMALL), write_cfg(tmp_path, OPT, "opt.cfg")
    for argv in (["simulate", "--config", small], ["sweep-alpha", "--config", small]):
        code = f"from quenchctrl.cli import main\nassert main({argv + ['--out', 'o']!r}) == 0"
        assert _modules_loaded(tmp_path, code) == forward
    code = f"from quenchctrl.cli import main\nassert main(['optimize', '--config', {opt!r}, '--out', 'o']) == 0"
    loaded = _modules_loaded(tmp_path, code)
    assert {"quenchctrl.optimize", "quenchctrl.adjoint"} <= loaded
    assert "quenchctrl.verify" not in loaded
    assert _modules_loaded(tmp_path, "import quenchctrl") == {"quenchctrl"}


def test_no_command_imports_numpy_random(tmp_path):
    # numpy.random adds about 5 MB and 14 ms to a process; verify draws its
    # data from the standard library's random instead.  A subprocess,
    # because this process has numpy.random loaded.
    configs = Path(__file__).resolve().parent.parent / "configs"
    small, opt = write_cfg(tmp_path, SMALL), write_cfg(tmp_path, OPT, "opt.cfg")
    runs = [
        ["verify", "--config", str(configs / "default.cfg")],
        ["simulate", "--config", str(configs / "trivial.cfg"), "--out", "s"],
        ["sweep-alpha", "--config", small, "--out", "w"],
        ["optimize", "--config", opt, "--out", "o"],
    ]
    code = (
        "import sys\nfrom quenchctrl.cli import main\n"
        f"for argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr


# a fixed sample of tiny configs with one to four float keys at the edges
# of the double range; each must end in an exit code the README names
FUZZ_VALUES = ("0", "1e-300", "1e300", "5e-324")
FUZZ_COMMANDS = ("simulate", "sweep-alpha", "optimize")


def _fuzz_cases(n=200, seed=20261019):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        keys = rng.choice(FLOAT_KEYS, size=rng.integers(1, 5), replace=False)
        lines = [f"{key} = {FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]}" for key in keys]
        cases.append((str(rng.choice(FUZZ_COMMANDS)), lines))
    return cases


def test_edge_value_configs_end_in_a_named_exit_code(tmp_path, capsys):
    escaped = []
    # a command-line run prints numpy's overflow warnings and goes on; in
    # process they would be errors, so they are silenced as in that run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, (command, lines) in enumerate(_fuzz_cases()):
            cfg = write_cfg(tmp_path, "cells_x = 3\nsteps = 2\n" + "\n".join(lines) + "\n")
            case = f"{command} with {'; '.join(lines)}"
            out = tmp_path / f"o{i}"
            try:
                code = main([command, "--config", cfg, "--out", str(out)])
            except Exception as exc:  # every escape is reported, not only the first
                escaped.append(f"{case}: {type(exc).__name__}: {exc}")
                capsys.readouterr()
                continue
            err = capsys.readouterr().err.splitlines()
            if code not in (0, 1, 2, 3) or code == 1 and not (
                err and all(line.startswith("invariant violation: ") for line in err)
            ):
                escaped.append(f"{case}: exit {code}, stderr {err}")
            # a config error or a solver failure writes nothing
            elif code in (2, 3) and out.exists():
                escaped.append(f"{case}: exit {code} left {sorted(p.name for p in out.iterdir())}")
    assert escaped == []
