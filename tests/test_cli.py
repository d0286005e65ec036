import json
import subprocess
import sys

import numpy as np
import pytest

from quenchctrl import cli
from quenchctrl.cli import main, read_fields_csv
from quenchctrl.grid import Grid, TimeGrid, Trajectory
from quenchctrl.state import StateSolution


SMALL = """
cells_x = 16
steps = 20
"""


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
    sol = solve_state(prob.control, prob.model.level(c.alpha), prob.init, prob.model, prob.op)
    assert np.array_equal(fields["rho"], sol.rho.values)
    assert np.array_equal(fields["mu"], sol.mu.values)
    assert np.array_equal(fields["xi"], sol.xi.values)


def test_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "fields.csv").read_bytes() == (b / "fields.csv").read_bytes()
    assert (a / "diagnostics.json").read_bytes() == (b / "diagnostics.json").read_bytes()


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
    cli.write_fields_csv(tmp_path / "fields.csv", StateSolution(mu, rho, xi, 0.0, None), u)
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


def test_config_error_exit_2(tmp_path):
    bad = write_cfg(tmp_path, "nosuch_key = 1\n")
    assert main(["simulate", "--config", bad]) == 2
    missing = str(tmp_path / "missing.cfg")
    assert main(["simulate", "--config", missing]) == 2
    # (A2): initial rho on the boundary of the unit interval
    a2 = write_cfg(tmp_path, SMALL + "rho0 = constant:1.0\n", name="a2.cfg")
    assert main(["simulate", "--config", a2]) == 2
    neg = write_cfg(tmp_path, SMALL, name="neg.cfg")
    assert main(["simulate", "--config", neg, "--alpha", "-1"]) == 2


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


def test_invariant_violation_exit_1(tmp_path, monkeypatch, capsys):
    # exit-code plumbing: a reported violation must turn into exit 1
    cfg = write_cfg(tmp_path, SMALL)
    monkeypatch.setattr(cli, "_state_invariant_violations", lambda sol: ["synthetic check"])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "synthetic check" in capsys.readouterr().err


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


def test_optimize_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "cells_x = 8\nsteps = 10\nschedule = 1e-1,1e-2\ntol = 1e-5\nmax_iters = 60\nvi_samples = 20\n",
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "control_0.csv").is_file()
    assert (out / "control_1.csv").is_file()
    hist = (out / "history.csv").read_text().splitlines()
    assert hist[0] == "level,iteration,cost,stationarity"
    assert len(hist) > 2
    report = json.loads((out / "limit_report.json").read_text())
    assert len(report["levels"]) == 2
    assert report["final"]["all_converged"] is True
    assert report["final"]["sign_violations"] == []
    assert report["levels"][0]["anchor_distance"] is None
    assert report["levels"][1]["anchor_distance"] is not None


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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
