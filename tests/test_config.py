import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from quenchctrl.config import (
    ProblemConfig,
    build_problem,
    config_from_map,
    load_config,
    parse_config_text,
    profile_values,
)
from quenchctrl.errors import ConfigError
from quenchctrl.grid import Grid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_defaults_build():
    cfg = ProblemConfig()
    assert cfg.dim == 1
    assert cfg.cells_x == 64
    assert cfg.steps == 200
    assert cfg.alpha == pytest.approx(1e-3)
    prob = build_problem(cfg)
    assert prob.grid.n_cells == 64
    assert prob.tgrid.steps == 200
    assert prob.box.contains_box(prob.control)
    assert np.all(prob.init.mu0 == 1.0)


def test_parse_config_text_round_trip():
    text = """
    # comment line
    cells_x = 32   # trailing comment
    steps = 50
    alpha = 0.01
    kernel = tophat
    """
    m = parse_config_text(text)
    assert m == {"cells_x": "32", "steps": "50", "alpha": "0.01", "kernel": "tophat"}
    cfg = config_from_map(m)
    assert cfg.cells_x == 32
    assert cfg.steps == 50
    assert cfg.alpha == pytest.approx(0.01)
    assert cfg.kernel == "tophat"


def test_parse_rejects_unknown_and_duplicates():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("nosuch = 3")
    with pytest.raises(ConfigError, match="duplicate config key"):
        parse_config_text("steps = 3\nsteps = 4")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("steps")


def test_coercion_errors_are_config_errors():
    with pytest.raises(ConfigError, match="expected int"):
        config_from_map({"steps": "many"})
    with pytest.raises(ConfigError, match="expected float"):
        config_from_map({"alpha": "tiny"})


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("/nonexistent/path.cfg")


def test_load_config_from_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("cells_x = 16\nsteps = 25\n")
    cfg = load_config(p)
    assert cfg.cells_x == 16
    assert cfg.steps == 25
    assert cfg.alpha == ProblemConfig().alpha  # unset keys keep their defaults


def test_validation_rejections():
    with pytest.raises(ConfigError):
        ProblemConfig(dim=3)
    with pytest.raises(ConfigError):
        ProblemConfig(steps=0)
    with pytest.raises(ConfigError, match=r"\(A1\)"):
        ProblemConfig(alpha=-0.5)
    with pytest.raises(ConfigError):
        ProblemConfig(horizon=0.0)


def test_schedule_and_sweep_parsing():
    cfg = ProblemConfig(schedule="1e-1, 1e-2, 1e-3", sweep_alphas="0.5,0.25")
    assert cfg.schedule_values() == [1e-1, 1e-2, 1e-3]
    assert cfg.sweep_values() == [0.5, 0.25]
    with pytest.raises(ConfigError):
        ProblemConfig(schedule="a,b").schedule_values()
    with pytest.raises(ConfigError, match="schedule: empty list"):
        ProblemConfig(schedule=" , ")


def test_shipped_configs_all_build():
    paths = sorted(CONFIGS.glob("*.cfg"))
    assert [p.stem for p in paths] == [
        "default", "smooth", "trivial", "twod", "twod_contact", "twod_large"
    ]
    for path in paths:
        cfg = load_config(path)
        prob = build_problem(cfg)
        assert prob.tgrid.steps == cfg.steps
    # default.cfg spells out the built-in defaults
    assert load_config(CONFIGS / "default.cfg") == ProblemConfig()
    td = load_config(CONFIGS / "twod.cfg")
    assert td.dim == 2
    assert build_problem(td).grid.shape == (12, 10)
    # twod_contact.cfg is twod.cfg run to time 1
    contact = dataclasses.replace(td, horizon=1.0, steps=100)
    assert load_config(CONFIGS / "twod_contact.cfg") == contact


def test_profile_values_kinds(tmp_path):
    g = Grid.line(4, 2.0)
    assert np.array_equal(profile_values("constant:0.25", g), np.full(4, 0.25))

    bump = profile_values("gaussian-bump:2.0,0.5,0.2", g)
    assert bump.shape == (4,)
    assert bump.argmax() in (1, 2)  # centered at x = 0.5 * length

    step = profile_values("step:1.0,0.0,0.5", g)
    assert np.array_equal(step, np.array([1.0, 1.0, 0.0, 0.0]))

    p = tmp_path / "prof.csv"
    p.write_text("0.1,0.2,0.3,0.4")
    assert np.allclose(profile_values(f"csv:{p}", g), [0.1, 0.2, 0.3, 0.4])

    with pytest.raises(ConfigError):
        profile_values("constant", g)
    with pytest.raises(ConfigError):
        profile_values("nosuch:1", g)
    with pytest.raises(ConfigError):
        profile_values("gaussian-bump:1.0", g)
    with pytest.raises(ConfigError):
        profile_values(f"csv:{tmp_path / 'missing.csv'}", g)
    q = tmp_path / "short.csv"
    q.write_text("0.1,0.2")
    with pytest.raises(ConfigError, match="grid needs"):
        profile_values(f"csv:{q}", g)
    # a header line, a ragged table, a byte that is not UTF-8 and, where
    # warnings raise, an empty file are input numpy cannot parse; each is a
    # ConfigError naming the file
    unreadable = (b"x,y\n1,2\n", b"1,2\n3\n", b"\xff,1\n", b"")
    for k, data in enumerate(unreadable):
        bad = tmp_path / f"unreadable_{k}.csv"
        bad.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"profile file {bad} is not a table of numbers"):
                profile_values(f"csv:{bad}", g)


def test_profile_values_reject_non_finite(tmp_path):
    g = Grid.line(4, 1.0)
    p = tmp_path / "prof.csv"
    p.write_text("0.1,nan,0.3,0.4")
    for profile in ("constant:inf", "constant:nan", "gaussian-bump:inf,0.5,0.2", f"csv:{p}"):
        with pytest.raises(ConfigError, match="non-finite"):
            profile_values(profile, g)


def test_build_problem_holds_each_time_constant_input_once():
    # control, ceiling and targets are spatial: one cells-shaped buffer each,
    # seen read-only at every time node
    prob = build_problem(load_config(CONFIGS / "twod.cfg"))
    held = [
        prob.control,
        prob.box.ceiling,
        prob.weights.rho_target,
        prob.weights.mu_target,
    ]
    for traj in held:
        vals = traj.values
        assert vals.shape == (prob.tgrid.n_nodes,) + prob.grid.shape == (41, 12, 10)
        assert vals.strides[0] == 0 and not vals.flags.writeable
        assert vals[0].flags.c_contiguous  # so its buffer is exactly cells long
    for i, a in enumerate(held):
        for b in held[i + 1 :]:
            assert not np.shares_memory(a.values, b.values)


def test_profile_values_2d():
    g = Grid.box((3, 2), (1.0, 1.0))
    vals = profile_values("gaussian-bump:1.0,0.5,0.3", g)
    assert vals.shape == (3, 2)
    assert np.all(vals > 0)


def test_bad_kernel_in_build():
    with pytest.raises(ConfigError, match=r"\(A3\)"):
        build_problem(ProblemConfig(kernel="nosuch"))


def test_negative_ceiling_rejected():
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        build_problem(ProblemConfig(ceiling="constant:-1.0"))
