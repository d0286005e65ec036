"""Broken outputs and failed commands count as failed samples."""

import json

import checks
import workloads
from quenchctrl.config import load_config
from run import Run

HEADER_2D = "t_index,cell_index,cell_index_y,mu,rho,xi,u\n"


def test_seed_zero_is_the_shipped_config():
    assert workloads.config_text("forward-default", 0) == workloads.DEFAULT_CFG.read_text()


def test_seeded_configs_parse_and_differ(tmp_path):
    texts = set()
    for seed in (0, 1, 2):
        cfg = tmp_path / f"s{seed}.cfg"
        cfg.write_text(workloads.config_text("opt-default", seed))
        parsed = load_config(cfg)
        assert parsed.steps == 10
        texts.add(cfg.read_text())
    assert len(texts) == 3
    assert workloads.config_text("opt-default", 2) == workloads.config_text("opt-default", 2)


def test_rho_out_of_bounds_fails(tmp_path):
    out = tmp_path / "quench"
    out.mkdir()
    (out / "fields.csv").write_text(HEADER_2D + "0,0,0,1.0,0.5,0.0,1.0\n1,0,0,1.0,1.25,0.0,1.0\n")
    assert checks.check_outputs("twod-large", tmp_path, seed=1)
    (out / "fields.csv").write_text(HEADER_2D + "0,0,0,1.0,0.5,0.0,1.0\n")
    assert checks.check_outputs("twod-large", tmp_path, seed=1) == []


def test_failed_verify_check_fails(tmp_path):
    report = {"all_passed": False, "checks": [
        {"name": "a", "passed": True, "value": 0.0, "bound": 1.0, "detail": ""},
        {"name": "b", "passed": False, "value": 2.0, "bound": 1.0, "detail": ""},
    ]}
    (tmp_path / "verify_report.json").write_text(json.dumps(report))
    assert checks.check_outputs("verify-suite", tmp_path, seed=0) == ["verify check failed: b"]


def test_missing_or_unconverged_optimize_output_fails(tmp_path):
    assert checks.check_outputs("opt-default", tmp_path, seed=1)
    level = {"stationarity": 1e-3, "cost_plain": 0.02}
    final = {"all_converged": False, "sign_violations": [], "stationarity_tol": 1e-7}
    (tmp_path / "limit_report.json").write_text(json.dumps({"levels": [level], "final": final}))
    (tmp_path / "control_0.csv").write_text("t_index,cell_index,u\n")
    (tmp_path / "history.csv").write_text("level,iteration,cost,stationarity\n")
    problems = checks.check_outputs("opt-default", tmp_path, seed=1)
    assert any("converged" in p for p in problems)
    assert any("stationarity" in p for p in problems)


def test_reference_mismatch_fails_for_seed_zero(tmp_path):
    ref = json.loads(checks.REFERENCE.read_text())["opt-default"]["final_cost_plain"]
    level = {"stationarity": 0.0, "cost_plain": ref * (1.0 + 1e-4)}
    final = {"all_converged": True, "sign_violations": [], "stationarity_tol": 1e-7}
    (tmp_path / "limit_report.json").write_text(json.dumps({"levels": [level], "final": final}))
    (tmp_path / "control_0.csv").write_text("")
    (tmp_path / "history.csv").write_text("")
    assert checks.check_outputs("opt-default", tmp_path, seed=1) == []
    assert any("reference" in p for p in checks.check_outputs("opt-default", tmp_path, seed=0))


def test_nonzero_exit_fails_the_sample(tmp_path):
    run = Run("verify-suite", 0, 0.0, work=tmp_path)
    run.dir.mkdir(parents=True)
    bad = tmp_path / "bad.cfg"
    bad.write_text("cells_x = -1\n")
    sample = run.sample(bad, 0, trace=False)
    assert sample["problems"] == ["command 0 exited 2"]


def test_changed_bytes_fail_determinism(tmp_path):
    run = Run("verify-suite", 0, 0.0, work=tmp_path)
    first = {"problems": [], "digests": {"a": "1"}}
    second = {"problems": [], "digests": {"a": "2"}}
    run.check_determinism([first, second])
    assert not first["problems"] and second["problems"]
    # a later run of the same tree is held to the stored digests
    third = {"problems": [], "digests": {"a": "2"}}
    run.check_determinism([third])
    assert third["problems"]


def test_field_reference_tolerance(tmp_path):
    path = tmp_path / "fields.csv"
    rows = [f"{n},{i},{1.0 + 0.01 * i},{0.5 + 0.001 * n},{-2.0 * i},1.0"
            for n in range(20) for i in range(16)]
    path.write_text("t_index,cell_index,mu,rho,xi,u\n" + "\n".join(rows) + "\n")
    ref = checks.field_summary(path)
    assert checks._compare_fields(path, ref, "f") == []
    ref["rows"][3][3] += 1e-12  # inside 1e-9
    assert checks._compare_fields(path, ref, "f") == []
    ref["rows"][3][3] += 1e-6
    assert checks._compare_fields(path, ref, "f")
