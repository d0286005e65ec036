from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from quenchctrl import verify
from quenchctrl.verify import (
    ENTRIES,
    CheckResult,
    VerificationReport,
    bisection_quench_root,
    dense_laplacian,
    rk4_scalar_relaxation,
    run_entry,
    run_suite,
    taylor_remainder_slope,
)
from quenchctrl.grid import Grid, TimeGrid, Trajectory, inner_product_spacetime, laplacian_values
from quenchctrl.potentials import log_potential_prime


def test_dense_laplacian_matches_matrix_free():
    rng = np.random.default_rng(0)
    for g in (Grid.line(9, 1.3), Grid.box((4, 5), (1.0, 2.0))):
        mat = dense_laplacian(g)
        f = rng.standard_normal(g.shape)
        dense = (mat @ f.reshape(-1)).reshape(g.shape)
        free = laplacian_values(g, f)
        assert np.allclose(dense, free, atol=1e-13)


def test_dense_laplacian_row_sums_vanish():
    for g in (Grid.line(7, 1.0), Grid.box((3, 4), (1.0, 1.0))):
        mat = dense_laplacian(g)
        assert np.max(np.abs(mat.sum(axis=1))) < 1e-13
        assert np.allclose(mat, mat.T)


def test_bisection_root_is_a_root():
    for b, s in ((0.3, 0.2), (1.2, 0.5), (-0.4, 1.0), (0.5, 0.05)):
        rho = bisection_quench_root(b, s)
        assert abs(rho + s * log_potential_prime(rho) - b) < 1e-9


def test_bisection_of_an_array_matches_each_offset_alone():
    # the suite bisects the 41 offsets of one s at once; each must get the
    # root that bisecting it alone gives, bit for bit
    bs = np.linspace(-0.5, 1.5, 41)
    for s in np.geomspace(0.05, 1.0, 13):
        together = bisection_quench_root(bs, float(s))
        alone = [bisection_quench_root(float(b), float(s)) for b in bs]
        assert all(type(r) is float for r in alone)
        assert together.tolist() == alone


def test_rk4_reference_at_500_steps_matches_20000():
    # the suite's single-cell reference takes 500 steps; 1.2e-15 was measured
    coarse = rk4_scalar_relaxation(0.8, 0.5, 0.25, 0.5, 500)
    fine = rk4_scalar_relaxation(0.8, 0.5, 0.25, 0.5, 20000)
    assert abs(coarse - fine) <= 1e-13


def test_rk4_is_self_consistent_under_refinement():
    coarse = rk4_scalar_relaxation(0.3, 0.5, 0.25, 0.5, 2000)
    fine = rk4_scalar_relaxation(0.3, 0.5, 0.25, 0.5, 16000)
    assert abs(coarse - fine) < 1e-10
    assert 0.0 < fine < 1.0


def test_taylor_slope_on_explicit_quadratic():
    # J(u) = 1/2 <u, u>: remainder of the first-order model is exactly
    # eps^2/2 ||v||^2, slope 2 in log-log
    g = Grid.line(5, 1.0)
    tg = TimeGrid(1.0, 4)
    rng = np.random.default_rng(1)
    u = Trajectory(tg, g, rng.standard_normal((5, 5)))
    v = Trajectory(tg, g, rng.standard_normal((5, 5)))

    def cost(w):
        return 0.5 * inner_product_spacetime(w, w)

    errs, slope = taylor_remainder_slope(cost, u, u, v, [1e-1, 1e-2, 1e-3])
    assert abs(slope - 2.0) < 1e-6
    assert np.all(np.diff(errs) < 0)


def test_check_result_bookkeeping():
    c = CheckResult("thing", True, 1.0, 2.0, "note")
    rep = VerificationReport(checks=[c, CheckResult("other", False, 3.0, 2.0)])
    d = rep.as_dict()["checks"][0]
    assert d == {"name": "thing", "passed": True, "value": 1.0, "bound": 2.0, "detail": "note"}
    assert not rep.all_passed
    table = rep.format_table()
    assert "PASS" in table and "FAIL" in table
    assert "thing" in table and "other" in table


# the report's check names, in table order
CHECK_NAMES = [
    "laplacian_frozen_stencil", "laplacian_conservation", "laplacian_self_adjoint",
    "laplacian_dense_match", "nonlocal_matches_quadrature", "nonlocal_adjoint_identity",
    "nonlocal_tophat_constant", "nonlocal_lipschitz_consistent", "nonlocal_norm_bound",
    "quench_resolvent_residual", "quench_resolvent_vs_bisection", "quench_resolvent_monotone",
    "obstacle_resolvent_cases", "quench_obstacle_gap", "potential_reference_values",
    "mu_step_dense_solve", "mu_coefficient_formula", "state_trivial_stationary",
    "state_bounds", "obstacle_sign_structure", "state_energy_identity",
    "state_single_cell_reference", "state_scheme_first_order", "adjoint_terminal_zero",
    "adjoint_zero_tracking_zero", "gradient_taylor_slope", "gradient_central_difference",
    "adjoint_pairing_nonnegative", "concentration_identity", "projection_box_idempotent",
]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_passes(name, seed):
    failing = [c.name for c in run_entry(name, seed) if not c.passed]
    assert failing == []


def test_run_suite_is_the_table_in_order_and_deterministic():
    rep = run_suite(seed=2)
    assert [c.name for c in rep.checks] == CHECK_NAMES
    assert rep.as_dict() == run_suite(seed=2).as_dict()
    # elapsed time stays out of the comparable payload
    assert "elapsed" not in str(sorted(rep.as_dict()))
    # each entry, run alone and out of order, gives its slice of the suite
    alone = {name: run_entry(name, seed=2) for name in reversed(ENTRIES)}
    assert [asdict(c) for name in ENTRIES for c in alone[name]] == rep.as_dict()["checks"]


def test_run_suite_solve_count(monkeypatch):
    # 12 forward and 2 adjoint solves, plus the two of the central difference
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("solve_state", "solve_adjoint"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    run_suite(seed=0)
    assert counts == {"solve_state": 14, "solve_adjoint": 2}
