"""Acceptance gate: the eleven release criteria, one test each, four
convergence gates, and a first-order check of the obstacle limit.

Every criterion prints a single PASS/FAIL line with the measured numbers
so a plain `pytest -rA tests/test_acceptance.py` reads as a checklist.
The expensive continuation run and the quench sweep are shared
module-scoped fixtures; everything else is computed in place at the
stated sizes.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from quenchctrl.adjoint import solve_adjoint, tracking_gradient
from quenchctrl.cli import main
from quenchctrl.config import ProblemConfig, build_problem, load_config
from quenchctrl.costs import CostWeights, tracking_cost
from quenchctrl.grid import Trajectory, inner_product, inner_product_spacetime, norm_l2_spacetime
from quenchctrl.optimize import deep_quench_continuation
from quenchctrl.potentials import (
    log_potential_prime,
    obstacle_resolvent,
    quench_resolvent_detail,
)
from quenchctrl.state import (
    check_obstacle_signs,
    energy_residual,
    solve_state,
    state_diagnostics,
    state_violations,
)
from quenchctrl.verify import (
    bisection_quench_root,
    convolution_quadrature_oracle,
    taylor_remainder_slope,
)

from fields_csv import read_fields_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def solve_cfg(cfg: ProblemConfig, alpha: float):
    prob = build_problem(cfg)
    sol = solve_state(prob.control, alpha, prob.init, prob.model, prob.op)
    return prob, sol


# -- shared expensive artifacts ---------------------------------------------


@pytest.fixture(scope="module")
def default_problem():
    return build_problem(ProblemConfig())


@pytest.fixture(scope="module")
def sweep_solutions(default_problem):
    """Obstacle base plus quench solves at the five sweep levels, default config."""
    p = default_problem
    base = solve_state(p.control, 0.0, p.init, p.model, p.op)
    quench = {}
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        quench[alpha] = solve_state(p.control, alpha, p.init, p.model, p.op)
    return base, quench


@pytest.fixture(scope="module")
def default_run(default_problem):
    """Full continuation on the default tracking config (the costly fixture)."""
    return deep_quench_continuation(default_problem)


@pytest.fixture(scope="module")
def twod_run():
    """Full continuation on configs/twod.cfg, with the problem it ran on."""
    p = build_problem(load_config(CONFIGS / "twod.cfg"))
    return p, deep_quench_continuation(p)


# -- criteria ----------------------------------------------------------------


def test_criterion_01_fixed_point_exactness():
    cfg = load_config(CONFIGS / "trivial.cfg")
    worst = 0.0
    for alpha in (1.0, 1e-3, 0.0):
        _, sol = solve_cfg(cfg, alpha)
        dev = max(
            float(np.max(np.abs(sol.rho - 0.5))),
            float(np.max(np.abs(sol.mu))),
        )
        worst = max(worst, dev)
    report(1, worst <= 1e-14, f"max deviation {worst:.2e} <= 1e-14 at alpha in {{1, 1e-3, 0}}")


def test_criterion_02_bounds_everywhere(default_problem, sweep_solutions):
    base, quench = sweep_solutions
    tested = [("default obstacle", default_problem, base)] + [
        (f"default alpha={a:g}", default_problem, s) for a, s in quench.items()
    ]
    trivial = load_config(CONFIGS / "trivial.cfg")
    for alpha in (1.0, 1e-3, 0.0):
        tested.append((f"trivial alpha={alpha:g}", *solve_cfg(trivial, alpha)))
    smooth = load_config(CONFIGS / "smooth.cfg")
    tested.append(("smooth alpha=0.5", *solve_cfg(smooth, 0.5)))
    twod = load_config(CONFIGS / "twod.cfg")
    tested.append(("twod alpha=1e-3", *solve_cfg(twod, 1e-3)))
    varied = dataclasses.replace(
        load_config(CONFIGS / "default.cfg"),
        cells_x=16,
        steps=50,
        kernel="tophat",
        kernel_radius=0.3,
        rho0="step:0.3,0.7,0.5",
        g_family="saturating",
    )
    tested.append(("step/tophat alpha=1e-2", *solve_cfg(varied, 1e-2)))
    tested.append(("step/tophat obstacle", *solve_cfg(varied, 0.0)))

    failures = []
    for name, prob, sol in tested:
        d = state_diagnostics(sol)
        if d.min_mu < -1e-10:
            failures.append(f"{name}: min mu {d.min_mu:.2e}")
        if sol.alpha > 0.0:
            if not (d.min_rho > 0.0 and d.max_rho < 1.0):
                failures.append(f"{name}: rho not strictly interior")
        else:
            if not (d.min_rho >= 0.0 and d.max_rho <= 1.0):
                failures.append(f"{name}: rho leaves [0, 1]")
            failures.extend(f"{name}: {v}" for v in check_obstacle_signs(sol))
    report(
        2,
        not failures,
        failures[0] if failures else f"{len(tested)} configs: mu floor, rho bounds, sign table all clean",
    )


def test_criterion_03_energy_identity():
    residuals = {}
    for steps in (200, 400):
        cfg = ProblemConfig(steps=steps)
        prob, sol = solve_cfg(cfg, cfg.alpha)
        residuals[steps] = energy_residual(sol)
    res200 = residuals[200]
    ratio = residuals[200] / residuals[400]
    ok = res200 <= 0.05 and 1.6 <= ratio <= 2.6
    report(3, ok, f"residual(nt=200) {res200:.2e} <= 0.05, halving ratio {ratio:.3f} in [1.6, 2.6]")


def test_criterion_04_operator_adjoint_identity(default_problem):
    op = default_problem.op
    grid = op.grid
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(grid.shape)
        w = rng.standard_normal(grid.shape)
        lhs = inner_product(grid, op.apply_adjoint_values(v), w)
        rhs = inner_product(grid, v, op.apply_values(w))
        norms = np.sqrt(inner_product(grid, v, v) * inner_product(grid, w, w))
        gap = abs(lhs - rhs) / max(norms, 1e-300)
        worst = max(worst, gap)
    f = rng.standard_normal(grid.shape)
    quad_gap = float(
        np.max(
            np.abs(
                op.apply_values(f)
                - convolution_quadrature_oracle(op.kernel, grid, f).reshape(grid.shape)
            )
        )
    )
    ok = worst <= 1e-12 and quad_gap <= 1e-12
    report(4, ok, f"adjoint identity {worst:.2e} <= 1e-12 on 100 pairs, quadrature gap {quad_gap:.2e}")


def test_criterion_05_resolvent_correctness():
    rng = np.random.default_rng(1)
    residual_worst = 0.0
    bisect_worst = 0.0
    lip_q = 0.0
    lip_o = 0.0
    for _ in range(50):
        b = float(rng.uniform(-0.5, 1.5))
        s = float(10.0 ** rng.uniform(np.log10(0.05), 0.0))
        rho = quench_resolvent_detail(b, s)[0]
        residual_worst = max(residual_worst, abs(rho + s * log_potential_prime(rho) - b))
        bisect_worst = max(bisect_worst, abs(rho - bisection_quench_root(b, s)))
        b2 = float(rng.uniform(-0.5, 1.5))
        if b2 != b:
            lip_q = max(lip_q, abs(quench_resolvent_detail(b2, s)[0] - rho) / abs(b2 - b))
            r1, _ = obstacle_resolvent(b, 0.1)
            r2, _ = obstacle_resolvent(b2, 0.1)
            lip_o = max(lip_o, abs(r1 - r2) / abs(b2 - b))
    gap_worst = 0.0
    for _ in range(50):
        b = float(rng.uniform(-0.5, 1.5))
        rho_q = quench_resolvent_detail(b, 1e-6)[0]
        rho_o, _ = obstacle_resolvent(b, 1.0)
        gap_worst = max(gap_worst, abs(rho_q - rho_o))
    ok = (
        residual_worst <= 1e-12
        and bisect_worst <= 1e-10
        and gap_worst < 1e-3
        and lip_q <= 1.0 + 1e-12
        and lip_o <= 1.0 + 1e-12
    )
    report(
        5,
        ok,
        f"residual {residual_worst:.2e}, bisection gap {bisect_worst:.2e}, "
        f"obstacle gap {gap_worst:.2e} at scale 1e-6, Lipschitz {lip_q:.6f}/{lip_o:.6f}",
    )


def test_criterion_06_gradient_taylor(default_problem):
    p = default_problem
    alpha = p.config.alpha
    u = p.control
    rng = np.random.default_rng(2)
    v = Trajectory(u.tgrid, u.grid, rng.uniform(-1.0, 1.0, u.values.shape))

    def cost_at(w: Trajectory) -> float:
        sol = solve_state(w, alpha, p.init, p.model, p.op)
        return tracking_cost(sol, p.weights)

    sol_0 = solve_state(u, alpha, p.init, p.model, p.op)

    def gradient(weights: CostWeights) -> np.ndarray:
        """The reduced gradient at u: control_weight·u + mu_dual."""
        return tracking_gradient(sol_0, solve_adjoint(sol_0, weights), weights)

    j0 = tracking_cost(sol_0, p.weights)
    grad = gradient(p.weights)
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    _, slope = taylor_remainder_slope(cost_at, u, grad, v.values, eps, j0)

    # decoupled case: no tracking, gradient is w*u bit for bit and the
    # remainder is the exact quadratic term
    w0 = CostWeights(
        rho_weight=0.0,
        mu_weight=0.0,
        control_weight=2.0,
        rho_target=Trajectory.constant(u.tgrid, u.grid, 0.0),
        mu_target=Trajectory.constant(u.tgrid, u.grid, 0.0),
    )
    g0 = gradient(w0)
    exact_grad = np.array_equal(g0, 2.0 * u.values)
    e = 1e-2
    sol_e = solve_state(
        Trajectory(u.tgrid, u.grid, u.values + e * v.values), alpha, p.init, p.model, p.op
    )
    j_e = tracking_cost(sol_e, w0)
    j_0 = tracking_cost(sol_0, w0)
    remainder = abs(j_e - j_0 - e * inner_product_spacetime(u.tgrid, u.grid, g0, v.values))
    analytic = 0.5 * 2.0 * e * e * norm_l2_spacetime(u.tgrid, u.grid, v.values) ** 2
    decoupled_rel = abs(remainder - analytic) / analytic

    ok = 1.8 <= slope <= 2.2 and exact_grad and decoupled_rel <= 1e-10
    report(
        6,
        ok,
        f"Taylor slope {slope:.4f} in [1.8, 2.2] at nt=200/64 cells; decoupled gradient exact, "
        f"remainder matches analytic to rel {decoupled_rel:.2e}",
    )


def test_criterion_07_trivial_optimum():
    # the default problem with the tracking weights zeroed, from the
    # control 1 = half the ceiling
    p = build_problem(ProblemConfig(
        rho_weight=0.0, mu_weight=0.0, control_weight=1.0,
        rho_target="constant:0", mu_target="constant:0", tol=1e-9, max_iters=50,
    ))
    run = deep_quench_continuation(p)
    norms = [norm_l2_spacetime(p.tgrid, p.grid, rec.control.values) for rec in run.levels]
    iters = [rec.iterations for rec in run.levels]
    ok = all(n <= 1e-8 for n in norms) and all(i <= 50 for i in iters) and run.all_converged
    report(
        7,
        ok,
        f"pure control-energy run: max level norm {max(norms):.2e} <= 1e-8, "
        f"max iterations {max(iters)} <= 50 over {len(norms)} levels",
    )


def test_criterion_08_deep_quench_convergence(sweep_solutions, default_run):
    base, quench = sweep_solutions
    alphas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    tg, g = base.tgrid, base.grid
    dists = [norm_l2_spacetime(tg, g, quench[a].rho - base.rho) for a in alphas]
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    gaps = [rec.anchor_distance for rec in default_run.levels[1:]]
    gaps_decreasing = all(a >= b for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and dists[-1] < 1e-2 and gaps_decreasing
    report(
        8,
        ok,
        f"state distances {dists[0]:.2e} -> {dists[-1]:.2e} strictly decreasing, final < 1e-2; "
        f"control gaps {gaps[0]:.2e} -> {gaps[-1]:.2e} decreasing over {len(gaps)} anchored levels",
    )


def test_criterion_09_uniform_reaction_norm(default_problem, sweep_solutions):
    _, quench = sweep_solutions
    p = default_problem
    norms = [state_diagnostics(sol).xi_l6 for sol in quench.values()]
    spread = max(norms) / min(norms)
    report(9, spread < 10.0, f"xi L6 norms spread factor {spread:.3f} < 10 across the sweep")


def test_criterion_10_limit_optimality(default_problem, default_run):
    # the numbers limit_report.json reports, as the run computed them; a
    # number the run could not form (None) reads as NaN and fails its bound
    final = default_run.levels[-1]
    vi_min = final.vi_min
    proj_res, slope = (
        np.nan if x is None else x
        for x in (final.projection_residual, default_run.concentration_slope)
    )
    pairings = [rec.pairing for rec in default_run.levels]

    tol = default_problem.config.tol
    ok = (
        vi_min >= -1e-6
        and proj_res <= 10.0 * tol
        and all(pv >= 0.0 for pv in pairings)
        and 0.9 <= slope <= 1.1
    )
    report(
        10,
        ok,
        f"VI min {vi_min:.2e} >= -1e-6, projection residual {proj_res:.2e} "
        f"<= {10 * tol:.0e}, pairings all >= 0, concentration slope {slope:.4f} in [0.9, 1.1]",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cells_x = 32\nsteps = 60\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    sim_same = (a / "fields.csv").read_bytes() == (b / "fields.csv").read_bytes()

    opt_cfg = tmp_path / "opt.cfg"
    opt_cfg.write_text(
        "cells_x = 8\nsteps = 10\nschedule = 1e-1,1e-2\ntol = 1e-5\nmax_iters = 60\n"
    )
    c, d = tmp_path / "c", tmp_path / "d"
    assert main(["optimize", "--config", str(opt_cfg), "--out", str(c)]) == 0
    assert main(["optimize", "--config", str(opt_cfg), "--out", str(d)]) == 0
    opt_same = all(
        (c / name).read_bytes() == (d / name).read_bytes()
        for name in ("control_0.csv", "control_1.csv", "history.csv", "limit_report.json")
    )

    fields = read_fields_csv(a / "fields.csv")
    prob = build_problem(load_config(cfg))
    sol = solve_state(prob.control, prob.config.alpha, prob.init, prob.model, prob.op)
    round_trip = (
        np.array_equal(fields["rho"], sol.rho)
        and np.array_equal(fields["mu"], sol.mu)
        and np.array_equal(fields["xi"], sol.xi)
        and np.array_equal(fields["u"], prob.control.values)
    )
    ok = sim_same and opt_same and round_trip
    report(
        11,
        ok,
        f"simulate reruns byte-identical: {sim_same}; optimize reruns byte-identical: {opt_same}; "
        f"CSV round-trip lossless: {round_trip}",
    )


# -- convergence orders --------------------------------------------------------
# The criteria above check discrete exactness; these check that the discrete
# solutions converge at the order the scheme claims.  Bounds were fixed before
# the first run.


@pytest.mark.parametrize("alpha", [1e-3, 0.0])  # 1e-3 is both configs' alpha
def test_time_step_refinement_first_order(alpha):
    # halving tau halves the error of the semi-implicit march: successive
    # max differences at the nodes every refinement shares shrink by ~2
    for name, coarse in (("default", 50), ("twod", 10)):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        runs = []
        for k in range(5):
            _, sol = solve_cfg(dataclasses.replace(cfg, steps=coarse * 2**k), alpha)
            runs.append((sol.rho[:: 2**k], sol.mu[:: 2**k]))
        for k, field in enumerate(("rho", "mu")):
            diffs = [float(np.max(np.abs(a[k] - b[k]))) for a, b in zip(runs, runs[1:])]
            ratios = [a / b for a, b in zip(diffs, diffs[1:])]
            assert all(1.8 <= r <= 2.2 for r in ratios), (name, field, ratios)


def test_deep_quench_rate_first_order(sweep_solutions):
    # the quench solutions approach the obstacle solution at order 1 in alpha
    base, quench = sweep_solutions
    alphas = sorted(quench, reverse=True)
    tg, g = base.tgrid, base.grid
    dists = [norm_l2_spacetime(tg, g, quench[a].rho - base.rho) for a in alphas]
    slope = float(np.polyfit(np.log(alphas), np.log(dists), 1)[0])
    assert 0.9 <= slope <= 1.1, slope


def nested_distance(coarse: np.ndarray, fine: np.ndarray, reduce=np.max) -> float:
    """Max (or, with reduce=np.mean, mean) absolute difference between each
    coarse cell and the mean of the 2**dim fine cells it holds, over every
    time node; time along axis 0."""
    split = [n for cells in coarse.shape[1:] for n in (cells, 2)]
    means = fine.reshape(len(fine), *split).mean(axis=tuple(range(2, len(split) + 1, 2)))
    return float(reduce(np.abs(coarse - means)))


def test_space_refinement_second_order():
    # successive refinements compared through nested cell means; bounds were
    # fixed before the first run.  smooth and twod touch no obstacle, and
    # their max differences shrink by ~4.  default's contact front moves, so
    # its max-norm orders scatter; there the space-time mean absolute
    # differences shrink by ~4, at a quench level and at the obstacle alike
    default_sizes = [(32,), (64,), (128,), (256,), (512,)]
    for name, alpha, sizes, reduce, bound in (
        ("smooth", None, [(32,), (64,), (128,), (256,)], np.max, 1.9),
        ("twod", None, [(12, 10), (24, 20), (48, 40)], np.max, 1.9),
        ("default", 1e-3, default_sizes, np.mean, 1.8),
        ("default", 0.0, default_sizes, np.mean, 1.8),
    ):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        runs = []
        for size in sizes:
            cells = dict(zip(("cells_x", "cells_y"), size))
            level = cfg.alpha if alpha is None else alpha
            _, sol = solve_cfg(dataclasses.replace(cfg, **cells), level)
            runs.append((sol.rho, sol.mu))
        for k, field in enumerate(("rho", "mu")):
            diffs = [nested_distance(a[k], b[k], reduce) for a, b in zip(runs, runs[1:])]
            orders = [float(np.log2(a / b)) for a, b in zip(diffs, diffs[1:])]
            assert all(order >= bound for order in orders), (name, alpha, field, orders)


def test_continuation_iterations_mesh_independent():
    # the optimizer's effort is a property of the continuous problem: each
    # level takes as many PGD iterations at 32, 64 and 128 cells of smooth,
    # and at 12×10, 24×20 and 48×40 of twod, and the final control
    # converges at second order in space
    for name, sizes in (
        ("smooth", [(32,), (64,), (128,)]),
        ("twod", [(12, 10), (24, 20), (48, 40)]),
    ):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        counts, controls = [], []
        for size in sizes:
            cells = dict(zip(("cells_x", "cells_y"), size))
            run = deep_quench_continuation(build_problem(dataclasses.replace(cfg, **cells)))
            counts.append([rec.iterations for rec in run.levels])
            controls.append(run.levels[-1].control.values)
        assert counts[0] == counts[1] == counts[2], (name, counts)
        diffs = [nested_distance(a, b) for a, b in zip(controls, controls[1:])]
        assert np.log2(diffs[0] / diffs[1]) >= 1.9, (name, diffs)


# -- scale -------------------------------------------------------------------


def test_twod_large_config_bounds_and_energy():
    # the 128×128 config: forward march only, to keep the suite fast; the
    # energy bound is criterion 3's
    cfg = load_config(CONFIGS / "twod_large.cfg")
    assert (cfg.dim, cfg.cells_x, cfg.cells_y) == (2, 128, 128)
    prob, sol = solve_cfg(cfg, cfg.alpha)
    d = state_diagnostics(sol)
    assert 0.0 < d.min_rho and d.max_rho < 1.0, (d.min_rho, d.max_rho)
    assert d.mu_nonneg_ok is True
    assert d.energy_residual_max <= 0.05, d.energy_residual_max


# -- solver effort -------------------------------------------------------------


def test_anchored_levels_take_few_pgd_iterations(default_run):
    # the first trial step 1/(control_weight + 1) matches the anchored cost's
    # curvature, so each anchored level needs only a few forward and adjoint
    # solves; bounds were fixed before the first run
    iters = [rec.iterations for rec in default_run.levels]
    assert all(i <= 3 for i in iters[1:]), iters
    assert sum(iters) <= 20, iters


def test_level_states_pass_the_state_invariants(default_problem, default_run):
    # the run reports diagnostics for its obstacle re-solve only, so each
    # level's state is checked here: re-solved from the level's control at
    # its alpha, it must pass the checks simulate applies to the state it
    # writes (rho strictly inside (0, 1), mu nonnegative under u >= 0)
    p = default_problem
    for rec in default_run.levels:
        sol = solve_state(rec.control, rec.alpha, p.init, p.model, p.op)
        violations = state_violations(sol, state_diagnostics(sol))
        assert violations == [], (rec.alpha, violations)


# -- the obstacle limit itself -------------------------------------------------
# The obstacle control-to-state map has no adjoint, but its cost
# J0(u) = tracking_cost(solve_state(u, 0.0, ...)) can be probed directly: at
# a minimizer over the box, every one-sided difference quotient along an
# admissible direction d = v - u* is nonnegative.  Bounds were fixed before
# the first run.

OBSTACLE_EPSILONS = (1e-2, 1e-3)


def obstacle_quotients(p, u_star: Trajectory, seed: int) -> dict:
    """q(eps) = (J0(u* + eps·d) - J0(u*))/eps for d = v - u*, v a random box
    vertex, a random box point, the ceiling and zero."""

    def j0(u: Trajectory) -> float:
        return tracking_cost(solve_state(u, 0.0, p.init, p.model, p.op), p.weights)

    rng = np.random.default_rng(seed)
    ceiling = p.box.ceiling.values
    shape = u_star.values.shape
    targets = {
        "random vertex": np.where(rng.random(shape) < 0.5, ceiling, 0.0),
        "random box point": rng.random(shape) * ceiling,
        "ceiling": ceiling,
        "zero": np.zeros(shape),
    }
    base = j0(u_star)
    quotients = {}
    for name, v in targets.items():
        d = v - u_star.values
        for eps in OBSTACLE_EPSILONS:
            # (1 - eps)·u* + eps·v stays in the box
            u = Trajectory(u_star.tgrid, u_star.grid, u_star.values + eps * d)
            quotients[name, eps] = (j0(u) - base) / eps
    return quotients


def test_obstacle_limit_one_sided_quotients(default_problem, default_run, twod_run):
    # the final control of the continuation is a first-order stationary
    # point of the nonsmooth obstacle problem, in 1D and in 2D
    worst = {}
    for name, p, run in (("default", default_problem, default_run), ("twod", *twod_run)):
        q = obstacle_quotients(p, run.levels[-1].control, seed=4)
        worst[name] = min(q.items(), key=lambda kv: kv[1])
    assert all(value >= -1e-6 for _, value in worst.values()), worst
