"""Self-contained correctness suite with independent reference oracles.

Every oracle here recomputes its target quantity through a different
route than the production code: dense matrix assembly instead of the
matrix-free stencil, double-loop quadrature instead of the cached
weight table, bisection in the order parameter instead of the logit
Newton iteration, classical RK4 instead of the semi-implicit march, and
finite differences instead of the backward solve.  `run_suite` bundles
the checks into one deterministic report; rerunning with the same seed
reproduces every number exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .adjoint import concentration_metric, solve_adjoint, time_ramp_probe
from .costs import AdmissibleSet, CostWeights, project_admissible, tracking_cost
from .grid import (
    Field,
    Grid,
    TimeGrid,
    Trajectory,
    inner_product,
    inner_product_spacetime,
    laplacian_values,
)
from .nonlocal_op import Kernel, NonlocalOperator, check_a3
from .potentials import (
    PotentialConfig,
    log_potential,
    log_potential_prime,
    log_potential_second,
    obstacle_resolvent,
    quench_resolvent_detail,
    quench_scale,
)
from .state import (
    COEFFICIENT_FLOOR,
    InitialData,
    check_obstacle_signs,
    mu_zeroth_coefficient,
    solve_state,
    step_mu,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "run_suite",
    "kernel_value_reference",
    "convolution_quadrature_oracle",
    "bisection_quench_root",
    "dense_laplacian",
    "dense_mu_step",
    "rk4_scalar_relaxation",
    "taylor_remainder_slope",
]


# ---------------------------------------------------------------------------
# oracles


def kernel_value_reference(kernel: Kernel, r: float) -> float:
    """Kernel value recomputed from the closed forms, scalar math only."""
    if kernel.variant == "gaussian":
        return kernel.amplitude * math.exp(-(r * r) / (2.0 * kernel.width**2))
    if kernel.variant == "newtonian":
        return kernel.amplitude / max(r, kernel.core_radius)
    if kernel.variant == "tophat":
        return kernel.amplitude if r <= kernel.radius else 0.0
    return 0.0


def convolution_quadrature_oracle(
    kernel: Kernel, grid: Grid, values: np.ndarray, points: np.ndarray | None = None
) -> np.ndarray:
    """Midpoint-rule convolution by explicit double loop.

    `points` defaults to the cell centers of `grid`; passing the centers
    of a coarser grid gives a refinement reference on those targets.
    Each pair's distance is `math.dist` of the two centres, on Python
    floats.
    """
    sources = grid.center_points().tolist()
    flat = values.reshape(-1).tolist()
    targets = sources if points is None else np.asarray(points, dtype=float).tolist()
    out = np.zeros(len(targets))
    for i, x in enumerate(targets):
        acc = 0.0
        for y, f in zip(sources, flat):
            acc += kernel_value_reference(kernel, math.dist(x, y)) * f
        out[i] = acc * grid.cell_volume
    return out


def bisection_quench_root(b, s: float, iters: int = 60):
    """Root of rho + s·ln(rho/(1-rho)) = b by plain bisection.

    b may be one offset, which gives a float, or an array of offsets,
    bisected all at once.  The residual is monotone increasing in rho
    and blows up to -inf/+inf at the endpoints, so the wide bracket
    below always encloses the root for inputs whose root is
    representable; an offset whose root lies outside it gets the
    nearer end.
    """
    target = np.asarray(b, dtype=float)

    def residual(rho: np.ndarray) -> np.ndarray:
        return rho + s * (np.log(rho) - np.log1p(-rho)) - target

    lo = np.full(target.shape, 1e-12)
    hi = np.full(target.shape, 1.0 - 1e-12)
    below = residual(lo) > 0.0
    above = residual(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        left = residual(mid) <= 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    root = np.where(below, 1e-12, np.where(above, 1.0 - 1e-12, 0.5 * (lo + hi)))
    return float(root) if root.ndim == 0 else root


def dense_laplacian(grid: Grid) -> np.ndarray:
    """Dense Neumann Laplacian matrix, assembled row by row.

    Supports one and two dimensions via Kronecker products in the same
    C order that flattening a field uses.
    """

    def line_matrix(n: int, h: float) -> np.ndarray:
        m = np.zeros((n, n))
        for i in range(n):
            if i > 0:
                m[i, i - 1] = 1.0 / h**2
                m[i, i] -= 1.0 / h**2
            if i < n - 1:
                m[i, i + 1] = 1.0 / h**2
                m[i, i] -= 1.0 / h**2
        return m

    mats = [line_matrix(n, h) for n, h in zip(grid.cells, grid.spacing)]
    if grid.dim == 1:
        return mats[0]
    if grid.dim == 2:
        ix = np.eye(grid.cells[0])
        iy = np.eye(grid.cells[1])
        return np.kron(mats[0], iy) + np.kron(ix, mats[1])
    raise ValueError("dense assembly supports one or two dimensions")


def dense_mu_step(
    mu_n: np.ndarray,
    rho_n: np.ndarray,
    rho_np1: np.ndarray,
    u_np1: np.ndarray,
    tau: float,
    model: PotentialConfig,
    grid: Grid,
) -> np.ndarray:
    """Chemical-potential step by dense assembly and direct solve.

    Same discrete equation as the production step, different route: the
    full matrix is built and handed to a direct solver.
    """
    g_new = model.g(rho_np1)
    coeff = (1.0 + 2.0 * g_new + model.g_prime(rho_np1) * (rho_np1 - rho_n)) / tau
    coeff = np.maximum(coeff, COEFFICIENT_FLOOR)
    a = np.diag(coeff.reshape(-1)) - dense_laplacian(grid)
    rhs = (1.0 + 2.0 * g_new) * mu_n / tau + u_np1
    return np.linalg.solve(a, rhs.reshape(-1)).reshape(grid.shape)


def rk4_scalar_relaxation(
    rho0: float, alpha: float, f_strength: float, horizon: float, n_steps: int
) -> float:
    """Reference solution of the single-cell relaxation ODE

        rho' = -alpha·ln(rho/(1-rho)) + 2·c·(2·rho - 1)

    by classical RK4 with a fine fixed step.
    """

    def f(r: float) -> float:
        return -alpha * (math.log(r) - math.log1p(-r)) + 2.0 * f_strength * (2.0 * r - 1.0)

    dt = horizon / n_steps
    r = rho0
    for _ in range(n_steps):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return r


def taylor_remainder_slope(
    cost_fn, u: Trajectory, grad: Trajectory, v: Trajectory, epsilons, j0: float | None = None
) -> tuple[np.ndarray, float]:
    """Remainders |J(u+εv) - J(u) - ε⟨g, v⟩| and their log-log slope.

    A slope near two certifies that `grad` is the gradient of `cost_fn`
    at `u`; a slope near one flags a first-order mismatch.  `j0` is
    J(u) when the caller already holds it; else cost_fn(u) is called.
    """
    if j0 is None:
        j0 = cost_fn(u)
    pair = inner_product_spacetime(grad, v)
    errs = np.array(
        [
            abs(cost_fn(Trajectory(u.tgrid, u.grid, u.values + e * v.values)) - j0 - e * pair)
            for e in epsilons
        ]
    )
    logs_e = np.log(np.asarray(epsilons, dtype=float))
    logs_r = np.log(np.maximum(errs, 1e-300))
    slope = float(np.polyfit(logs_e, logs_r, 1)[0])
    return errs, slope


# ---------------------------------------------------------------------------
# suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        # runtime deliberately omitted so reruns compare byte for byte
        return {
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def format_table(self) -> str:
        width = max(len(c.name) for c in self.checks) if self.checks else 4
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = f"{tag}  {c.name:<{width}}  value={c.value:.3e}  bound={c.bound:.3e}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        n_ok = sum(c.passed for c in self.checks)
        lines.append(f"{n_ok}/{len(self.checks)} checks passed in {self.elapsed_seconds:.2f} s")
        return "\n".join(lines)


def _bounded(name: str, value: float, bound: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(value <= bound), float(value), float(bound), detail)


def run_suite(seed: int = 0) -> VerificationReport:
    """Run every named check once and collect the report.

    Deterministic for a fixed seed; the elapsed time is the only
    nonreproducible entry and stays out of `as_dict`.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    # -- Laplacian -------------------------------------------------------
    g5 = Grid.line(5, 5.0)
    ramp = np.arange(5.0)
    expected = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    checks.append(
        _bounded(
            "laplacian_frozen_stencil",
            float(np.max(np.abs(laplacian_values(g5, ramp) - expected))),
            0.0,
            "unit-spacing ramp",
        )
    )

    g1 = Grid.line(33, 2.0)
    g2 = Grid.box((7, 5), (1.0, 1.4))
    worst_cons = 0.0
    worst_sym = 0.0
    worst_dense = 0.0
    for g in (g1, g2):
        f1 = rng.standard_normal(g.shape)
        f2 = rng.standard_normal(g.shape)
        lf1 = laplacian_values(g, f1)
        lf2 = laplacian_values(g, f2)
        worst_cons = max(worst_cons, abs(float(np.sum(lf1)) * g.cell_volume))
        worst_sym = max(
            worst_sym,
            abs(inner_product(g, lf1, f2) - inner_product(g, f1, lf2)),
        )
        dense = dense_laplacian(g) @ f1.reshape(-1)
        worst_dense = max(worst_dense, float(np.max(np.abs(lf1.reshape(-1) - dense))))
    checks.append(_bounded("laplacian_conservation", worst_cons, 1e-12, "1d and 2d"))
    checks.append(_bounded("laplacian_self_adjoint", worst_sym, 1e-11, "1d and 2d"))
    checks.append(_bounded("laplacian_dense_match", worst_dense, 1e-10, "vs dense assembly"))

    # -- nonlocal operator -----------------------------------------------
    ker = Kernel.gaussian(0.8, 0.2)
    opq = NonlocalOperator(ker, Grid.line(24, 1.0))
    worst_quad = 0.0
    worst_adj = 0.0
    for op in (opq, NonlocalOperator(ker, Grid.box((7, 5), (1.0, 1.4)))):
        g = op.grid
        fq = rng.standard_normal(g.shape)
        hq = rng.standard_normal(g.shape)
        ref = convolution_quadrature_oracle(ker, g, fq)
        worst_quad = max(
            worst_quad, float(np.max(np.abs(op.apply_values(fq).reshape(-1) - ref)))
        )
        worst_adj = max(
            worst_adj,
            abs(
                inner_product(g, op.apply_values(fq), hq)
                - inner_product(g, fq, op.apply_adjoint_values(hq))
            ),
        )
    checks.append(
        _bounded("nonlocal_matches_quadrature", worst_quad, 1e-12, "double-loop reference, 1d and 2d")
    )
    checks.append(_bounded("nonlocal_adjoint_identity", worst_adj, 1e-12, "1d and 2d"))

    gt = Grid.line(8, 1.0)
    opt_flat = NonlocalOperator(Kernel.tophat(2.0, 10.0), gt)
    ft = rng.standard_normal(gt.shape)
    flat_expected = 2.0 * float(np.sum(ft)) * gt.cell_volume
    checks.append(
        _bounded(
            "nonlocal_tophat_constant",
            float(np.max(np.abs(opt_flat.apply_values(ft) - flat_expected))),
            1e-13,
            "wide top hat averages",
        )
    )

    rep = check_a3(opq, TimeGrid(1.0, 8), np.random.default_rng(seed + 1), n_pairs=10)
    checks.append(
        CheckResult(
            "nonlocal_lipschitz_consistent",
            rep.consistent,
            rep.lipschitz_sampled,
            rep.induced_norm,
            f"row-sum cap {rep.row_sum_bound:.3e}",
        )
    )
    checks.append(
        _bounded(
            "nonlocal_norm_bound",
            rep.induced_norm,
            rep.row_sum_bound * (1.0 + 1e-12),
            "2-norm under row-sum cap",
        )
    )

    # -- resolvents --------------------------------------------------------
    bs = np.linspace(-0.5, 1.5, 41)
    ss = np.geomspace(0.05, 1.0, 13)
    worst_res = 0.0
    worst_bis = 0.0
    for s in ss:
        roots = quench_resolvent_detail(bs, float(s))[0]
        for b, r in zip(bs, roots):
            worst_res = max(
                worst_res, abs(float(r) + s * (math.log(r) - math.log1p(-r)) - float(b))
            )
        bisected = bisection_quench_root(bs, float(s))
        worst_bis = max(worst_bis, float(np.max(np.abs(roots - bisected))))
    checks.append(_bounded("quench_resolvent_residual", worst_res, 1e-12, "41x13 input grid"))
    checks.append(_bounded("quench_resolvent_vs_bisection", worst_bis, 1e-12, "60-step bisection"))

    mono = quench_resolvent_detail(np.linspace(-2.0, 3.0, 201), 0.3)[0]
    checks.append(
        _bounded(
            "quench_resolvent_monotone",
            float(max(0.0, -np.min(np.diff(mono)))),
            1e-12,
            "nondecreasing in the offset",
        )
    )

    cases = [(1.3, 1.0, 3.0), (0.4, 0.4, 0.0), (-0.2, 0.0, -2.0)]
    worst_obs = 0.0
    for b, r_exp, xi_exp in cases:
        r, xi = obstacle_resolvent(np.array([b]), 0.1)
        worst_obs = max(worst_obs, abs(float(r[0]) - r_exp), abs(float(xi[0]) - xi_exp))
    checks.append(_bounded("obstacle_resolvent_cases", worst_obs, 1e-12, "clip and rescale"))

    tau_gap = 0.1
    b_gap = np.linspace(0.05, 0.95, 19)
    gaps = []
    for alpha in (1e-2, 1e-4, 1e-6):
        s = tau_gap * quench_scale(alpha)
        gaps.append(float(np.max(np.abs(quench_resolvent_detail(b_gap, s)[0] - np.clip(b_gap, 0.0, 1.0)))))
    decreasing = gaps[0] > gaps[1] > gaps[2]
    checks.append(
        CheckResult(
            "quench_obstacle_gap",
            decreasing and gaps[2] <= 1e-5,
            gaps[2],
            1e-5,
            f"gap ladder {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}",
        )
    )

    vals = [
        abs(log_potential(0.5) - math.log(0.5)),
        abs(log_potential_prime(0.5)),
        abs(log_potential_second(0.5) - 4.0),
        abs(quench_scale(0.3) - 0.3),
        abs(quench_scale(0.09, 0.5) - 0.3),
    ]
    checks.append(_bounded("potential_reference_values", max(vals), 1e-15))

    # -- state solver ------------------------------------------------------
    model = PotentialConfig()
    tau = 0.05
    worst_step = 0.0
    # the 2D box (iterative solve) draws from a generator of its own, so
    # that every later draw from rng keeps its value
    for g, gen in ((g2, np.random.default_rng(seed + 2)), (Grid.line(20, 1.0), rng)):
        rho_a = gen.uniform(0.2, 0.8, g.shape)
        rho_b = rho_a + gen.uniform(-0.05, 0.05, g.shape)
        mu_a = gen.uniform(0.0, 2.0, g.shape)
        u_a = gen.uniform(0.0, 1.0, g.shape)
        stepped = step_mu(
            Field(g, mu_a), Field(g, rho_a), Field(g, rho_b), Field(g, u_a), tau, model
        )
        direct = dense_mu_step(mu_a, rho_a, rho_b, u_a, tau, model, g)
        rel = float(np.linalg.norm(stepped.values - direct) / np.linalg.norm(direct))
        worst_step = max(worst_step, rel)
    checks.append(
        _bounded("mu_step_dense_solve", worst_step, 1e-9, "1d and 2d step solves vs dense assembly")
    )

    coeff_ref = (1.0 + 2.0 * model.g(rho_b) + model.g_prime(rho_b) * (rho_b - rho_a)) / tau
    coeff_pkg, _, _ = mu_zeroth_coefficient(rho_b, rho_a, tau, model)
    checks.append(
        _bounded(
            "mu_coefficient_formula",
            float(np.max(np.abs(coeff_pkg - np.maximum(coeff_ref, COEFFICIENT_FLOOR)))),
            0.0,
            "clamped zeroth-order term",
        )
    )

    zero_model = PotentialConfig(g_family="zero")
    g_triv = Grid.line(12, 1.0)
    t_triv = TimeGrid(0.4, 16)
    triv_init = InitialData(g_triv, np.full(g_triv.shape, 0.5), np.zeros(g_triv.shape))
    triv_op = NonlocalOperator(Kernel.zero(), g_triv)
    triv = solve_state(Trajectory.zeros(t_triv, g_triv), 0.5, triv_init, zero_model, triv_op)
    triv_dev = max(
        float(np.max(np.abs(triv.rho.values - 0.5))),
        float(np.max(np.abs(triv.mu.values))),
        float(np.max(np.abs(triv.xi.values))),
    )
    checks.append(_bounded("state_trivial_stationary", triv_dev, 0.0, "balanced rest state"))

    g32 = Grid.line(32, 1.0)
    t50 = TimeGrid(1.0, 50)
    op32 = NonlocalOperator(Kernel.gaussian(1.0, 0.1), g32)
    init32 = InitialData(g32, np.full(g32.shape, 0.5), np.ones(g32.shape))
    u_one = Trajectory.constant(t50, g32, 1.0)
    quenched = solve_state(u_one, 1e-3, init32, model, op32)
    obstacle = solve_state(u_one, 0.0, init32, model, op32)
    worst_bounds = 0.0
    for sol in (quenched, obstacle):
        d = sol.diagnostics
        worst_bounds = max(
            worst_bounds, -d.min_rho, d.max_rho - 1.0, -(d.min_mu) - 1e-10
        )
    checks.append(
        _bounded("state_bounds", worst_bounds, 0.0, "rho in [0,1], mu above -1e-10")
    )
    sign_violations = len(check_obstacle_signs(obstacle))
    checks.append(
        CheckResult(
            "obstacle_sign_structure",
            sign_violations == 0,
            float(sign_violations),
            0.0,
            "pinned cells carry one-sided reaction",
        )
    )

    checks.append(
        _bounded(
            "state_energy_identity",
            max(quenched.diagnostics.energy_residual_max, obstacle.diagnostics.energy_residual_max),
            0.05,
            "balance defect, first order in the step",
        )
    )

    # 500 steps reproduce the 20 000-step value to 1.2e-15, far inside the bound
    ref_rk4 = rk4_scalar_relaxation(0.8, 0.5, model.f_strength, 0.5, 500)
    cell = Grid.line(1, 1.0)
    cell_op = NonlocalOperator(Kernel.zero(), cell)
    cell_init = InitialData(cell, np.full(cell.shape, 0.8), np.zeros(cell.shape))
    errs_cell = []
    for nt in (100, 200, 400):
        tg = TimeGrid(0.5, nt)
        got = solve_state(Trajectory.zeros(tg, cell), 0.5, cell_init, zero_model, cell_op)
        errs_cell.append(abs(float(got.rho.values[-1, 0]) - ref_rk4))
    checks.append(
        _bounded("state_single_cell_reference", errs_cell[-1], 5e-4, "rk4 comparison, 400 steps")
    )
    ratio = errs_cell[0] / errs_cell[1]
    checks.append(
        CheckResult(
            "state_scheme_first_order",
            1.5 <= ratio <= 2.6,
            ratio,
            2.6,
            f"halving errors {errs_cell[0]:.2e} / {errs_cell[1]:.2e} / {errs_cell[2]:.2e}",
        )
    )

    # -- adjoint and gradient ----------------------------------------------
    gs = Grid.line(16, 1.0)
    ts = TimeGrid(0.5, 30)
    ops = NonlocalOperator(Kernel.gaussian(0.5, 0.25), gs)
    x = gs.centers()[0]
    init_s = InitialData(gs, 0.5 + 0.2 * np.cos(2.0 * np.pi * x), 1.0 + 0.5 * np.cos(np.pi * x))
    weights_s = CostWeights(
        rho_weight=1.0,
        mu_weight=0.1,
        control_weight=0.5,
        rho_target=Trajectory.constant(ts, gs, 0.3),
        mu_target=Trajectory.zeros(ts, gs),
    )
    alpha_s = 0.5
    u_s = Trajectory(
        ts, gs, 0.5 + 0.25 * np.sin(2.0 * np.pi * x)[None, :] * (ts.times() / ts.horizon)[:, None]
    )
    state_s = solve_state(u_s, alpha_s, init_s, model, ops)
    adj_s = solve_adjoint(state_s, weights_s, model, ops)

    term = max(
        float(np.max(np.abs(adj_s.mu_dual.values[-1]))),
        float(np.max(np.abs(adj_s.rho_dual.values[-1]))),
        float(np.max(np.abs(adj_s.multiplier.values[-1]))),
        float(np.max(np.abs(adj_s.mu_dual.values[0]))),
        float(np.max(np.abs(adj_s.rho_dual.values[0]))),
        float(np.max(np.abs(adj_s.multiplier.values[0]))),
    )
    checks.append(_bounded("adjoint_terminal_zero", term, 0.0, "both ends of the march"))

    only_u = CostWeights(
        rho_weight=0.0,
        mu_weight=0.0,
        control_weight=1.0,
        rho_target=Trajectory.zeros(ts, gs),
        mu_target=Trajectory.zeros(ts, gs),
    )
    adj_zero = solve_adjoint(state_s, only_u, model, ops)
    zero_dev = max(
        float(np.max(np.abs(adj_zero.mu_dual.values))),
        float(np.max(np.abs(adj_zero.rho_dual.values))),
        float(np.max(np.abs(adj_zero.multiplier.values))),
    )
    checks.append(_bounded("adjoint_zero_tracking_zero", zero_dev, 0.0, "no tracking, no dual"))

    # the reduced gradient at u_s, from the adjoint already solved there
    grad_s = Trajectory(ts, gs, weights_s.control_weight * u_s.values + adj_s.mu_dual.values)

    def cost_fn(u):
        return tracking_cost(solve_state(u, alpha_s, init_s, model, ops), u, weights_s)

    v_dir = Trajectory(
        ts,
        gs,
        np.cos(np.pi * x)[None, :] * (0.5 + 0.5 * np.sin(np.pi * ts.times() / ts.horizon))[:, None],
    )
    errs_t, slope = taylor_remainder_slope(
        cost_fn,
        u_s,
        grad_s,
        v_dir,
        [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3],
        j0=tracking_cost(state_s, u_s, weights_s),
    )
    checks.append(
        CheckResult(
            "gradient_taylor_slope",
            1.8 <= slope <= 2.2,
            slope,
            2.2,
            "second-order remainder decay",
        )
    )

    checks.append(
        _bounded(
            "adjoint_pairing_nonnegative",
            -adj_s.pairing_value,
            0.0,
            "weighted dual pairing",
        )
    )

    probe = time_ramp_probe(ts, gs)
    metric = concentration_metric(adj_s, state_s, probe)
    denom = max(abs(metric.value), abs(metric.cross_check), 1e-300)
    checks.append(
        _bounded(
            "concentration_identity",
            abs(metric.value - metric.cross_check) / denom,
            1e-12,
            "two routes to the same pairing",
        )
    )

    # -- projection ----------------------------------------------------------
    box = AdmissibleSet(Trajectory.constant(ts, gs, 2.0))
    raw = Trajectory(ts, gs, rng.uniform(-1.0, 3.0, (ts.n_nodes,) + gs.shape))
    proj = project_admissible(raw, box)
    again = project_admissible(proj, box)
    proj_dev = max(
        float(np.max(-proj.values, initial=0.0)),
        float(np.max(proj.values - 2.0, initial=0.0)),
        float(np.max(np.abs(again.values - proj.values))),
    )
    checks.append(_bounded("projection_box_idempotent", proj_dev, 0.0, "clip onto the box"))

    return VerificationReport(checks=checks, elapsed_seconds=time.perf_counter() - t0)
