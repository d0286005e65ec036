"""Self-contained correctness suite with independent reference oracles.

Every oracle here recomputes its target quantity through a different
route than the production code: dense matrix assembly instead of the
matrix-free stencil, double-loop quadrature instead of the cached
weight table, bisection in the order parameter instead of the logit
Newton iteration, classical RK4 instead of the semi-implicit march, and
finite differences instead of the backward solve.

The suite is the table `ENTRIES`: each entry is a named function of one
`Draws` that returns the checks sharing one computation, so that no
solve runs twice.  `run_entry` seeds an entry's draws from the seed and
the entry's name alone, as the string "seed/name", so that adding,
removing or reordering an entry redraws no other entry's data.
`run_suite` runs the table in order into one deterministic report;
rerunning with the same seed reproduces every number exactly.

The draws come from the standard library's `random.Random` (Mersenne
Twister), which numpy has already loaded.  `numpy.random` is not
imported: it would add about 5 MB and 14 ms to every `verify` process.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .adjoint import concentration_metric, solve_adjoint, tracking_gradient
from .costs import AdmissibleSet, CostWeights, project_admissible, tracking_cost
from .grid import (
    Grid,
    TimeGrid,
    Trajectory,
    inner_product,
    inner_product_spacetime,
    laplacian_values,
    norm_l2_spacetime,
)
from .nonlocal_op import Kernel, NonlocalOperator
from .potentials import (
    PotentialConfig,
    log_potential_prime,
    log_potential_second,
    obstacle_resolvent,
    quench_resolvent_detail,
    quench_scale,
)
from .state import (
    COEFFICIENT_FLOOR,
    InitialData,
    _mu_update,
    check_obstacle_signs,
    mu_zeroth_coefficient,
    solve_state,
    state_diagnostics,
)

__all__ = [
    "CheckResult",
    "Draws",
    "VerificationReport",
    "ENTRIES",
    "run_entry",
    "run_suite",
    "kernel_value_reference",
    "convolution_quadrature_oracle",
    "bisection_quench_root",
    "dense_laplacian",
    "dense_nonlocal",
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


# halvings of the bisection oracle's bracket [1e-12, 1 - 1e-12]
BISECTION_HALVINGS = 60


def bisection_quench_root(b, s: float):
    """Root of rho + s·ln(rho/(1-rho)) = b by plain bisection.

    b may be one offset or an array of offsets, bisected all at once;
    the root has b's shape.  The residual is monotone increasing in rho
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
    for _ in range(BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        left = residual(mid) <= 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return np.where(below, 1e-12, np.where(above, 1.0 - 1e-12, 0.5 * (lo + hi)))


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


def dense_nonlocal(op: NonlocalOperator) -> np.ndarray:
    """The operator's dense n_cells × n_cells table, assembled column by
    column by applying it to unit vectors, in the C order that flattening
    a field uses."""
    grid = op.grid
    eye = np.eye(grid.n_cells)
    cols = [op.apply_values(e.reshape(grid.shape)).reshape(-1) for e in eye]
    return np.stack(cols, axis=1)


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
    cost_fn, u: Trajectory, grad: np.ndarray, v: np.ndarray, epsilons, j0: float | None = None
) -> tuple[np.ndarray, float]:
    """Remainders |J(u+εv) - J(u) - ε⟨g, v⟩| and their log-log slope.

    A slope near two certifies that `grad` is the gradient of `cost_fn`
    at `u`; a slope near one flags a first-order mismatch.  `j0` is
    J(u) when the caller already holds it; else cost_fn(u) is called.
    """
    if j0 is None:
        j0 = cost_fn(u)
    pair = inner_product_spacetime(u.tgrid, u.grid, grad, v)
    errs = np.array(
        [
            abs(cost_fn(Trajectory(u.tgrid, u.grid, u.values + e * v)) - j0 - e * pair)
            for e in epsilons
        ]
    )
    logs_e = np.log(np.asarray(epsilons, dtype=float))
    logs_r = np.log(np.maximum(errs, 1e-300))
    slope = float(np.polyfit(logs_e, logs_r, 1)[0])
    return errs, slope


# ---------------------------------------------------------------------------
# report


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


# ---------------------------------------------------------------------------
# draws


class Draws:
    """The entries' random data, from a Mersenne Twister seeded with the
    string "seed/name".

    `random` hashes a string seed with SHA-512, so the same (seed, name)
    gives the same stream in every process; a seed through `hash()` would
    not.  The two draws are the ones the entries use, each a float array.
    """

    def __init__(self, seed: int, name: str):
        self._random = random.Random(f"{seed}/{name}")

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """Independent N(0, 1) values."""
        gauss = self._random.gauss
        return np.array([gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        """Independent values uniform on [low, high)."""
        draw = self._random.random
        unit = np.array([draw() for _ in range(math.prod(shape))]).reshape(shape)
        return low + (high - low) * unit


# ---------------------------------------------------------------------------
# entries: each a function of its own draws that returns the checks
# sharing one computation


def _laplacian_stencil(rng: Draws) -> list[CheckResult]:
    g5 = Grid.line(5, 5.0)
    expected = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    dev = float(np.max(np.abs(laplacian_values(g5, np.arange(5.0)) - expected)))
    return [_bounded("laplacian_frozen_stencil", dev, 0.0, "unit-spacing ramp")]


def _laplacian(rng: Draws) -> list[CheckResult]:
    worst_cons = worst_sym = worst_dense = 0.0
    for g in (Grid.line(33, 2.0), Grid.box((7, 5), (1.0, 1.4))):
        f1 = rng.standard_normal(g.shape)
        f2 = rng.standard_normal(g.shape)
        lf1 = laplacian_values(g, f1)
        lf2 = laplacian_values(g, f2)
        worst_cons = max(worst_cons, abs(float(np.sum(lf1)) * g.cell_volume))
        worst_sym = max(worst_sym, abs(inner_product(g, lf1, f2) - inner_product(g, f1, lf2)))
        dense = dense_laplacian(g) @ f1.reshape(-1)
        worst_dense = max(worst_dense, float(np.max(np.abs(lf1.reshape(-1) - dense))))
    return [
        _bounded("laplacian_conservation", worst_cons, 1e-12, "1d and 2d"),
        _bounded("laplacian_self_adjoint", worst_sym, 1e-11, "1d and 2d"),
        _bounded("laplacian_dense_match", worst_dense, 1e-10, "vs dense assembly"),
    ]


def _nonlocal_quadrature(rng: Draws) -> list[CheckResult]:
    ker = Kernel.gaussian(0.8, 0.2)
    worst_quad = worst_adj = 0.0
    for g in (Grid.line(24, 1.0), Grid.box((7, 5), (1.0, 1.4))):
        op = NonlocalOperator(ker, g)
        f = rng.standard_normal(g.shape)
        h = rng.standard_normal(g.shape)
        ref = convolution_quadrature_oracle(ker, g, f)
        worst_quad = max(worst_quad, float(np.max(np.abs(op.apply_values(f).reshape(-1) - ref))))
        worst_adj = max(
            worst_adj,
            abs(
                inner_product(g, op.apply_values(f), h)
                - inner_product(g, f, op.apply_adjoint_values(h))
            ),
        )
    return [
        _bounded(
            "nonlocal_matches_quadrature", worst_quad, 1e-12, "double-loop reference, 1d and 2d"
        ),
        _bounded("nonlocal_adjoint_identity", worst_adj, 1e-12, "1d and 2d"),
    ]


def _nonlocal_tophat(rng: Draws) -> list[CheckResult]:
    g = Grid.line(8, 1.0)
    op = NonlocalOperator(Kernel.tophat(2.0, 10.0), g)
    f = rng.standard_normal(g.shape)
    dev = float(np.max(np.abs(op.apply_values(f) - 2.0 * float(np.sum(f)) * g.cell_volume)))
    return [_bounded("nonlocal_tophat_constant", dev, 1e-13, "wide top hat averages")]


def _nonlocal_a3(rng: Draws) -> list[CheckResult]:
    """Assumption (A3), the operator's Lipschitz bound, on sampled pairs.

    The smallest constant consistent with 10 random trajectory pairs may
    not exceed the table's exact 2-norm, nor may that norm exceed the max
    absolute row sum, its a-priori cap; both constants are read from one
    dense assembly.  The operator is linear, so a pair enters through its
    difference; it acts snapshot by snapshot, so it is trivially causal
    in time.
    """
    op = NonlocalOperator(Kernel.gaussian(0.8, 0.2), Grid.line(24, 1.0))
    tg = TimeGrid(1.0, 8)
    shape = (tg.n_nodes,) + op.grid.shape
    lip = 0.0
    for _ in range(10):
        d = rng.standard_normal(shape) - rng.standard_normal(shape)
        bd = np.stack([op.apply_values(s) for s in d])
        lip = max(lip, norm_l2_spacetime(tg, op.grid, bd) / norm_l2_spacetime(tg, op.grid, d))
    table = dense_nonlocal(op)
    norm = float(np.linalg.norm(table, 2))
    cap = float(np.max(np.sum(np.abs(table), axis=1)))
    slack = 1.0 + 1e-10
    return [
        CheckResult(
            "nonlocal_lipschitz_consistent",
            lip <= norm * slack and norm <= cap * slack,
            lip,
            norm,
            f"row-sum cap {cap:.3e}",
        ),
        _bounded("nonlocal_norm_bound", norm, cap * (1.0 + 1e-12), "2-norm under row-sum cap"),
    ]


def _quench_resolvent(rng: Draws) -> list[CheckResult]:
    bs = np.linspace(-0.5, 1.5, 41)
    worst_res = worst_bis = 0.0
    for s in np.geomspace(0.05, 1.0, 13):
        roots = quench_resolvent_detail(bs, float(s))[0]
        for b, r in zip(bs, roots):
            residual = float(r) + s * (math.log(r) - math.log1p(-r)) - float(b)
            worst_res = max(worst_res, abs(residual))
        bisected = bisection_quench_root(bs, float(s))
        worst_bis = max(worst_bis, float(np.max(np.abs(roots - bisected))))
    return [
        _bounded("quench_resolvent_residual", worst_res, 1e-12, "41x13 input grid"),
        _bounded(
            "quench_resolvent_vs_bisection", worst_bis, 1e-12, f"{BISECTION_HALVINGS}-step bisection"
        ),
    ]


def _quench_monotone(rng: Draws) -> list[CheckResult]:
    roots = quench_resolvent_detail(np.linspace(-2.0, 3.0, 201), 0.3)[0]
    drop = float(max(0.0, -np.min(np.diff(roots))))
    return [_bounded("quench_resolvent_monotone", drop, 1e-12, "nondecreasing in the offset")]


def _obstacle_resolvent(rng: Draws) -> list[CheckResult]:
    worst = 0.0
    for b, r_exp, xi_exp in [(1.3, 1.0, 3.0), (0.4, 0.4, 0.0), (-0.2, 0.0, -2.0)]:
        r, xi = obstacle_resolvent(np.array([b]), 0.1)
        worst = max(worst, abs(float(r[0]) - r_exp), abs(float(xi[0]) - xi_exp))
    return [_bounded("obstacle_resolvent_cases", worst, 1e-12, "clip and rescale")]


def _quench_obstacle_gap(rng: Draws) -> list[CheckResult]:
    b = np.linspace(0.05, 0.95, 19)
    scales = [0.1 * quench_scale(alpha) for alpha in (1e-2, 1e-4, 1e-6)]
    roots = [quench_resolvent_detail(b, s)[0] for s in scales]
    gaps = [float(np.max(np.abs(r - np.clip(b, 0.0, 1.0)))) for r in roots]
    return [
        CheckResult(
            "quench_obstacle_gap",
            gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-5,
            gaps[2],
            1e-5,
            f"gap ladder {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}",
        )
    ]


def _potential_values(rng: Draws) -> list[CheckResult]:
    vals = [
        abs(log_potential_prime(0.5)),
        abs(log_potential_second(0.5) - 4.0),
        abs(quench_scale(0.3) - 0.3),
        abs(quench_scale(0.09, 0.5) - 0.3),
    ]
    return [_bounded("potential_reference_values", max(vals), 1e-15)]


def _step_data(rng: Draws, g: Grid) -> tuple[np.ndarray, ...]:
    """rho_n, rho_{n+1}, mu_n and u_{n+1} of one step, drawn on g."""
    rho_a = rng.uniform(0.2, 0.8, g.shape)
    rho_b = rho_a + rng.uniform(-0.05, 0.05, g.shape)
    return rho_a, rho_b, rng.uniform(0.0, 2.0, g.shape), rng.uniform(0.0, 1.0, g.shape)


def _mu_step(rng: Draws) -> list[CheckResult]:
    model = PotentialConfig()
    worst = 0.0
    for g in (Grid.box((7, 5), (1.0, 1.4)), Grid.line(20, 1.0)):
        rho_a, rho_b, mu_a, u_a = _step_data(rng, g)
        stepped, _ = _mu_update(g, mu_a, rho_a, rho_b, u_a, 0.05, model)
        direct = dense_mu_step(mu_a, rho_a, rho_b, u_a, 0.05, model, g)
        worst = max(worst, float(np.linalg.norm(stepped - direct) / np.linalg.norm(direct)))
    return [_bounded("mu_step_dense_solve", worst, 1e-9, "1d and 2d step solves vs dense assembly")]


def _mu_coefficient(rng: Draws) -> list[CheckResult]:
    model = PotentialConfig()
    tau = 0.05
    rho_a, rho_b, _, _ = _step_data(rng, Grid.line(20, 1.0))
    ref = (1.0 + 2.0 * model.g(rho_b) + model.g_prime(rho_b) * (rho_b - rho_a)) / tau
    got = mu_zeroth_coefficient(rho_b, rho_a, tau, model)[0]
    dev = float(np.max(np.abs(got - np.maximum(ref, COEFFICIENT_FLOOR))))
    return [_bounded("mu_coefficient_formula", dev, 0.0, "clamped zeroth-order term")]


def _state_trivial(rng: Draws) -> list[CheckResult]:
    g = Grid.line(12, 1.0)
    init = InitialData(g, np.full(g.shape, 0.5), np.zeros(g.shape))
    u = Trajectory.constant(TimeGrid(0.4, 16), g, 0.0)
    op = NonlocalOperator(Kernel.zero(), g)
    sol = solve_state(u, 0.5, init, PotentialConfig(g_family="zero"), op)
    dev = max(
        float(np.max(np.abs(sol.rho - 0.5))),
        float(np.max(np.abs(sol.mu))),
        float(np.max(np.abs(sol.xi))),
    )
    return [_bounded("state_trivial_stationary", dev, 0.0, "balanced rest state")]


def _state_march(rng: Draws) -> list[CheckResult]:
    g = Grid.line(32, 1.0)
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.1), g)
    init = InitialData(g, np.full(g.shape, 0.5), np.ones(g.shape))
    u = Trajectory.constant(TimeGrid(1.0, 50), g, 1.0)
    model = PotentialConfig()
    quenched = solve_state(u, 1e-3, init, model, op)
    diags = [state_diagnostics(quenched)]
    obstacle = solve_state(u, 0.0, init, model, op)
    diags.append(state_diagnostics(obstacle))
    worst_bounds = max(max(-d.min_rho, d.max_rho - 1.0, -(d.min_mu) - 1e-10) for d in diags)
    sign_violations = len(check_obstacle_signs(obstacle))
    residual = max(d.energy_residual_max for d in diags)
    return [
        _bounded("state_bounds", worst_bounds, 0.0, "rho in [0,1], mu above -1e-10"),
        CheckResult(
            "obstacle_sign_structure",
            sign_violations == 0,
            float(sign_violations),
            0.0,
            "pinned cells carry one-sided reaction",
        ),
        _bounded(
            "state_energy_identity", residual, 0.05, "balance defect, first order in the step"
        ),
    ]


def _single_cell(rng: Draws) -> list[CheckResult]:
    zero_model = PotentialConfig(g_family="zero")
    # 500 steps reproduce the 20 000-step value to 1.2e-15, far inside the bound
    ref = rk4_scalar_relaxation(0.8, 0.5, zero_model.f_strength, 0.5, 500)
    cell = Grid.line(1, 1.0)
    op = NonlocalOperator(Kernel.zero(), cell)
    init = InitialData(cell, np.full(cell.shape, 0.8), np.zeros(cell.shape))
    errs = []
    for nt in (100, 200, 400):
        tg = TimeGrid(0.5, nt)
        got = solve_state(Trajectory.constant(tg, cell, 0.0), 0.5, init, zero_model, op)
        errs.append(abs(float(got.rho[-1, 0]) - ref))
    ratio = errs[0] / errs[1]
    return [
        _bounded("state_single_cell_reference", errs[-1], 5e-4, "rk4 comparison, 400 steps"),
        CheckResult(
            "state_scheme_first_order",
            1.5 <= ratio <= 2.6,
            ratio,
            2.6,
            f"halving errors {errs[0]:.2e} / {errs[1]:.2e} / {errs[2]:.2e}",
        ),
    ]


def _adjoint(rng: Draws) -> list[CheckResult]:
    """One state and its adjoint at a smooth control, and what they feed:
    the duals' end values, the reduced gradient g against the cost's
    quotients along one direction v, the pairing sign and the
    concentration identity."""
    model = PotentialConfig()
    gs = Grid.line(16, 1.0)
    ts = TimeGrid(0.5, 30)
    op = NonlocalOperator(Kernel.gaussian(0.5, 0.25), gs)
    x = gs.centers()[0]
    t = ts.times() / ts.horizon
    init = InitialData(gs, 0.5 + 0.2 * np.cos(2.0 * np.pi * x), 1.0 + 0.5 * np.cos(np.pi * x))
    zeros = Trajectory.constant(ts, gs, 0.0)
    weights = CostWeights(
        rho_weight=1.0,
        mu_weight=0.1,
        control_weight=0.5,
        rho_target=Trajectory.constant(ts, gs, 0.3),
        mu_target=zeros,
    )
    u = Trajectory(ts, gs, 0.5 + 0.25 * np.sin(2.0 * np.pi * x)[None, :] * t[:, None])
    state = solve_state(u, 0.5, init, model, op)
    adj = solve_adjoint(state, weights)
    ends = [d[k] for d in (adj.mu_dual, adj.rho_dual, adj.multiplier) for k in (-1, 0)]
    only_u = CostWeights(0.0, 0.0, 1.0, zeros, zeros)
    adj_zero = solve_adjoint(state, only_u)
    duals_zero = (adj_zero.mu_dual, adj_zero.rho_dual, adj_zero.multiplier)

    # the reduced gradient at u, from the adjoint already solved there
    grad = tracking_gradient(state, adj, weights)
    v = np.cos(np.pi * x)[None, :] * (0.5 + 0.5 * np.sin(np.pi * t))[:, None]

    def cost_fn(w):
        return tracking_cost(solve_state(w, 0.5, init, model, op), weights)

    def cost_along(e):
        return cost_fn(Trajectory(ts, gs, u.values + e * v))

    epsilons = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]
    j0 = tracking_cost(state, weights)
    _, slope = taylor_remainder_slope(cost_fn, u, grad, v, epsilons, j0)
    pair = inner_product_spacetime(ts, gs, grad, v)
    central = (cost_along(1e-2) - cost_along(-1e-2)) / 2e-2
    metric = concentration_metric(adj, state)
    denom = max(abs(metric.value), abs(metric.cross_check), 1e-300)
    return [
        _bounded(
            "adjoint_terminal_zero",
            max(float(np.max(np.abs(e))) for e in ends),
            0.0,
            "both ends of the march",
        ),
        _bounded(
            "adjoint_zero_tracking_zero",
            max(float(np.max(np.abs(d))) for d in duals_zero),
            0.0,
            "no tracking, no dual",
        ),
        CheckResult(
            "gradient_taylor_slope", 1.8 <= slope <= 2.2, slope, 2.2, "second-order remainder decay"
        ),
        _bounded(
            "gradient_central_difference",
            abs(central - pair) / abs(pair),
            1e-7,
            "relative gap of the eps = 1e-2 quotient",
        ),
        _bounded("adjoint_pairing_nonnegative", -metric.pairing, 0.0, "weighted dual pairing"),
        _bounded(
            "concentration_identity",
            abs(metric.value - metric.cross_check) / denom,
            1e-12,
            "two routes to the same pairing",
        ),
    ]


def _projection(rng: Draws) -> list[CheckResult]:
    ts = TimeGrid(0.5, 30)
    gs = Grid.line(16, 1.0)
    box = AdmissibleSet(Trajectory.constant(ts, gs, 2.0))
    raw = Trajectory(ts, gs, rng.uniform(-1.0, 3.0, (ts.n_nodes,) + gs.shape))
    proj = project_admissible(raw, box)
    again = project_admissible(proj, box)
    dev = max(
        float(np.max(-proj.values, initial=0.0)),
        float(np.max(proj.values - 2.0, initial=0.0)),
        float(np.max(np.abs(again.values - proj.values))),
    )
    return [_bounded("projection_box_idempotent", dev, 0.0, "clip onto the box")]


ENTRIES: dict[str, Callable[[Draws], list[CheckResult]]] = {
    "laplacian_stencil": _laplacian_stencil,
    "laplacian": _laplacian,
    "nonlocal_quadrature": _nonlocal_quadrature,
    "nonlocal_tophat": _nonlocal_tophat,
    "nonlocal_a3": _nonlocal_a3,
    "quench_resolvent": _quench_resolvent,
    "quench_monotone": _quench_monotone,
    "obstacle_resolvent": _obstacle_resolvent,
    "quench_obstacle_gap": _quench_obstacle_gap,
    "potential_values": _potential_values,
    "mu_step": _mu_step,
    "mu_coefficient": _mu_coefficient,
    "state_trivial": _state_trivial,
    "state_march": _state_march,
    "single_cell": _single_cell,
    "adjoint": _adjoint,
    "projection": _projection,
}


def run_entry(name: str, seed: int = 0) -> list[CheckResult]:
    """The checks of one entry, on data drawn from draws seeded by
    (seed, name) alone, so that no entry's data depend on another's."""
    return ENTRIES[name](Draws(seed, name))


def run_suite(seed: int = 0) -> VerificationReport:
    """Run every entry of the table once, in table order, and collect the report.

    Deterministic for a fixed seed; the elapsed time is the only
    nonreproducible entry and stays out of `as_dict`.
    """
    t0 = time.perf_counter()
    checks = [check for name in ENTRIES for check in run_entry(name, seed)]
    return VerificationReport(checks=checks, elapsed_seconds=time.perf_counter() - t0)
