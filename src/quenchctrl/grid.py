"""Cell-centered rectangles, fields on them, and discrete calculus.

Everything downstream runs on the pair (Grid, TimeGrid): a uniform
cell-centered mesh over an interval or a rectangle with homogeneous
Neumann boundary, and a uniform partition of [0, T].  Trajectory wraps
a numpy array, pinning the space-time mesh and validating shape and
finiteness: only where a control's state is solved or a config profile
is built.  `Field`, the same wrapper for one snapshot, is only the type
of `state.step_mu`, which no command calls.  The space-time quadrature
takes (tgrid, grid, arrays) and checks only their shape; its norms
scale data whose powers would leave the double range, and a squared
norm beyond it is inf, not an OverflowError.  A trajectory that does
not change in time (`Trajectory.constant`) holds one spatial array,
read-only and broadcast over every time node: copy its values before
writing to them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, SolverError

__all__ = [
    "Grid",
    "TimeGrid",
    "Field",
    "Trajectory",
    "laplacian_values",
    "solve_step_system",
    "inner_product",
    "trapezoid_weights",
    "inner_product_spacetime",
    "norm_l2_spacetime",
    "norm_lp_spacetime",
    "time_h1_norm",
]

# the 2D step solve's conjugate gradients stop at a recursive residual of
# CG_RTOL·‖rhs‖; real marches take 4-5 iterations, random systems with
# floor cells at most about 30, and the cap fails loudly well above that
CG_RTOL = 1e-14
CG_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over a 1D interval or 2D rectangle."""

    cells: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if len(self.cells) != len(self.lengths):
            raise ValueError("cells and lengths must have the same dimension")
        if any(n < 1 for n in self.cells):
            raise ValueError("need at least 1 cell per axis")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("axis lengths must be positive")

    @classmethod
    def line(cls, cells: int, length: float = 1.0) -> "Grid":
        return cls((cells,), (length,))

    @classmethod
    def box(cls, cells: tuple[int, int], lengths: tuple[float, float] = (1.0, 1.0)) -> "Grid":
        return cls(tuple(cells), tuple(lengths))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def n_cells(self) -> int:
        n = 1
        for c in self.cells:
            n *= c
        return n

    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.cells))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    def centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis."""
        return tuple(
            (np.arange(n) + 0.5) * (l / n) for n, l in zip(self.cells, self.lengths)
        )

    def center_points(self) -> np.ndarray:
        """All cell centers as an (n_cells, dim) array in C order.

        The row order matches values.reshape(-1) of any cell array on
        this grid, which is what the brute-force quadrature oracle relies on.
        """
        axes = self.centers()
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "steps", int(self.steps))
        if self.horizon <= 0:
            raise ValueError("time horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one time step")

    @property
    def tau(self) -> float:
        return self.horizon / self.steps

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        # linspace pins both endpoints exactly; no summation drift
        return np.linspace(0.0, self.horizon, self.n_nodes)


def validated(values, shape, what: str) -> np.ndarray:
    """values as a float array of the given shape, every entry finite."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{what}: expected shape {shape}, got {arr.shape}")
    # an axis of stride 0 repeats its first slice: scanning that slice suffices
    held = arr[0] if arr.strides[0] == 0 else arr
    if not np.isfinite(held).all():
        raise NonFiniteError(f"{what}: values must be finite")
    return arr


@dataclass
class Field:
    """One value per cell of a Grid: the type of `state.step_mu`, built only
    by the benchmark's per-step probe (perfbench/child.py) and unit tests."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = validated(self.values, self.grid.shape, "Field")


@dataclass
class Trajectory:
    """One cell array per time node: steps + 1 snapshots."""

    tgrid: TimeGrid
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.tgrid.n_nodes,) + self.grid.shape
        self.values = validated(self.values, shape, "Trajectory")

    @classmethod
    def constant(cls, tgrid: TimeGrid, grid: Grid, profile: float | np.ndarray) -> "Trajectory":
        """Hold one spatial snapshot, a scalar or a cell array, fixed over
        every time node.

        The values are a read-only view, broadcast over the time axis, of
        one private copy of the profile: memory is O(cells), whatever the
        number of steps, and later writes to `profile` do not show.
        """
        held = np.empty(grid.shape)
        held[...] = profile
        return cls(tgrid, grid, np.broadcast_to(held, (tgrid.n_nodes,) + grid.shape))


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Five-point (three-point in 1D) Laplacian with mirror ghost cells.

    Written in flux form: interior face gradients, zero flux through the
    boundary faces.  The telescoping flux sum makes the discrete
    conservation property Σ (Δf)·vol = 0 hold to rounding, and the
    operator is self-adjoint in the cell inner product.
    """
    out = np.zeros_like(values)
    div = np.empty_like(values)
    for axis, h in enumerate(grid.spacing):
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        last = [slice(None)] * values.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        last[axis] = slice(-1, None)
        flux = np.subtract(values[tuple(hi)], values[tuple(lo)])
        flux /= h
        # the scratch is zero wherever the flux is not written
        div[tuple(last)] = 0.0
        div[tuple(lo)] = flux
        div[tuple(hi)] -= flux
        div /= h
        out += div
    return out


def solve_step_system(grid: Grid, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(a) − Δ_h) x = rhs, Δ_h being `laplacian_values`.

    Every entry of a must be positive, so that the matrix is SPD; it is
    also symmetric, so the same call solves the transposed system.  In
    1D a scalar Thomas sweep solves it directly (`_solve_tridiagonal`),
    on the pivots' excess over h⁻², so that small cells lose no digits.
    In 2D conjugate gradients solve it (Concus, Golub & O'Leary 1976),
    preconditioned by the constant-coefficient operator mean(a)·I − Δ_h,
    which the tensor product of the Neumann cosine modes diagonalizes
    exactly (Lynch, Rice & Thomas 1964).  The iteration stops once the
    recursive residual is at most CG_RTOL·‖rhs‖, and raises SolverError
    after CG_MAX_ITERATIONS.  rhs is divided by a power of two near its
    max first, so the norms cannot overflow and the result scales
    bitwise with rhs under powers of two.  A non-finite a or rhs gives
    NaNs, as a direct solve would.
    """
    if grid.dim == 1:
        return _solve_tridiagonal(grid, a, rhs)
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        return np.full(grid.shape, np.nan)
    top = float(np.max(np.abs(rhs)))
    if top == 0.0:
        return np.zeros(grid.shape)
    exponent = math.frexp(top)[1]
    r = np.ldexp(rhs, -exponent)

    (vx, lx), (vy, ly) = (_cosine_modes(n, h) for n, h in zip(grid.cells, grid.spacing))
    inv_eig = 1.0 / (float(np.mean(a)) + lx[:, None] + ly[None, :])

    x = np.zeros(grid.shape)
    r_norm0 = float(np.linalg.norm(r))
    z = vx @ ((vx.T @ r @ vy) * inv_eig) @ vy.T
    p = z
    rz = float(np.vdot(r, z))
    for _ in range(CG_MAX_ITERATIONS):
        q = a * p - laplacian_values(grid, p)
        step = rz / float(np.vdot(p, q))
        x += step * p
        r -= step * q
        r_norm = float(np.linalg.norm(r))
        if r_norm <= CG_RTOL * r_norm0:
            return np.ldexp(x, exponent)
        z = vx @ ((vx.T @ r @ vy) * inv_eig) @ vy.T
        rz, rz_old = float(np.vdot(r, z)), rz
        p = z + (rz / rz_old) * p
    raise SolverError(
        f"step solve: conjugate gradients did not converge in {CG_MAX_ITERATIONS} iterations "
        f"(residual ratio {r_norm / r_norm0:.3e})"
    )


@functools.lru_cache(maxsize=8)
def _cosine_modes(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors and eigenvalues of −Δ_h on n Neumann cells.

    Column k of the matrix is cos(πk(j+½)/n) over the cells j, scaled to
    unit length; its eigenvalue is 4/h²·sin²(πk/2n).  Built once per
    (n, h) and shared by every step solve, so both arrays are read-only.
    """
    k = np.arange(n)
    modes = np.cos(np.pi / n * np.outer(k + 0.5, k)) * math.sqrt(2.0 / n)
    modes[:, 0] = math.sqrt(1.0 / n)
    eig = (2.0 / h * np.sin(np.pi / (2 * n) * k)) ** 2
    modes.flags.writeable = False
    eig.flags.writeable = False
    return modes, eig


def _solve_tridiagonal(grid: Grid, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The 1D case of `solve_step_system`: Thomas elimination on Python floats.

    The matrix is SPD and tridiagonal, so forward elimination needs no
    pivoting.  It is carried on each pivot's excess e over k = h⁻²:
    e_0 = a_0, then with c_i = k/(k + e_{i−1}) in (0, 1] the sweep adds
    c_i·y_{i−1} to y_i and sets e_i = a_i + c_i·e_{i−1}.  The interior
    pivots are k + e_i and the last is e_{n−1} ≥ a_{n−1}, so for positive
    a every term is positive: nothing cancels on cells so small that a is
    lost next to k, and no product forms k² or k·x, which could overflow.
    """
    k = grid.spacing[0] ** -2
    a = np.asarray(a, dtype=float).tolist()
    y = np.asarray(rhs, dtype=float).tolist()
    n = len(a)
    ratios = [0.0] * n
    e = a[0]
    carried = y[0]
    for i in range(1, n):
        w = 1.0 / (k + e)
        ratios[i - 1] = c = k * w
        y[i - 1] = w * carried  # the eliminated row over its pivot
        carried = y[i] + c * carried
        e = a[i] + c * e
    # back substitution in place: x_i = y_i/(k + e_i) + c_{i+1}·x_{i+1}
    x = y[-1] = carried / e
    for i in range(n - 2, -1, -1):
        x = y[i] = y[i] + ratios[i] * x
    return np.array(y)


def inner_product(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product of two cell arrays on grid."""
    return float(np.sum(a * b) * grid.cell_volume)


def trapezoid_weights(n_nodes: int) -> np.ndarray:
    w = np.ones(n_nodes)
    w[0] = 0.5
    w[-1] = 0.5
    return w


def _check_spacetime(tgrid: TimeGrid, grid: Grid, *arrays: np.ndarray) -> None:
    """One cell array per time node, exactly: no broadcasting, no finiteness scan."""
    shape = (tgrid.n_nodes,) + grid.shape
    for a in arrays:
        if np.shape(a) != shape:
            raise ShapeMismatchError(f"space-time array: expected shape {shape}, got {np.shape(a)}")


def inner_product_spacetime(tgrid: TimeGrid, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product over space-time, trapezoidal in time."""
    _check_spacetime(tgrid, grid, a, b)
    w = trapezoid_weights(tgrid.n_nodes)
    per_node = np.sum(a * b, axis=tuple(range(1, a.ndim)))
    return float(np.sum(w * per_node) * tgrid.tau * grid.cell_volume)


def _power_scale(top: float, p: float) -> float:
    """The divisor that keeps the p-th powers of values up to `top` inside
    the normal range: `top` itself where they would leave it, else 1."""
    return top if top > 0.0 and abs(p * math.log2(top)) > 600.0 else 1.0


def norm_l2_spacetime(tgrid: TimeGrid, grid: Grid, a: np.ndarray) -> float:
    """L2 norm over space-time, trapezoidal in time.

    Where the squares of the values would overflow or underflow, the
    values are divided by their max first, as in `norm_lp_spacetime`;
    elsewhere this is the square root of `inner_product_spacetime` of a
    with itself, bit for bit.
    """
    _check_spacetime(tgrid, grid, a)
    scale = _power_scale(float(np.max(np.abs(a))), 2.0)
    if scale != 1.0:
        a = a / scale
    return scale * float(np.sqrt(max(inner_product_spacetime(tgrid, grid, a, a), 0.0)))


def norm_lp_spacetime(tgrid: TimeGrid, grid: Grid, a: np.ndarray, p: float) -> float:
    """L^p norm over space-time, trapezoidal in time.

    Where the p-th powers of the values would overflow or underflow, the
    values are divided by their max first; where the weighted sum times
    the quadrature weight tau·cell_volume leaves the normal range, the
    p-th roots of the sum, tau and cell_volume are taken one by one.  So
    finite data give a finite norm wherever the norm itself is a finite
    double, and elsewhere the bits stay as they are.
    """
    _check_spacetime(tgrid, grid, a)
    x = np.abs(a)
    scale = _power_scale(float(np.max(x)), p)
    if scale != 1.0:
        x /= scale
    w = trapezoid_weights(tgrid.n_nodes)
    per_node = np.sum(x**p, axis=tuple(range(1, x.ndim)))
    total = float(np.sum(w * per_node))
    weighted = total * tgrid.tau * grid.cell_volume
    if total > 0.0 and not sys.float_info.min <= weighted < math.inf:
        return scale * math.prod(f ** (1.0 / p) for f in (total, tgrid.tau, grid.cell_volume))
    return scale * weighted ** (1.0 / p)


def _square(x: float) -> float:
    """x ** 2, bit for bit, but inf where Python's float power would raise
    OverflowError instead of returning it."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def time_h1_norm(tgrid: TimeGrid, grid: Grid, a: np.ndarray) -> float:
    """Discrete H1(0,T; L2) norm: trajectory plus difference-quotient part.

    Where the squares of the values would overflow or underflow, the
    values are divided by their max first, as in `norm_l2_spacetime`;
    elsewhere the bits are those of the unscaled formula.
    """
    _check_spacetime(tgrid, grid, a)
    scale = _power_scale(float(np.max(np.abs(a))), 2.0)
    if scale != 1.0:
        a = a / scale
    tau = tgrid.tau
    diffs = np.diff(a, axis=0) / tau
    dt_part = float(np.sum(diffs * diffs) * tau * grid.cell_volume)
    return scale * float(np.sqrt(_square(norm_l2_spacetime(tgrid, grid, a)) + dt_part))
