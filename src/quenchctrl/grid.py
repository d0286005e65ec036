"""Cell-centered rectangles, fields on them, and discrete calculus.

Everything downstream runs on the pair (Grid, TimeGrid): a uniform
cell-centered mesh over an interval or a rectangle with homogeneous
Neumann boundary, and a uniform partition of [0, T].  Field and
Trajectory are thin wrappers around numpy arrays that pin the mesh and
validate shape and finiteness; the solvers work on the raw arrays and
wrap results at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

__all__ = [
    "Grid",
    "TimeGrid",
    "Field",
    "Trajectory",
    "laplacian_values",
    "solve_step_system",
    "inner_product",
    "norm_l2",
    "trapezoid_weights",
    "inner_product_spacetime",
    "norm_l2_spacetime",
    "norm_lp_spacetime",
    "h1_seminorm_sq",
    "time_h1_norm",
]


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

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.cells))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    @property
    def total_volume(self) -> float:
        v = 1.0
        for l in self.lengths:
            v *= l
        return v

    def centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis."""
        return tuple(
            (np.arange(n) + 0.5) * (l / n) for n, l in zip(self.cells, self.lengths)
        )

    def center_points(self) -> np.ndarray:
        """All cell centers as an (n_cells, dim) array in C order.

        The row order matches values.reshape(-1) of any Field on this
        grid, which is what the brute-force quadrature oracle relies on.
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


def _validated(values, shape, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: values must be finite")
    return arr


@dataclass
class Field:
    """One value per cell of a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _validated(self.values, self.grid.shape, "Field")

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass
class Trajectory:
    """A Field per time node: steps + 1 snapshots."""

    tgrid: TimeGrid
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.tgrid.n_nodes,) + self.grid.shape
        self.values = _validated(self.values, shape, "Trajectory")

    @classmethod
    def constant(cls, tgrid: TimeGrid, grid: Grid, value: float) -> "Trajectory":
        return cls(tgrid, grid, np.full((tgrid.n_nodes,) + grid.shape, float(value)))

    @classmethod
    def zeros(cls, tgrid: TimeGrid, grid: Grid) -> "Trajectory":
        return cls(tgrid, grid, np.zeros((tgrid.n_nodes,) + grid.shape))

    @classmethod
    def constant_profile(cls, tgrid: TimeGrid, grid: Grid, profile: np.ndarray) -> "Trajectory":
        """Hold one spatial snapshot fixed over every time node."""
        vals = np.broadcast_to(np.asarray(profile, dtype=float), (tgrid.n_nodes,) + grid.shape)
        return cls(tgrid, grid, vals.copy())

    def snapshot(self, n: int) -> Field:
        """Field view of node n (shares memory with the trajectory)."""
        return Field(self.grid, self.values[n])

    def copy(self) -> "Trajectory":
        return Trajectory(self.tgrid, self.grid, self.values.copy())

    def __add__(self, other: "Trajectory") -> "Trajectory":
        _check_same_spacetime(self, other)
        return Trajectory(self.tgrid, self.grid, self.values + other.values)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        _check_same_spacetime(self, other)
        return Trajectory(self.tgrid, self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Trajectory":
        return Trajectory(self.tgrid, self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ShapeMismatchError("fields live on different grids")


def _check_same_spacetime(a: Trajectory, b: Trajectory) -> None:
    if a.grid != b.grid or a.tgrid != b.tgrid:
        raise ShapeMismatchError("trajectories live on different space-time grids")


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Five-point (three-point in 1D) Laplacian with mirror ghost cells.

    Written in flux form: interior face gradients, zero flux through the
    boundary faces.  The telescoping flux sum makes the discrete
    conservation property Σ (Δf)·vol = 0 hold to rounding, and the
    operator is self-adjoint in the cell inner product.
    """
    out = np.zeros_like(values)
    for axis, h in enumerate(grid.spacing):
        flux = np.diff(values, axis=axis) / h
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        div = np.zeros_like(values)
        div[tuple(lo)] = flux
        div[tuple(hi)] -= flux
        div /= h
        out += div
    return out


def _neighbour_counts(n: int) -> np.ndarray:
    """Interior faces per cell along an axis of n cells (Neumann ends)."""
    deg = np.full(n, 2.0)
    deg[0] -= 1.0
    deg[-1] -= 1.0
    return deg


def solve_step_system(grid: Grid, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(a) − Δ_h) x = rhs, Δ_h being `laplacian_values`.

    Block Thomas elimination along the first axis with dense blocks
    along the last one; in 1D that is a single dense solve.  Every
    entry of a must be positive: the matrix is then SPD, and so is each
    Schur complement, so the elimination needs no pivoting across
    blocks.  The operator is symmetric, so the same call solves the
    transposed system.
    """
    ny = grid.cells[-1]
    nx = grid.n_cells // ny
    inv_hy2 = grid.spacing[-1] ** -2
    block = inv_hy2 * (
        np.diag(_neighbour_counts(ny)) - np.eye(ny, k=1) - np.eye(ny, k=-1)
    )
    diag = np.array(a, dtype=float).reshape(nx, ny)
    inv_hx2 = 0.0
    if grid.dim == 2:
        inv_hx2 = grid.spacing[0] ** -2
        diag += inv_hx2 * _neighbour_counts(nx)[:, None]
    y = np.array(rhs, dtype=float).reshape(nx, ny)
    on_diag = np.arange(ny)

    schur = block.copy()
    schur[on_diag, on_diag] += diag[0]
    inverses = []
    for i in range(1, nx):
        w = np.linalg.inv(schur)
        inverses.append(w)
        y[i] += inv_hx2 * (w @ y[i - 1])
        schur = block - (inv_hx2 * inv_hx2) * w
        schur[on_diag, on_diag] += diag[i]
    x = np.empty_like(y)
    x[-1] = np.linalg.solve(schur, y[-1])
    for i in range(nx - 2, -1, -1):
        x[i] = inverses[i] @ (y[i] + inv_hx2 * x[i + 1])
    return x.reshape(grid.shape)


def inner_product(f: Field, g: Field) -> float:
    _check_same_grid(f, g)
    return float(np.sum(f.values * g.values) * f.grid.cell_volume)


def norm_l2(f: Field) -> float:
    return float(np.sqrt(np.sum(f.values * f.values) * f.grid.cell_volume))


def trapezoid_weights(n_nodes: int) -> np.ndarray:
    w = np.ones(n_nodes)
    w[0] = 0.5
    w[-1] = 0.5
    return w


def inner_product_spacetime(a: Trajectory, b: Trajectory) -> float:
    """L2 inner product over space-time, trapezoidal in time."""
    _check_same_spacetime(a, b)
    w = trapezoid_weights(a.tgrid.n_nodes)
    per_node = np.sum(a.values * b.values, axis=tuple(range(1, a.values.ndim)))
    return float(np.sum(w * per_node) * a.tgrid.tau * a.grid.cell_volume)


def norm_l2_spacetime(a: Trajectory) -> float:
    return float(np.sqrt(max(inner_product_spacetime(a, a), 0.0)))


def norm_lp_spacetime(a: Trajectory, p: float) -> float:
    """L^p norm over space-time, trapezoidal in time."""
    w = trapezoid_weights(a.tgrid.n_nodes)
    per_node = np.sum(np.abs(a.values) ** p, axis=tuple(range(1, a.values.ndim)))
    return float((np.sum(w * per_node) * a.tgrid.tau * a.grid.cell_volume) ** (1.0 / p))


def h1_seminorm_sq(f: Field) -> float:
    """Discrete ∫|∇f|² from interior face differences (diagnostic)."""
    total = 0.0
    for axis, h in enumerate(f.grid.spacing):
        d = np.diff(f.values, axis=axis) / h
        total += float(np.sum(d * d) * f.grid.cell_volume)
    return total


def time_h1_norm(a: Trajectory) -> float:
    """Discrete H1(0,T; L2) norm: trajectory plus difference-quotient part."""
    tau = a.tgrid.tau
    diffs = np.diff(a.values, axis=0) / tau
    dt_part = float(np.sum(diffs * diffs) * tau * a.grid.cell_volume)
    return float(np.sqrt(norm_l2_spacetime(a) ** 2 + dt_part))
