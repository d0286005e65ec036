"""Flat key=value configuration and problem assembly.

A configuration file is plain text: one `key = value` per line, `#`
comments, nothing nested.  Spatial profiles (initial data, targets,
control, ceiling) are small strings of the form

    constant:0.5
    gaussian-bump:amplitude,center,width    (center as a fraction of L)
    step:left,right,at                      (jump along the first axis)
    csv:path/to/values.csv                  (one value per cell, C order)

`build_problem` turns a validated record into the `Problem` the rest
of the package consumes: the concrete grid, operators, initial data,
cost and box.  The optimizer takes that `Problem` whole and reads its
options from the record's `tol`, `max_iters` and `schedule`, their one
owner.  The shipped setups live in `configs/*.cfg`; vary a loaded
config with `dataclasses.replace`, or build a problem from
`ProblemConfig(...)` with the keys to replace.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costs import AdmissibleSet, CostWeights
from .errors import ConfigError
from .grid import Grid, TimeGrid, Trajectory
from .nonlocal_op import Kernel, NonlocalOperator
from .potentials import PotentialConfig, quench_scale
from .state import InitialData

__all__ = [
    "ProblemConfig",
    "Problem",
    "parse_config_text",
    "load_config",
    "profile_values",
    "build_problem",
]


@dataclass
class ProblemConfig:
    """Every knob of a run; defaults give the contact tracking setup."""

    # space and time
    dim: int = 1
    cells_x: int = 64
    cells_y: int = 8
    length_x: float = 1.0
    length_y: float = 1.0
    horizon: float = 1.0
    steps: int = 200
    # interaction kernel
    kernel: str = "gaussian"
    kernel_amplitude: float = 1.0
    kernel_width: float = 0.1
    kernel_core_radius: float = 1e-3
    kernel_radius: float = 0.25
    # potentials and coupling
    f_strength: float = 0.25
    g_family: str = "linear"
    quench_exponent: float = 1.0
    # data profiles
    rho0: str = "constant:0.5"
    mu0: str = "constant:1.0"
    control: str = "constant:1.0"
    # single-run quench parameter (0 means the obstacle solver)
    alpha: float = 1e-3
    # cost: targets above/at the reach of the uncontrolled run so the
    # optimum sits inside the box, and a control weight heavy enough to
    # contract the anchored continuation quickly
    rho_weight: float = 1.0
    mu_weight: float = 0.5
    control_weight: float = 2.0
    rho_target: str = "constant:0.8"
    mu_target: str = "constant:1.0"
    # admissible set
    ceiling: str = "constant:2.0"
    h1_budget: float = 1e6
    # optimizer
    schedule: str = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8"
    tol: float = 1e-7
    max_iters: int = 200
    # parsed but read by nothing (the variational inequality is exact and
    # nothing in a run is random); kept so existing config files load
    vi_samples: int = 100
    # sweeps
    sweep_alphas: str = "1e-1,1e-2,1e-3,1e-4,1e-5"
    # bookkeeping
    out_dir: str = "out"
    seed: int = 42          # parsed but read by nothing, as noted above

    def __post_init__(self):
        # NaN passes every range test below and inf most of them, so both are
        # refused first; h1_budget = inf means no budget
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            if kind == "float" and not (math.isfinite(value) or key == "h1_budget" and value > 0):
                raise ConfigError(f"{key}: expected a finite number, got {value}")
        if self.dim not in (1, 2):
            raise ConfigError("grid dimension must be 1 or 2")
        if self.cells_x < 1 or (self.dim == 2 and self.cells_y < 1):
            raise ConfigError("cell counts must be positive")
        if self.length_x <= 0.0 or (self.dim == 2 and self.length_y <= 0.0):
            raise ConfigError("domain lengths must be positive")
        # the step solve's stencil weighs each cell by h^-2, which a float
        # power overflows (h tiny) or cannot form (h rounded to 0) with an error
        for key, cells in (("length_x", self.cells_x), ("length_y", self.cells_y))[: self.dim]:
            h = getattr(self, key) / cells
            try:
                h**-2
            except (OverflowError, ZeroDivisionError):
                raise ConfigError(f"{key}: the cell size {h:g} has no finite h^-2") from None
        if self.horizon <= 0.0 or self.steps < 1:
            raise ConfigError("need a positive horizon and at least one step")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("(A1) alpha: quench parameter must lie in [0, 1] (0 = obstacle)")
        if self.alpha > 0.0:
            self._check_quench_steps("alpha", [self.alpha])
        # the optimizer's reference step is 1/control_weight
        if self.control_weight > 0.0 and not math.isfinite(1.0 / self.control_weight):
            raise ConfigError(f"control_weight: {self.control_weight!r} has no finite reciprocal")
        if self.tol <= 0.0 or self.max_iters < 0:
            raise ConfigError("optimizer options out of range")
        # parse both quench lists now, so a bad one fails every command alike
        self.schedule_values()
        self.sweep_values()

    def schedule_values(self) -> list[float]:
        levels = self._quench_list("schedule", self.schedule)
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("schedule: quench parameters must be strictly decreasing")
        return levels

    def sweep_values(self) -> list[float]:
        return self._quench_list("sweep_alphas", self.sweep_alphas)

    def _quench_list(self, key: str, text: str) -> list[float]:
        vals = _float_list(key, text)
        if not all(0.0 < a <= 1.0 for a in vals):
            raise ConfigError(f"(A1) {key}: quench parameters must lie in (0, 1], got {text!r}")
        self._check_quench_steps(key, vals)
        return vals

    def _check_quench_steps(self, key: str, alphas: list[float]) -> None:
        # the march steps the quench resolvent at s = tau·quench_scale(alpha),
        # which must not underflow; a nonpositive exponent is PotentialConfig's
        tau = self.horizon / self.steps
        for a in alphas:
            if self.quench_exponent > 0.0 and tau * quench_scale(a, self.quench_exponent) == 0.0:
                raise ConfigError(f"(A1) {key}: quench parameter {a!r} gives the resolvent "
                                  "step (horizon/steps)·alpha^quench_exponent = 0")


def _float_list(key: str, text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse float list {text!r}") from exc
    if not vals:
        raise ConfigError(f"{key}: empty list")
    return vals


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ProblemConfig)}


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines into a raw string mapping; rejects unknown keys."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate config key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {kind}, got {value!r}") from exc
    return value


def config_from_map(cfg_map: dict[str, str]) -> ProblemConfig:
    kwargs = {key: _coerce(key, value) for key, value in cfg_map.items()}
    return ProblemConfig(**kwargs)


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> ProblemConfig:
    """Read a config file, or start from the defaults when path is None.

    `overrides` (key to value text, as in a file) replace the file's
    values and are parsed and validated the same way.
    """
    cfg_map: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file {p} does not exist")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from None
        cfg_map = parse_config_text(text)
    return config_from_map({**cfg_map, **(overrides or {})})


def profile_values(profile: str, grid: Grid) -> np.ndarray:
    """Evaluate a named spatial profile on the cell centers."""
    if ":" not in profile:
        raise ConfigError(f"profile {profile!r} has no 'name:' prefix")
    name, arg = profile.split(":", 1)
    if name == "constant":
        try:
            vals = np.full(grid.shape, float(arg))
        except ValueError as exc:
            raise ConfigError(f"constant profile needs a float, got {arg!r}") from exc
    elif name == "gaussian-bump":
        parts = _float_list("gaussian-bump", arg)
        if len(parts) != 3:
            raise ConfigError("gaussian-bump profile needs amplitude,center,width")
        amp, center, width = parts
        # the bump divides by 2·width², which must be neither inf nor 0
        if not (width > 0.0 and 0.0 < width * width < math.inf):
            raise ConfigError(f"profile {profile!r} needs a width > 0 with a finite positive square")
        pts = grid.center_points()
        mid = np.array([center * length for length in grid.lengths])
        d2 = np.sum((pts - mid) ** 2, axis=1)
        vals = (amp * np.exp(-d2 / (2.0 * width**2))).reshape(grid.shape)
    elif name == "step":
        parts = _float_list("step", arg)
        if len(parts) != 3:
            raise ConfigError("step profile needs left,right,at")
        left, right, at = parts
        x = grid.center_points()[:, 0]
        vals = np.where(x < at * grid.lengths[0], left, right).reshape(grid.shape)
    elif name == "csv":
        path = Path(arg)
        if not path.is_file():
            raise ConfigError(f"profile file {path} does not exist")
        # a UnicodeDecodeError is a ValueError; an empty file warns, which a
        # warning filter such as PYTHONWARNINGS=error turns into a raise
        try:
            vals = np.loadtxt(path, delimiter=",", ndmin=1).reshape(-1)
        except (ValueError, UserWarning) as exc:
            raise ConfigError(f"profile file {path} is not a table of numbers: {exc}") from None
        if vals.size != grid.n_cells:
            raise ConfigError(
                f"profile file {path} has {vals.size} values, grid needs {grid.n_cells}"
            )
        vals = vals.reshape(grid.shape)
    else:
        raise ConfigError(f"unknown profile kind {name!r}")
    if not np.isfinite(vals).all():
        raise ConfigError(f"profile {profile!r} has non-finite values")
    return vals


@dataclass
class Problem:
    """Everything a command needs, assembled from one config."""

    config: ProblemConfig
    grid: Grid
    tgrid: TimeGrid
    model: PotentialConfig
    op: NonlocalOperator
    init: InitialData
    control: Trajectory
    weights: CostWeights
    box: AdmissibleSet


def build_problem(cfg: ProblemConfig) -> Problem:
    if cfg.dim == 1:
        grid = Grid.line(cfg.cells_x, cfg.length_x)
    else:
        grid = Grid.box((cfg.cells_x, cfg.cells_y), (cfg.length_x, cfg.length_y))
    tgrid = TimeGrid(cfg.horizon, cfg.steps)

    model = PotentialConfig(
        f_strength=cfg.f_strength,
        g_family=cfg.g_family,
        quench_exponent=cfg.quench_exponent,
    )
    kernel = Kernel(
        cfg.kernel,
        amplitude=cfg.kernel_amplitude,
        width=cfg.kernel_width,
        core_radius=cfg.kernel_core_radius,
        radius=cfg.kernel_radius,
    )
    op = NonlocalOperator(kernel, grid)

    init = InitialData(grid, profile_values(cfg.rho0, grid), profile_values(cfg.mu0, grid))
    control = Trajectory.constant(tgrid, grid, profile_values(cfg.control, grid))

    box = AdmissibleSet(
        Trajectory.constant(tgrid, grid, profile_values(cfg.ceiling, grid)),
        h1_budget=cfg.h1_budget,
    )
    weights = CostWeights(
        rho_weight=cfg.rho_weight,
        mu_weight=cfg.mu_weight,
        control_weight=cfg.control_weight,
        rho_target=Trajectory.constant(tgrid, grid, profile_values(cfg.rho_target, grid)),
        mu_target=Trajectory.constant(tgrid, grid, profile_values(cfg.mu_target, grid)),
    )

    return Problem(
        config=cfg,
        grid=grid,
        tgrid=tgrid,
        model=model,
        op=op,
        init=init,
        control=control,
        weights=weights,
        box=box,
    )
