"""Potentials, couplings, and the pointwise resolvents.

The order parameter is confined to [0, 1] either by the double obstacle
(hard constraint plus multiplier) or by its deep-quench regularization,
a logarithmic potential rho·ln(rho) + (1-rho)·ln(1-rho) scaled by a
factor that vanishes with the quench parameter alpha.  Both constraint
mechanisms enter the time stepping only through their resolvents, which
are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError

__all__ = [
    "log_potential",
    "log_potential_prime",
    "log_potential_second",
    "quench_scale",
    "QuenchLevel",
    "PotentialConfig",
    "quench_resolvent_detail",
    "obstacle_resolvent",
]

# tightest open interval of doubles inside (0, 1); resolvent outputs are
# clipped here so that log_potential_second stays finite
RHO_MIN = np.nextafter(0.0, 1.0)
RHO_MAX = np.nextafter(1.0, 0.0)

# the quench resolvent stops once |residual| <= RESOLVENT_TOL·max(1, |b|)
# and raises after RESOLVENT_MAX_ITER iterations
RESOLVENT_TOL = 1e-13
RESOLVENT_MAX_ITER = 200


def _domain_check(rho: np.ndarray, closed: bool, what: str) -> None:
    if closed:
        bad = np.any(rho < 0.0) or np.any(rho > 1.0)
        dom = "[0, 1]"
    else:
        bad = np.any(rho <= 0.0) or np.any(rho >= 1.0)
        dom = "(0, 1)"
    if bad:
        raise ValueError(f"{what} requires rho in {dom}")


def log_potential(rho):
    """rho·ln(rho) + (1-rho)·ln(1-rho), extended by 0 at the endpoints."""
    r = np.asarray(rho, dtype=float)
    _domain_check(r, closed=True, what="log_potential")
    out = np.zeros_like(r)
    inner = (r > 0.0) & (r < 1.0)
    ri = r[inner]
    out[inner] = ri * np.log(ri) + (1.0 - ri) * np.log1p(-ri)
    return float(out) if out.ndim == 0 else out


def log_potential_prime(rho):
    """ln(rho / (1-rho)) on the open interval."""
    r = np.asarray(rho, dtype=float)
    _domain_check(r, closed=False, what="log_potential_prime")
    out = np.log(r) - np.log1p(-r)
    return float(out) if out.ndim == 0 else out


def log_potential_second(rho):
    """1 / (rho (1-rho)), strictly positive on the open interval."""
    r = np.asarray(rho, dtype=float)
    _domain_check(r, closed=False, what="log_potential_second")
    out = 1.0 / (r * (1.0 - r))
    return float(out) if out.ndim == 0 else out


def quench_scale(alpha: float, exponent: float = 1.0) -> float:
    """Scale factor alpha**exponent multiplying the logarithmic term.

    Strictly positive for alpha in (0, 1] and tending to zero with
    alpha, which is all the continuation relies on.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("quench parameter alpha must lie in (0, 1]")
    if exponent <= 0.0:
        raise ValueError("quench exponent must be positive")
    return float(alpha) ** float(exponent)


@dataclass(frozen=True)
class QuenchLevel:
    """One level of the regularization path: alpha and its scale factor."""

    alpha: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("quench parameter alpha must lie in (0, 1]")
        if self.scale <= 0.0:
            raise ValueError("quench scale must be positive at alpha > 0")


_F_FAMILIES = ("concave-quadratic",)
_G_FAMILIES = ("linear", "saturating", "zero")


@dataclass(frozen=True)
class PotentialConfig:
    """Smooth model ingredients: F (regular potential part) and g (coupling).

    Families:
      F concave-quadratic   F(rho) = -(strength/2)(2 rho - 1)², strength ≥ 0
      g linear              g(rho) = rho
      g saturating          g(rho) = rho (2 - rho)
      g zero                g ≡ 0 (degenerate, for tests)

    Construction samples g on 1001 points of [0, 1] and rejects any
    family violating g ≥ 0 or concavity, naming assumption (A1).
    """

    f_family: str = "concave-quadratic"
    f_strength: float = 0.25
    g_family: str = "linear"
    quench_exponent: float = 1.0

    def __post_init__(self):
        if self.f_family not in _F_FAMILIES:
            raise ConfigError(f"(A1) unknown F family {self.f_family!r}")
        if self.g_family not in _G_FAMILIES:
            raise ConfigError(f"(A1) unknown g family {self.g_family!r}")
        if self.f_strength < 0.0:
            raise ConfigError("(A1) concave-quadratic strength must be >= 0")
        if self.quench_exponent <= 0.0:
            raise ConfigError("(A1) quench exponent must be positive")
        sample = np.linspace(0.0, 1.0, 1001)
        if np.any(self.g(sample) < 0.0):
            raise ConfigError("(A1) coupling g must be nonnegative on [0, 1]")
        if np.any(self.g_second(sample) > 0.0):
            raise ConfigError("(A1) coupling g must be concave on [0, 1]")

    # -- F ---------------------------------------------------------------
    def f(self, rho):
        s = 2.0 * np.asarray(rho, dtype=float) - 1.0
        return -0.5 * self.f_strength * s * s

    def f_prime(self, rho):
        return -2.0 * self.f_strength * (2.0 * np.asarray(rho, dtype=float) - 1.0)

    def f_second(self, rho):
        return np.full_like(np.asarray(rho, dtype=float), -4.0 * self.f_strength)

    # -- g ---------------------------------------------------------------
    def g(self, rho):
        r = np.asarray(rho, dtype=float)
        if self.g_family == "linear":
            return r.copy()
        if self.g_family == "saturating":
            return r * (2.0 - r)
        return np.zeros_like(r)

    def g_prime(self, rho):
        r = np.asarray(rho, dtype=float)
        if self.g_family == "linear":
            return np.ones_like(r)
        if self.g_family == "saturating":
            return 2.0 - 2.0 * r
        return np.zeros_like(r)

    def g_second(self, rho):
        r = np.asarray(rho, dtype=float)
        if self.g_family == "linear":
            return np.zeros_like(r)
        if self.g_family == "saturating":
            return np.full_like(r, -2.0)
        return np.zeros_like(r)

    def level(self, alpha: float) -> QuenchLevel:
        return QuenchLevel(alpha, quench_scale(alpha, self.quench_exponent))


def _sigmoid(y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    e = np.exp(y[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _solve_quench_logit(b: np.ndarray, s: float):
    """Root of sigmoid(y) + s·y = b, the resolvent equation in the
    variable y = log_potential_prime(rho).

    Working in y keeps the iteration well posed even when the root sits
    within one ulp of 0 or 1 in the rho variable.  Safeguarded Newton:
    the bracket [(b-1)/s, b/s] always encloses the root and any Newton
    step leaving it falls back to bisection.  Newton starts at the root
    of the s = 0 equation, logit(b), clipped into the bracket; that is
    the bracket end whenever b lies outside (0, 1).  A drive too large
    for the bracket to be finite raises at once.
    """
    with np.errstate(over="ignore"):
        lo = (b - 1.0) / s
        hi = b / s
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise SolverError(
            f"quench resolvent bracket [(b-1)/s, b/s] is not finite "
            f"(max |b| = {float(np.max(np.abs(b))):.3e}, s = {s:.3e})"
        )
    y = np.clip(log_potential_prime(np.clip(b, RHO_MIN, RHO_MAX)), lo, hi)
    tol = RESOLVENT_TOL * np.maximum(1.0, np.abs(b))
    for _ in range(RESOLVENT_MAX_ITER):
        sig = _sigmoid(y)
        res = sig + s * y - b
        done = np.abs(res) <= tol
        if done.all():
            return y
        lo = np.where(res < 0.0, y, lo)
        hi = np.where(res > 0.0, y, hi)
        newton = y - res / (sig * (1.0 - sig) + s)
        inside = (newton > lo) & (newton < hi)
        y = np.where(done, y, np.where(inside, newton, 0.5 * (lo + hi)))
    worst = float(np.max(np.abs(res) / tol))
    raise SolverError(
        f"quench resolvent did not converge in {RESOLVENT_MAX_ITER} iterations "
        f"(worst residual {worst:.3e} times its tolerance)"
    )


def quench_resolvent_detail(b, s: float):
    """Solve rho + s·log_potential_prime(rho) = b.

    Returns (rho, slope) where slope is log_potential_prime at the root,
    computed from the logit iterate directly so it stays accurate when
    rho saturates to within rounding of 0 or 1.  rho is monotone and
    1-Lipschitz in b.
    """
    if s <= 0.0:
        raise ValueError("quench resolvent needs s > 0")
    arr = np.asarray(b, dtype=float)
    y = _solve_quench_logit(np.atleast_1d(arr).astype(float), float(s))
    rho = np.clip(_sigmoid(y), RHO_MIN, RHO_MAX)
    if arr.ndim == 0:
        return float(rho[0]), float(y[0])
    return rho.reshape(arr.shape), y.reshape(arr.shape)


def obstacle_resolvent(b, tau: float):
    """Resolvent of the obstacle subdifferential at step size tau.

    Returns (rho, xi) with rho the clip of b onto [0, 1] and
    xi = (b - rho)/tau the discrete multiplier; the sign structure
    (xi ≤ 0 at rho = 0, xi = 0 inside, xi ≥ 0 at rho = 1) is exact.
    """
    if tau <= 0.0:
        raise ValueError("obstacle resolvent needs tau > 0")
    arr = np.asarray(b, dtype=float)
    rho = np.clip(arr, 0.0, 1.0)
    xi = (arr - rho) / tau
    if arr.ndim == 0:
        return float(rho), float(xi)
    return rho, xi
