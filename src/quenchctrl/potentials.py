"""Potentials, couplings, and the pointwise resolvents.

The order parameter is confined to [0, 1] either by the double obstacle
(hard constraint plus multiplier) or by its deep-quench regularization,
a logarithmic potential rho·ln(rho) + (1-rho)·ln(1-rho) scaled by a
factor that vanishes with the quench parameter alpha.  Both constraint
mechanisms enter the time stepping only through their resolvents, which
are computed here; the logarithmic potential itself enters only through
its first two derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError

__all__ = [
    "log_potential_prime",
    "log_potential_second",
    "quench_scale",
    "PotentialConfig",
    "quench_resolvent_detail",
    "obstacle_resolvent",
]

# resolvent outputs are clipped into [RHO_MIN, RHO_MAX] so that
# log_potential_second stays finite: RHO_MIN is the smallest normal
# double, whose reciprocal is finite (the smallest subnormal's is not),
# and RHO_MAX the largest double below 1
RHO_MIN = np.finfo(float).tiny
RHO_MAX = np.nextafter(1.0, 0.0)

# the quench resolvent stops once |residual| <= RESOLVENT_TOL·max(1, |b|)
# and raises after RESOLVENT_MAX_ITER iterations
RESOLVENT_TOL = 1e-13
RESOLVENT_MAX_ITER = 200


def _domain_check(rho: np.ndarray, what: str) -> None:
    if np.any(rho <= 0.0) or np.any(rho >= 1.0):
        raise ValueError(f"{what} requires rho in (0, 1)")


def log_potential_prime(rho):
    """ln(rho / (1-rho)) on the open interval."""
    r = np.asarray(rho, dtype=float)
    _domain_check(r, "log_potential_prime")
    return np.log(r) - np.log1p(-r)


def log_potential_second(rho):
    """1 / (rho (1-rho)), strictly positive on the open interval."""
    r = np.asarray(rho, dtype=float)
    _domain_check(r, "log_potential_second")
    return 1.0 / (r * (1.0 - r))


def quench_scale(alpha: float, exponent: float = 1.0) -> float:
    """Scale factor alpha**exponent multiplying the logarithmic term.

    Owns the quench level's range check: alpha must lie in (0, 1], so
    the obstacle's alpha = 0 (and NaN) raise here.  The value tends to
    zero with alpha, which is all the continuation relies on.  For a
    tiny alpha it may underflow to 0; `solve_state` rejects that, and
    `ProblemConfig` rejects a config whose resolvent step would.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("quench parameter alpha must lie in (0, 1]")
    if exponent <= 0.0:
        raise ValueError("quench exponent must be positive")
    return float(alpha) ** float(exponent)


_G_FAMILIES = ("linear", "saturating", "zero")


@dataclass(frozen=True)
class PotentialConfig:
    """Smooth model ingredients: F (regular potential part) and g (coupling).

    F is the concave quadratic F(rho) = -(strength/2)(2 rho - 1)² with
    strength ≥ 0; only its derivatives enter the scheme.  g families:
      linear              g(rho) = rho
      saturating          g(rho) = rho (2 - rho)
      zero                g ≡ 0 (degenerate, for tests)
    A derivative that is constant in rho (F″, g″, and g′ unless g is
    saturating) is returned as a Python float, not an array.

    Each family is nonnegative and concave on [0, 1], as (A1) asks, so
    construction checks only the family name, the strength and the
    quench exponent, each under the (A1) tag.  The quench level itself
    is a plain alpha; `quench_scale(alpha, quench_exponent)` checks its
    range and gives the factor of the logarithmic term.
    """

    f_strength: float = 0.25
    g_family: str = "linear"
    quench_exponent: float = 1.0

    def __post_init__(self):
        if self.g_family not in _G_FAMILIES:
            raise ConfigError(f"(A1) unknown g family {self.g_family!r}")
        if self.f_strength < 0.0:
            raise ConfigError("(A1) concave-quadratic strength must be >= 0")
        if self.quench_exponent <= 0.0:
            raise ConfigError("(A1) quench exponent must be positive")

    # -- F ---------------------------------------------------------------
    def f_prime(self, rho):
        return -2.0 * self.f_strength * (2.0 * np.asarray(rho, dtype=float) - 1.0)

    def f_second(self, rho):
        return -4.0 * self.f_strength

    # -- g ---------------------------------------------------------------
    def g(self, rho):
        r = np.asarray(rho, dtype=float)
        if self.g_family == "linear":
            return r.copy()
        if self.g_family == "saturating":
            return r * (2.0 - r)
        return np.zeros_like(r)

    def g_prime(self, rho):
        if self.g_family == "linear":
            return 1.0
        if self.g_family == "saturating":
            return 2.0 - 2.0 * np.asarray(rho, dtype=float)
        return 0.0

    def g_second(self, rho):
        return -2.0 if self.g_family == "saturating" else 0.0


def quench_resolvent_detail(b, s: float):
    """Solve rho + s·log_potential_prime(rho) = b.

    Returns (rho, slope) where slope is log_potential_prime at the root:
    the root y of sigmoid(y) + s·y = b, the resolvent equation in the
    variable y = log_potential_prime(rho).  Working in y keeps the
    iteration well posed, and the slope accurate, even when the root
    sits within one ulp of 0 or 1 in the rho variable.  rho is the
    sigmoid of the last iterate, clipped into [RHO_MIN, RHO_MAX]; it is
    monotone and 1-Lipschitz in b.

    Plain Newton, started at the root of the s = 0 equation, logit(b),
    clipped into the bracket [(b-1)/s, b/s] that encloses the root; that
    is the bracket end whenever b lies outside (0, 1).  No safeguard is
    needed: f(y) = sigmoid(y) + s·y - b is increasing, convex for y <= 0
    and concave for y >= 0, and the start lies in the root's half-line.
    If it lies beyond the root, the tangent there has the sign of f(0)
    at 0, so the first Newton step lands between the root and 0; from
    that side the iterates move monotonically to the root.  A drive so
    large that (max|b| + 1)/s, a bound on both bracket ends, is not
    finite raises at once.  The sigmoid is formed from e = exp(-|y|)
    only, so no branch can overflow, and its derivative
    sigmoid·(1 - sigmoid) is e/(1 + e)² on both branches.
    """
    if s <= 0.0:
        raise ValueError("quench resolvent needs s > 0")
    b, s = np.asarray(b, dtype=float), float(s)
    abs_b = np.abs(b)
    top = float(abs_b.max())
    # (max|b| + 1)/s bounds every |(b - 1)/s| and |b/s|; NaN fails it too
    if not math.isfinite((top + 1.0) / s):
        raise SolverError(
            f"quench resolvent bracket [(b-1)/s, b/s] is not finite "
            f"(max |b| = {top:.3e}, s = {s:.3e})"
        )
    lo = (b - 1.0) / s
    hi = b / s
    r = np.minimum(np.maximum(b, RHO_MIN), RHO_MAX)
    y = np.minimum(np.maximum(np.log(r) - np.log1p(-r), lo), hi)
    tol = RESOLVENT_TOL * np.maximum(1.0, abs_b)
    for _ in range(RESOLVENT_MAX_ITER):
        e = np.exp(-np.abs(y))
        d = 1.0 / (1.0 + e)
        ed = e * d
        sig = np.where(y >= 0.0, d, ed)
        res = sig + s * y - b
        # counted, not .all(): on the few cells of a step the reduction's
        # call costs more than the test
        if np.count_nonzero(np.abs(res) <= tol) == b.size:
            return np.minimum(np.maximum(sig, RHO_MIN), RHO_MAX), y
        y = y - res / (ed * d + s)
    worst = float(np.max(np.abs(res) / tol))
    raise SolverError(
        f"quench resolvent did not converge in {RESOLVENT_MAX_ITER} iterations "
        f"(worst residual {worst:.3e} times its tolerance)"
    )


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
    return rho, (arr - rho) / tau
