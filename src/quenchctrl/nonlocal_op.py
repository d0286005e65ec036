"""Nonlocal coupling operator: kernel catalog and offset-lattice convolution.

The spatial coupling B[f](x) = ∫ k(|y - x|) f(y) dy is discretized by
midpoint quadrature on the cell centers.  On a uniform grid the weight
between cells i and j depends only on their index offset d = j - i, so
the operator stores the kernel once per offset, w[d] = k(|d·h|) · vol
for d in -(n-1)..(n-1) on each axis, and applies the (block-)Toeplitz
table as a convolution: directly in 1D, and in 2D by zero-padded FFT
on the circulant embedding (Golub & Van Loan, Matrix Computations,
§4.7).  The operator is linear, so its directional derivative is
itself; the kernel is radial, so the table is symmetric and the adjoint
is the operator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid

__all__ = ["Kernel", "NonlocalOperator"]

_VARIANTS = ("gaussian", "newtonian", "tophat", "zero")


@dataclass(frozen=True)
class Kernel:
    """Radial interaction kernel k(r).

    Variants:
      gaussian   amplitude · exp(-r² / (2 width²))
      newtonian  strength / max(r, core_radius)
      tophat     amplitude on r ≤ radius, zero beyond
      zero       identically zero
    """

    variant: str
    amplitude: float = 1.0
    width: float = 1.0
    core_radius: float = 1e-3
    radius: float = 1.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(
                f"(A3) unknown kernel variant {self.variant!r}; "
                f"expected one of {_VARIANTS}"
            )
        if self.variant == "gaussian" and self.width <= 0:
            raise ConfigError("(A3) gaussian kernel needs width > 0")
        # evaluate divides by 2·width², which must be neither inf nor 0
        if self.variant == "gaussian" and not 0.0 < self.width * self.width < math.inf:
            raise ConfigError(
                f"(A3) gaussian kernel width {self.width:g} has no finite positive square"
            )
        if self.variant == "newtonian" and self.core_radius <= 0:
            raise ConfigError("(A3) newtonian kernel needs core_radius > 0")
        if self.variant == "tophat" and self.radius < 0:
            raise ConfigError("(A3) tophat kernel needs radius >= 0")

    @classmethod
    def gaussian(cls, amplitude: float, width: float) -> "Kernel":
        return cls("gaussian", amplitude=amplitude, width=width)

    @classmethod
    def tophat(cls, amplitude: float, radius: float) -> "Kernel":
        return cls("tophat", amplitude=amplitude, radius=radius)

    @classmethod
    def zero(cls) -> "Kernel":
        return cls("zero", amplitude=0.0)

    def evaluate(self, r):
        """k(r), elementwise for r ≥ 0; always finite."""
        r = np.asarray(r, dtype=float)
        if self.variant == "gaussian":
            return self.amplitude * np.exp(-(r * r) / (2.0 * self.width**2))
        if self.variant == "newtonian":
            return self.amplitude / np.maximum(r, self.core_radius)
        if self.variant == "tophat":
            return np.where(r <= self.radius, self.amplitude, 0.0)
        return np.zeros_like(r)


class NonlocalOperator:
    """B on a fixed grid, stored as kernel weights on the offset lattice.

    A weight is evaluated at r = |d·h| for the index offset d, so every
    pair of cells at one offset gets the same weight, top-hat ties
    (r == radius) included; a difference of cell centres can round
    either side of such a tie.
    """

    def __init__(self, kernel: Kernel, grid: Grid):
        self.kernel = kernel
        self.grid = grid
        offsets = [np.arange(1 - n, n) * h for n, h in zip(grid.cells, grid.spacing)]
        mesh = np.meshgrid(*offsets, indexing="ij")
        dist = np.sqrt(sum(m * m for m in mesh))
        self.weights = kernel.evaluate(dist) * grid.cell_volume
        if grid.dim == 2:
            # circulant embedding: offset d sits at index d mod 2n, and the
            # one offset no pair of cells reaches (±n) holds a zero
            ring = np.fft.ifftshift(np.pad(self.weights, ((1, 0), (1, 0))))
            # the embedding is even on each axis, so its spectrum is real
            self.spectrum = np.fft.rfft2(ring).real

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """B[values]; the table is symmetric, so this is also the adjoint."""
        if self.grid.dim == 1:
            return np.convolve(values, self.weights, "valid")
        n1, n2 = self.grid.cells
        pad = (2 * n1, 2 * n2)
        out = np.fft.irfft2(self.spectrum * np.fft.rfft2(values, pad), pad)
        return out[:n1, :n2]

    apply_adjoint_values = apply_values
