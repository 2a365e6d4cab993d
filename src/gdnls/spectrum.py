"""Fourier-side representation of functions on a uniform frequency grid.

Conventions fixed once for the whole package:

* forward transform  f_hat(xi) = int f(x) exp(-i x xi) dx, inverse carries 1/(2 pi);
* H^s norm  ( (1/2pi) int <xi>^{2s} |f_hat|^2 dxi )^{1/2}  with <xi> = (1+xi^2)^{1/2};
* frequency blocks are half-open, [center - A/2, center + A/2), resolved by
  grid-point membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "FrequencyGrid",
    "SpectralFunction",
    "ParameterSet",
    "NormReport",
    "make_phi",
    "smooth_bump",
    "sobolev_norm",
    "fl_norm",
    "free_evolve",
    "resample",
    "norm_report",
    "default_grid",
]

MIN_POINTS_PER_BLOCK = 32


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid xi_j = xi_min + j * delta_xi, j = 0..count-1."""

    xi_min: float
    delta_xi: float
    count: int

    def __post_init__(self):
        if self.delta_xi <= 0:
            raise ConfigurationError("delta_xi must be positive")
        if self.count < 2:
            raise ConfigurationError("grid needs at least 2 points")

    @classmethod
    def symmetric(cls, xi_max: float, delta_xi: float) -> "FrequencyGrid":
        """Grid symmetric about 0 with 0 on the lattice, covering [-xi_max, xi_max]."""
        half = int(math.ceil(xi_max / delta_xi))
        return cls(xi_min=-half * delta_xi, delta_xi=delta_xi, count=2 * half + 1)

    @cached_property
    def xis(self) -> np.ndarray:
        return self.xi_min + self.delta_xi * np.arange(self.count)

    @property
    def xi_max(self) -> float:
        return self.xi_min + self.delta_xi * (self.count - 1)

    @property
    def is_symmetric(self) -> bool:
        return abs(self.xi_min + self.xi_max) < 1e-9 * self.delta_xi

    def index_of(self, xi: float) -> int:
        return int(round((xi - self.xi_min) / self.delta_xi))


@dataclass
class SpectralFunction:
    """Complex amplitudes f_hat(xi_j) on a FrequencyGrid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.count,):
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("spectral values must be finite")

    def copy(self) -> "SpectralFunction":
        return SpectralFunction(self.grid, self.values.copy())


@dataclass(frozen=True)
class ParameterSet:
    """Construction parameters: regularity s < 0, frequency scale N, block
    width A, amplitude R, evaluation time T, case exponent delta."""

    s: float
    N: float
    A: float
    R: float
    T: float
    delta: float = 0.0
    case_label: str = ""

    def __post_init__(self):
        if self.N < 1 or self.A < 1:
            raise ConfigurationError("need N >= 1 and A >= 1")
        if self.R <= 0 or self.T <= 0:
            raise ConfigurationError("need R > 0 and T > 0")


@dataclass(frozen=True)
class NormReport:
    h_s: float
    l2: float
    fl1: float
    fl_inf: float

    def as_dict(self) -> dict:
        return {"h_s": self.h_s, "l2": self.l2, "fl1": self.fl1, "fl_inf": self.fl_inf}


def _block_mask(grid: FrequencyGrid, center: float, width: float) -> np.ndarray:
    xis = grid.xis
    return (xis >= center - width / 2) & (xis < center + width / 2)


def make_phi(
    params: ParameterSet,
    grid: FrequencyGrid,
    min_points_per_block: int = MIN_POINTS_PER_BLOCK,
) -> SpectralFunction:
    """Two-block datum: amplitude R on [2N - A/2, 2N + A/2) and [3N - A/2, 3N + A/2)."""
    N, A, R = params.N, params.A, params.R
    if grid.delta_xi > A / min_points_per_block:
        raise ConfigurationError(
            f"grid spacing {grid.delta_xi} too coarse: need >= {min_points_per_block} "
            f"points per block width A = {A}"
        )
    if grid.xi_min > 2 * N - A / 2 or grid.xi_max < 3 * N + A / 2:
        raise ConfigurationError(
            f"grid [{grid.xi_min}, {grid.xi_max}] does not cover the data support "
            f"[{2 * N - A / 2}, {3 * N + A / 2}]"
        )
    values = np.zeros(grid.count, dtype=np.complex128)
    values[_block_mask(grid, 2 * N, A)] = R
    values[_block_mask(grid, 3 * N, A)] = R
    return SpectralFunction(grid, values)


def smooth_bump(grid: FrequencyGrid, radius: float, s: float) -> SpectralFunction:
    """Smooth compactly supported spectrum exp(-1/(1-(xi/radius)^2)) on
    (-radius, radius), scaled to unit H^s norm."""
    xis = grid.xis
    u = xis / radius
    values = np.zeros(grid.count, dtype=np.complex128)
    inside = np.abs(u) < 1
    values[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    f = SpectralFunction(grid, values)
    norm = sobolev_norm(f, s)
    if norm == 0.0:
        raise ConfigurationError("bump unresolved on this grid; refine delta_xi")
    f.values *= 1.0 / norm
    return f


def sobolev_norm(f: SpectralFunction, s: float) -> float:
    w = (1.0 + f.grid.xis**2) ** s
    integrand = w * np.abs(f.values) ** 2
    return float(np.sqrt(np.trapezoid(integrand, dx=f.grid.delta_xi) / (2 * np.pi)))


def fl_norm(f: SpectralFunction, p: float) -> float:
    if p == 1:
        return float(np.trapezoid(np.abs(f.values), dx=f.grid.delta_xi))
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    raise ConfigurationError("only p = 1 and p = inf are supported")


def free_evolve(f: SpectralFunction, t: float) -> SpectralFunction:
    """Linear Schroedinger flow: multiplication by exp(-i t xi^2)."""
    return SpectralFunction(f.grid, f.values * np.exp(-1j * t * f.grid.xis**2))


def resample(f: SpectralFunction, grid: FrequencyGrid) -> SpectralFunction:
    """Linear interpolation of a spectrum onto another grid (zero outside)."""
    if f.grid == grid:
        return f
    re = np.interp(grid.xis, f.grid.xis, f.values.real, left=0.0, right=0.0)
    im = np.interp(grid.xis, f.grid.xis, f.values.imag, left=0.0, right=0.0)
    return SpectralFunction(grid, re + 1j * im)


def norm_report(f: SpectralFunction, s: float) -> NormReport:
    return NormReport(
        h_s=sobolev_norm(f, s),
        l2=sobolev_norm(f, 0.0),
        fl1=fl_norm(f, 1),
        fl_inf=fl_norm(f, math.inf),
    )


def default_grid(
    params: ParameterSet,
    generations: int = 1,
    points_per_block: int = 64,
    extra_blocks: float = 32.0,
    psi_radius: float = 0.0,
) -> FrequencyGrid:
    """Symmetric grid wide enough for the Picard level `generations` and
    every level below it, for phi plus a perturbation within psi_radius of 0.

    K combines its operands' supports with signs + - + - + and J with + + -,
    so a datum in [lo, hi], lo + hi >= 0, reaches hi + 2g (hi - lo) at level
    g; here lo = -psi_radius and hi = max(3N, psi_radius) (psi_radius = 0
    covers any datum in [0, 3N]).  The `extra_blocks` widths A beyond that
    cover phi's half blocks, (2g + 1) A / 2 at level g.
    """
    hi = max(3 * params.N, psi_radius)
    reach = hi + 2 * generations * (hi + psi_radius)
    return FrequencyGrid.symmetric(reach + extra_blocks * params.A, params.A / points_per_block)
