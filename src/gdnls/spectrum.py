"""Fourier-side representation of functions on a uniform frequency grid.

Conventions fixed once for the whole package:

* forward transform  f_hat(xi) = int f(x) exp(-i x xi) dx, inverse carries 1/(2 pi);
* H^s norm  ( (1/2pi) int <xi>^{2s} |f_hat|^2 dxi )^{1/2}  with <xi> = (1+xi^2)^{1/2};
* frequency blocks are half-open, [center - A/2, center + A/2), resolved by
  grid-point membership.

A spectrum is stored on its support: the sorted grid indices where it is
nonzero and its amplitudes there.  Grid points are computed by index,
xi_j = xi_min + j delta_xi, so nothing on the way from the datum to its
norms allocates or scans the grid's count of points.  The column helpers
here (runs, the sum onto a union of columns, the dense view) serve
picard's frame stacks too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AccuracyError, ConfigurationError, ResourceError

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
        if self.count > np.iinfo(np.int64).max:
            raise ResourceError(
                f"grid of {self.count} points: its indices do not fit int64; lower N or widen delta_xi"
            )

    @classmethod
    def symmetric(cls, xi_max: float, delta_xi: float) -> "FrequencyGrid":
        """Grid symmetric about 0 with 0 on the lattice, covering [-xi_max, xi_max]."""
        half = int(math.ceil(xi_max / delta_xi))
        return cls(xi_min=-half * delta_xi, delta_xi=delta_xi, count=2 * half + 1)

    def xi(self, indices):
        """The grid points at `indices`, computed as xi_min + delta_xi * indices."""
        return self.xi_min + self.delta_xi * indices

    @property
    def xis(self) -> np.ndarray:
        """Every grid point: a dense array of `count` floats, built on each read."""
        return self.xi(np.arange(self.count))

    @property
    def xi_max(self) -> float:
        return self.xi_min + self.delta_xi * (self.count - 1)

    @property
    def is_symmetric(self) -> bool:
        return abs(self.xi_min + self.xi_max) < 1e-9 * self.delta_xi

    def index_of(self, xi: float) -> int:
        return int(round((xi - self.xi_min) / self.delta_xi))


def _nonzero_columns(columns: np.ndarray, values: np.ndarray) -> tuple:
    """`columns` and `values` (columns on the last axis) cut to the columns
    nonzero somewhere; returned as given, not copied, when none is zero."""
    nonzero = np.any(np.atleast_2d(values), axis=0)
    if nonzero.all():
        return columns, values
    return columns[nonzero], values[..., nonzero]


def _runs(columns: np.ndarray) -> list[tuple[slice, slice]]:
    """The runs of consecutive values in the sorted `columns`, as pairs
    (slice of `columns`, slice of the values it holds)."""
    bounds = [0, *(np.flatnonzero(np.diff(columns) != 1) + 1).tolist(), columns.size]
    firsts = columns[bounds[:-1]].tolist() if columns.size else []
    return [(slice(a, b), slice(c, c + b - a)) for a, b, c in zip(bounds, bounds[1:], firsts)]


def _cover(intervals) -> np.ndarray:
    """The sorted integers in a union of closed intervals [first, last]."""
    runs = []
    for first, last in sorted(intervals):
        if runs and first <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], last)
        else:
            runs.append([first, last])
    return np.concatenate([np.arange(a, b + 1) for a, b in runs] + [np.empty(0, dtype=np.intp)])


def _sum_on_columns(terms) -> tuple:
    """(columns, values) of the sum of a nonempty list of (columns, values)
    terms: each is added in order onto the union of the columns, a run of
    consecutive columns at a time, through slices."""
    runs = [_runs(c) for c, _ in terms]
    columns = _cover((held.start, held.stop - 1) for term in runs for _, held in term)
    total = np.zeros(terms[0][1].shape[:-1] + (columns.size,), dtype=np.complex128)
    for (_, v), term in zip(terms, runs):
        starts = np.searchsorted(columns, [held.start for _, held in term]).tolist()
        for (local, held), at in zip(term, starts):
            total[..., at : at + held.stop - held.start] += v[..., local]
    return columns, total


def _dense(f) -> np.ndarray:
    """f's stored amplitudes (columns on the last axis) on every grid point:
    the stored array itself when no column is zero."""
    if f.columns.size == f.grid.count:
        return f.amplitudes
    dense = np.zeros(f.amplitudes.shape[:-1] + (f.grid.count,), dtype=np.complex128)
    dense[..., f.columns] = f.amplitudes
    return dense


class SpectralFunction:
    """Complex amplitudes f_hat(xi_j) on a FrequencyGrid, stored on their
    support: `columns` holds the sorted grid indices where f_hat is nonzero
    and `amplitudes` its values there; every other point is 0.  `values` is
    the dense view on all `count` points, built on read.

    SpectralFunction(grid, values) takes a dense array and keeps its nonzero
    entries; an array with no zero is kept as it is, not copied."""

    def __init__(self, grid: FrequencyGrid, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (grid.count,):
            raise ConfigurationError(
                f"values shape {values.shape} does not match grid count {grid.count}"
            )
        self._store(grid, np.arange(grid.count), values)

    @classmethod
    def _on_columns(cls, grid, columns, amplitudes) -> "SpectralFunction":
        """A spectrum given on the sorted grid indices `columns`."""
        f = cls.__new__(cls)
        f._store(grid, columns, amplitudes)
        return f

    def _store(self, grid, columns: np.ndarray, amplitudes: np.ndarray) -> None:
        self.grid = grid
        self.columns, self.amplitudes = _nonzero_columns(columns, amplitudes)
        if not np.all(np.isfinite(self.amplitudes)):
            raise ConfigurationError("spectral values must be finite")

    values = property(_dense, doc="The dense spectrum: the stored array itself when no point is zero.")

    def __add__(self, other: "SpectralFunction") -> "SpectralFunction":
        if other.grid != self.grid:
            raise ConfigurationError("operands must share one frequency grid")
        terms = [(self.columns, self.amplitudes), (other.columns, other.amplitudes)]
        return SpectralFunction._on_columns(self.grid, *_sum_on_columns(terms))

    def __sub__(self, other: "SpectralFunction") -> "SpectralFunction":
        # a + (-b) rounds as a - b
        return self + SpectralFunction._on_columns(other.grid, other.columns, -other.amplitudes)


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
        return asdict(self)


def _around(grid: FrequencyGrid, lo: float, hi: float) -> np.ndarray:
    """The grid indices of [lo, hi] and of a point or two each side, for the
    caller's own test on their points: grid points rise with their index."""
    first = max(math.floor((lo - grid.xi_min) / grid.delta_xi) - 1, 0)
    last = min(math.ceil((hi - grid.xi_min) / grid.delta_xi) + 1, grid.count - 1)
    return np.arange(first, last + 1)


def _block(grid: FrequencyGrid, center: float, width: float) -> np.ndarray:
    """Indices of the grid points in [center - width/2, center + width/2)."""
    lo, hi = center - width / 2, center + width / 2
    j = _around(grid, lo, hi)
    xi = grid.xi(j)
    return j[(xi >= lo) & (xi < hi)]


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
    blocks = _block(grid, 2 * N, A), _block(grid, 3 * N, A)
    # a half-open interval of width A holds at least floor(A / delta_xi)
    # lattice points: fewer means float64 cannot place the grid's points there
    need = math.floor(A / grid.delta_xi)
    for center, block in zip((2 * N, 3 * N), blocks):
        if block.size < need:
            raise AccuracyError(
                f"the block at xi = {center:g} holds {block.size} grid points, fewer than the "
                f"{need} of its width A = {A:g}: float64 cannot resolve delta_xi = "
                f"{grid.delta_xi:g} there; lower N"
            )
    columns = np.union1d(*blocks)
    return SpectralFunction._on_columns(grid, columns, np.full(columns.size, R, dtype=np.complex128))


def smooth_bump(grid: FrequencyGrid, radius: float, s: float) -> SpectralFunction:
    """Smooth compactly supported spectrum exp(-1/(1-(xi/radius)^2)) on
    (-radius, radius), scaled to unit H^s norm."""
    j = _around(grid, -radius, radius)
    u = grid.xi(j) / radius
    inside = np.abs(u) < 1
    values = np.exp(-1.0 / (1.0 - u[inside] ** 2)).astype(np.complex128)
    f = SpectralFunction._on_columns(grid, j[inside], values)
    norm = sobolev_norm(f, s)
    if norm == 0.0:
        raise ConfigurationError("bump unresolved on this grid; refine delta_xi")
    return SpectralFunction._on_columns(grid, f.columns, f.amplitudes * (1.0 / norm))


def _per_node(x):
    """A float for a frame's 0-d reduction, the array of a stack's."""
    return x if np.ndim(x) else float(x)


def _trapezoid(f, y: np.ndarray):
    """Trapezoid rule over the grid of y (f's columns on its last axis), 0 elsewhere."""
    ends = (f.columns == 0) | (f.columns == f.grid.count - 1)
    return f.grid.delta_xi * (np.sum(y, axis=-1) - 0.5 * np.sum(y[..., ends], axis=-1))


def sobolev_norm(f, s: float):
    """H^s norm of a SpectralFunction, or one per node of a SpaceTimeFunction:
    every norm reduces over the last (column) axis."""
    y = np.abs(f.amplitudes)
    y *= y
    y *= (1.0 + f.grid.xi(f.columns) ** 2) ** s
    return _per_node(np.sqrt(_trapezoid(f, y) / (2 * np.pi)))


def fl_norm(f, p: float):
    if p == 1:
        return _per_node(_trapezoid(f, np.abs(f.amplitudes)))
    if p == math.inf:
        return _per_node(np.max(np.abs(f.amplitudes), axis=-1, initial=0.0))
    raise ConfigurationError("only p = 1 and p = inf are supported")


def free_evolve(f: SpectralFunction, t: float) -> SpectralFunction:
    """Linear Schroedinger flow: multiplication by exp(-i t xi^2)."""
    phase = np.exp(-1j * t * f.grid.xi(f.columns) ** 2)
    return SpectralFunction._on_columns(f.grid, f.columns, f.amplitudes * phase)


def resample(f: SpectralFunction, grid: FrequencyGrid) -> SpectralFunction:
    """Linear interpolation of a spectrum onto another grid (zero outside).

    The interpolant vanishes off the source's columns widened by a point each
    way, so only that stretch is interpolated, at the target points around
    it; np.interp is pointwise, so the bits are those of the whole grid."""
    if f.grid == grid:
        return f
    if f.columns.size == 0:
        return SpectralFunction._on_columns(grid, f.columns, f.amplitudes)
    first, last = max(f.columns[0] - 1, 0), min(f.columns[-1] + 1, f.grid.count - 1)
    xp = f.grid.xi(np.arange(first, last + 1))
    fp = np.zeros(xp.size, dtype=np.complex128)
    fp[f.columns - first] = f.amplitudes
    j = _around(grid, xp[0], xp[-1])
    re = np.interp(grid.xi(j), xp, fp.real, left=0.0, right=0.0)
    im = np.interp(grid.xi(j), xp, fp.imag, left=0.0, right=0.0)
    return SpectralFunction._on_columns(grid, j, re + 1j * im)


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
    if points_per_block < 1:
        raise ConfigurationError(f"points_per_block must be >= 1 (got {points_per_block})")
    hi = max(3 * params.N, psi_radius)
    reach = hi + 2 * generations * (hi + psi_radius)
    return FrequencyGrid.symmetric(reach + extra_blocks * params.A, params.A / points_per_block)
