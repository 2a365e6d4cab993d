"""Fourier-side evaluation of the Duhamel operators and of the Picard series
by level recursion; per-tree evaluation (psi) is the recursion's test oracle.

Everything lives on one shared symmetric frequency grid and one shared
uniform time grid, so operators nest without re-integration: an inner
iterate is available at every quadrature node of the outer time integral.

Product structure on the Fourier side (with the package convention
f_hat = int f exp(-i x xi) dx):

    F[f g]           = (1/2pi) f_hat * g_hat          (* = continuous convolution)
    F[conj(f)](xi)   = conj(f_hat(-xi))
    F[d/dx conj(f)]  = i xi conj(f_hat(-xi))

Continuous convolutions are approximated by delta_xi-weighted discrete
convolutions.  A Duhamel product is one multi-operand product of transforms:
each frame row is stored circularly (xi = 0 at index 0, negative xi at the
end) and zero-padded to a length P chosen per term from its operands'
support.  Each operand's nonzero extent over all its frames is read as signed
index offsets [lo, hi] from xi = 0; a conjugate or derivative slot reflects
it to [-hi, -lo].  The Minkowski sum of the slot extents is the hull of the
linear product, and P = next_fast_len of the span of (hull U kept window
[-half, half]), half = (count - 1) // 2.  At that length every offset of the
span has its own residue mod P, so nothing wraps onto the kept window and the
mass beyond it stays where the edge test reads it.  The span is capped at
6 half + 3, which only a quintic term with several wide operands
exceeds: a 5-fold product of rows on |index| <= half reaches |index| <=
5 half, and at length 6 half + 3 its wraparound lands beyond the kept window
and its two outermost cells.  In this layout the transform of
conj(v(-xi)) is conj(F[v]), so conjugate slots need no transform of their
own.  The edge test runs on the final product only: mass outside the kept
window, or in its two outermost cells at either end, above CLIP_TOL of the
peak triggers an accuracy error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .errors import AccuracyError, ConfigurationError, ResourceError
from .spectrum import FrequencyGrid, SpectralFunction, sobolev_norm
from .trees import Tree, compositions, tree_stats

__all__ = [
    "TimeGrid",
    "SpaceTimeFunction",
    "SeriesResult",
    "duhamel_J",
    "duhamel_K",
    "psi",
    "first_iterate_quintic_exact",
    "xi_generation",
    "xi_level",
    "series_levels",
    "level_summary",
    "series_sum",
    "free_frames",
]

DEFAULT_GENERATION_CAP = 2
# relative edge mass above which a product counts as clipped by the grid
CLIP_TOL = 1e-10
MIN_TIME_STEPS = 4
PHASE_OVERSAMPLE = 16.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform quadrature grid on [0, t_max] with an even number of steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if self.t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        if self.steps < 4 or self.steps % 2:
            raise ConfigurationError("steps must be even and >= 4 (composite Simpson)")

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)

    @classmethod
    def for_extent(
        cls,
        t_max: float,
        xi_max: float,
        max_steps: int = 4096,
    ) -> "TimeGrid":
        """Steps chosen to resolve the oscillatory phase exp(i t' xi^2),
        whose magnitude is bounded by t * xi_max^2."""
        need = int(np.ceil(PHASE_OVERSAMPLE * t_max * xi_max**2))
        steps = min(max(MIN_TIME_STEPS, need), max_steps)
        if steps % 2:
            steps += 1
        return cls(t_max=t_max, steps=steps)


@dataclass
class SpaceTimeFunction:
    """One SpectralFunction per time node, stored as a (steps+1, count) array."""

    time_grid: TimeGrid
    grid: FrequencyGrid
    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.complex128)
        expected = (self.time_grid.steps + 1, self.grid.count)
        if self.frames.shape != expected:
            raise ConfigurationError(f"frames shape {self.frames.shape}, expected {expected}")

    def at_index(self, i: int) -> SpectralFunction:
        return SpectralFunction(self.grid, self.frames[i].copy())

    @property
    def final(self) -> SpectralFunction:
        return self.at_index(self.time_grid.steps)

    def __add__(self, other: "SpaceTimeFunction") -> "SpaceTimeFunction":
        _check_compatible(self, other)
        return SpaceTimeFunction(self.time_grid, self.grid, self.frames + other.frames)


def _check_compatible(*fns: SpaceTimeFunction) -> None:
    tg, grid = fns[0].time_grid, fns[0].grid
    for f in fns[1:]:
        if f.time_grid != tg or f.grid != grid:
            raise ConfigurationError("operands must share time and frequency grids")
    if not grid.is_symmetric:
        raise ConfigurationError("shared grid must be symmetric about 0")


def free_frames(phi: SpectralFunction, tg: TimeGrid) -> SpaceTimeFunction:
    """Free evolution S(t) phi sampled at every time node."""
    phase = np.exp(-1j * np.outer(tg.times, phi.grid.xis**2))
    return SpaceTimeFunction(tg, phi.grid, phase * phi.values[np.newaxis, :])


def _conj_reflect(frames: np.ndarray) -> np.ndarray:
    """F[conj(v)] on a symmetric grid: conjugate and reverse the xi axis."""
    return np.conj(frames[..., ::-1])


def _extent(frames: np.ndarray, half: int) -> tuple[int, int]:
    """Signed index offsets from xi = 0 of the outermost columns that are
    nonzero in some frame; (0, 0) when every frame is zero."""
    nonzero = np.flatnonzero(np.any(frames, axis=0))
    if nonzero.size == 0:
        return 0, 0
    return int(nonzero[0]) - half, int(nonzero[-1]) - half


# sign of each slot's frequency in the output: S1 + S2 - S3 (J), S1 - S2 + S3 - S4 + S5 (K)
_SLOT_SIGNS = {3: (1, 1, -1), 5: (1, -1, 1, -1, 1)}


def _transform_len(term, extents: dict, half: int) -> int:
    """FFT length of one term: next_fast_len of the span of (product hull U
    kept window), capped at 6 half + 3 (see the module docstring)."""
    lo = hi = 0
    for sign, v in zip(_SLOT_SIGNS[len(term)], term):
        a, b = extents[id(v)]
        lo, hi = (lo + a, hi + b) if sign > 0 else (lo - b, hi - a)
    span = max(hi, half) - min(lo, -half) + 1
    return next_fast_len(min(span, 6 * half + 3))


def _cumulative_simpson(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative composite Simpson along axis 0 of a stack of an odd number
    of uniformly spaced nodes, in place; node 0 becomes 0.

    The pairing is scipy's cumulative_simpson: interval 2m takes the parabola
    through nodes 2m, 2m+1, 2m+2 with weights (5, 8, -1) dt/12, interval
    2m+1 the same parabola with weights (-1, 8, 5) dt/12.
    """
    left, mid, right = y[:-1:2], y[1::2], y[2::2]
    second = 8 * mid
    first = 5 * left
    first += second
    first -= right
    second += 5 * right
    second -= left
    mid[...] = first
    right[...] = second
    y[0] = 0.0
    y *= dt / 12
    return np.cumsum(y, axis=0, out=y)


def _accumulate(terms) -> SpaceTimeFunction:
    """Sum of the Duhamel products of a nonempty list of operand tuples, added
    in order: three operands give duhamel_J, five give duhamel_K.

    Each term takes the transform length of its own operands' support (see
    the module docstring).  One time node at a time, each distinct operand
    (by identity) is transformed once per (length, derivative slot) and
    shared by every term that takes it at that length, and each term takes
    one inverse transform.  A term's bits thus depend only on its own
    operands, and each term is closed in time before it is added, so a
    multi-term call gives the bits of the sum of single-term calls.
    """
    operands = [v for term in terms for v in term]
    _check_compatible(*operands)
    tg, grid = operands[0].time_grid, operands[0].grid
    half = (grid.count - 1) // 2
    extents = {id(v): _extent(v.frames, half) for v in operands}
    sizes = [_transform_len(term, extents, half) for term in terms]
    rows = {size: np.zeros(size, dtype=np.complex128) for size in sizes}
    ixi = 1j * grid.xis

    def spectrum(v: SpaceTimeFunction, size: int, derivative: bool = False) -> np.ndarray:
        """Transform of v, or of F[d/dx conj(v)] = i xi conj(v(-xi)), at node i."""
        key = (id(v), derivative, size)
        if key not in spectra:
            values = ixi * _conj_reflect(v.frames[i]) if derivative else v.frames[i]
            row = rows[size]
            row[: half + 1] = values[half:]
            row[size - half :] = values[:half]
            spectra[key] = fft(row)
        return spectra[key]

    products = np.empty((len(terms), tg.steps + 1, grid.count), dtype=np.complex128)
    peaks, edges = np.zeros(len(terms)), np.zeros(len(terms))
    for i in range(tg.steps + 1):
        spectra = {}
        for n, (term, size) in enumerate(zip(terms, sizes)):
            if len(term) == 3:
                v1, v2, v3 = term
                prod = spectrum(v1, size) * spectrum(v2, size) * spectrum(v3, size, derivative=True)
            else:
                v1, v2, v3, v4, v5 = term
                prod = spectrum(v1, size) * np.conj(spectrum(v2, size)) * spectrum(v3, size)
                prod *= np.conj(spectrum(v4, size))
                prod *= spectrum(v5, size)
            full = ifft(prod, overwrite_x=True)
            mags = np.abs(full)
            peaks[n] = max(peaks[n], mags.max())
            # everything outside the kept window plus its two outermost cells
            edges[n] = max(edges[n], mags[half - 1 : size - half + 2].max())
            products[n, i, :half] = full[size - half :]
            products[n, i, half:] = full[: half + 1]
    clipped = edges > CLIP_TOL * peaks
    if np.any(clipped):
        ratio = np.max(edges[clipped] / peaks[clipped])
        raise AccuracyError(
            f"product support clipped at the grid edge "
            f"(relative edge mass {ratio:.2e} > {CLIP_TOL:.1e}); widen the grid"
        )

    # each term: exp(-i t xi^2) prefactor int_0^t exp(i t' xi^2) product(t') dt'
    phase = np.exp(1j * np.outer(tg.times, grid.xis**2))
    for product in products:
        product *= phase
        _cumulative_simpson(product, tg.dt)
    outer = np.conjugate(phase, out=phase)
    weight = grid.delta_xi / (2 * np.pi)
    total = np.zeros_like(products[0])
    for term, product in zip(terms, products):
        product *= outer
        # the convolution weight weight^(arity - 1) rides on the prefactor
        product *= -1j * weight**2 if len(term) == 3 else -0.5 * weight**4
        total += product
    return SpaceTimeFunction(tg, grid, total)


def duhamel_J(
    v1: SpaceTimeFunction,
    v2: SpaceTimeFunction,
    v3: SpaceTimeFunction,
) -> SpaceTimeFunction:
    """Cubic Duhamel operator: -i int_0^t S(t-t') v1 v2 d/dx conj(v3) dt'.

    Output frequency support is S1 + S2 - S3 (Minkowski).
    """
    return _accumulate([(v1, v2, v3)])


def duhamel_K(
    v1: SpaceTimeFunction,
    v2: SpaceTimeFunction,
    v3: SpaceTimeFunction,
    v4: SpaceTimeFunction,
    v5: SpaceTimeFunction,
) -> SpaceTimeFunction:
    """Quintic Duhamel operator:
    -(1/2) int_0^t S(t-t') v1 conj(v2) v3 conj(v4) v5 dt'.

    Output frequency support is S1 - S2 + S3 - S4 + S5 (Minkowski).
    """
    return _accumulate([(v1, v2, v3, v4, v5)])


def psi(
    tree: Tree,
    phi: SpectralFunction,
    tg: TimeGrid,
    cap: int = DEFAULT_GENERATION_CAP,
) -> SpaceTimeFunction:
    """Multilinear Picard term of one tree: leaves become S(t) phi, 3-ary
    nodes the cubic operator, 5-ary nodes the quintic one."""
    stats = tree_stats(tree)
    if stats.internal > cap:
        raise ResourceError(
            f"tree has {stats.internal} internal nodes, above the generation cap {cap}"
        )
    if tree.is_leaf:
        return free_frames(phi, tg)
    op = duhamel_J if len(tree.children) == 3 else duhamel_K
    return op(*(psi(c, phi, tg, cap) for c in tree.children))


def series_levels(
    phi: SpectralFunction,
    tg: TimeGrid,
    j_max: int,
) -> list[SpaceTimeFunction]:
    """Level sums Xi_0..Xi_{j_max} by the recursion Xi_0 = S(t) phi,
    Xi_j = sum_{j1+j2+j3=j-1} J(Xi_j1, Xi_j2, Xi_j3) + sum_{j1+..+j5=j-1} K(Xi_j1, .., Xi_j5):
    the sum of psi(tree) over all trees with j internal nodes, by multilinearity."""
    levels = [free_frames(phi, tg)]
    for j in range(1, j_max + 1):
        # quintic terms first, then cubic: the order fixes the bits of the sum
        terms = [[levels[i] for i in c] for arity in (5, 3) for c in compositions(j - 1, arity)]
        levels.append(_accumulate(terms))
    return levels


def xi_generation(
    k: int,
    p: int,
    phi: SpectralFunction,
    tg: TimeGrid,
    cap: int = DEFAULT_GENERATION_CAP,
) -> SpaceTimeFunction:
    """Sum of the Picard terms over every tree in generation (k, p), by the
    series_levels recursion over (k, p) pairs: J children sum to (k - 1, p),
    K children to (k, p - 1); terms are added in tree-enumeration order."""
    if k + p > cap:
        raise ResourceError(f"generation (k={k}, p={p}) above cap {cap}")
    return _generation(k, p, {(0, 0): free_frames(phi, tg)})


def _generation(k: int, p: int, table: dict) -> SpaceTimeFunction:
    """Xi_(k,p) from the per-call table of lower generations, filled on demand."""
    if (k, p) not in table:
        terms = [
            [_generation(a, b, table) for a, b in zip(ks, ps)]
            for arity, kc, pc in ((3, k - 1, p), (5, k, p - 1))
            if kc >= 0 and pc >= 0
            for ks in compositions(kc, arity)
            for ps in compositions(pc, arity)
        ]
        table[(k, p)] = _accumulate(terms)
    return table[(k, p)]


def xi_level(
    j: int,
    phi: SpectralFunction,
    tg: TimeGrid,
    cap: int = DEFAULT_GENERATION_CAP,
) -> SpaceTimeFunction:
    """Sum of xi_generation(k, p) over all k + p = j."""
    if j > cap:
        raise ResourceError(f"level {j} above cap {cap}")
    return series_levels(phi, tg, j)[j]


def level_summary(finals: list[SpectralFunction]) -> tuple:
    """(partial sum, L^2 norms of the levels, last observed ratio of
    consecutive norms, geometric tail extrapolated from it; inf if >= 1)."""
    total = SpectralFunction(finals[0].grid, np.sum([f.values for f in finals], axis=0))
    l2s = [sobolev_norm(f, 0.0) for f in finals]
    ratio = 0.0
    for j in range(1, len(l2s)):
        if l2s[j - 1] > 0:
            ratio = l2s[j] / l2s[j - 1]
    tail = l2s[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else float("inf")
    return total, l2s, ratio, tail


@dataclass
class SeriesResult:
    """Partial Picard sum at the final time plus convergence diagnostics."""

    total: SpectralFunction
    level_l2: list[float]
    ratio: float
    tail_estimate: float
    converged: bool
    warnings: list[str] = field(default_factory=list)


def series_sum(
    phi: SpectralFunction,
    tg: TimeGrid,
    j_max: int = DEFAULT_GENERATION_CAP,
) -> SeriesResult:
    """Partial sum of the Picard series up to level j_max, evaluated at t_max.

    The tail is extrapolated geometrically from the last observed L^2 level
    ratio; an observed ratio >= 1 raises an accuracy (divergence) error.
    """
    finals = [lvl.final for lvl in series_levels(phi, tg, j_max)]
    total, l2s, ratio, tail = level_summary(finals)
    warnings = []
    if j_max >= 1 and ratio >= 1.0:
        raise AccuracyError(f"Picard series diverging: observed level ratio {ratio:.3g} >= 1")
    if j_max >= 1 and ratio >= 0.5:
        warnings.append(f"level ratio {ratio:.3g} >= 1/2; tail extrapolation unreliable")
    return SeriesResult(
        total=total,
        level_l2=l2s,
        ratio=ratio,
        tail_estimate=tail,
        converged=ratio < 0.5,
        warnings=warnings,
    )


MAX_ORACLE_LATTICE = 90  # guard: the direct oracle builds S^4 arrays


def first_iterate_quintic_exact(
    phi: SpectralFunction,
    t: float,
    grid: FrequencyGrid | None = None,
) -> SpectralFunction:
    """Direct-sum oracle for the quintic first iterate K^5[S(t) phi].

    Quadrature over (xi_1..xi_4) on the support lattice of phi with
    xi_5 = xi - xi_1 + xi_2 - xi_3 + xi_4, using the closed-form time factor
    E(Phi, t) = (exp(i t Phi) - 1) / (i Phi) (4th-order Taylor fallback for
    |Phi| t < 1e-4).  Independent of the FFT-convolution / Simpson path.
    """
    grid = phi.grid if grid is None else grid
    if grid != phi.grid:
        raise ConfigurationError("oracle expects phi defined on the output grid")
    support = np.nonzero(np.abs(phi.values) > 0)[0]
    S = support.size
    if S == 0:
        return SpectralFunction(grid, np.zeros(grid.count, dtype=np.complex128))
    if S > MAX_ORACLE_LATTICE:
        raise ResourceError(
            f"oracle lattice size {S} exceeds {MAX_ORACLE_LATTICE}; use a coarser grid"
        )
    xs = grid.xis[support]
    amps = phi.values[support]

    x1 = xs[:, None, None, None]
    x2 = xs[None, :, None, None]
    x3 = xs[None, None, :, None]
    x4 = xs[None, None, None, :]
    shift = x1 - x2 + x3 - x4
    quad = -(x1**2) + x2**2 - x3**2 + x4**2
    prod4 = (
        amps[:, None, None, None]
        * np.conj(amps)[None, :, None, None]
        * amps[None, None, :, None]
        * np.conj(amps)[None, None, None, :]
    )

    lookup = phi.values
    dxi = grid.delta_xi
    out = np.zeros(grid.count, dtype=np.complex128)
    pref = -0.5 * (dxi / (2 * np.pi)) ** 4
    for j in range(grid.count):
        xi = grid.xis[j]
        xi5 = xi - shift
        i5 = np.rint((xi5 - grid.xi_min) / dxi).astype(np.intp)
        valid = (i5 >= 0) & (i5 < grid.count)
        a5 = np.where(valid, lookup[np.clip(i5, 0, grid.count - 1)], 0.0)
        if not np.any(a5):
            continue
        big_phi = xi**2 + quad - xi5**2
        z = t * big_phi
        small = np.abs(z) < 1e-4
        with np.errstate(divide="ignore", invalid="ignore"):
            e_factor = (np.exp(1j * z) - 1.0) / (1j * big_phi)
        zt = 1j * z[small]
        e_factor[small] = t * (1.0 + zt / 2.0 + zt**2 / 6.0 + zt**3 / 24.0)
        out[j] = pref * np.exp(-1j * t * xi**2) * np.sum(prod4 * a5 * e_factor)
    return SpectralFunction(grid, out)
