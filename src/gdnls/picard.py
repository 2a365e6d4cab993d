"""Fourier-side evaluation of the Duhamel operators and of the Picard series
by level recursion; per-tree evaluation (psi) is the recursion's test oracle.

Everything lives on one shared symmetric frequency grid and one shared
uniform time grid, so operators nest without re-integration: an inner
iterate is available at every quadrature node of the outer time integral.
A space-time function is stored on its support, the sorted columns nonzero
at some time node, and so is each of its frames (a SpectralFunction on the
columns nonzero at that node).  The series path (free_frames, the Duhamel
products, the level and generation recursions, the finals and their sum)
works and allocates in proportion to that support, not to the grid's count.

Product structure on the Fourier side (with the package convention
f_hat = int f exp(-i x xi) dx):

    F[f g]           = (1/2pi) f_hat * g_hat          (* = continuous convolution)
    F[conj(f)](xi)   = conj(f_hat(-xi))
    F[d/dx conj(f)]  = i xi conj(f_hat(-xi))

Continuous convolutions are approximated by delta_xi-weighted discrete
convolutions, taken block by block; offsets count cells from xi = 0 and the
kept window is [-half, half], half = (count - 1) // 2.

Blocks: an operand's stored columns, split into maximal runs, absorbing each
zero gap no longer than the wider of its neighbours; or, where the term
takes its hull fold, one block from the first stored column to the last.
Each block is transformed from local index 0 at the term's length L.  A plain
slot puts local 0 at the block's first offset a.  A conjugate slot reads
conj(F[block]), which is conj(v(-xi)) with local 0 at -a (the block reflected
about local 0); J's derivative slot reads conj(F[i xi block]), because
i xi conj(v(-xi)) = conj(i xi' v(xi')) at xi' = -xi.

Buckets: the slots are folded in one block at a time, partial products keyed
by the summed offset of their local 0; equal keys are added in the transform
domain.  Each bucket takes one inverse transform and adds its true support,
key + [lo, hi], into the term's output, which is exactly zero elsewhere and
is stored on the columns where it is nonzero.  A wide operand beside split
ones makes many buckets, so each term is priced both ways, block fold and
hull fold, by counted work on the integer offsets alone: the fold is run on
the summed offsets, merging equal keys, and a layout costs
L (fold multiplications + (final buckets + forward blocks) log2 L).  The hull
(one bucket) is taken only when it is strictly cheaper; a tie keeps the
blocks.  The choice reads only the term's own operands.

Nothing wraps: L = next_fast_len(sum over slots of (widest block - 1) + 1)
holds any linear convolution of one block per slot, so every bucket is read
at its true offsets.  On a grid from default_grid a term's output hull, the
signed sum of its operands' hulls, lies inside the grid by the reach rule
there (level g of a datum in [lo, hi] stays within hi + 2g (hi - lo)); no
block is wider than its operand's hull, so L <= next_fast_len(2 half + 1).

Edge test: mass at |offset| >= half - 1 above CLIP_TOL of the term's peak,
both read over the buckets' intervals, raises an AccuracyError naming the
term and the xi-interval that overflowed.

Time closure: each class's product is multiplied by exp(i t xi^2), integrated
by cumulative Simpson and multiplied by exp(-i t xi^2), in place on the
columns it reaches, with its own phase rows on those columns.  Each transform
is dropped after the last class of its chunk of time nodes that reads it, so
no transform outlives the fold.  The time grid is uniform, so the phase rows
take one exponential per column, z = exp(i dt xi^2): row n is row n - 1 times
z, which drifts from exp(i t xi^2) by rounding that grows with n (2.3e-13 at
the step cap).  A column's rows depend on that column alone, so they have the
same bits whichever class computes them.

Symmetry classes: slots of the same kind commute, J's two plain slots and
K's plain slots 1/3/5 and conjugate slots 2/4, so the trees' terms repeat
(generation (1,1) indexes 8 trees but 4 distinct terms).  Every term is put
into a canonical slot order, each set of same-kind slots sorted by a key
read from the operands' stored columns (block count, column count, first
column; ties keep the given order), and terms with the same canonical
operands form one class.  A class is folded, read out, edge-tested and
closed in time once; its product is added once per member.  The key reads
no object identity, so a permuted call gives the bits of the canonical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .errors import AccuracyError, ConfigurationError, ResourceError
from .spectrum import (
    FrequencyGrid, SpectralFunction, _cover, _dense, _nonzero_columns, _runs, _sum_on_columns, sobolev_norm
)
from .trees import SLOT_KINDS, Tree, compositions, root_splits

__all__ = [
    "TimeGrid",
    "SpaceTimeFunction",
    "duhamel_J",
    "duhamel_K",
    "psi",
    "first_iterate_quintic_exact",
    "xi_generation",
    "xi_level",
    "series_levels",
    "level_summary",
    "free_frames",
]

# relative edge mass above which a product counts as clipped by the grid
CLIP_TOL = 1e-10
MIN_TIME_STEPS = 4
# most steps TimeGrid.for_extent will choose; a phase that needs more is refused
MAX_TIME_STEPS = 4096
PHASE_OVERSAMPLE = 16.0
# wide transforms are folded a few time nodes at a time, about this many
# complex points per stack of rows, so that the products stay in cache
CHUNK_POINTS = 2**17


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
    def for_extent(cls, t_max: float, xi_max: float) -> "TimeGrid":
        """Steps chosen to resolve the oscillatory phase exp(i t' xi^2),
        whose magnitude is bounded by t * xi_max^2; more than MAX_TIME_STEPS
        raises a ResourceError."""
        need = int(np.ceil(PHASE_OVERSAMPLE * t_max * xi_max**2))
        if need > MAX_TIME_STEPS:
            raise ResourceError(
                f"the phase on [0, {t_max:g}] up to |xi| = {xi_max:g} needs {need} time steps "
                f"(> cap {MAX_TIME_STEPS}); pass --time-steps (time_steps) to choose the count"
            )
        steps = max(MIN_TIME_STEPS, need)
        if steps % 2:
            steps += 1
        return cls(t_max=t_max, steps=steps)


class SpaceTimeFunction:
    """One SpectralFunction per time node, stored on its support: `columns`
    holds the sorted grid indices that are nonzero at some node and `values`
    the (steps+1, len(columns)) stack on them; every other column is 0.
    `frames` is the dense (steps+1, count) view."""

    def __init__(self, time_grid: TimeGrid, grid: FrequencyGrid, frames: np.ndarray):
        frames = np.asarray(frames, dtype=np.complex128)
        expected = (time_grid.steps + 1, grid.count)
        if frames.shape != expected:
            raise ConfigurationError(f"frames shape {frames.shape}, expected {expected}")
        self._store(time_grid, grid, np.arange(grid.count), frames)

    @classmethod
    def _on_columns(cls, time_grid, grid, columns, values) -> "SpaceTimeFunction":
        """A stack given on the sorted grid indices `columns`."""
        stf = cls.__new__(cls)
        stf._store(time_grid, grid, columns, values)
        return stf

    def _store(self, time_grid, grid, columns: np.ndarray, values: np.ndarray) -> None:
        self.time_grid, self.grid = time_grid, grid
        self.columns, self.values = _nonzero_columns(columns, values)

    frames = property(_dense, doc="The dense stack: the stored array itself when no column is zero.")

    def at_index(self, i: int) -> SpectralFunction:
        # a copy, so that the frame does not keep the whole stack alive
        return SpectralFunction._on_columns(self.grid, self.columns, self.values[i].copy())

    # the stored stack under SpectralFunction's name: a norm gives one value per node
    amplitudes = property(lambda self: self.values)

    @property
    def final(self) -> SpectralFunction:
        return self.at_index(self.time_grid.steps)

    def __add__(self, other: "SpaceTimeFunction") -> "SpaceTimeFunction":
        _check_compatible(self, other)
        columns, values = _sum_on_columns([(self.columns, self.values), (other.columns, other.values)])
        return SpaceTimeFunction._on_columns(self.time_grid, self.grid, columns, values)

    def __sub__(self, other: "SpaceTimeFunction") -> "SpaceTimeFunction":
        # a + (-b) rounds as a - b
        return self + SpaceTimeFunction._on_columns(other.time_grid, other.grid, other.columns, -other.values)


def _check_compatible(*fns: SpaceTimeFunction) -> None:
    tg, grid = fns[0].time_grid, fns[0].grid
    for f in fns[1:]:
        if f.time_grid != tg or f.grid != grid:
            raise ConfigurationError("operands must share time and frequency grids")
    if not grid.is_symmetric:
        raise ConfigurationError("shared grid must be symmetric about 0")


def free_frames(phi: SpectralFunction, tg: TimeGrid) -> SpaceTimeFunction:
    """Free evolution S(t) phi sampled at every time node, on phi's nonzero
    columns."""
    phase = np.exp(-1j * np.outer(tg.times, phi.grid.xi(phi.columns) ** 2))
    return SpaceTimeFunction._on_columns(tg, phi.grid, phi.columns, phase * phi.amplitudes)


def _phase_rows(tg: TimeGrid, xi2: np.ndarray) -> np.ndarray:
    """exp(i t xi2) at every time node of the uniform grid: row n is row
    n - 1 times exp(i dt xi2), one exponential per column."""
    step = np.exp(1j * tg.dt * xi2)
    phase = np.empty((tg.steps + 1, xi2.size), dtype=np.complex128)
    phase[0] = 1
    for n in range(1, tg.steps + 1):
        np.multiply(phase[n - 1], step, out=phase[n])
    return phase


def _blocks(columns: np.ndarray) -> list[tuple[int, int]]:
    """Column ranges [start, stop) covering the sorted column indices
    `columns`: the maximal runs, where a zero gap no longer than the wider of
    its neighbours (the block so far and the next run) is absorbed."""
    runs = [(held.start, held.stop) for _, held in _runs(columns)]
    blocks = runs[:1]
    for start, stop in runs[1:]:
        first, last = blocks[-1]
        if start - last <= max(last - first, stop - start):
            blocks[-1] = (first, stop)
        else:
            blocks.append((start, stop))
    return blocks


def _canonical(term: tuple, blocks: dict) -> tuple:
    """The term with each set of same-kind slots sorted by the key of the
    module docstring (`blocks` maps id(operand) to its blocks); a stable
    sort, so ties keep the given order."""
    kinds, term = SLOT_KINDS[len(term)], list(term)
    for kind in dict.fromkeys(kinds):
        at = [i for i, k in enumerate(kinds) if k == kind]
        ordered = sorted(
            (term[i] for i in at), key=lambda v: (len(blocks[id(v)]), v.columns.size, int(v.columns[0]))
        )
        for i, v in zip(at, ordered):
            term[i] = v
    return tuple(term)


def _hull(blocks: list) -> list:
    """One block from the first block's start to the last block's stop."""
    return [(blocks[0][0], blocks[-1][1])]


def _length(slot_blocks: list) -> int:
    """The transform length of a term whose slots hold these blocks: the
    length rule of the module docstring."""
    return next_fast_len(1 + sum(max(b - a - 1 for a, b in blocks) for blocks in slot_blocks))


def _work(slot_blocks: list, kinds) -> float:
    """Counted work of folding these blocks, as the module docstring prices
    it: _fold run on the summed block offsets alone."""
    signs = [1 if kind == "plain" else -1 for kind in kinds]
    keys, products = {signs[0] * a for a, _ in slot_blocks[0]}, 0
    for blocks, sign in zip(slot_blocks[1:], signs[1:]):
        products += len(keys) * len(blocks)
        keys = {key + sign * a for key in keys for a, _ in blocks}
    size = _length(slot_blocks)
    return size * (products + (len(keys) + sum(map(len, slot_blocks))) * math.log2(size))


def _hull_is_cheaper(slot_blocks: list, kinds) -> bool:
    """Whether a term whose slots hold these blocks takes its hull fold."""
    return _work([_hull(blocks) for blocks in slot_blocks], kinds) < _work(slot_blocks, kinds)


def _fold(slots: list) -> dict:
    """Block product of one term, as {output offset of local index 0:
    [transform, lowest, highest local index]}.  The slots are folded in one
    block at a time, and partial products with equal summed offsets are
    added in the transform domain."""
    buckets = {base: [spec, lo, hi] for base, lo, hi, spec in slots[0]}
    for n, slot in enumerate(slots[1:]):
        folded = {}
        for b, (offset, lo_add, hi_add, spec) in enumerate(slot):
            # from the third slot on, a partial product is ours to overwrite
            # once the slot's last block has taken it
            last = n > 0 and b == len(slot) - 1
            for base, (acc, lo, hi) in buckets.items():
                prod = np.multiply(acc, spec, out=acc if last else None)
                entry = folded.get(base + offset)
                if entry is None:
                    folded[base + offset] = [prod, lo + lo_add, hi + hi_add]
                else:
                    entry[0] += prod
                    entry[1], entry[2] = min(entry[1], lo + lo_add), max(entry[2], hi + hi_add)
        buckets = folded
    return buckets


class _Readout:
    """One term's buckets, read out a chunk of time nodes at a time onto the
    window columns they reach, with each bucket's largest modulus per
    residue kept for the edge test."""

    def __init__(self, buckets: dict, size: int, half: int, nodes: int):
        self.half = half
        self.mags = {base: np.zeros(size) for base in buckets}
        # per bucket: the residues of its true support and their offsets, and
        # the window offsets [first, last] it writes
        self.cells, self.reach = {}, {}
        for base, (_, lo, hi) in buckets.items():
            local = np.arange(lo, hi + 1)
            self.cells[base] = local % size, base + local
            first, last = max(base + lo, -half), min(base + hi, half)
            if first <= last:
                self.reach[base] = first, last
        # the grid indices the buckets write; per bucket, the first of its
        # columns among them, and the start and length of the cyclic run of
        # local indices it reads them from
        self.columns = _cover(self.reach.values()) + half
        self.reads = {
            base: (np.searchsorted(self.columns, first + half), (first - base) % size, last - first + 1)
            for base, (first, last) in self.reach.items()
        }
        self.values = np.empty((nodes, self.columns.size), dtype=np.complex128)

    def add(self, buckets: dict, rows: slice) -> None:
        """Inverse-transform the buckets of the time nodes `rows` and add them in."""
        # zeroed here, not at allocation: a first write faults each page in once
        self.values[rows] = 0
        for base, (spec, _, _) in buckets.items():
            full = ifft(spec, axis=-1, overwrite_x=True)
            np.maximum(self.mags[base], np.abs(full).max(axis=0), out=self.mags[base])
            if base in self.reads:
                at, start, count = self.reads[base]
                head = full[:, start : start + count]
                self.values[rows, at : at + head.shape[1]] += head
                self.values[rows, at + head.shape[1] : at + count] += full[:, : count - head.shape[1]]

    def check_edges(self, term, delta_xi: float) -> None:
        """The edge test of the module docstring."""
        peaks = {base: self.mags[base][residues] for base, (residues, _) in self.cells.items()}
        peak = max(p.max() for p in peaks.values())
        edge, named = 0.0, []
        for base, (_, out) in self.cells.items():
            far = np.abs(out) >= self.half - 1
            over = out[far & (peaks[base] > CLIP_TOL * peak)]
            if over.size:
                edge = max(edge, peaks[base][far].max())
                named += over.min(), over.max()
        if named:
            raise AccuracyError(
                f"{'J' if len(term) == 3 else 'K'} product clipped at the grid edge: relative mass "
                f"{edge / peak:.2e} > {CLIP_TOL:.1e} at xi in "
                f"[{min(named) * delta_xi:.6g}, {max(named) * delta_xi:.6g}]; widen the grid"
            )


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

    Each term is put into its canonical slot order (see the module
    docstring), and the terms with the same canonical operands (by
    identity) form one class.  Each class is a block product, in the layout
    and at the length fixed by its own operands' blocks, folded, read out,
    edge-tested and closed in time once.  Each distinct operand is split
    into blocks once, from its stored columns, and transformed once per
    (kind, length, layout) and chunk of time nodes, in one batched
    transform, shared by every class that takes it.  A class's bits thus
    depend only on its own operands' values, and its closed product is
    added once per member term, in the terms' order (never scaled by the
    member count), so a multi-term call gives the bits of the sum of
    single-term calls.
    """
    operands = [v for term in terms for v in term]
    _check_compatible(*operands)
    tg, grid = operands[0].time_grid, operands[0].grid
    half = (grid.count - 1) // 2
    blocks = {key: _blocks(v.columns) for key, v in {id(v): v for v in operands}.items()}

    def layout(v: SpaceTimeFunction, hull: bool) -> list:
        return _hull(blocks[id(v)]) if hull else blocks[id(v)]

    def spectrum(v: SpaceTimeFunction, kind: str, size: int, hull: bool, rows: slice) -> np.ndarray:
        """(blocks, nodes, size) transforms of v's blocks in the given layout
        on the time nodes `rows`, each laid out from local index 0; see the
        module docstring for the conjugate and derivative kinds."""
        key = (id(v), kind, size, hull)
        if key not in spectra:
            source = (id(v), "plain", size, hull) if kind == "conj" else key
            if source not in spectra:
                values, runs = v.values[rows], layout(v, hull)
                stack = np.zeros((len(runs), len(values), size), dtype=np.complex128)
                for row, (start, stop) in zip(stack, runs):
                    sel = slice(*np.searchsorted(v.columns, (start, stop)))
                    columns = v.columns[sel]
                    # a run with no gap is written through a slice
                    at = slice(0, stop - start) if columns.size == stop - start else columns - start
                    row[:, at] = values[:, sel]
                    if kind == "derivative":
                        row[:, at] *= 1j * grid.xi(columns)
                spec = fft(stack, axis=-1, overwrite_x=True)
                spectra[source] = np.conj(spec, out=spec) if kind == "derivative" else spec
            if kind == "conj":
                spectra[key] = np.conj(spectra[source])
        return spectra[key]

    def slots(term, size: int, hull: bool, rows: slice) -> list:
        """Per slot, per block: the output offset of its local index 0, the
        lowest and highest local index it occupies, and its transform."""
        return [
            [
                (start - half, 0, stop - start - 1, spec)
                if kind == "plain"
                else (half - start, start + 1 - stop, 0, spec)
                for (start, stop), spec in zip(layout(v, hull), spectrum(v, kind, size, hull, rows))
            ]
            for v, kind in zip(term, SLOT_KINDS[len(term)])
        ]

    live = [_canonical(term, blocks) for term in terms if all(blocks[id(v)] for v in term)]
    if not live:
        # every term has a zero operand
        empty = np.empty((tg.steps + 1, 0), dtype=np.complex128)
        return SpaceTimeFunction._on_columns(tg, grid, np.empty(0, dtype=np.intp), empty)
    # one class per distinct canonical operand tuple, in order of first member
    members = [tuple(map(id, term)) for term in live]
    classes = list(dict(zip(members, live)).values())
    hulls = [_hull_is_cheaper([blocks[id(v)] for v in term], SLOT_KINDS[len(term)]) for term in classes]
    sizes = [_length([layout(v, hull) for v in term]) for term, hull in zip(classes, hulls)]
    chunk = max(1, CHUNK_POINTS // max(sizes))
    # per transform, the last class of a chunk that reads it (a conjugate one
    # reads its plain one when first taken), after which it is dropped
    last = {}
    for n, (term, size, hull) in enumerate(zip(classes, sizes, hulls)):
        for v, kind in zip(term, SLOT_KINDS[len(term)]):
            if kind == "conj" and (id(v), kind, size, hull) not in last:
                last[id(v), "plain", size, hull] = n
            last[id(v), kind, size, hull] = n
    reads = [None] * len(classes)
    for first in range(0, tg.steps + 1, chunk):
        rows = slice(first, first + chunk)
        spectra = {}
        for n, (term, size, hull) in enumerate(zip(classes, sizes, hulls)):
            buckets = _fold(slots(term, size, hull, rows))
            for key in [key for key in spectra if last[key] == n]:
                del spectra[key]
            if reads[n] is None:
                reads[n] = _Readout(buckets, size, half, tg.steps + 1)
            reads[n].add(buckets, rows)
            buckets = None  # read out: freed before the next fold, not after it
    for term, read in zip(classes, reads):
        read.check_edges(term, grid.delta_xi)

    # each class: exp(-i t xi^2) prefactor int_0^t exp(i t' xi^2) product(t') dt',
    # in place on its own columns, with phase rows on those columns
    weight = grid.delta_xi / (2 * np.pi)
    for term, read in zip(classes, reads):
        phase = _phase_rows(tg, grid.xi(read.columns) ** 2)
        read.values *= phase
        _cumulative_simpson(read.values, tg.dt)
        read.values *= np.conjugate(phase, out=phase)
        # the convolution weight weight^(arity - 1) rides on the prefactor
        read.values *= -1j * weight**2 if len(term) == 3 else -0.5 * weight**4
    phase = None
    closed = dict(zip(dict.fromkeys(members), reads))
    columns, total = _sum_on_columns([(closed[m].columns, closed[m].values) for m in members])
    return SpaceTimeFunction._on_columns(tg, grid, columns, total)


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
) -> SpaceTimeFunction:
    """Multilinear Picard term of one tree: leaves become S(t) phi, 3-ary
    nodes the cubic operator, 5-ary nodes the quintic one."""
    if tree.is_leaf:
        return free_frames(phi, tg)
    op = duhamel_J if len(tree.children) == 3 else duhamel_K
    return op(*(psi(c, phi, tg) for c in tree.children))


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
) -> SpaceTimeFunction:
    """Sum of the Picard terms over every tree in generation (k, p), by the
    series_levels recursion over (k, p) pairs, one term per root split of
    trees.root_splits, added in that (tree-enumeration) order; a negative k
    or p is a ConfigurationError."""
    return _generation(k, p, {(0, 0): free_frames(phi, tg)})


def _generation(k: int, p: int, table: dict) -> SpaceTimeFunction:
    """Xi_(k,p) from the per-call table of lower generations, filled on demand."""
    if (k, p) not in table:
        terms = [[_generation(a, b, table) for a, b in split] for split in root_splits(k, p)]
        table[(k, p)] = _accumulate(terms)
    return table[(k, p)]


def xi_level(
    j: int,
    phi: SpectralFunction,
    tg: TimeGrid,
) -> SpaceTimeFunction:
    """Sum of xi_generation(k, p) over all k + p = j."""
    if j < 0:
        raise ConfigurationError(f"level {j} needs j >= 0")
    return series_levels(phi, tg, j)[j]


def level_summary(finals: list[SpectralFunction]) -> tuple:
    """(partial sum, L^2 norms of the levels, last observed ratio of
    consecutive norms, geometric tail extrapolated from it; inf if >= 1)."""
    total = sum(finals[1:], finals[0])
    l2s = [sobolev_norm(f, 0.0) for f in finals]
    ratio = 0.0
    for j in range(1, len(l2s)):
        if l2s[j - 1] > 0:
            ratio = l2s[j] / l2s[j - 1]
    tail = l2s[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else float("inf")
    return total, l2s, ratio, tail


MAX_ORACLE_LATTICE = 90  # guard: the direct oracle builds S^4 arrays


def first_iterate_quintic_exact(phi: SpectralFunction, t: float) -> SpectralFunction:
    """Direct-sum oracle for the quintic first iterate K^5[S(t) phi].

    Quadrature over (xi_1..xi_4) on the support lattice of phi with
    xi_5 = xi - xi_1 + xi_2 - xi_3 + xi_4, using the closed-form time factor
    E(Phi, t) = (exp(i t Phi) - 1) / (i Phi) (4th-order Taylor fallback for
    |Phi| t < 1e-4).  Independent of the FFT-convolution / Simpson path.
    """
    grid, S = phi.grid, phi.columns.size
    if S > MAX_ORACLE_LATTICE:
        raise ResourceError(
            f"oracle lattice size {S} exceeds {MAX_ORACLE_LATTICE}; use a coarser grid"
        )
    xs = grid.xi(phi.columns)
    amps = phi.amplitudes

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

    # the output indices j1 - j2 + j3 - j4 + j5 on the grid: the signed
    # Minkowski sum of the support
    columns = np.zeros(1, dtype=np.intp)
    for sign in (1, -1, 1, -1, 1):
        columns = np.unique(columns[:, None] + sign * phi.columns)
    columns = columns[(columns >= 0) & (columns < grid.count)]
    dxi = grid.delta_xi
    out = np.zeros(columns.size, dtype=np.complex128)
    pref = -0.5 * (dxi / (2 * np.pi)) ** 4
    for n, j in enumerate(columns):
        xi = grid.xi(j)
        xi5 = xi - shift
        i5 = np.rint((xi5 - grid.xi_min) / dxi).astype(np.intp)
        at = np.searchsorted(phi.columns, i5).clip(max=S - 1)
        a5 = np.where(phi.columns[at] == i5, amps[at], 0.0)
        if not np.any(a5):
            continue
        big_phi = xi**2 + quad - xi5**2
        z = t * big_phi
        small = np.abs(z) < 1e-4
        with np.errstate(divide="ignore", invalid="ignore"):
            e_factor = (np.exp(1j * z) - 1.0) / (1j * big_phi)
        zt = 1j * z[small]
        e_factor[small] = t * (1.0 + zt / 2.0 + zt**2 / 6.0 + zt**3 / 24.0)
        out[n] = pref * np.exp(-1j * t * xi**2) * np.sum(prod4 * a5 * e_factor)
    return SpectralFunction._on_columns(grid, columns, out)
