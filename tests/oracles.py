"""Reference implementations that the tests compare the package against.

None of these is on a path that a command or library call runs: each is an
independent way to compute something the package computes (or a transform it
does not need), kept beside the tests that use it.  Tests import them as
`from oracles import ...`; pytest puts this directory on sys.path.

* first_iterate_quintic_exact: the direct lattice sum for K^5[S(t) phi],
  with a closed-form time factor, independent of picard's block FFT
  convolutions and Simpson closure;
* gauge / ungauge: the gauge transform linking the gauged equation that
  gdnls.solver integrates to the ungauged DNLS;
* tree_stats: node and leaf counts of a ternary-quinary tree;
* free_evolve: the linear Schroedinger flow at one time;
* to_string: a CSV writer's output as text.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from gdnls.errors import ConfigurationError, ResourceError
from gdnls.solver import PhysicalState
from gdnls.spectrum import SpectralFunction
from gdnls.trees import Tree

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


EDGE_FRACTION = 0.05
EDGE_MASS_TOL = 1e-6


def _left_anchored_phase(samples: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid of |samples|^2 from the left edge, 0 at x_0."""
    density = np.abs(samples) ** 2
    return np.concatenate(([0.0], np.cumsum(dx * (density[1:] + density[:-1]) / 2.0)))


def _rotated(state: PhysicalState, unit: complex) -> PhysicalState:
    """The state times exp(unit Phi(x)), Phi the cumulative integral of
    |state|^2 from the left edge of the box; a state with more than
    EDGE_MASS_TOL of its mass at that edge is refused."""
    edge = int(math.ceil(EDGE_FRACTION * state.config.modes))
    total = np.sum(np.abs(state.samples) ** 2)
    left = np.sum(np.abs(state.samples[:edge]) ** 2)
    if left > EDGE_MASS_TOL * total:
        raise ConfigurationError(
            f"left-edge mass fraction {left / total:.2e} exceeds {EDGE_MASS_TOL}; "
            "the left-anchored gauge integral is not a valid stand-in for -infinity"
        )
    phase = _left_anchored_phase(state.samples, state.config.dx)
    return PhysicalState(state.config, np.exp(unit * phase) * state.samples, state.time)


def gauge(u: PhysicalState) -> PhysicalState:
    """Multiply by exp(-i Phi(x)) with Phi the cumulative integral of |u|^2
    from the left edge of the box.  Preserves |u| pointwise."""
    return _rotated(u, -1j)


def ungauge(v: PhysicalState) -> PhysicalState:
    """Inverse transform; uses |v| = |u|, so the phase integral is computed
    from the gauged field itself."""
    return _rotated(v, 1j)


@dataclass(frozen=True)
class TreeStats:
    n3: int
    n5: int
    total: int
    internal: int
    terminal: int


def tree_stats(tree: Tree) -> TreeStats:
    n3 = n5 = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if len(node.children) == 3:
            n3 += 1
        elif len(node.children) == 5:
            n5 += 1
        stack.extend(node.children)
    return TreeStats(
        n3=n3,
        n5=n5,
        total=3 * n3 + 5 * n5 + 1,
        internal=n3 + n5,
        terminal=2 * n3 + 4 * n5 + 1,
    )


def free_evolve(f: SpectralFunction, t: float) -> SpectralFunction:
    """Linear Schroedinger flow: multiplication by exp(-i t xi^2)."""
    phase = np.exp(-1j * t * f.grid.xi(f.columns) ** 2)
    return SpectralFunction._on_columns(f.grid, f.columns, f.amplitudes * phase)


def to_string(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()
