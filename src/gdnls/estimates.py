"""Verification harness for the multilinear estimates.

Measured constants are convention-dependent (the analysis only asserts
bounds up to constants), so every check is a ratio report: the left-hand
side divided by the right-hand side with the unknown constant stripped.
A report passes when its ratios stay below a fixed bound; sweeps over
the frequency scale N belong to the caller.

Lemmas 2.5, 2.6 and 2.10 bound a generation at every stored time node: the
norms of its (nodes, columns) stack reduce over the columns, one per node,
and the supremum of the ratios is one reduction over the nodes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .picard import SpaceTimeFunction, TimeGrid, xi_generation, xi_level
from .spectrum import (
    ParameterSet,
    SpectralFunction,
    default_grid,
    fl_norm,
    make_phi,
    resample,
    sobolev_norm,
)

__all__ = [
    "BoxSpec",
    "EstimateReport",
    "f_s",
    "cardinal_bspline",
    "box_convolution",
    "generation_setup",
    "verify_lemma25",
    "verify_lemma26",
    "verify_prop29",
    "verify_lemma210",
]

# Operational reading of "much greater / much less than".
DEFAULT_MARGIN = 16.0
# Largest t (in units of N^-2) for which the oscillatory factor keeps
# real part >= 1/2 on the data support.
TIME_WINDOW_FACTOR = 0.05
# pass threshold of the lemma 2.5/2.6/2.10 ratios
RATIO_BOUND = 100.0
# the proposition 2.9 constant must exceed this
C_MIN = 0.0


@dataclass(frozen=True)
class BoxSpec:
    """Frequency box [center - width/2, center + width/2)."""

    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ConfigurationError("box width must be positive")


@dataclass
class EstimateReport:
    lemma: str
    params: dict
    ratios: dict
    passed: bool
    tolerance: float
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def f_s(s: float, A: float) -> float:
    """Regularity weight controlling H^s norms of width-A box spectra:
    1 below s = -1/2, (log A)^{1/2} at s = -1/2, A^{1/2+s} above."""
    if A < 1:
        raise ConfigurationError("f_s requires A >= 1")
    if abs(s + 0.5) <= 1e-12:
        return math.sqrt(math.log(A))
    if s < -0.5:
        return 1.0
    return A ** (0.5 + s)


def cardinal_bspline(n: int, x) -> np.ndarray:
    """Centered cardinal B-spline of order n: the n-fold convolution of the
    unit box 1_[-1/2, 1/2).  Exact piecewise-polynomial evaluation."""
    if n < 1:
        raise ConfigurationError("order must be >= 1")
    x = np.asarray(x, dtype=float)
    if n == 1:
        return ((x >= -0.5) & (x < 0.5)).astype(float)
    acc = np.zeros_like(x)
    for k in range(n + 1):
        acc += (-1) ** k * math.comb(n, k) * np.clip(x + n / 2 - k, 0.0, None) ** (n - 1)
    return acc / math.factorial(n - 1)


def box_convolution(boxes: Sequence[BoxSpec], xi) -> np.ndarray:
    """Exact value of the iterated convolution of box indicators at xi.

    For n equal-width boxes this is A^(n-1) B_n((xi - sum of centers)/A)
    with B_n the order-n cardinal B-spline; no discretization error.
    """
    boxes = list(boxes)
    if not 1 <= len(boxes) <= 8:
        raise ConfigurationError("between 1 and 8 boxes supported")
    width = boxes[0].width
    for b in boxes[1:]:
        if abs(b.width - width) > 1e-12 * width:
            raise ConfigurationError("boxes must share one width")
    n = len(boxes)
    center = sum(b.center for b in boxes)
    x = (np.asarray(xi, dtype=float) - center) / width
    return width ** (n - 1) * cardinal_bspline(n, x)


def generation_setup(
    params: ParameterSet,
    generations: int,
    t_max: float,
    points_per_block: int,
    time_steps: int | None,
    psi_radius: float = 0.0,
):
    """(grid, TimeGrid, phi) for Picard generations up to `generations` of
    phi plus a perturbation within psi_radius of 0, on [0, t_max]; without
    `time_steps` the step count follows TimeGrid.for_extent."""
    grid = default_grid(params, generations, points_per_block, psi_radius=psi_radius)
    if time_steps is None:
        tg = TimeGrid.for_extent(t_max, grid.xi_max)
    else:
        tg = TimeGrid(t_max=t_max, steps=time_steps)
    phi = make_phi(params, grid, min_points_per_block=points_per_block)
    return grid, tg, phi


def _ratio_report(lemma: str, params: dict, ratios: dict) -> EstimateReport:
    """The report of a ratio check, passed when every ratio is at most RATIO_BOUND."""
    passed = all(np.isfinite(v) and v <= RATIO_BOUND for v in ratios.values())
    return EstimateReport(lemma=lemma, params=params, ratios=ratios, passed=passed, tolerance=RATIO_BOUND)


def _generation_nodes(
    params: ParameterSet, k: int, p: int, points_per_block: int, time_steps: int | None
):
    """Shared body of lemmas 2.5 and 2.6: (the stack of generation (k, p) on
    [0, T], the time of each of its nodes, report params)."""
    if k + p > 2:
        raise ConfigurationError("generation cap for verification is k + p <= 2")
    _, tg, phi = generation_setup(params, k + p, params.T, points_per_block, time_steps)
    report_params = {
        "s": params.s, "N": params.N, "A": params.A, "R": params.R, "k": k, "p": p, "t_max": params.T
    }
    return xi_generation(k, p, phi, tg), tg.times, report_params


def _sup(norms: np.ndarray, times: np.ndarray, j: int, scale: float) -> float:
    """Largest norms / (t^j scale) over the nodes; t = 0 is skipped for
    j >= 1, where the bound vanishes."""
    keep = (times > 0) | (j == 0)
    return float(np.max(norms[keep] / (times[keep] ** j * scale)))


def verify_lemma25(
    params: ParameterSet,
    k: int,
    p: int,
    points_per_block: int = 16,
    time_steps: int | None = None,
) -> EstimateReport:
    """Ratios of the three Fourier-Lebesgue bounds for one generation (k, p):
    FL1 against t^(k+p) N^k (RA)^(2k+4p+1), FLinf and the derivative FLinf
    against their N^k / N^(k+1) counterparts."""
    xi_kp, times, report_params = _generation_nodes(params, k, p, points_per_block, time_steps)
    N, R, A = params.N, params.R, params.A
    j = k + p
    xi = xi_kp.grid.xi(xi_kp.columns)
    deriv = SpaceTimeFunction._on_columns(xi_kp.time_grid, xi_kp.grid, xi_kp.columns, 1j * xi * xi_kp.values)
    ratios = {
        "fl1": _sup(fl_norm(xi_kp, 1), times, j, N**k * (R * A) ** (2 * k + 4 * p + 1)),
        "fl_inf": _sup(fl_norm(xi_kp, math.inf), times, j, N**k * (R * A) ** (2 * k + 4 * p) * R),
        "fl_inf_derivative": _sup(
            fl_norm(deriv, math.inf), times, j, N ** (k + 1) * (R * A) ** (2 * k + 4 * p) * R
        ),
    }
    return _ratio_report("2.5", report_params, ratios)


def verify_lemma26(
    params: ParameterSet,
    k: int,
    p: int,
    points_per_block: int = 16,
    time_steps: int | None = None,
) -> EstimateReport:
    """H^s bound for one generation against f_s(A) t^(k+p) N^k (RA)^(2k+4p) R."""
    xi_kp, times, report_params = _generation_nodes(params, k, p, points_per_block, time_steps)
    N, R, A = params.N, params.R, params.A
    scale = f_s(params.s, A) * N**k * (R * A) ** (2 * k + 4 * p) * R
    ratios = {"h_s": _sup(sobolev_norm(xi_kp, params.s), times, k + p, scale)}
    return _ratio_report("2.6", report_params, ratios)


def _check_margin(margin: float) -> None:
    if not margin >= 1:  # also refuses NaN
        raise ConfigurationError(f"margin must be >= 1 (got {margin}): a smaller factor passes conditions that fail")


def verify_prop29(
    params: ParameterSet,
    t: float,
    margin: float = DEFAULT_MARGIN,
    points_per_block: int = 32,
    time_steps: int | None = None,
) -> EstimateReport:
    """Measured constant in the first-iterate lower bound:
    c = ||Xi_1(phi)(t)||_{H^s} / (f_s(A) t R^5 A^4); a margin below 1 is a ConfigurationError."""
    _check_margin(margin)
    N, R, A = params.N, params.R, params.A
    if t <= 0:
        raise ConfigurationError("the lower bound needs t > 0")
    if t > TIME_WINDOW_FACTOR * N**-2:
        raise ConfigurationError(
            f"t = {t} outside the window (0, {TIME_WINDOW_FACTOR} N^-2]"
        )
    if R**2 * A**2 < margin * N:
        raise ConfigurationError(
            f"quintic dominance needs R^2 A^2 >= {margin} N (got {R ** 2 * A ** 2} vs {margin * N})"
        )
    _, tg, phi = generation_setup(params, 1, t, points_per_block, time_steps)
    xi1 = xi_level(1, phi, tg)
    measured = sobolev_norm(xi1.final, params.s) / (f_s(params.s, A) * t * R**5 * A**4)
    return EstimateReport(
        lemma="2.9",
        params={"s": params.s, "N": N, "A": A, "R": R, "t": t},
        ratios={"c": measured},
        passed=measured > C_MIN,
        tolerance=C_MIN,
    )


def verify_lemma210(
    params: ParameterSet,
    psi_pert: SpectralFunction,
    j: int,
    points_per_block: int = 16,
    time_steps: int | None = None,
) -> EstimateReport:
    """Perturbation stability: ||Xi_j(phi + psi) - Xi_j(phi)||_{L^2} against
    ||psi||_{L^2} (t R^4 A^4)^j at every stored time node t > 0."""
    if j < 1 or j > 2:
        raise ConfigurationError("perturbation check supports j in {1, 2}")
    N, R, A = params.N, params.R, params.A
    if psi_pert.columns.size == 0:
        raise ConfigurationError("perturbation is identically zero")
    radius = float(np.max(np.abs(psi_pert.grid.xi(psi_pert.columns))))
    if N < 16 * radius:
        raise ConfigurationError(f"need N >= 16 * support radius ({radius})")
    if fl_norm(psi_pert, 1) > 8 * R * A:
        raise ConfigurationError("perturbation too large: FL1 above 8 R A")
    grid, tg, phi = generation_setup(params, j, params.T, points_per_block, time_steps, radius)
    psi_res = resample(psi_pert, grid)
    perturbed = phi + psi_res
    base = xi_level(j, phi, tg)
    shifted = xi_level(j, perturbed, tg)
    scale = sobolev_norm(psi_res, 0.0) * (R**4 * A**4) ** j
    ratios = {"l2_difference": _sup(sobolev_norm(shifted - base, 0.0), tg.times, j, scale)}
    return _ratio_report("2.10", {"s": params.s, "N": N, "A": A, "R": R, "j": j, "t_max": params.T}, ratios)
