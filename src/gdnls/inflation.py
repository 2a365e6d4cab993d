"""Parameter selection and the end-to-end norm-inflation experiment.

Three regimes below the critical exponent, each with its own closed-form
choice of block width A, amplitude R, and evaluation time T as powers (or
logarithms) of the frequency scale N.  The asymptotic statement "for any
n" is replaced at desk scale by a trend: the ratio of the final H^s norm
to the initial H^s gap must grow along an N-sweep on which the six
inequality conditions hold with a configured margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ResourceError
from .estimates import DEFAULT_MARGIN, _check_margin, f_s, generation_setup
from .picard import level_summary, series_levels
from .solver import TorusConfig, solve_gdnls, spectrum_from_state, state_from_spectrum
from .spectrum import ParameterSet, SpectralFunction, default_grid, make_phi, resample, smooth_bump, sobolev_norm

__all__ = [
    "ConditionReport",
    "InflationResult",
    "choose_params",
    "check_conditions",
    "run_experiment",
    "default_perturbation",
]

CONDITION_IDS = ("i", "ii", "iii", "iv", "v", "vi")
DEFAULT_BUMP_RADIUS = 8.0
SOLVER_MODES_CAP = 1 << 15
S_ZERO_NOTE = (
    "at s = 0 condition (i) forces R << A^(-1/2), hence R^2 A^2 << A, "
    "which contradicts (iv) N << R^2 A^2 combined with (v) A << N"
)


def choose_params(s: float, N: float, delta: float) -> ParameterSet:
    """Case formulas for (A, R, T) given the regularity s < 0.

    Case 1 (s < -1/2):  A = N^(delta/5), R = N^(1/2), T = N^(-2-delta),
    with s + 1/2 + delta/10 < 0.
    Case 2 (s = -1/2):  A = (log N)^(3/2), R = N^(1/2)/log N, T = N^(-2-delta).
    Case 3 (-1/2 < s < 0):  A = N^(1+2s+9delta/4), R = N^(-1/2-2s-17delta/8),
    T = N^(-2-delta), with 2s + 9delta/4 < 0 and 2s^2 - 3delta/2 + 9delta s/4 > 0.
    """
    if s >= 0:
        raise ConfigurationError("norm inflation construction requires s < 0")
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    if N <= 1:
        raise ConfigurationError("need N > 1")
    T = N ** (-2.0 - delta)
    if s < -0.5 - 1e-12:
        if s + 0.5 + delta / 10 >= 0:
            raise ConfigurationError(
                f"case 1 requires s + 1/2 + delta/10 < 0 (got {s + 0.5 + delta / 10})"
            )
        return ParameterSet(
            s=s, N=N, A=N ** (delta / 5), R=math.sqrt(N), T=T, delta=delta, case_label="case1"
        )
    if abs(s + 0.5) <= 1e-12:
        logN = math.log(N)
        if logN <= 1:
            raise ConfigurationError("case 2 needs log N > 1 so that A > 1")
        return ParameterSet(
            s=s, N=N, A=logN**1.5, R=math.sqrt(N) / logN, T=T, delta=delta, case_label="case2"
        )
    if 2 * s + 2.25 * delta >= 0:
        raise ConfigurationError(
            f"case 3 requires 2s + 9 delta/4 < 0 (got {2 * s + 2.25 * delta})"
        )
    growth = 2 * s**2 - 1.5 * delta + 2.25 * delta * s
    if growth <= 0:
        raise ConfigurationError(
            f"case 3 requires 2s^2 - 3 delta/2 + 9 delta s/4 > 0 (got {growth})"
        )
    return ParameterSet(
        s=s,
        N=N,
        A=N ** (1.0 + 2 * s + 2.25 * delta),
        R=N ** (-0.5 - 2 * s - 17.0 / 8.0 * delta),
        T=T,
        delta=delta,
        case_label="case3",
    )


@dataclass
class ConditionReport:
    """Margins of the six smallness/largeness conditions.

    Each margin is (large side) / (small side); a condition passes when its
    margin reaches the configured factor.
    """

    margins: dict
    passed: dict
    margin_factor: float
    incompatible: tuple = ()
    note: str = ""

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())

    def as_dict(self) -> dict:
        return asdict(self)


def check_conditions(
    params: ParameterSet, n: int, margin: float = DEFAULT_MARGIN
) -> ConditionReport:
    """Evaluate conditions (i)-(vi) numerically with the given margin factor;
    n < 1 or a margin below 1 is a ConfigurationError."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1 (got {n}): condition (i) asks N^s R A^(1/2) << 1/n")
    _check_margin(margin)
    s, N, A, R, T = params.s, params.N, params.A, params.R, params.T
    weight = f_s(s, A)
    pairs = {
        "i": (N**s * R * math.sqrt(A), 1.0 / n),
        "ii": (T * R**4 * A**4, 1.0),
        "iii": (float(n), weight * T * R**5 * A**4),
        "iv": (N, R**2 * A**2),
        "v": (A, N),
        "vi": (T, N**-2.0),
    }
    margins = {key: large / small for key, (small, large) in pairs.items()}
    passed = {key: m >= margin for key, m in margins.items()}
    incompatible: tuple = ()
    note = ""
    if s == 0:
        incompatible = ("i", "iv", "v")
        note = S_ZERO_NOTE
        passed = {key: (ok and key not in incompatible) for key, ok in passed.items()}
    return ConditionReport(
        margins=margins,
        passed=passed,
        margin_factor=margin,
        incompatible=incompatible,
        note=note,
    )


@dataclass
class InflationResult:
    params: ParameterSet
    n: int
    method: str
    norm_initial_gap: float
    norm_final: float
    conditions: ConditionReport
    decomposition: dict = field(default_factory=dict)
    series_tail: float = float("nan")
    series_ratio: float = float("nan")
    solver_drift: float = float("nan")
    method_agreement: float = float("nan")
    warnings: list = field(default_factory=list)

    @property
    def ratio(self) -> float:
        eps = np.finfo(float).eps
        return self.norm_final / max(self.norm_initial_gap, eps)

    def as_dict(self) -> dict:
        p = self.params
        return {
            "case": p.case_label,
            "s": p.s,
            "N": p.N,
            "A": p.A,
            "R": p.R,
            "T": p.T,
            "delta": p.delta,
            "n": self.n,
            "method": self.method,
            "gap": self.norm_initial_gap,
            "final": self.norm_final,
            "ratio": self.ratio,
            "series_tail": self.series_tail,
            "series_ratio": self.series_ratio,
            "solver_drift": self.solver_drift,
            "method_agreement": self.method_agreement,
            "conditions": self.conditions.as_dict(),
            "decomposition": self.decomposition,
            "warnings": self.warnings,
        }


def default_perturbation(grid, s: float) -> SpectralFunction:
    """Unit-H^s smooth Fourier bump of support radius DEFAULT_BUMP_RADIUS."""
    return smooth_bump(grid, DEFAULT_BUMP_RADIUS, s)


def _series_final(v0, phi, params, tg, j_max):
    """Partial sums and the four-term lower-bound decomposition."""
    s = params.s
    # keep only the final frame of each level: the full stacks of one datum
    # are freed before the other datum's levels are computed
    levels_v0 = [lvl.final for lvl in series_levels(v0, tg, j_max)]
    # of phi's own levels the decomposition reads only 1 and 2
    levels_phi = levels_v0 if v0 is phi else [lvl.final for lvl in series_levels(phi, tg, min(j_max, 2))]
    total, _, ratio, tail = level_summary(levels_v0)

    pert1 = levels_v0[1] - levels_phi[1]
    xi2_phi = sobolev_norm(levels_phi[2], s) if j_max >= 2 else float("nan")
    decomposition = {
        "xi1_phi_h_s": sobolev_norm(levels_phi[1], s),
        "xi0_v0_h_s": sobolev_norm(levels_v0[0], s),
        "perturbation_j1_h_s": sobolev_norm(pert1, s),
        "xi2_phi_h_s": xi2_phi,
        "tail_l2_extrapolated": tail,
    }
    return total, decomposition, tail, ratio


def _solver_config(grid, t_final: float) -> TorusConfig:
    """The torus on `grid`'s lattice: 3 xi_max/delta_xi modes up to a power of two, at most
    SOLVER_MODES_CAP (else a ResourceError), stepped to t_final at dt <= 0.5/xi_max^2."""
    need = 3.0 * grid.xi_max / grid.delta_xi
    modes = 1 << max(3, math.ceil(math.log2(need)))
    if modes > SOLVER_MODES_CAP:
        raise ResourceError(
            f"solver validation needs {modes} modes (> cap {SOLVER_MODES_CAP}); "
            "use the series method at this scale"
        )
    config = TorusConfig(length=2 * np.pi / grid.delta_xi, modes=modes, dt=t_final)
    n_steps = max(4, math.ceil(t_final / (0.5 / config.xi_max**2)))
    return replace(config, dt=t_final / n_steps)


def _solver_final(v0, config, t_final):
    state = state_from_spectrum(v0, config)
    mass0 = state.mass
    final_state = solve_gdnls(state, t_final)[-1]
    drift = abs(final_state.mass - mass0) / max(mass0, np.finfo(float).tiny)
    return spectrum_from_state(final_state, v0.grid), drift


def run_experiment(
    s: float,
    psi: SpectralFunction | None,
    N_sweep: Sequence[float],
    n: int = 1,
    method: str = "series",
    delta: float = 0.1,
    margin: float = DEFAULT_MARGIN,
    points_per_block: int = 16,
    j_max: int = 2,
    time_steps: int | None = None,
) -> list[InflationResult]:
    """One InflationResult per swept N (ordered by N).

    v0 = psi + phi(N); the gap ||v0(0) - psi||_{H^s} = ||phi||_{H^s} and the
    final norm ||v(T)||_{H^s} are measured by the requested method.
    Condition failures are recorded per N, never fatal.  Every N is set up,
    the series' TimeGrid and the solver's torus only for the methods that run,
    before the first is computed, so each refusal comes before any work;
    `time_steps` with method "solver", which builds no TimeGrid, is refused.
    """
    if method not in ("series", "solver", "both"):
        raise ConfigurationError(f"unknown method {method!r}")
    if method == "solver" and time_steps is not None:
        raise ConfigurationError("method 'solver' does not read --time-steps (time_steps): it builds no time grid")
    if j_max < 1:
        raise ConfigurationError(f"j_max must be >= 1 (got {j_max}): the decomposition uses level 1")
    radius = 0.0 if psi is None else float(np.max(np.abs(psi.grid.xi(psi.columns)), initial=0))
    setups = []
    for N in sorted(N_sweep):
        params = choose_params(s, N, delta)
        conditions = check_conditions(params, n, margin=margin)
        if method == "solver":
            grid = default_grid(params, j_max, points_per_block, psi_radius=radius)
            tg, phi = None, make_phi(params, grid, min_points_per_block=points_per_block)
        else:
            grid, tg, phi = generation_setup(params, j_max, params.T, points_per_block, time_steps, radius)
        config = None if method == "series" else _solver_config(grid, params.T)
        v0 = phi if psi is None else phi + resample(psi, grid)
        setups.append((params, conditions, tg, config, phi, v0))

    results = []
    for params, conditions, tg, config, phi, v0 in setups:
        gap = sobolev_norm(phi, s)
        warnings = []
        if not conditions.all_pass:
            failing = [k for k, ok in conditions.passed.items() if not ok]
            warnings.append(f"conditions below margin {margin}: {', '.join(failing)}")

        tail = ratio = drift = agreement = float("nan")
        decomposition: dict = {}
        if tg is not None:
            total, decomposition, tail, ratio = _series_final(v0, phi, params, tg, j_max)
            final = sobolev_norm(total, s)
            if ratio >= 0.5:
                warnings.append(f"series level ratio {ratio:.3g} >= 1/2")
        if config is not None:
            solved, drift = _solver_final(v0, config, params.T)
            if tg is None:
                final = sobolev_norm(solved, s)
            else:
                agreement = sobolev_norm(solved - total, 0.0) / max(sobolev_norm(total, 0.0), 1e-300)

        results.append(
            InflationResult(
                params=params,
                n=n,
                method=method,
                norm_initial_gap=gap,
                norm_final=final,
                conditions=conditions,
                decomposition=decomposition,
                series_tail=tail,
                series_ratio=ratio,
                solver_drift=drift,
                method_agreement=agreement,
                warnings=warnings,
            )
        )
    return results

