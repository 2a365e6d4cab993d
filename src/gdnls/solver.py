"""Pseudospectral integrator for the gauged derivative NLS on a large
periodic box, and the conversions between its states and line spectra.

The equation integrated is

    i v_t + v_xx = -i v^2 d/dx conj(v) - (1/2) |v|^4 v,

rewritten as v_t = i v_xx + G(v) with G(v) = -v^2 d/dx conj(v) + (i/2)|v|^4 v.
The linear flow is applied exactly through the integrating factor, and the
RK4 loop runs on the spectrum: samples are formed only for the states
returned.  G reads only the kept band |k| <= K = M // 3 and is
truncated back to it: content above the band evolves by the linear flow
alone.  G is evaluated pointwise on 2M points, the solver's M grid plus the
same grid shifted by half a cell.  The degree-5 product lies in |k| <= 5 K
and folds onto the kept band only if 2M <= 6 K; M is a power of two, so
K < M / 3 and the kept modes are alias-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
import scipy.fft

from .errors import AccuracyError, ConfigurationError
from .spectrum import FrequencyGrid, SpectralFunction

__all__ = [
    "TorusConfig",
    "PhysicalState",
    "step_gdnls",
    "solve_gdnls",
    "state_from_spectrum",
    "spectrum_from_state",
]

C_STAB = 2.0
# in cells; the 1e-9 spacing tolerance lets points drift ~1e-4 cells over 2^16 points
LATTICE_TOL = 1e-3


@dataclass(frozen=True)
class TorusConfig:
    """Periodic box [0, L) sampled at M points; dt may be negative for
    backward integration."""

    length: float
    modes: int
    dt: float
    # kept band |k| <= M // 3: the widest that _nonlinear_hat keeps alias-free
    dealias_factor: ClassVar[int] = 3

    def __post_init__(self):
        if not 0 < self.length < math.inf:  # also refuses NaN
            raise ConfigurationError("length must be positive and finite")
        if self.modes < 8 or self.modes & (self.modes - 1):
            raise ConfigurationError("modes must be a power of two >= 8")
        if not abs(self.dt) > 0:  # also refuses NaN
            raise ConfigurationError("dt must be nonzero")

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2 * np.pi / self.length * scipy.fft.fftfreq(self.modes, d=1.0 / self.modes)

    @cached_property
    def e_half(self) -> np.ndarray:
        """Integrating factor of the linear flow over dt / 2."""
        k2 = self.wavenumbers**2
        return np.exp(-1j * k2 * self.dt / 2)

    @cached_property
    def e_full(self) -> np.ndarray:
        """Integrating factor of the linear flow over dt."""
        return self.e_half**2

    @cached_property
    def half_cell_shift(self) -> np.ndarray:
        """tau_k = exp(i pi k / M) on the kept band in FFT order (k = 0..K,
        then -K..-1), indexed by the same slices as an M-point spectrum: it
        moves band-limited samples by half a cell."""
        k = np.r_[: self.band_limit + 1, -self.band_limit : 0]
        return np.exp(1j * np.pi / self.modes * k)

    @property
    def band_limit(self) -> int:
        """Largest kept mode index K.  G reads v only on |k| <= K and is
        truncated to it (the 2/3 rule); content above K evolves by the exact
        linear flow alone."""
        return self.modes // self.dealias_factor

    @property
    def xi_max(self) -> float:
        return 2 * np.pi / self.length * self.band_limit

    @property
    def dx(self) -> float:
        return self.length / self.modes

    @cached_property
    def xs(self) -> np.ndarray:
        return self.dx * np.arange(self.modes)


@dataclass
class PhysicalState:
    config: TorusConfig
    samples: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape != (self.config.modes,):
            raise ConfigurationError("samples length must equal the mode count")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("samples must be finite")

    @property
    def mass(self) -> float:
        return float(self.config.dx * np.sum(np.abs(self.samples) ** 2))


def _nonlinear_hat(config: TorusConfig, v_hat: np.ndarray) -> np.ndarray:
    """Spectrum of G(v) from v's modes |k| <= K, truncated to |k| <= K.

    One batched inverse transform of 4 rows of length M gives v and
    w = -i v_x on the M grid and on its half-cell shift (the rows multiplied
    by tau_k); G / i = v (v conj(w) + |v|^4 / 2) is formed in place on both
    and taken back by one forward transform of 2 rows.  On the kept band the
    2M-point spectrum is (Ghat_even + conj(tau_k) Ghat_odd) / 2."""
    m, band, tau = config.modes, config.band_limit, config.half_cell_shift
    kept = (np.s_[: band + 1], np.s_[-band:])
    rows = np.zeros((4, m), dtype=np.complex128)
    for part in kept:
        rows[0, part] = v_hat[part]
        np.multiply(v_hat[part], tau[part], out=rows[1, part])
        np.multiply(rows[:2, part], config.wavenumbers[part], out=rows[2:, part])
    # g holds w until G / i overwrites it
    rows = scipy.fft.ifft(rows, overwrite_x=True)
    v, g = rows[:2], rows[2:]
    # overflow here just means the blow-up check in _rk4_step will fire
    with np.errstate(over="ignore", invalid="ignore"):
        quartic = v.real**2 + v.imag**2
        quartic *= quartic
        np.conjugate(g, out=g)
        g *= v
        g.real += 0.5 * quartic
        g *= v
    g_sub = scipy.fft.fft(g, overwrite_x=True)
    g_hat = np.zeros(m, dtype=np.complex128)
    for part in kept:
        np.multiply(g_sub[1, part], tau[part].conj(), out=g_hat[part])
        g_hat[part] += g_sub[0, part]
        g_hat[part] *= 0.5j
    return g_hat


def _rk4_step(config: TorusConfig, v_hat: np.ndarray, time: float, nonlinear: bool) -> np.ndarray:
    """Spectrum after one integrating-factor RK4 step; `time` is the time
    reached, named if the step blows up."""
    dt, e_half, e_full = config.dt, config.e_half, config.e_full
    if nonlinear:
        n1 = _nonlinear_hat(config, v_hat)
        n2 = _nonlinear_hat(config, e_half * (v_hat + dt / 2 * n1))
        n3 = _nonlinear_hat(config, e_half * v_hat + dt / 2 * n2)
        n4 = _nonlinear_hat(config, e_full * v_hat + dt * e_half * n3)
        v_hat = e_full * v_hat + dt / 6 * (e_full * n1 + 2 * e_half * (n2 + n3) + n4)
    else:
        v_hat = e_full * v_hat
    if not np.all(np.isfinite(v_hat)):
        raise AccuracyError(f"solution blew up at t = {time}")
    return v_hat


def _sampled(config: TorusConfig, v_hat: np.ndarray, time: float) -> PhysicalState:
    """State at `time` from its spectrum; samples that overflow are a blow-up."""
    samples = scipy.fft.ifft(v_hat)
    if not np.all(np.isfinite(samples)):
        raise AccuracyError(f"solution blew up at t = {time}")
    return PhysicalState(config, samples, time)


def step_gdnls(state: PhysicalState, nonlinear: bool = True) -> PhysicalState:
    """One integrating-factor RK4 step; `nonlinear` as in solve_gdnls."""
    cfg, time = state.config, state.time + state.config.dt
    v_hat = _rk4_step(cfg, scipy.fft.fft(state.samples), time, nonlinear)
    return _sampled(cfg, v_hat, time)


def _step_count(span: float, dt: float) -> int:
    """The number of steps of size dt in `span`, a positive whole multiple of dt."""
    n_steps = round(span / dt) if 0 < span / dt < math.inf else 0  # NaN gives 0
    if n_steps <= 0 or abs(n_steps * dt - span) > 1e-9 * abs(span):
        raise ConfigurationError("t_final - t0 must be a positive multiple of dt")
    return n_steps


def solve_gdnls(
    v0: PhysicalState,
    t_final: float,
    checkpoint_every: int | None = None,
    nonlinear: bool = True,
) -> list[PhysicalState]:
    """Integrate to t_final; returns [v0, checkpoints..., final], a checkpoint
    every `checkpoint_every` steps (none for None or 0).  nonlinear=False,
    the exact linear flow alone, is the oracle the tests check the flow by."""
    cfg = v0.config
    if abs(cfg.dt) > C_STAB / cfg.xi_max**2:
        raise ConfigurationError(
            f"|dt| = {abs(cfg.dt)} exceeds the stability bound "
            f"{C_STAB / cfg.xi_max ** 2:.3e} = {C_STAB} / xi_max^2"
        )
    if checkpoint_every is not None and checkpoint_every < 0:
        raise ConfigurationError(f"checkpoint_every must be >= 0 (got {checkpoint_every})")
    span = t_final - v0.time
    if span == 0:
        return [v0]
    n_steps = _step_count(span, cfg.dt)
    out = [v0]
    v_hat, time = scipy.fft.fft(v0.samples), v0.time
    for i in range(1, n_steps + 1):
        time = time + cfg.dt
        v_hat = _rk4_step(cfg, v_hat, time, nonlinear)
        if (checkpoint_every and i % checkpoint_every == 0) or i == n_steps:
            out.append(_sampled(cfg, v_hat, time))
    return out


def _mode_indices(grid: FrequencyGrid, config: TorusConfig, columns: np.ndarray) -> np.ndarray:
    """Torus mode index k of the grid points `columns`, xi = 2 pi k / L;
    raises when the grid lies off that lattice."""
    dxi = 2 * np.pi / config.length
    if abs(grid.delta_xi - dxi) > 1e-9 * dxi:
        raise ConfigurationError(f"grid spacing {grid.delta_xi} must equal 2 pi / L = {dxi}")
    # a point's offset from the lattice is linear in its index (the spacing
    # check keeps it far below half a cell), so the grid's two ends bound it
    cells = grid.xi(np.r_[0, grid.count - 1, columns]) / dxi
    k = np.rint(cells)
    if np.max(np.abs(cells - k)) > LATTICE_TOL:
        raise ConfigurationError(f"grid points lie off the torus lattice 2 pi k / L, L = {config.length}")
    return k[2:].astype(np.int64)


def state_from_spectrum(f: SpectralFunction, config: TorusConfig) -> PhysicalState:
    """Periodize a line spectrum: requires delta_xi = 2 pi / L so grid points
    coincide with torus modes.  u(x) = (delta_xi / 2 pi) sum f_hat(xi_k) e^{i xi_k x}."""
    k = _mode_indices(f.grid, config, f.columns)
    dxi = 2 * np.pi / config.length
    m = config.modes
    above = np.abs(k) > config.band_limit
    if np.any(above):
        xi = f.grid.xi(f.columns[np.argmax(above)])
        raise ConfigurationError(f"spectral content at xi = {xi} above the torus band limit {config.xi_max}")
    c_hat = np.zeros(m, dtype=np.complex128)
    c_hat[k % m] = f.amplitudes * dxi / (2 * np.pi)
    samples = scipy.fft.ifft(c_hat) * m
    return PhysicalState(config, samples)


def spectrum_from_state(state: PhysicalState, grid: FrequencyGrid) -> SpectralFunction:
    """Inverse of state_from_spectrum on the resolved band |k| <= M/2 - 1; zero elsewhere."""
    cfg = state.config
    dxi = 2 * np.pi / cfg.length
    top = cfg.modes // 2 - 1
    # on the lattice, column j holds mode first + j
    first = _mode_indices(grid, cfg, np.r_[0])[0]
    columns = np.arange(max(-top - first, 0), min(top - first, grid.count - 1) + 1)
    c_hat = scipy.fft.fft(state.samples) / cfg.modes
    return SpectralFunction._on_columns(grid, columns, c_hat[(first + columns) % cfg.modes] * 2 * np.pi / dxi)
