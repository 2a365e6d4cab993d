from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from gdnls import solver
from gdnls.errors import AccuracyError, ConfigurationError
from gdnls.solver import (
    PhysicalState,
    TorusConfig,
    _nonlinear_hat,
    solve_gdnls,
    spectrum_from_state,
    state_from_spectrum,
    step_gdnls,
)
from gdnls.spectrum import FrequencyGrid, SpectralFunction
from oracles import _left_anchored_phase, gauge, ungauge

L, M = 40.0, 256


def gaussian_state(cfg, amplitude=0.5, center=None, width=1.0):
    center = cfg.length / 2 if center is None else center
    xs = cfg.xs
    return PhysicalState(cfg, amplitude * np.exp(-(((xs - center) / width) ** 2)))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TorusConfig(length=-1.0, modes=M, dt=1e-4)
    with pytest.raises(ConfigurationError):
        TorusConfig(length=L, modes=100, dt=1e-4)  # not a power of two
    with pytest.raises(ConfigurationError):
        TorusConfig(length=L, modes=M, dt=0.0)
    for length, dt in [(np.nan, 1e-4), (np.inf, 1e-4), (L, np.nan)]:
        with pytest.raises(ConfigurationError):
            TorusConfig(length=length, modes=M, dt=dt)


def test_mass_conservation():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg)
    traj = solve_gdnls(st, 1.0)
    drift = abs(traj[-1].mass - traj[0].mass) / traj[0].mass
    assert drift <= 1e-8  # per unit time (span is exactly 1)


def test_linear_step_exact():
    cfg = TorusConfig(length=L, modes=M, dt=1e-3)
    st = gaussian_state(cfg)
    out = solve_gdnls(st, 0.05, nonlinear=False)[-1]
    v_hat = np.fft.fft(st.samples) * np.exp(-1j * cfg.wavenumbers**2 * 0.05)
    assert np.max(np.abs(out.samples - np.fft.ifft(v_hat))) < 1e-12


def test_fourth_order_time_convergence():
    t_final = 0.04
    sols = {}
    for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
        cfg = TorusConfig(length=L, modes=M, dt=dt)
        sols[dt] = solve_gdnls(gaussian_state(cfg, amplitude=1.0), t_final)[-1].samples
    ref = sols[2.5e-4]
    e1 = np.linalg.norm(sols[4e-3] - ref)
    e2 = np.linalg.norm(sols[2e-3] - ref)
    e3 = np.linalg.norm(sols[1e-3] - ref)
    assert np.log2(e1 / e2) >= 3.5
    assert np.log2(e2 / e3) >= 3.5


def test_gauge_round_trip_and_modulus():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg)
    gauged = gauge(st)
    assert np.allclose(np.abs(gauged.samples), np.abs(st.samples))
    back = ungauge(gauged)
    assert np.max(np.abs(back.samples - st.samples)) < 1e-10


def test_gauge_rejects_left_edge_mass():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg, center=0.1)  # sits on the left edge
    with pytest.raises(ConfigurationError):
        gauge(st)


def test_translation_equivariance():
    """Shifting the initial datum by whole cells shifts the solution."""
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    shift = 16
    st = gaussian_state(cfg, amplitude=1.0, center=L / 2 - 4)
    base = solve_gdnls(st, 0.02)[-1]
    shifted0 = PhysicalState(cfg, np.roll(st.samples, shift))
    shifted = solve_gdnls(shifted0, 0.02)[-1]
    assert np.max(np.abs(shifted.samples - np.roll(base.samples, shift))) < 1e-6


def test_time_reversal():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg, amplitude=1.0)
    fwd = solve_gdnls(st, 0.02)[-1]
    back_cfg = replace(cfg, dt=-cfg.dt)
    back = solve_gdnls(PhysicalState(back_cfg, fwd.samples, fwd.time), 0.0)[-1]
    assert np.max(np.abs(back.samples - st.samples)) < 1e-7


def test_dealias_band_invariant():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg, amplitude=1.0, width=0.5)
    g_hat = _nonlinear_hat(cfg, np.fft.fft(st.samples))
    idx = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    above = np.abs(idx) > cfg.band_limit
    # nonlinear content above the kept band is exactly zero after truncation
    assert np.all(g_hat[above] == 0)
    assert np.any(g_hat[~above] != 0)


def test_stability_bound_enforced():
    cfg = TorusConfig(length=L, modes=M, dt=1.0)
    with pytest.raises(ConfigurationError):
        solve_gdnls(gaussian_state(cfg), 2.0)


def test_t_final_must_align():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    for t_final in (1.5e-4, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            solve_gdnls(gaussian_state(cfg), t_final)


def test_blowup_detected():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg, amplitude=200.0, width=0.5)
    with pytest.raises(AccuracyError):
        solve_gdnls(st, 0.05)


def test_checkpoints():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    traj = solve_gdnls(gaussian_state(cfg), 0.01, checkpoint_every=25)
    assert len(traj) == 5  # initial + checkpoints at steps 25, 50, 75, 100
    assert traj[-1].time == pytest.approx(0.01)


def test_negative_checkpoint_every_is_refused(monkeypatch):
    """i % -3 would checkpoint every 3 steps: the sign must not be dropped."""
    monkeypatch.setattr(solver, "_rk4_step", None)  # refused before any step
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    with pytest.raises(ConfigurationError, match="checkpoint_every"):
        solve_gdnls(gaussian_state(cfg), 0.01, checkpoint_every=-3)


def test_dnls_solver_round_trip_consistency():
    """The gauge round trip holds on an evolved state too."""
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg)
    evolved = solve_gdnls(gauge(st), 0.01)[-1]
    assert np.max(np.abs(gauge(ungauge(evolved)).samples - evolved.samples)) < 1e-10


def test_spectrum_state_round_trip():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    dxi = 2 * np.pi / L
    grid = FrequencyGrid.symmetric(10 * dxi, dxi)
    rng = np.random.default_rng(7)
    values = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    f = SpectralFunction(grid, values)
    state = state_from_spectrum(f, cfg)
    back = spectrum_from_state(state, grid)
    assert np.allclose(back.values, f.values, atol=1e-10)


def test_spectrum_conversion_requires_matching_spacing():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    grid = FrequencyGrid.symmetric(4.0, 0.33)
    f = SpectralFunction(grid, np.zeros(grid.count))
    with pytest.raises(ConfigurationError):
        state_from_spectrum(f, cfg)


def state_from_spectrum_loop(f, config):
    """Per-point reference for state_from_spectrum (samples only)."""
    dxi = 2 * np.pi / config.length
    m = config.modes
    c_hat = np.zeros(m, dtype=np.complex128)
    for j, xi in enumerate(f.grid.xis):
        if f.values[j] == 0:
            continue
        k = int(round(xi / dxi))
        assert abs(k) <= config.band_limit
        c_hat[k % m] = f.values[j] * dxi / (2 * np.pi)
    return np.fft.ifft(c_hat) * m


def spectrum_from_state_loop(state, grid):
    """Per-point reference for spectrum_from_state (values only)."""
    cfg = state.config
    dxi = 2 * np.pi / cfg.length
    c_hat = np.fft.fft(state.samples) / cfg.modes
    values = np.zeros(grid.count, dtype=np.complex128)
    for j, xi in enumerate(grid.xis):
        k = int(round(xi / dxi))
        if abs(k) <= cfg.modes // 2 - 1:
            values[j] = c_hat[k % cfg.modes] * 2 * np.pi / dxi
    return values


def torus_gaussian(length, modes, amplitude=0.5):
    """Spectrum of a exp(-(x - L/2)^2) on the solver band grid, f_hat = int f e^{-i x xi} dx."""
    cfg = TorusConfig(length=length, modes=modes, dt=1e-4)
    dxi = 2 * np.pi / length
    band = cfg.band_limit
    grid = FrequencyGrid(xi_min=-band * dxi, delta_xi=dxi, count=2 * band + 1)
    xis = grid.xis
    values = amplitude * np.sqrt(np.pi) * np.exp(-(xis**2) / 4 - 0.5j * length * xis)
    return cfg, SpectralFunction(grid, values)


def random_spectrum(cfg, half=10, seed=7):
    dxi = 2 * np.pi / cfg.length
    grid = FrequencyGrid.symmetric(half * dxi, dxi)
    rng = np.random.default_rng(seed)
    return SpectralFunction(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))


@pytest.mark.parametrize("case", ["torus-gaussian", "random"])
def test_spectrum_maps_match_loop_reference(case):
    if case == "torus-gaussian":
        cfg, f = torus_gaussian(L, 1 << 16)
    else:
        cfg = TorusConfig(length=L, modes=M, dt=1e-4)
        f = random_spectrum(cfg)
    state = state_from_spectrum(f, cfg)
    assert np.array_equal(state.samples, state_from_spectrum_loop(f, cfg))
    back = spectrum_from_state(state, f.grid)
    assert np.array_equal(back.values, spectrum_from_state_loop(state, f.grid))


def test_left_anchored_phase_matches_scipy_cumulative_trapezoid():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=65536) + 1j * rng.normal(size=65536)
    dx = L / 65536
    want = cumulative_trapezoid(np.abs(samples) ** 2, dx=dx, initial=0.0)
    assert np.array_equal(_left_anchored_phase(samples, dx), want)


def test_spectrum_conversion_rejects_off_lattice_grid():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    dxi = 2 * np.pi / L
    # half-integer points: rounding would send 21 points onto 11 modes
    grid = FrequencyGrid(xi_min=-10.5 * dxi, delta_xi=dxi, count=21)
    f = SpectralFunction(grid, np.ones(grid.count))
    with pytest.raises(ConfigurationError):
        state_from_spectrum(f, cfg)
    with pytest.raises(ConfigurationError):
        spectrum_from_state(gaussian_state(cfg), grid)


def nonlinear_hat_3m_reference(config, v_hat, pad_factor=3):
    """Reference for _nonlinear_hat: G of v's modes |k| < M/2 on a grid of
    pad_factor * M points, truncated to the kept band."""
    m = config.modes
    pad = pad_factor * m
    padded = np.zeros(pad, dtype=np.complex128)
    padded[: m // 2] = v_hat[: m // 2]
    padded[-(m // 2) :] = v_hat[-(m // 2) :]
    scale = pad / m
    k_pad = 2 * np.pi / config.length * np.fft.fftfreq(pad, d=1.0 / pad)
    v_phys = np.fft.ifft(padded) * scale
    vx_phys = np.fft.ifft(1j * k_pad * padded) * scale
    g_phys = -(v_phys**2) * np.conj(vx_phys) + 0.5j * np.abs(v_phys) ** 4 * v_phys
    g_hat_pad = np.fft.fft(g_phys) / scale
    g_hat = np.zeros(m, dtype=np.complex128)
    g_hat[: m // 2] = g_hat_pad[: m // 2]
    g_hat[-(m // 2) :] = g_hat_pad[-(m // 2) :]
    idx = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    g_hat[np.abs(idx) > config.band_limit] = 0.0
    return g_hat


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nonlinear_hat_matches_3m_reference(seed):
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    rng = np.random.default_rng(seed)
    v_hat = rng.normal(size=M) + 1j * rng.normal(size=M)
    idx = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    v_hat[np.abs(idx) > cfg.band_limit] = 0.0
    want = nonlinear_hat_3m_reference(cfg, v_hat)
    assert np.max(np.abs(_nonlinear_hat(cfg, v_hat) - want)) <= 1e-13 * np.max(np.abs(want))


def test_band_edge_datum_is_alias_free():
    """Modes at +-K make the quintic reach +-5K; at a pad of 6K = 126 points
    5K would fold onto -K, so this fails for a pad rule one point short."""
    m = 64
    cfg = TorusConfig(length=L, modes=m, dt=1e-4)
    band = cfg.band_limit
    assert band == 21
    v_hat = np.zeros(m, dtype=np.complex128)
    v_hat[band] = v_hat[-band] = m
    v_hat[3] = m / 2
    want = nonlinear_hat_3m_reference(cfg, v_hat)
    assert np.max(np.abs(_nonlinear_hat(cfg, v_hat) - want)) <= 1e-13 * np.max(np.abs(want))


def test_trajectory_matches_3m_reference(monkeypatch):
    cfg, f = torus_gaussian(L, 1 << 12)
    cfg = replace(cfg, dt=0.5 / cfg.xi_max**2)
    state = state_from_spectrum(f, cfg)
    t_final = 16 * cfg.dt
    got = solve_gdnls(state, t_final)
    monkeypatch.setattr(solver, "_nonlinear_hat", nonlinear_hat_3m_reference)
    want = solve_gdnls(state, t_final)
    assert len(got) == len(want) == 2
    err = np.max(np.abs(got[-1].samples - want[-1].samples))
    assert err <= 1e-12 * np.max(np.abs(want[-1].samples))
    drift_got = abs(got[-1].mass - state.mass) / state.mass
    drift_want = abs(want[-1].mass - state.mass) / state.mass
    assert abs(drift_got - drift_want) <= 1e-14


@pytest.mark.parametrize("pad_factor", [3, 4, 5])
@pytest.mark.parametrize("modes", [8, 64, 256])
def test_band_edge_datum_is_alias_free_on_the_product_grid(modes, pad_factor):
    """G is sampled on the M grid and its half-cell shift, 2M points in all;
    modes at +-K = +-(M // 3) and one interior mode must match the reference
    on d*M points, which is alias-free for every d >= 3."""
    cfg = TorusConfig(length=L, modes=modes, dt=1e-4)
    band = cfg.band_limit
    assert band == modes // 3
    v_hat = np.zeros(modes, dtype=np.complex128)
    v_hat[band] = v_hat[-band] = modes
    v_hat[band // 2] += modes / 2
    want = nonlinear_hat_3m_reference(cfg, v_hat, pad_factor)
    assert np.max(np.abs(_nonlinear_hat(cfg, v_hat) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("modes", [64, 1 << 16])
def test_nonlinear_hat_matches_3m_reference_across_sizes(modes):
    cfg = TorusConfig(length=L, modes=modes, dt=1e-4)
    rng = np.random.default_rng(modes)
    v_hat = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    idx = np.fft.fftfreq(modes, d=1.0 / modes).astype(int)
    v_hat[np.abs(idx) > cfg.band_limit] = 0.0
    want = nonlinear_hat_3m_reference(cfg, v_hat)
    assert np.max(np.abs(_nonlinear_hat(cfg, v_hat) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nonlinear", [True, False])
def test_solve_matches_successive_steps(nonlinear):
    """solve_gdnls keeps the spectrum between steps; step_gdnls runs the same
    RK4 body from samples, so the two differ by transform rounding only."""
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    state = gaussian_state(cfg, amplitude=1.0)
    traj = solve_gdnls(state, 20 * cfg.dt, checkpoint_every=5, nonlinear=nonlinear)
    assert len(traj) == 5
    for want in traj[1:]:
        for _ in range(5):
            state = step_gdnls(state, nonlinear=nonlinear)
        assert state.time == want.time
        assert np.max(np.abs(state.samples - want.samples)) <= 1e-13 * np.max(np.abs(want.samples))


@pytest.mark.parametrize("bad_step", [3, 2])
def test_blowup_names_the_step_time(monkeypatch, bad_step):
    """Non-finite values from one step's nonlinearity raise AccuracyError at
    that step's time, on a checkpoint step (3) and between checkpoints (2)."""
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    calls = []

    def poisoned(config, v_hat):
        calls.append(None)
        g_hat = _nonlinear_hat(config, v_hat)
        return g_hat * np.nan if len(calls) > 4 * (bad_step - 1) else g_hat

    monkeypatch.setattr(solver, "_nonlinear_hat", poisoned)
    t = 0.0
    for _ in range(bad_step):
        t = t + cfg.dt
    with pytest.raises(AccuracyError, match=f"at t = {t}$"):
        solve_gdnls(gaussian_state(cfg), 6 * cfg.dt, checkpoint_every=3)
    assert len(calls) == 4 * bad_step


@pytest.mark.filterwarnings("ignore:.*encountered in ifft:RuntimeWarning")
def test_overflowing_samples_raise_accuracy_error():
    """A finite spectrum whose samples overflow is a blow-up, not an
    invalid PhysicalState."""
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    samples = np.zeros(M, dtype=np.complex128)
    samples[M // 2] = 1e307
    with pytest.raises(AccuracyError, match=f"at t = {cfg.dt}$"):
        solve_gdnls(PhysicalState(cfg, samples), cfg.dt, nonlinear=False)


def test_state_from_spectrum_refuses_content_above_the_band():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    dxi = 2 * np.pi / L
    grid = FrequencyGrid.symmetric((cfg.band_limit + 1) * dxi, dxi)
    values = np.zeros(grid.count)
    values[-1] = 1.0  # the top mode, above the band limit
    with pytest.raises(ConfigurationError, match="above the torus band limit"):
        state_from_spectrum(SpectralFunction(grid, values), cfg)


def test_solve_to_the_start_time_returns_the_initial_state():
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    st = gaussian_state(cfg)
    assert solve_gdnls(st, st.time) == [st]
