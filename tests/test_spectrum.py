import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from gdnls.errors import AccuracyError, ConfigurationError, ResourceError
from gdnls.inflation import choose_params
from gdnls.spectrum import (
    FrequencyGrid,
    ParameterSet,
    SpectralFunction,
    default_grid,
    fl_norm,
    make_phi,
    norm_report,
    resample,
    smooth_bump,
    sobolev_norm,
)
from gdnls.trees import compositions
from oracles import free_evolve

PARAMS = ParameterSet(s=-1.0, N=256.0, A=16.0, R=4.0, T=1e-6)


def test_symmetric_grid_contains_zero():
    grid = FrequencyGrid.symmetric(100.0, 0.25)
    assert grid.is_symmetric
    assert 0.0 in grid.xis
    assert grid.xi_max >= 100.0


@given(st.floats(1.0, 1e4), st.floats(0.01, 2.0))
def test_symmetric_grid_properties(xi_max, delta):
    grid = FrequencyGrid.symmetric(xi_max, delta)
    assert grid.is_symmetric
    assert abs(grid.xis[grid.index_of(0.0)]) < 1e-9


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(xi_min=0.0, delta_xi=-1.0, count=8)
    with pytest.raises(ConfigurationError):
        FrequencyGrid(xi_min=0.0, delta_xi=1.0, count=1)


def test_spectral_function_shape_and_finiteness():
    grid = FrequencyGrid.symmetric(4.0, 1.0)
    with pytest.raises(ConfigurationError):
        SpectralFunction(grid, np.zeros(3))
    with pytest.raises(ConfigurationError):
        SpectralFunction(grid, np.full(grid.count, np.nan))


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        ParameterSet(s=-1.0, N=0.5, A=16.0, R=4.0, T=1e-6)
    with pytest.raises(ConfigurationError):
        ParameterSet(s=-1.0, N=256.0, A=16.0, R=-1.0, T=1e-6)
    with pytest.raises(ConfigurationError):
        ParameterSet(s=-1.0, N=256.0, A=16.0, R=4.0, T=0.0)


def test_phi_two_blocks_half_open():
    grid = default_grid(PARAMS, generations=0)
    phi = make_phi(PARAMS, grid)
    N, A, R = PARAMS.N, PARAMS.A, PARAMS.R
    xis = grid.xis
    on = np.abs(phi.values) > 0
    in_blocks = ((xis >= 2 * N - A / 2) & (xis < 2 * N + A / 2)) | (
        (xis >= 3 * N - A / 2) & (xis < 3 * N + A / 2)
    )
    assert np.array_equal(on, in_blocks)
    assert np.all(phi.values[on] == R)
    # half-open edges: left edge included, right edge excluded
    assert phi.values[grid.index_of(2 * N - A / 2)] == R
    assert phi.values[grid.index_of(2 * N + A / 2)] == 0


def test_phi_requires_coverage():
    narrow = FrequencyGrid.symmetric(100.0, 0.25)  # support not covered
    with pytest.raises(ConfigurationError):
        make_phi(PARAMS, narrow)


def test_phi_norms_against_quadrature_oracle():
    """H^s and L^2 norms of the indicator datum against scipy.integrate.quad
    on the exact density."""
    grid = default_grid(PARAMS, generations=0, points_per_block=256)
    phi = make_phi(PARAMS, grid)
    N, A, R = PARAMS.N, PARAMS.A, PARAMS.R

    def hs_block(center, s):
        val, _ = quad(lambda xi: (1 + xi**2) ** s, center - A / 2, center + A / 2)
        return val

    for s in (-1.0, -0.5, 0.0):
        exact = math.sqrt(R**2 * (hs_block(2 * N, s) + hs_block(3 * N, s)) / (2 * math.pi))
        assert sobolev_norm(phi, s) == pytest.approx(exact, rel=2e-2)
    assert fl_norm(phi, 1) == pytest.approx(2 * R * A, rel=2e-2)
    assert fl_norm(phi, math.inf) == R


def test_fl_norm_rejects_other_exponents():
    grid = FrequencyGrid.symmetric(4.0, 1.0)
    f = SpectralFunction(grid, np.ones(grid.count))
    with pytest.raises(ConfigurationError):
        fl_norm(f, 2)


def test_norms_past_float64_are_accuracy_errors():
    """Finite amplitudes whose squares, sum or modulus pass float64 give
    non-finite norms: each is refused, not returned."""
    grid = FrequencyGrid.symmetric(4.0, 1.0)
    big = SpectralFunction(grid, np.full(grid.count, 1e160))
    for s in (-1.0, 0.0):
        with pytest.raises(AccuracyError, match=f"H\\^{s:g} norm overflowed"):
            sobolev_norm(big, s)
    assert fl_norm(big, 1) == 8e160  # trapezoid weights on 9 points
    huge = SpectralFunction(grid, np.full(grid.count, 1.5e308 * (1 + 1j)))
    for p in ("1", "inf"):
        with pytest.raises(AccuracyError, match=f"FL\\^{p} norm overflowed"):
            fl_norm(huge, float(p))


def test_free_evolution_preserves_moduli():
    grid = default_grid(PARAMS, generations=0)
    phi = make_phi(PARAMS, grid)
    evolved = free_evolve(phi, 3.7e-5)
    assert np.allclose(np.abs(evolved.values), np.abs(phi.values))
    for s in (-1.0, -0.5, 0.0):
        assert sobolev_norm(evolved, s) == pytest.approx(sobolev_norm(phi, s), rel=1e-12)
    at_zero = free_evolve(phi, 0.0)
    assert np.array_equal(at_zero.values, phi.values)


def test_smooth_bump_unit_norm_and_support():
    grid = FrequencyGrid.symmetric(32.0, 0.0625)
    for s in (-1.0, -0.5, -0.25):
        bump = smooth_bump(grid, 8.0, s)
        assert sobolev_norm(bump, s) == pytest.approx(1.0, rel=1e-12)
        outside = np.abs(grid.xis) >= 8.0
        assert np.all(bump.values[outside] == 0)


def test_norm_report_fields():
    grid = default_grid(PARAMS, generations=0)
    phi = make_phi(PARAMS, grid)
    rep = norm_report(phi, PARAMS.s)
    assert rep.h_s == sobolev_norm(phi, PARAMS.s)
    assert rep.l2 == sobolev_norm(phi, 0.0)
    assert rep.fl1 == fl_norm(phi, 1)
    assert rep.fl_inf == fl_norm(phi, math.inf)
    assert set(rep.as_dict()) == {"h_s", "l2", "fl1", "fl_inf"}


def test_default_grid_covers_generations():
    g0 = default_grid(PARAMS, generations=0)
    g1 = default_grid(PARAMS, generations=1)
    g2 = default_grid(PARAMS, generations=2)
    assert g0.xi_max < g1.xi_max < g2.xi_max
    assert g1.xi_max >= 5 * PARAMS.N
    assert g2.xi_max >= 15 * PARAMS.N
    for g in (g0, g1, g2):
        assert g.is_symmetric


def _level_hulls(lo, hi, g_max):
    """Interval hulls (units of N) of levels 0..g_max of the series recursion
    for a datum supported in [lo, hi]: quintic slots enter with signs
    + - + - +, cubic ones with + + -."""
    hulls = [(lo, hi)]
    for j in range(1, g_max + 1):
        ends = [
            (
                sum(hulls[i][0] if sign > 0 else -hulls[i][1] for i, sign in zip(c, signs)),
                sum(hulls[i][1] if sign > 0 else -hulls[i][0] for i, sign in zip(c, signs)),
            )
            for signs in ((1, -1, 1, -1, 1), (1, 1, -1))
            for c in compositions(j - 1, len(signs))
        ]
        hulls.append((min(e[0] for e in ends), max(e[1] for e in ends)))
    return hulls


def test_default_grid_width_is_the_level_hull():
    perturbed = _level_hulls(0, 3, 4)
    assert perturbed == [(-6 * g, 3 + 6 * g) for g in range(5)]
    alone = _level_hulls(2, 3, 4)
    margin = 32 * PARAMS.A
    for g in range(5):
        grid = default_grid(PARAMS, generations=g)
        reach = max(-perturbed[g][0], perturbed[g][1], -alone[g][0], alone[g][1])
        assert grid.xi_max >= reach * PARAMS.N + margin
        # no wider than the hull plus the margin and one grid spacing
        assert grid.xi_max < reach * PARAMS.N + margin + grid.delta_xi


@pytest.mark.parametrize("N", [1024.0, 2.0])
def test_default_grid_covers_the_perturbed_level_hull(N):
    """phi plus a bump of radius 8 at the case-1 block width A = N^0.02
    (delta = 0.1): the datum lies in [-r, max(3N + A/2, r)], and its level
    hulls must clear the edge test's two outermost cells at each end.  At
    N = 2 the bump reaches past phi's blocks."""
    r = 8.0
    params = choose_params(-1.0, N, 0.1)
    hulls = _level_hulls(-r / N, max(3 + params.A / (2 * N), r / N), 4)
    for g, (lo, hi) in enumerate(hulls):
        grid = default_grid(params, generations=g, psi_radius=r)
        assert max(-lo, hi) * N + 2 * grid.delta_xi < grid.xi_max


def _assert_stored_on_support(f):
    """`columns` are exactly the nonzero points of the dense view, sorted,
    and `amplitudes` the values there."""
    assert np.array_equal(f.columns, np.flatnonzero(f.values))
    assert np.array_equal(f.amplitudes, f.values[f.columns])


def test_grid_points_by_index_are_the_dense_points():
    grid = FrequencyGrid.symmetric(1000.0, 1 / 3)
    j = np.array([0, 1, 7, grid.count // 2, grid.count - 1])
    assert np.array_equal(grid.xi(j), grid.xis[j])
    assert grid.xi(grid.count - 1) == grid.xis[-1]


def test_spectra_are_stored_on_their_support():
    from gdnls.frames import spectral_from_csv, spectral_to_csv
    from oracles import to_string
    from gdnls.picard import TimeGrid, duhamel_K, free_frames
    from gdnls.solver import TorusConfig, spectrum_from_state, state_from_spectrum

    grid = default_grid(PARAMS, generations=1, points_per_block=8)
    phi = make_phi(PARAMS, grid)
    bump = smooth_bump(FrequencyGrid.symmetric(16.0, 0.125), 8.0, -1.0)
    v = free_frames(phi, TimeGrid(t_max=PARAMS.T, steps=4))
    k = duhamel_K(v, v, v, v, v)
    moved = resample(bump, grid)
    produced = [phi, bump, moved, phi + moved, phi - phi, k.at_index(0), k.at_index(2), k.final]
    assert k.at_index(0).columns.size == 0
    # a dense input with zeros, and one whose zeros are signed
    mixed = SpectralFunction(grid, np.where(np.arange(grid.count) % 3 == 0, 0, 1.5 - 2j))
    signed = SpectralFunction(grid, np.where(np.arange(grid.count) % 2 == 0, -0.0, 1.0))
    produced += [mixed, signed, free_evolve(mixed, 0.3)]
    produced.append(spectral_from_csv(io.StringIO(to_string(spectral_to_csv, mixed))))
    cfg = TorusConfig(length=40.0, modes=64, dt=1e-4)
    dxi = 2 * np.pi / cfg.length
    on_torus = SpectralFunction(FrequencyGrid.symmetric(10 * dxi, dxi), np.arange(21) % 4)
    produced.append(spectrum_from_state(state_from_spectrum(on_torus, cfg), on_torus.grid))
    for f in produced:
        _assert_stored_on_support(f)


def test_norms_match_the_dense_trapezoid():
    """The norms sum on the stored columns with the trapezoid's weights:
    half a cell at the grid's two ends, a full cell elsewhere."""
    rng = np.random.default_rng(3)
    grid = FrequencyGrid.symmetric(50.0, 0.25)
    dense = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    dense[rng.random(grid.count) < 0.5] = 0
    for ends in ((1, 1), (1, 0), (0, 1), (0, 0)):
        values = dense.copy()
        values[[0, -1]] = [3.0 + 1j if ends[0] else 0, -2.0 if ends[1] else 0]
        f = SpectralFunction(grid, values)
        for s in (-1.0, -0.25, 0.0):
            density = (1 + grid.xis**2) ** s * np.abs(f.values) ** 2
            want = math.sqrt(np.trapezoid(density, dx=grid.delta_xi) / (2 * math.pi))
            assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-14, abs=0)
        want = np.trapezoid(np.abs(f.values), dx=grid.delta_xi)
        assert fl_norm(f, 1) == pytest.approx(want, rel=1e-14, abs=0)
        assert fl_norm(f, math.inf) == np.max(np.abs(f.values))
    empty = SpectralFunction(grid, np.zeros(grid.count))
    assert sobolev_norm(empty, -1.0) == fl_norm(empty, 1) == fl_norm(empty, math.inf) == 0.0


@pytest.mark.parametrize("N", [16.0, 256.0, 1000.5])
@pytest.mark.parametrize("A", [4.0, 10.0, 16.3])
@pytest.mark.parametrize("ppb", [3, 8, 32])
def test_block_columns_are_the_dense_masks(N, A, ppb):
    """make_phi and smooth_bump pick their columns by index arithmetic; the
    sets equal the float masks over the whole grid, including the ties of
    the half-open block edges and of |u| < 1 (dyadic A and ppb put edges on
    grid points)."""
    params = ParameterSet(s=-1.0, N=N, A=A, R=2.5, T=1e-6)
    grid = default_grid(params, generations=0, points_per_block=ppb)
    xis = grid.xis
    mask = np.zeros(grid.count, dtype=bool)
    for center in (2 * N, 3 * N):
        mask |= (xis >= center - A / 2) & (xis < center + A / 2)
    phi = make_phi(params, grid)
    assert np.array_equal(phi.columns, np.flatnonzero(mask))
    assert np.all(phi.amplitudes == 2.5)
    for radius in (A, A / 2 + grid.delta_xi / 3, N):
        u = xis / radius
        inside = np.abs(u) < 1
        bump = np.zeros(grid.count)
        bump[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        assert np.array_equal(smooth_bump(grid, radius, -1.0).columns, np.flatnonzero(bump))


def test_resample_is_the_dense_interpolation():
    source = smooth_bump(FrequencyGrid.symmetric(16.0, 0.125), 8.0, -1.0)
    rng = np.random.default_rng(5)
    edge = FrequencyGrid(xi_min=-3.0, delta_xi=0.5, count=13)
    # a source that reaches both ends of its grid, with gaps
    values = np.where(rng.random(13) < 0.6, rng.normal(size=13), 0) + 0j
    values[[0, -1]] = 1.0
    ragged = SpectralFunction(edge, values)
    targets = [
        FrequencyGrid.symmetric(40.0, 0.3),
        FrequencyGrid.symmetric(100.0, 8.0),
        FrequencyGrid(xi_min=-7.9375, delta_xi=0.0625, count=200),
        FrequencyGrid(xi_min=-2.75, delta_xi=0.25, count=30),
        FrequencyGrid(xi_min=50.0, delta_xi=1.0, count=4),
    ]
    for f in (source, ragged):
        for grid in targets:
            want_re = np.interp(grid.xis, f.grid.xis, f.values.real, left=0.0, right=0.0)
            want_im = np.interp(grid.xis, f.grid.xis, f.values.imag, left=0.0, right=0.0)
            got = resample(f, grid)
            assert np.array_equal(got.values, want_re + 1j * want_im)
            _assert_stored_on_support(got)


def test_dense_input_without_zeros_is_not_copied():
    grid = FrequencyGrid.symmetric(4.0, 1.0)
    full = np.ones(grid.count, dtype=np.complex128)
    f = SpectralFunction(grid, full)
    assert np.shares_memory(f.amplitudes, full) and np.shares_memory(f.values, full)
    assert f.columns.size == grid.count


def test_sums_need_one_grid():
    a = make_phi(PARAMS, default_grid(PARAMS, generations=0))
    b = make_phi(PARAMS, default_grid(PARAMS, generations=1))
    with pytest.raises(ConfigurationError):
        a + b
    with pytest.raises(ConfigurationError):
        a - b


def test_grid_count_past_int64_is_a_resource_error():
    """Indices past int64 would turn numpy's index arrays into object
    arrays; the largest int64 count is still a grid."""
    assert FrequencyGrid(xi_min=0.0, delta_xi=1.0, count=2**63 - 1).count == 2**63 - 1
    with pytest.raises(ResourceError, match="int64"):
        FrequencyGrid(xi_min=0.0, delta_xi=1.0, count=2**63)
    with pytest.raises(ResourceError, match="int64"):
        FrequencyGrid.symmetric(1e21, 1e-3)


def test_phi_block_that_float64_cannot_place_is_an_accuracy_error():
    """Case 1 at N = 2^60: delta_xi = A / 8 = 512 is the float64 spacing at
    2N, so the block at 2N holds 7 of its 8 grid points."""
    params = choose_params(-1.0, 2.0**60, 1.0)
    grid = default_grid(params, 1, 8)
    with pytest.raises(AccuracyError, match="holds 7 grid points, fewer than the 8"):
        make_phi(params, grid)


def test_resample_onto_its_own_grid_and_of_an_empty_spectrum():
    grid = FrequencyGrid.symmetric(4.0, 0.25)
    f = smooth_bump(grid, 2.0, -1.0)
    assert resample(f, grid) is f
    empty = SpectralFunction(grid, np.zeros(grid.count))
    target = FrequencyGrid.symmetric(8.0, 0.1)
    out = resample(empty, target)
    assert out.grid == target and out.columns.size == 0
    assert np.array_equal(out.values, np.zeros(target.count))


def test_smooth_bump_with_no_grid_point_inside_is_refused():
    # the grid points 0.5, 1.5, ... all lie outside (-0.25, 0.25)
    grid = FrequencyGrid(xi_min=0.5, delta_xi=1.0, count=8)
    with pytest.raises(ConfigurationError, match="bump unresolved on this grid"):
        smooth_bump(grid, 0.25, -1.0)
