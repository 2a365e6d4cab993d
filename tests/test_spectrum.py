import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from gdnls.errors import ConfigurationError
from gdnls.inflation import choose_params
from gdnls.spectrum import (
    FrequencyGrid,
    ParameterSet,
    SpectralFunction,
    default_grid,
    fl_norm,
    free_evolve,
    make_phi,
    norm_report,
    smooth_bump,
    sobolev_norm,
)
from gdnls.trees import compositions

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


def test_phi_requires_resolution_and_coverage():
    coarse = FrequencyGrid.symmetric(1000.0, PARAMS.A)  # 1 point per block
    with pytest.raises(ConfigurationError):
        make_phi(PARAMS, coarse)
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
