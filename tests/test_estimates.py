import math

import numpy as np
import pytest
from scipy.integrate import quad

from gdnls import estimates
from gdnls.errors import ConfigurationError
from gdnls.estimates import (
    BoxSpec,
    box_convolution,
    cardinal_bspline,
    f_s,
    verify_lemma25,
    verify_lemma26,
    verify_lemma210,
    verify_prop29,
)
from gdnls.inflation import default_perturbation
from gdnls.picard import xi_generation, xi_level
from gdnls.spectrum import ParameterSet, SpectralFunction, default_grid, fl_norm, resample, sobolev_norm

P = ParameterSet(s=-1.0, N=256.0, A=16.0, R=4.0, T=0.05 / 256.0**2)


def test_f_s_three_regimes():
    assert f_s(-1.0, 16.0) == 1.0
    assert f_s(-0.7, 100.0) == 1.0
    assert f_s(-0.5, 16.0) == pytest.approx(math.sqrt(math.log(16.0)), rel=1e-15)
    assert f_s(-0.25, 16.0) == pytest.approx(16.0**0.25, rel=1e-15)
    assert f_s(0.0, 16.0) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ConfigurationError):
        f_s(-1.0, 0.5)


def test_bspline_order_one_is_box():
    x = np.array([-0.6, -0.5, 0.0, 0.49, 0.5])
    assert np.array_equal(cardinal_bspline(1, x), [0.0, 1.0, 1.0, 1.0, 0.0])


def test_bspline_order_two_is_hat():
    x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(cardinal_bspline(2, x), [0.0, 0.5, 1.0, 0.5, 0.0])


def test_bspline_central_value_order_five():
    assert abs(cardinal_bspline(5, 0.0) - 115.0 / 192.0) < 1e-9


def test_bspline_partition_of_unity():
    # integer translates of B_n sum to 1 everywhere
    for n in (2, 3, 4, 5):
        x = np.linspace(-0.5, 0.5, 11)
        total = sum(cardinal_bspline(n, x + k) for k in range(-n, n + 1))
        assert np.allclose(total, 1.0, atol=1e-12)


def test_bspline_recursion_against_quadrature():
    """B_n = B_{n-1} * box, checked by direct numerical integration."""
    for n in (3, 5):
        for x in (-0.75, 0.0, 0.4, 1.2):
            val, _ = quad(lambda u: cardinal_bspline(n - 1, x - u), -0.5, 0.5)
            assert cardinal_bspline(n, x) == pytest.approx(val, abs=1e-10)


def test_box_convolution_matches_discrete_convolution():
    """Brute-force oracle: sampled indicators convolved with np.convolve."""
    A = 4.0
    centers = [0.0, 2.0, -1.0]
    dxi = 1.0 / 256
    xs = np.arange(-64.0, 64.0, dxi)
    sampled = [((xs >= c - A / 2) & (xs < c + A / 2)).astype(float) for c in centers]
    num = np.convolve(np.convolve(sampled[0], sampled[1]) * dxi, sampled[2]) * dxi
    offset = 3 * xs[0]
    boxes = [BoxSpec(c, A) for c in centers]
    for xi in (-1.0, 0.0, 1.0, 2.5):
        idx = int(round((xi - offset) / dxi))
        assert box_convolution(boxes, xi) == pytest.approx(num[idx], abs=5e-2)


def test_box_convolution_translation_covariance():
    boxes = [BoxSpec(c, 2.0) for c in (0.0, 1.0, -3.0, 2.0, 0.5)]
    shifted = [BoxSpec(b.center + 0.7, b.width) for b in boxes]
    xi = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(
        box_convolution(shifted, xi + 5 * 0.7), box_convolution(boxes, xi), atol=1e-12
    )


def test_box_convolution_total_integral():
    # integral of the n-fold convolution is (integral of one box)^n = A^n
    A = 3.0
    boxes = [BoxSpec(0.0, A)] * 5
    val, _ = quad(lambda xi: float(box_convolution(boxes, xi)), -2.5 * A, 2.5 * A, limit=200)
    assert val == pytest.approx(A**5, rel=1e-9)


def test_box_convolution_validation():
    with pytest.raises(ConfigurationError):
        box_convolution([], 0.0)
    with pytest.raises(ConfigurationError):
        box_convolution([BoxSpec(0.0, 1.0), BoxSpec(0.0, 2.0)], 0.0)
    with pytest.raises(ConfigurationError):
        BoxSpec(0.0, -1.0)


def test_center_block_lower_bound():
    """5-fold convolution of width-A boxes dominates c A^4 on the center
    block, with c the exact edge value of the order-5 B-spline."""
    c_edge = float(cardinal_bspline(5, 0.5))
    for A in (1.0, 4.0, 16.0):
        boxes = [BoxSpec(s * P.N, A) for s in (2, -2, 3, -3, 0)]  # centers sum to 0
        xi = np.linspace(-A / 2, A / 2, 201, endpoint=False)
        vals = box_convolution(boxes, xi)
        assert np.all(vals >= c_edge * A**4 - 1e-9 * A**4)


def test_lemma25_ratios_bounded():
    rep = verify_lemma25(P, 0, 1, points_per_block=16, time_steps=32)
    assert rep.passed
    assert all(0 < v < 100 for v in rep.ratios.values())
    assert set(rep.ratios) == {"fl1", "fl_inf", "fl_inf_derivative"}


def test_lemma25_generation_cap():
    with pytest.raises(ConfigurationError):
        verify_lemma25(P, 2, 1)


def test_lemma26_ratio_bounded():
    rep = verify_lemma26(P, 1, 0, points_per_block=16, time_steps=32)
    assert rep.passed
    assert 0 < rep.ratios["h_s"] < 100


def test_prop29_positive_constant():
    rep = verify_prop29(P, 5e-7)
    assert rep.passed
    assert rep.ratios["c"] > 0


def test_prop29_preconditions():
    with pytest.raises(ConfigurationError):
        verify_prop29(P, 0.0)
    with pytest.raises(ConfigurationError):
        verify_prop29(P, 1.0)  # outside the time window
    weak = ParameterSet(s=-1.0, N=256.0, A=16.0, R=0.1, T=P.T)
    with pytest.raises(ConfigurationError):
        verify_prop29(weak, 5e-7)  # R^2 A^2 not >> N


def test_lemma210_bounded():
    grid = default_grid(P, generations=1, points_per_block=16)
    bump = default_perturbation(grid, P.s)
    rep = verify_lemma210(P, bump, 1, points_per_block=16, time_steps=32)
    assert rep.passed
    assert 0 < rep.ratios["l2_difference"] < 100


def test_lemma210_sizes_the_grid_for_the_perturbation(monkeypatch):
    radii = []
    real = estimates.default_grid

    def spy(*args, psi_radius, **kwargs):
        radii.append(psi_radius)
        return real(*args, psi_radius=psi_radius, **kwargs)

    monkeypatch.setattr(estimates, "default_grid", spy)
    grid = default_grid(P, generations=1, points_per_block=16)
    bump = default_perturbation(grid, P.s)
    verify_lemma210(P, bump, 1, points_per_block=16, time_steps=4)
    assert radii == [np.max(np.abs(grid.xis[bump.values != 0]))]


def test_lemma210_preconditions():
    grid = default_grid(P, generations=1, points_per_block=16)
    bump = default_perturbation(grid, P.s)
    small_n = ParameterSet(s=-1.0, N=64.0, A=16.0, R=4.0, T=P.T)
    with pytest.raises(ConfigurationError):
        verify_lemma210(small_n, bump, 1)  # N < 16 * support radius
    with pytest.raises(ConfigurationError):
        verify_lemma210(P, bump, 3)


def test_report_serialization():
    rep = verify_prop29(P, 5e-7)
    d = rep.as_dict()
    assert d["lemma"] == "2.9"
    assert d["passed"] is True
    assert "c" in d["ratios"]


# The lemma checks as they ran before they reduced whole stacks: one frame
# per stored time node, each normed on its own.  Kept as their oracle.


def _generation_frames(params, k, p, points_per_block, time_steps):
    _, tg, phi = estimates.generation_setup(params, k + p, params.T, points_per_block, time_steps)
    xi_kp = xi_generation(k, p, phi, tg)
    return [(t, xi_kp.at_index(i)) for i, t in enumerate(tg.times) if t > 0 or k + p == 0]


def _lemma25_by_node(params, k, p, points_per_block, time_steps):
    N, R, A = params.N, params.R, params.A
    sup1 = supinf = supder = 0.0
    for t, frame in _generation_frames(params, k, p, points_per_block, time_steps):
        tj = t ** (k + p)
        sup1 = max(sup1, fl_norm(frame, 1) / (tj * N**k * (R * A) ** (2 * k + 4 * p + 1)))
        supinf = max(supinf, fl_norm(frame, math.inf) / (tj * N**k * (R * A) ** (2 * k + 4 * p) * R))
        grid = frame.grid
        deriv = SpectralFunction._on_columns(grid, frame.columns, 1j * grid.xi(frame.columns) * frame.amplitudes)
        supder = max(supder, fl_norm(deriv, math.inf) / (tj * N ** (k + 1) * (R * A) ** (2 * k + 4 * p) * R))
    return {"fl1": sup1, "fl_inf": supinf, "fl_inf_derivative": supder}


def _lemma26_by_node(params, k, p, points_per_block, time_steps):
    N, R, A = params.N, params.R, params.A
    weight, sup = f_s(params.s, A), 0.0
    for t, frame in _generation_frames(params, k, p, points_per_block, time_steps):
        bound = weight * t ** (k + p) * N**k * (R * A) ** (2 * k + 4 * p) * R
        sup = max(sup, sobolev_norm(frame, params.s) / bound)
    return {"h_s": sup}


def _lemma210_by_node(params, psi_pert, j, points_per_block, time_steps):
    R, A = params.R, params.A
    radius = float(np.max(np.abs(psi_pert.grid.xi(psi_pert.columns))))
    grid, tg, phi = estimates.generation_setup(params, j, params.T, points_per_block, time_steps, radius)
    psi_res = resample(psi_pert, grid)
    base, shifted = xi_level(j, phi, tg), xi_level(j, phi + psi_res, tg)
    psi_l2, sup = sobolev_norm(psi_res, 0.0), 0.0
    for i, t in enumerate(tg.times[1:], start=1):
        diff = shifted.at_index(i) - base.at_index(i)
        sup = max(sup, sobolev_norm(diff, 0.0) / (psi_l2 * (t * R**4 * A**4) ** j))
    return {"l2_difference": sup}


def _assert_ratios_match(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert 0 < value < math.inf
        assert got[key] == pytest.approx(value, rel=1e-14, abs=0), key


def _params_at(N):
    return ParameterSet(s=-1.0, N=N, A=16.0, R=4.0, T=0.05 / N**2)


@pytest.mark.parametrize("N", [128.0, 256.0])
@pytest.mark.parametrize("k, p", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_lemma25_26_stack_ratios_match_the_per_node_loops(N, k, p):
    params = _params_at(N)
    _assert_ratios_match(verify_lemma25(params, k, p).ratios, _lemma25_by_node(params, k, p, 16, None))
    _assert_ratios_match(verify_lemma26(params, k, p).ratios, _lemma26_by_node(params, k, p, 16, None))


@pytest.mark.parametrize("N", [128.0, 256.0])
@pytest.mark.parametrize("j", [1, 2])
def test_lemma210_stack_ratio_matches_the_per_node_loop(N, j):
    params = _params_at(N)
    bump = default_perturbation(default_grid(params, generations=1, points_per_block=16), params.s)
    got = verify_lemma210(params, bump, j, points_per_block=16, time_steps=32).ratios
    _assert_ratios_match(got, _lemma210_by_node(params, bump, j, 16, 32))


def test_stack_norms_are_their_frames_norms():
    """A stack's norms, one per node, are the norms of its frames; a frame's
    norm is a float."""
    _, tg, phi = estimates.generation_setup(P, 2, P.T, 16, 16)
    stack = xi_generation(1, 1, phi, tg)
    frames = [stack.at_index(i) for i in range(tg.steps + 1)]
    norms = {
        "h^-1": lambda f: sobolev_norm(f, -1.0),
        "l2": lambda f: sobolev_norm(f, 0.0),
        "fl1": lambda f: fl_norm(f, 1),
        "fl_inf": lambda f: fl_norm(f, math.inf),
    }
    for name, norm in norms.items():
        per_frame = [norm(frame) for frame in frames]
        assert all(type(value) is float for value in per_frame), name
        assert per_frame[0] == 0 < per_frame[-1]
        np.testing.assert_allclose(norm(stack), per_frame, rtol=1e-14, atol=0, err_msg=name)


def test_lemma210_refuses_a_zero_or_too_large_perturbation():
    grid = default_grid(P, generations=1, points_per_block=16)
    zero = SpectralFunction(grid, np.zeros(grid.count))
    with pytest.raises(ConfigurationError, match="perturbation is identically zero"):
        verify_lemma210(P, zero, 1)
    bump = default_perturbation(grid, P.s)
    # FL1 of the unit bump is far below 8 R A = 512; this one is far above
    large = SpectralFunction._on_columns(grid, bump.columns, 1e6 * bump.amplitudes)
    assert fl_norm(bump, 1) < 8 * P.R * P.A < fl_norm(large, 1)
    with pytest.raises(ConfigurationError, match="perturbation too large: FL1 above 8 R A"):
        verify_lemma210(P, large, 1)
