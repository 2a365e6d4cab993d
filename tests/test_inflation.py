import math
import tracemalloc

import numpy as np
import pytest

from gdnls import estimates, inflation, picard
from gdnls.errors import ConfigurationError
from gdnls.inflation import (
    DEFAULT_BUMP_RADIUS,
    _solver_config,
    _solver_final,
    check_conditions,
    choose_params,
    default_perturbation,
    run_experiment,
)
from gdnls.estimates import verify_lemma25, verify_lemma26
from gdnls.picard import SpaceTimeFunction
from gdnls.spectrum import (
    FrequencyGrid,
    ParameterSet,
    SpectralFunction,
    default_grid,
    make_phi,
    norm_report,
    resample,
    smooth_bump,
    sobolev_norm,
)


def test_case1_formulas():
    N = 2.0**20
    p = choose_params(-1.0, N, 0.1)
    assert p.case_label == "case1"
    assert p.A == pytest.approx(N**0.02, rel=1e-12)
    assert p.R == pytest.approx(N**0.5, rel=1e-12)
    assert p.T == pytest.approx(N**-2.1, rel=1e-12)


def test_case1_delta_constraint():
    # s + 1/2 + delta/10 must stay negative
    with pytest.raises(ConfigurationError):
        choose_params(-0.55, 2.0**20, 1.0)


def test_case2_formulas():
    N = 2.0**20
    p = choose_params(-0.5, N, 0.1)
    assert p.case_label == "case2"
    assert p.A == pytest.approx(math.log(N) ** 1.5, rel=1e-12)
    assert p.R == pytest.approx(math.sqrt(N) / math.log(N), rel=1e-12)


def test_case3_exponents():
    N = 2.0**20
    delta = 0.01
    p = choose_params(-0.25, N, delta)
    assert p.case_label == "case3"
    assert math.log(p.A) / math.log(N) == pytest.approx(0.5225, abs=1e-12)
    assert math.log(p.R) / math.log(N) == pytest.approx(-0.02125, abs=1e-12)


def test_case3_delta_constraints():
    with pytest.raises(ConfigurationError):
        choose_params(-0.25, 2.0**20, 0.3)  # 2s + 9 delta/4 >= 0
    with pytest.raises(ConfigurationError):
        choose_params(-0.25, 2.0**20, 0.07)  # growth exponent <= 0


def test_rejects_nonnegative_s():
    with pytest.raises(ConfigurationError):
        choose_params(0.0, 2.0**20, 0.1)
    with pytest.raises(ConfigurationError):
        choose_params(0.5, 2.0**20, 0.1)


def test_case3_exponent_identities_log_space():
    """Closed-form identities: N^s R A^{1/2} = N^{-delta} and
    T R^4 A^4 = N^{-delta/2}, to 1e-12 relative in log space."""
    for N in (2.0**16, 2.0**20, 2.0**24):
        for s, delta in ((-0.25, 0.05), (-0.4, 0.02)):
            p = choose_params(s, N, delta)
            logN = math.log(N)
            gap_exp = (s * logN + math.log(p.R) + 0.5 * math.log(p.A)) / logN
            assert gap_exp == pytest.approx(-delta, rel=1e-12, abs=1e-12)
            cond2_exp = (math.log(p.T) + 4 * math.log(p.R) + 4 * math.log(p.A)) / logN
            assert cond2_exp == pytest.approx(-delta / 2, rel=1e-12, abs=1e-12)


def test_case1_exponent_identities_log_space():
    for N in (2.0**16, 2.0**24):
        for delta in (0.1, 1.0):
            p = choose_params(-1.0, N, delta)
            logN = math.log(N)
            cond2_exp = (math.log(p.T) + 4 * math.log(p.R) + 4 * math.log(p.A)) / logN
            assert cond2_exp == pytest.approx(-delta / 5, rel=1e-12, abs=1e-12)


def test_check_conditions_margins_consistent():
    p = choose_params(-1.0, 2.0**11, 1.0)
    rep = check_conditions(p, 1, margin=4.0)
    assert set(rep.margins) == {"i", "ii", "iii", "iv", "v", "vi"}
    for key, m in rep.margins.items():
        assert rep.passed[key] == (m >= 4.0)
    assert rep.all_pass
    strict = check_conditions(p, 1, margin=1e6)
    assert not strict.all_pass


def test_condition_vi_margin_value():
    p = choose_params(-1.0, 2.0**11, 1.0)
    rep = check_conditions(p, 1)
    # T = N^{-2-delta} so the (vi) margin N^{-2}/T equals N^delta
    assert rep.margins["vi"] == pytest.approx(p.N**p.delta, rel=1e-12)


def test_s_zero_incompatibility_reported():
    p = ParameterSet(s=0.0, N=256.0, A=16.0, R=0.01, T=1e-7)
    rep = check_conditions(p, 1)
    assert rep.incompatible == ("i", "iv", "v")
    assert not rep.all_pass
    assert not (rep.passed["i"] and rep.passed["iv"] and rep.passed["v"])
    assert "R" in rep.note  # explains the conflict


def test_default_perturbation_unit_norm():
    grid = FrequencyGrid.symmetric(32.0, 0.0625)
    psi = default_perturbation(grid, -1.0)
    assert sobolev_norm(psi, -1.0) == pytest.approx(1.0, rel=1e-12)


def test_run_experiment_series_small():
    res = run_experiment(
        -1.0, None, [512.0, 1024.0], delta=1.0, margin=4.0, points_per_block=8, j_max=1
    )
    assert [r.params.N for r in res] == [512.0, 1024.0]
    for r in res:
        assert r.norm_initial_gap > 0
        assert r.norm_final > 0
        assert r.ratio == r.norm_final / r.norm_initial_gap
        assert r.method == "series"
        d = r.as_dict()
        assert d["case"] == "case1"
        assert "xi1_phi_h_s" in d["decomposition"]


def test_run_experiment_with_perturbation():
    grid = FrequencyGrid.symmetric(16.0, 0.125)
    psi = default_perturbation(grid, -1.0)
    res = run_experiment(
        -1.0, psi, [512.0], delta=1.0, margin=4.0, points_per_block=8, j_max=1
    )
    r = res[0]
    # the gap is ||phi|| alone, while the final norm includes psi's evolution
    assert r.norm_final > 0.5  # psi has unit H^s norm
    assert r.norm_initial_gap < 0.2


def test_run_experiment_sizes_the_grid_for_the_perturbation(monkeypatch):
    """The grid covers the levels of phi + psi: default_grid gets psi's
    support radius, and 0 without psi."""
    radii = []
    real = estimates.default_grid

    def spy(*args, psi_radius, **kwargs):
        radii.append(psi_radius)
        return real(*args, psi_radius=psi_radius, **kwargs)

    monkeypatch.setattr(estimates, "default_grid", spy)
    grid = FrequencyGrid.symmetric(16.0, 0.125)
    psi = default_perturbation(grid, -1.0)
    for p in (psi, None):
        run_experiment(-1.0, p, [512.0], delta=1.0, margin=4.0, points_per_block=8,
                       j_max=1, time_steps=4)
    assert radii == [np.max(np.abs(grid.xis[psi.values != 0])), 0.0]


def test_run_experiment_condition_failures_are_warnings():
    res = run_experiment(
        -1.0, None, [512.0], delta=1.0, margin=1e6, points_per_block=8, j_max=1
    )
    r = res[0]
    assert not r.conditions.all_pass
    assert any("margin" in w for w in r.warnings)


def test_run_experiment_both_methods_agree_at_small_amplitude():
    # shrink the datum so the Picard series is deep in its convergence regime
    res = run_experiment(
        -1.0, None, [64.0], delta=1.0, margin=1.0, points_per_block=8, j_max=2,
        time_steps=16,
        method="both",
    )
    r = res[0]
    assert np.isfinite(r.method_agreement)
    assert r.solver_drift < 1e-8


def test_run_experiment_solver_method_reports_the_solver_final():
    """method="solver" takes its final norm from the solver alone: no series
    ratio or decomposition, and within 5% of the series final."""
    kwargs = dict(delta=1.0, margin=1.0, points_per_block=8)
    (r,) = run_experiment(-1.0, None, [64.0], method="solver", **kwargs)
    (series,) = run_experiment(-1.0, None, [64.0], method="series", j_max=1, time_steps=4, **kwargs)
    assert np.isfinite(r.norm_final) and r.norm_final > 0
    assert r.solver_drift < 1e-8
    assert math.isnan(r.series_ratio)
    assert r.decomposition == {}
    assert r.norm_final == pytest.approx(series.norm_final, rel=0.05)


def test_run_experiment_refuses_time_steps_for_the_solver_before_any_setup(monkeypatch):
    """The solver builds no time grid, so method="solver" refuses
    time_steps rather than drop it, before any N is set up."""
    monkeypatch.setattr(inflation, "choose_params", lambda *args: pytest.fail("an N was set up"))
    with pytest.raises(ConfigurationError, match="does not read --time-steps"):
        run_experiment(-1.0, None, [64.0], method="solver", time_steps=4)


def test_run_experiment_refuses_j_max_for_the_solver_before_any_setup(monkeypatch):
    """The solver sums no series, so method="solver" refuses j_max before
    any N is set up."""
    monkeypatch.setattr(inflation, "choose_params", lambda *args: pytest.fail("an N was set up"))
    with pytest.raises(ConfigurationError, match="does not read --j-max"):
        run_experiment(-1.0, None, [64.0], method="solver", j_max=2)


def test_solver_method_final_holds_on_a_deeper_grid(monkeypatch):
    """The solver-only run takes the generation-1 grid.  The j_max = 3 grid
    a series would take doubles the torus (2,048 modes against 1,024) and
    moves the final H^s norm by under 1e-13 relative."""
    s, N, delta, ppb = -1.0, 24.0, 0.1, 1
    bump = default_perturbation(FrequencyGrid.symmetric(2 * DEFAULT_BUMP_RADIUS, DEFAULT_BUMP_RADIUS / 64), s)
    modes = []

    def spy(grid, t_final):
        config = _solver_config(grid, t_final)
        modes.append(config.modes)
        return config

    monkeypatch.setattr(inflation, "_solver_config", spy)
    (r,) = run_experiment(s, bump, [N], method="solver", delta=delta, points_per_block=ppb)
    assert modes == [1024]
    params = choose_params(s, N, delta)
    radius = float(np.max(np.abs(bump.grid.xi(bump.columns))))
    grid = default_grid(params, 3, ppb, psi_radius=radius)
    v0 = make_phi(params, grid) + resample(bump, grid)
    config = _solver_config(grid, params.T)
    assert config.modes == 2048
    solved, _ = _solver_final(v0, config, params.T)
    assert r.norm_final == pytest.approx(sobolev_norm(solved, s), rel=1e-12)


def test_run_experiment_rejects_unknown_method():
    with pytest.raises(ConfigurationError):
        run_experiment(-1.0, None, [512.0], method="magic")


def test_series_path_builds_no_dense_axis(monkeypatch):
    """From the datum to the norms nothing reads the grid's dense points, a
    dense spectrum or a dense frame stack: the sweep, the lemma 2.5/2.6
    harness and the norm report run with all three raising."""

    def dense(self):
        raise AssertionError(f"dense view of a {type(self).__name__}")

    for cls, name in ((FrequencyGrid, "xis"), (SpectralFunction, "values"), (SpaceTimeFunction, "frames")):
        monkeypatch.setattr(cls, name, property(dense))
    psi = default_perturbation(FrequencyGrid.symmetric(16.0, 0.125), -1.0)
    (result,) = run_experiment(-1.0, psi, [2.0**11], delta=1.0, margin=4.0, points_per_block=8, j_max=2)
    assert result.conditions.all_pass and np.isfinite(result.ratio)
    assert np.isfinite(result.decomposition["xi2_phi_h_s"])
    params = ParameterSet(s=-1.0, N=128.0, A=16.0, R=2.0, T=0.05 / 128**2)
    for k, p in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert verify_lemma25(params, k, p, time_steps=8).passed
        assert verify_lemma26(params, k, p, time_steps=8).passed
    grid = default_grid(params, generations=0)
    assert norm_report(make_phi(params, grid), params.s).fl_inf == params.R


def test_case1_run_at_n_2_30_takes_its_support():
    """At N = 2^30 the grid holds 2.4e9 points, 39 GB as one dense complex
    spectrum; the run's traced peak is 0.30 MB (0.95 MB at N = 2^11, where
    the grid samples psi at 27 points, not 1)."""
    psi = default_perturbation(FrequencyGrid.symmetric(16.0, 0.125), -1.0)
    tracemalloc.start()
    try:
        (result,) = run_experiment(-1.0, psi, [2.0**30], delta=1.0, margin=4.0, points_per_block=8, j_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert default_grid(result.params, 1, 8, psi_radius=8.0).count > 2 * 10**9
    assert peak < 400_000
    assert result.conditions.all_pass and result.ratio > 10**4


def test_case1_sweep_keeps_the_block_fold(monkeypatch):
    """The criterion-6 case-1 sweep at j_max = 1: phi and phi + psi split
    into 2 and 3 blocks per slot, whose buckets merge on equal summed
    offsets.  Every term there is cheaper as a block fold than on its hull,
    and must stay one."""
    hull_is_cheaper, choices = picard._hull_is_cheaper, []

    def spy(slot_blocks, kinds):
        choices.append((tuple(map(len, slot_blocks)), hull_is_cheaper(slot_blocks, kinds)))
        return choices[-1][1]

    monkeypatch.setattr(picard, "_hull_is_cheaper", spy)
    psi = smooth_bump(FrequencyGrid.symmetric(16.0, 0.125), 8.0, -1.0)
    Ns = [2.0**11, 2.0**12, 2.0**13]
    results = run_experiment(-1.0, psi, Ns, delta=1.0, margin=4.0, points_per_block=8, j_max=1)
    assert all(r.conditions.all_pass for r in results)
    assert {blocks for blocks, _ in choices} == {(2,) * 3, (2,) * 5, (3,) * 3, (3,) * 5}
    assert not any(hull for _, hull in choices)


@pytest.mark.parametrize(
    "s, N, delta, message",
    [
        (-1.0, 512.0, 0.0, "delta must be positive"),
        (-1.0, 512.0, -0.5, "delta must be positive"),
        (-1.0, 1.0, 1.0, "need N > 1"),
        (-0.5, 2.0, 0.1, "case 2 needs log N > 1"),
    ],
)
def test_choose_params_refusals(s, N, delta, message):
    with pytest.raises(ConfigurationError, match=message):
        choose_params(s, N, delta)


def test_run_experiment_warns_when_the_series_levels_do_not_shrink():
    """A perturbation 100 times the unit bump makes level 1 outweigh level 0:
    the series ratio is past 1/2 (and past 1, so the tail is infinite)."""
    grid = FrequencyGrid.symmetric(16.0, 0.125)
    psi = default_perturbation(grid, -1.0)
    results = {}
    for scale in (1.0, 100.0):
        big = SpectralFunction._on_columns(grid, psi.columns, scale * psi.amplitudes)
        (results[scale],) = run_experiment(
            -1.0, big, [512.0], delta=1.0, margin=4.0, points_per_block=8, j_max=1, time_steps=4
        )
    assert results[1.0].series_ratio < 0.5
    assert not any("series level ratio" in w for w in results[1.0].warnings)
    r = results[100.0]
    assert r.series_ratio >= 0.5 and r.series_tail == math.inf
    assert f"series level ratio {r.series_ratio:.3g} >= 1/2" in r.warnings
