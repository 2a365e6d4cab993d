"""Integrate the gauged equation with the pseudospectral solver and verify
its structural invariants: mass conservation, gauge round trip, time
reversal, and agreement with the truncated Picard series at small data.
"""

import numpy as np

from gdnls.inflation import _solver_config, _solver_final
from gdnls.picard import TimeGrid, level_summary, series_levels
from gdnls.solver import (
    PhysicalState,
    TorusConfig,
    gauge,
    reversed_config,
    solve_gdnls,
    ungauge,
)
from gdnls.spectrum import ParameterSet, default_grid, make_phi, sobolev_norm


def main():
    L, M = 40.0, 256
    cfg = TorusConfig(length=L, modes=M, dt=1e-4)
    xs = cfg.xs
    state = PhysicalState(cfg, 1.0 * np.exp(-((xs - L / 2) ** 2)))

    traj = solve_gdnls(state, 0.5, checkpoint_every=1000)
    drift = abs(traj[-1].mass - traj[0].mass) / traj[0].mass
    print(f"mass drift over t in [0, 0.5]: {drift:.2e}")

    back = ungauge(gauge(state))
    print(f"gauge round-trip error: {np.max(np.abs(back.samples - state.samples)):.2e}")

    fwd = solve_gdnls(state, 0.02)[-1]
    rev = solve_gdnls(PhysicalState(reversed_config(cfg), fwd.samples, fwd.time), 0.0)[-1]
    print(f"time-reversal error:    {np.max(np.abs(rev.samples - state.samples)):.2e}")

    params = ParameterSet(s=-1.0, N=8.0, A=2.0, R=0.05, T=1e-3)
    grid = default_grid(params, generations=2, points_per_block=8, extra_blocks=4)
    phi = make_phi(params, grid, min_points_per_block=8)
    tg = TimeGrid.for_extent(params.T, grid.xi_max)
    total, _, ratio, tail = level_summary([lvl.final for lvl in series_levels(phi, tg, 2)])
    solved, _ = _solver_final(phi, _solver_config(grid, params.T), params.T)
    diff = sobolev_norm(type(phi)(grid, solved.values - total.values), 0.0)
    rel = diff / sobolev_norm(total, 0.0)
    print(f"series vs solver at small data: relative L2 difference {rel:.2e}")
    print(f"(series level ratio {ratio:.1e}; truncation tail {tail:.1e})")


if __name__ == "__main__":
    main()
