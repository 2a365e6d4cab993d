"""The benchmark's four workloads, each driven through the public gdnls API.

A workload has three parts:

* ``prepare(work_dir)`` builds the inputs; it runs before the first timed
  call and is counted in ``setup_s``;
* ``run(inputs)`` is one timed operation;
* ``inspect(inputs, output)`` returns ``(checks, values)``: named pass/fail
  structural checks, and named numbers that the worker compares against
  their values in ``reference.json``.

Every input is fixed by the datum parameters (s, N, delta, ...): nothing is
random, so the benchmark's ``--seed`` changes no input.

Sizes are scaled down from the acceptance sweeps so that one call takes a
few seconds and every run repeats it several times within its time budget;
``README.md`` in this directory lists what was scaled and why.

Calls go through module attributes (``inflation.run_experiment``, not a
name imported from it), so the tracer's rebinding reaches them too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gdnls import cli, estimates, frames, inflation, solver, spectrum


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Path], dict]
    run: Callable[[dict], object]
    inspect: Callable[[dict, object], tuple[dict, dict]]


def _sweep_checks(rows: list[dict], case: str, Ns: list[float], margin: float) -> tuple[dict, dict]:
    """Criterion-6 checks on one sweep: every condition passes at its margin
    and the inflation ratio strictly increases in N."""
    ratios = [row["ratio"] for row in rows]
    checks = {
        "one row per N": [row["N"] for row in rows] == sorted(Ns),
        "case label": all(row["case"] == case for row in rows),
        "conditions pass at margin": all(
            row["conditions"]["margin_factor"] == margin and all(row["conditions"]["passed"].values())
            for row in rows
        ),
        "ratio strictly increases in N": all(a < b for a, b in zip(ratios, ratios[1:])),
    }
    values = {}
    for row in rows:
        values[f"ratio@N={row['N']:g}"] = row["ratio"]
        values[f"final@N={row['N']:g}"] = row["final"]
    return checks, values


# --- inflate-case1: the case-1 sweep as a user runs it, through the CLI -----
# Grids of 107k-187k points with only 5 time frames: FFT convolution inside
# the Duhamel operators does nearly all the work; trees and solver stay idle.

CASE1_NS = [2048.0, 4096.0]
CASE1_MARGIN = 4.0


def _case1_prepare(work: Path) -> dict:
    out = work / "inflate-case1.json"
    argv = ["inflate", "--s", "-1", "--delta", "1", "--margin", repr(CASE1_MARGIN),
            "--N", *(repr(N) for N in CASE1_NS), "--points-per-block", "8",
            "--j-max", "1", "--output", str(out)]
    return {"argv": argv, "out": out}


def _case1_run(inp: dict) -> int:
    return cli.main(inp["argv"])


def _case1_inspect(inp: dict, code: int) -> tuple[dict, dict]:
    if code != 0:
        return {"exit code 0": False}, {}
    rows = json.loads(inp["out"].read_text())
    checks, values = _sweep_checks(rows, "case1", CASE1_NS, CASE1_MARGIN)
    return {"exit code 0": True, **checks}, values


# --- inflate-case3: the nearly-flat case, small grids with many frames ------
# 46k-78k points but 17 frames per stack, so time steps and frame-stack
# memory matter here and not in case 1.

CASE3_S = -0.25
CASE3_NS = [2.0**20, 2.0**21]
CASE3_MARGIN = 1.2
CASE3_TIME_STEPS = 16
CASE3_BUMP_RADIUS = 2.0**14


def _case3_prepare(work: Path) -> dict:
    bump_grid = spectrum.FrequencyGrid.symmetric(2 * CASE3_BUMP_RADIUS, CASE3_BUMP_RADIUS / 64)
    return {"psi": spectrum.smooth_bump(bump_grid, CASE3_BUMP_RADIUS, CASE3_S)}


def _case3_run(inp: dict) -> list:
    return inflation.run_experiment(
        CASE3_S, inp["psi"], CASE3_NS, delta=0.054, margin=CASE3_MARGIN,
        points_per_block=8, j_max=1, time_steps=CASE3_TIME_STEPS,
    )


def _case3_inspect(inp: dict, results: list) -> tuple[dict, dict]:
    return _sweep_checks([r.as_dict() for r in results], "case3", CASE3_NS, CASE3_MARGIN)


# --- estimates-gen2: criterion-4 harness at one N, then `gdnls iterate` -----
# Many operator calls on small grids, driven by generation-2 tree
# enumeration; each generation is evaluated again by each lemma and by
# `iterate`, so caching and level recursion show here and not in the sweeps.

GEN2_N = 128.0
GEN2_PAIRS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
GEN2_POINTS_PER_BLOCK = 16
GEN2_TIME_STEPS = 32


def _gen2_prepare(work: Path) -> dict:
    N = GEN2_N
    params = spectrum.ParameterSet(s=-1.0, N=N, A=16.0, R=4.0 * math.sqrt(N / 256.0), T=0.05 / N**2)
    frames_out, json_out = work / "iterate.niqk", work / "iterate.json"
    argv = ["iterate", "--s", repr(params.s), "--N", repr(N), "--A", repr(params.A),
            "--R", repr(params.R), "--T", repr(params.T), "--k", "1", "--p", "1",
            "--points-per-block", str(GEN2_POINTS_PER_BLOCK),
            "--time-steps", str(GEN2_TIME_STEPS),
            "--frames-out", str(frames_out), "--output", str(json_out)]
    grid = spectrum.default_grid(params, generations=2, points_per_block=GEN2_POINTS_PER_BLOCK)
    return {"params": params, "argv": argv, "frames_out": frames_out, "json_out": json_out,
            "shape": (GEN2_TIME_STEPS + 1, grid.count)}


def _gen2_run(inp: dict) -> tuple:
    p = inp["params"]
    reports = []
    for k, q in GEN2_PAIRS:
        for verify in (estimates.verify_lemma25, estimates.verify_lemma26):
            reports.append(verify(p, k, q, points_per_block=GEN2_POINTS_PER_BLOCK,
                                  time_steps=GEN2_TIME_STEPS))
    code = cli.main(inp["argv"])
    read = frames.read_frames(inp["frames_out"]) if code == 0 else None
    return reports, code, read


def _gen2_inspect(inp: dict, output: tuple) -> tuple[dict, dict]:
    reports, code, read = output
    checks = {"every report passed": all(r.passed for r in reports), "iterate exit code 0": code == 0}
    values = {}
    for r in reports:
        for key, v in r.ratios.items():
            values[f"lemma{r.lemma}.k{r.params['k']}p{r.params['p']}.{key}"] = v
    if code != 0:
        return checks, values
    payload = json.loads(inp["json_out"].read_text())
    # frames read back bit-exact: the final frame's norms equal the ones
    # `iterate` printed from its in-memory result (JSON floats round-trip)
    again = spectrum.norm_report(read.final, inp["params"].s).as_dict()
    checks["frames shape"] = read.frames.shape == inp["shape"]
    checks["frames read back bit-exact"] = all(again[k] == payload[k] for k in again)
    checks["frames t_max"] = read.time_grid.t_max == inp["params"].T
    values.update({f"iterate.{k}": payload[k] for k in again})
    return checks, values


# --- solver-torus: `gdnls solve` from a CSV spectrum -------------------------
# RK4 steps at 2^16 modes do ~90% of the work; the only workload that
# reaches the solver.

SOLVER_LENGTH = 40.0
SOLVER_MODES = 1 << 16
SOLVER_STEPS = 16
SOLVER_CHECKPOINT_EVERY = 4
SOLVER_AMPLITUDE = 0.5
SOLVER_MAX_DRIFT = 1e-10


def _solver_prepare(work: Path) -> dict:
    config = solver.TorusConfig(length=SOLVER_LENGTH, modes=SOLVER_MODES, dt=1.0)
    dt = 0.5 / config.xi_max**2
    dxi = 2 * math.pi / SOLVER_LENGTH
    band = config.band_limit
    grid = spectrum.FrequencyGrid(xi_min=-band * dxi, delta_xi=dxi, count=2 * band + 1)
    # F[a exp(-(x - L/2)^2)] in the package convention f_hat = int f e^{-i x xi} dx
    xis = grid.xis
    values = SOLVER_AMPLITUDE * math.sqrt(math.pi) * np.exp(-xis**2 / 4 - 0.5j * SOLVER_LENGTH * xis)
    csv = work / "gaussian.csv"
    frames.spectral_to_csv(spectrum.SpectralFunction(grid, values), csv)
    frames_out, json_out = work / "solve.niqk", work / "solve.json"
    argv = ["solve", "--L", repr(SOLVER_LENGTH), "--modes", str(SOLVER_MODES),
            "--dt", repr(dt), "--T", repr(SOLVER_STEPS * dt), "--initial-csv", str(csv),
            "--checkpoint-every", str(SOLVER_CHECKPOINT_EVERY),
            "--frames-out", str(frames_out), "--output", str(json_out)]
    return {"argv": argv, "frames_out": frames_out, "json_out": json_out}


def _solver_run(inp: dict) -> int:
    return cli.main(inp["argv"])


def _solver_inspect(inp: dict, code: int) -> tuple[dict, dict]:
    if code != 0:
        return {"exit code 0": False}, {}
    payload = json.loads(inp["json_out"].read_text())
    checkpoints = SOLVER_STEPS // SOLVER_CHECKPOINT_EVERY + 1
    checks = {
        "exit code 0": True,
        "mass drift <= 1e-10": payload["mass_drift_relative"] <= SOLVER_MAX_DRIFT,
        "checkpoints": payload["checkpoints"] == checkpoints,
        "frames shape": frames.read_frames(inp["frames_out"]).frames.shape == (checkpoints, SOLVER_MODES),
    }
    values = {k: payload[k] for k in ("mass_initial", "mass_final", "t_final")}
    return checks, values


WORKLOADS = {
    w.name: w
    for w in (
        Workload("inflate-case1", _case1_prepare, _case1_run, _case1_inspect),
        Workload("inflate-case3", _case3_prepare, _case3_run, _case3_inspect),
        Workload("estimates-gen2", _gen2_prepare, _gen2_run, _gen2_inspect),
        Workload("solver-torus", _solver_prepare, _solver_run, _solver_inspect),
    )
}
