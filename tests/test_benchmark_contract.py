"""The benchmark tracer in perfbench/tracing.py wraps gdnls functions by name
and its hooks read their arguments by parameter name.  A signature change
that breaks it would otherwise only show when the benchmark runs."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from gdnls import estimates
from gdnls.solver import PhysicalState, TorusConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")

# (layer, function) -> the parameter its hook reads
HOOK_PARAMETERS = {
    ("picard", "duhamel_J"): "v1",
    ("picard", "duhamel_K"): "v1",
    ("picard", "xi_level"): "tg",
    ("solver", "step_gdnls"): "state",
    ("spectrum", "sobolev_norm"): "f",
    ("spectrum", "make_phi"): "grid",
    ("spectrum", "smooth_bump"): "grid",
    ("frames", "write_frames"): "path",
}


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_functions_exist(layers):
    for layer, functions in layers.items():
        module = importlib.import_module(f"gdnls.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"gdnls.{layer}.{name}"


def test_hooked_functions_keep_their_parameters(layers):
    for (layer, name), param in HOOK_PARAMETERS.items():
        assert layers[layer][name] is not None, f"{layer}.{name} has no hook"
        fn = getattr(importlib.import_module(f"gdnls.{layer}"), name)
        assert param in inspect.signature(fn).parameters, f"gdnls.{layer}.{name}({param})"


class _Recorder:
    """Stands in for the tracer: keeps the values a hook records."""

    def __init__(self):
        self.values = {}

    def peak(self, key, value):
        self.values[key] = max(self.values.get(key, 0), value)


def test_step_hook_reads_a_real_state(layers):
    """The step_gdnls hook reads the state's config.modes and
    config.dealias_factor, which no signature check covers."""
    config = TorusConfig(length=40.0, modes=64, dt=1e-4)
    state = PhysicalState(config, np.zeros(config.modes))
    rec = _Recorder()
    layers["solver"]["step_gdnls"](rec, {"state": state}, None)
    assert rec.values["solver.modes"] == 64
    assert rec.values["solver.fft_len"] >= config.modes


def test_gen2_frame_shape_matches_iterate_grid(tmp_path, monkeypatch):
    """The estimates-gen2 workload predicts the shape of the frames that
    `gdnls iterate --k 1 --p 1` writes; it must follow any change to how
    generation_setup sizes the generation-2 grid."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    inp = module._gen2_prepare(tmp_path)
    params = inp["params"]
    grid, tg, _ = estimates.generation_setup(
        params, 2, params.T, module.GEN2_POINTS_PER_BLOCK, module.GEN2_TIME_STEPS
    )
    assert inp["shape"] == (tg.steps + 1, grid.count)
