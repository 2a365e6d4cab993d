"""Per-layer tracing from outside the program.

A layer is one gdnls module.  ``Tracer.instrument()`` wraps the public
functions listed in ``LAYERS`` and rebinds every module attribute that
holds the original function, so names re-imported elsewhere
(``inflation.xi_level``, ``estimates.xi_generation``,
``picard.enumerate_trees``, ``sobolev_norm`` in ``inflation``/``estimates``,
...) are traced too, and calls between functions of one module go through
the wrapper because they look the name up in the module's globals.  No
private helper is wrapped, so renaming one cannot break the benchmark: its
time is counted in the public caller's self time.

Each wrapped call records a span ``[name, start, end, parent, call]`` in
memory; ``spans_json()`` writes them out at the end.  Counts that a span
cannot give (FFT lengths, stack bytes, modes) are computed by hooks from the
argument shapes: they are formulas, not measurements, and are named as such
in ``README.md``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from statistics import median

from scipy.fft import next_fast_len

BYTES_PER_COMPLEX = 16
# one linear convolution of two stacks by FFT: two forward transforms and one
# inverse, each a padded complex stack
STACKS_PER_CONVOLUTION = 3


def _conv_counts(convolutions):
    def hook(rec, args, result):
        frames, count = args["v1"].frames.shape
        fft_len = next_fast_len(2 * count - 1)
        rec.peak("picard.fft_len.max", fft_len)
        stack = frames * fft_len * BYTES_PER_COMPLEX
        rec.add("picard.conv_bytes", convolutions * STACKS_PER_CONVOLUTION * stack)
        rec.peak("picard.stack_bytes.max", frames * count * BYTES_PER_COMPLEX)
        rec.peak("picard.frames_per_stack", frames)
    return hook


def _stack(rec, args, result):
    frames, count = result.frames.shape
    rec.peak("picard.stack_bytes.max", frames * count * BYTES_PER_COMPLEX)
    rec.peak("picard.frames_per_stack", frames)


def _level_steps(rec, args, result):
    if rec.inside("inflation.run_experiment"):
        rec.peak("inflation.time_steps", args["tg"].steps)


def _grid_count(arg):
    def hook(rec, args, result):
        value = args[arg]
        grid = getattr(value, "grid", value)
        rec.peak("spectrum.grid_count.max", grid.count)
    return hook


def _experiments(rec, args, result):
    rec.add("inflation.experiments", len(result))


def _solver_size(rec, args, result):
    config = args["state"].config
    rec.peak("solver.modes", config.modes)
    rec.peak("solver.fft_len", config.dealias_factor * config.modes)


def _written_bytes(rec, args, result):
    rec.add("frames.write_frames.bytes", os.path.getsize(args["path"]))


# layer -> {public function: hook or None}
LAYERS = {
    "trees": {"enumerate_trees": None},
    "spectrum": {
        "sobolev_norm": _grid_count("f"),
        "make_phi": _grid_count("grid"),
        "smooth_bump": _grid_count("grid"),
    },
    "picard": {
        "free_frames": _stack,
        "duhamel_J": _conv_counts(2),
        "duhamel_K": _conv_counts(4),
        "psi": None,
        "xi_generation": None,
        "xi_level": _level_steps,
    },
    "estimates": {"verify_lemma25": None, "verify_lemma26": None},
    "solver": {"step_gdnls": _solver_size, "solve_gdnls": None, "state_from_spectrum": None},
    "inflation": {"run_experiment": _experiments},
    "frames": {"write_frames": _written_bytes, "read_frames": None, "spectral_from_csv": None},
    "cli": {"main": None},
}

COUNTERS = (
    "picard.fft_len.max", "picard.conv_bytes", "picard.stack_bytes.max", "picard.frames_per_stack",
    "inflation.time_steps", "inflation.experiments", "spectrum.grid_count.max",
    "solver.modes", "solver.fft_len", "frames.write_frames.bytes",
)


class Tracer:
    """Spans and counters of one traced process, grouped by timed call."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._open: list[int] = []
        self.call: int | None = None  # index of the timed call in progress
        self.counters: dict[int, dict] = {}

    def instrument(self, extra_modules=()) -> None:
        """Wrap every function in LAYERS and rebind all references to it in
        the gdnls modules and in ``extra_modules``."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gdnls"]
        modules += list(extra_modules)
        for layer, functions in LAYERS.items():
            owner = sys.modules[f"gdnls.{layer}"]
            for fname, hook in functions.items():
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.call is None:  # output checks between timed calls
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent, self.call])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    # --- counters, attributed to the current timed call -------------------
    def begin_call(self) -> None:
        self.call = len(self.counters)
        self.counters[self.call] = dict.fromkeys(COUNTERS, 0)

    def end_call(self) -> None:
        self.call = None

    def add(self, key: str, value) -> None:
        self.counters[self.call][key] += value

    def peak(self, key: str, value) -> None:
        self.counters[self.call][key] = max(self.counters[self.call][key], value)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    # --- per-call metrics --------------------------------------------------
    def call_metrics(self, index: int, wall: float) -> tuple[dict, dict, float]:
        """(counts, self times, root-span coverage of ``wall``) of one call."""
        names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        counts = {f"{n}.calls": 0 for n in names}
        selfs = {f"{n}.self_s": 0.0 for n in names}
        roots = 0.0
        for name, start, end, parent, call in self.spans:
            if call != index:
                continue
            counts[f"{name}.calls"] += 1
            selfs[f"{name}.self_s"] += end - start
            if parent is None:
                roots += end - start
            else:
                selfs[f"{self.spans[parent][0]}.self_s"] -= end - start
        counts.update(self.counters[index])
        return counts, selfs, roots / wall

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "workload": self.workload, "call": c}
            for n, a, b, p, c in self.spans
        ]


def layer_metrics(tracer: Tracer, walls: list[float]) -> tuple[dict, bool]:
    """Per-layer metrics over the traced calls, whose wall seconds are
    ``walls`` in call order: counts from the first call, self times as
    medians, coverage as the lowest.  The flag says whether every call gave
    identical counts."""
    per_call = [tracer.call_metrics(i, wall) for i, wall in enumerate(walls)]
    counts = per_call[0][0]
    deterministic = all(c == counts for c, _, _ in per_call)
    selfs = {k: median(s[k] for _, s, _ in per_call) for k in per_call[0][1]}
    coverage = min(cov for _, _, cov in per_call)
    return {**counts, **selfs, "trace.coverage": coverage}, deterministic
