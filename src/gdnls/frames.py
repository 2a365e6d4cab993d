"""Serialization: CSV for spectra, and the compact binary frame format for
space-time data.

Binary layout (little-endian):

    bytes 0-4   magic b"NIQK1"
    uint32      frame count (time nodes)
    uint32      grid point count
    float64     t_max
    float64     xi_min
    float64     delta_xi
    float64[*]  frames, row-major (time outer, frequency inner),
                interleaved re, im
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .picard import SpaceTimeFunction, TimeGrid
from .spectrum import FrequencyGrid, SpectralFunction

MAGIC = b"NIQK1"
_HEADER = struct.Struct("<5sII3d")

__all__ = [
    "write_frames",
    "read_frames",
    "spectral_to_csv",
    "spectral_from_csv",
]


def write_frames(stf: SpaceTimeFunction, path: str | Path) -> None:
    grid = stf.grid
    header = _HEADER.pack(
        MAGIC, stf.time_grid.steps + 1, grid.count, stf.time_grid.t_max, grid.xi_min, grid.delta_xi
    )
    # one dense frame at a time; little-endian complex is the format's
    # interleaved (re, im) float64 pairs
    frame = np.zeros(grid.count, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        for amplitudes in stf.amplitudes:
            frame[stf.columns] = amplitudes
            fh.write(frame.data)


def read_frames(path: str | Path) -> SpaceTimeFunction:
    """The stack in a frame file, stored on its nonzero columns.  The file is
    read twice, one frame at a time: once to find those columns and once to
    gather them, so reading takes the stored stack and one frame."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ConfigurationError(f"{path}: truncated header")
        magic, nframes, count, t_max, xi_min, delta_xi = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ConfigurationError(f"{path}: bad magic {magic!r}")
        if os.fstat(fh.fileno()).st_size - _HEADER.size != 16 * nframes * count:
            raise ConfigurationError(f"{path}: payload size mismatch")
        grid = FrequencyGrid(xi_min=xi_min, delta_xi=delta_xi, count=count)
        tg = TimeGrid(t_max=t_max, steps=nframes - 1)
        # little-endian complex is the format's interleaved (re, im) pairs
        frame = np.empty(count, dtype="<c16")
        nonzero = np.zeros(count, dtype=bool)
        for _ in range(nframes):
            fh.readinto(frame.data)
            nonzero |= frame != 0
        fh.seek(_HEADER.size)
        columns = np.flatnonzero(nonzero)
        values = np.empty((nframes, columns.size), dtype=np.complex128)
        for row in values:
            fh.readinto(frame.data)
            # the columns are in range; mode "raise" would buffer the row
            np.take(frame, columns, out=row, mode="clip")
    return SpaceTimeFunction._on_columns(tg, grid, columns, values)


def _opened(path_or_buf, mode: str):
    """The buffer given, left open on exit, or the file at the path opened in `mode`."""
    if hasattr(path_or_buf, "read" if mode == "r" else "write"):
        return contextlib.nullcontext(path_or_buf)
    return open(path_or_buf, mode)


def spectral_to_csv(f: SpectralFunction, path_or_buf) -> None:
    with _opened(path_or_buf, "w") as buf:
        buf.write("xi,re,im\n")
        for xi, v in zip(f.grid.xis, f.values):
            buf.write(f"{float(xi)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def spectral_from_csv(path_or_buf) -> SpectralFunction:
    """The spectrum in an `xi,re,im` CSV.  Blank lines are skipped; the rows
    are parsed in one pass, and scanned one by one only to name a ragged row
    (rows are numbered among the nonblank lines, the header being row 1)."""
    try:
        with _opened(path_or_buf, "r") as buf:
            lines = [line for line in buf.read().splitlines() if line.strip()]
    except OSError as exc:
        raise ConfigurationError(f"cannot read spectrum CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"spectrum CSV is not text: {exc}") from exc
    if not lines or lines[0].strip() != "xi,re,im":
        raise ConfigurationError("expected CSV header 'xi,re,im'")
    rows = lines[1:]
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else np.empty((0, 3))
    except ValueError as exc:
        _check_three_cells(rows)
        raise ConfigurationError(f"non-numeric CSV cell: {exc}") from exc
    if data.shape[1] != 3:
        _check_three_cells(rows)
    if data.shape[0] < 2:
        raise ConfigurationError("need at least two grid points")
    xis = data[:, 0]
    steps = np.diff(xis)
    delta = float(steps[0])
    if not np.allclose(steps, delta, rtol=1e-9, atol=0.0):
        raise ConfigurationError("CSV frequency column is not uniformly spaced")
    grid = FrequencyGrid(xi_min=float(xis[0]), delta_xi=delta, count=len(xis))
    return SpectralFunction(grid, data[:, 1] + 1j * data[:, 2])


def _check_three_cells(rows: list[str]) -> None:
    bad = next((n for n, row in enumerate(rows, 2) if row.count(",") != 2), None)
    if bad is not None:
        raise ConfigurationError(f"CSV row {bad} does not have three cells xi,re,im")

