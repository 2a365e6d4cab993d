import io
import tracemalloc

import numpy as np
import pytest

from gdnls.errors import ConfigurationError
from gdnls.frames import (
    read_frames,
    spacetime_to_csv,
    spectral_from_csv,
    spectral_to_csv,
    to_string,
    write_frames,
)
from gdnls.picard import SpaceTimeFunction, TimeGrid
from gdnls.spectrum import FrequencyGrid, SpectralFunction


@pytest.fixture
def sample():
    grid = FrequencyGrid.symmetric(4.0, 0.5)
    tg = TimeGrid(t_max=1.0, steps=4)
    rng = np.random.default_rng(42)
    data = rng.normal(size=(5, grid.count)) + 1j * rng.normal(size=(5, grid.count))
    return SpaceTimeFunction(tg, grid, data)


def test_binary_round_trip(sample, tmp_path):
    path = tmp_path / "frames.niqk1"
    write_frames(sample, path)
    back = read_frames(path)
    assert np.array_equal(back.frames, sample.frames)
    assert back.grid == sample.grid
    assert back.time_grid == sample.time_grid


def test_binary_payload_of_a_stack_with_zero_columns(sample, tmp_path):
    """A stack stored on part of its columns writes the dense frames as
    interleaved little-endian (re, im) float64 pairs, and reads back equal."""
    dense = sample.frames.copy()
    dense[:, ::3] = 0
    stf = SpaceTimeFunction(sample.time_grid, sample.grid, dense)
    assert stf.columns.size < sample.grid.count
    path = tmp_path / "frames.niqk1"
    write_frames(stf, path)
    interleaved = np.empty(dense.size * 2, dtype="<f8")
    interleaved[0::2], interleaved[1::2] = dense.real.ravel(), dense.imag.ravel()
    assert path.read_bytes().endswith(interleaved.tobytes())
    assert np.array_equal(read_frames(path).frames, dense)


def test_binary_writes_are_deterministic(sample, tmp_path):
    a, b = tmp_path / "a.niqk1", tmp_path / "b.niqk1"
    write_frames(sample, a)
    write_frames(sample, b)
    assert a.read_bytes() == b.read_bytes()


def test_binary_magic(sample, tmp_path):
    path = tmp_path / "frames.niqk1"
    write_frames(sample, path)
    assert path.read_bytes()[:5] == b"NIQK1"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.niqk1"
    path.write_bytes(b"WRONG" + b"\0" * 64)
    with pytest.raises(ConfigurationError):
        read_frames(path)


def test_truncated_file_rejected(sample, tmp_path):
    path = tmp_path / "frames.niqk1"
    write_frames(sample, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ConfigurationError):
        read_frames(path)
    path.write_bytes(blob[:10])
    with pytest.raises(ConfigurationError):
        read_frames(path)


def test_spectral_csv_round_trip(sample):
    f = sample.at_index(0)
    text = to_string(spectral_to_csv, f)
    assert text.splitlines()[0] == "xi,re,im"
    back = spectral_from_csv(io.StringIO(text))
    assert np.array_equal(back.values, f.values)
    assert back.grid == f.grid


def test_spectral_csv_round_trip_at_solver_band_size():
    """43,691 rows: the band |k| <= 2^16 // 3 of the solve benchmark."""
    band = (1 << 16) // 3
    grid = FrequencyGrid(xi_min=-band * np.pi / 20, delta_xi=np.pi / 20, count=2 * band + 1)
    rng = np.random.default_rng(3)
    f = SpectralFunction(grid, rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count))
    back = spectral_from_csv(io.StringIO(to_string(spectral_to_csv, f)))
    assert np.array_equal(back.values, f.values)
    assert back.grid.count == grid.count


def test_spectral_csv_requires_header():
    with pytest.raises(ConfigurationError):
        spectral_from_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_spectral_csv_requires_uniform_grid():
    text = "xi,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n3.0,1.0,0.0\n"
    with pytest.raises(ConfigurationError):
        spectral_from_csv(io.StringIO(text))


def test_spectral_csv_skips_blank_lines_and_reads_crlf():
    text = "xi,re,im\n0.0,1.0,0.5\n1.0,2.0,0.0\n2.0,-1.0,3.0\n"
    want = spectral_from_csv(io.StringIO(text))
    assert np.array_equal(want.values, [1.0 + 0.5j, 2.0, -1.0 + 3.0j])
    blank = text.replace("\n1.0", "\n\n   \n1.0")
    crlf = text.replace("\n", "\r\n")
    for variant in (blank, crlf, crlf.replace("\r\n1.0", "\r\n\r\n1.0")):
        back = spectral_from_csv(io.StringIO(variant))
        assert np.array_equal(back.values, want.values)
        assert back.grid == want.grid


@pytest.mark.parametrize(
    "text, message",
    [
        # '#' opens no comment: the row is a bad cell
        ("xi,re,im\n#0.0,1.0,0.0\n1.0,1.0,0.0\n", "non-numeric CSV cell"),
        ("xi,re,im\n0.0,1.0,\n1.0,1.0,0.0\n", "non-numeric CSV cell"),
        ("xi,re,im\n", "need at least two grid points"),
        ("xi,re,im\n0.0,1.0,0.0\n", "need at least two grid points"),
        ("xi,im,re\n0.0,1.0,0.0\n1.0,1.0,0.0\n", "expected CSV header 'xi,re,im'"),
        # rows are numbered among the nonblank lines, the header being row 1
        ("xi,re,im\n0.0,1.0,0.0\n\n1.0,1.0\n2.0,1.0,0.0\n", "CSV row 3 does not have three cells"),
        ("xi,re,im\n0.0,1.0,0.0,4.0\n1.0,1.0,0.0\n", "CSV row 2 does not have three cells"),
        ("xi,re,im\n0.0,1.0\n1.0,1.0\n", "CSV row 2 does not have three cells"),
        # a ragged row is named before an earlier bad cell
        ("xi,re,im\n0.0,x,0.0\n1.0,1.0,0.0\n2.0,1.0\n", "CSV row 4 does not have three cells"),
    ],
)
def test_spectral_csv_names_its_fault(text, message):
    with pytest.raises(ConfigurationError, match=message):
        spectral_from_csv(io.StringIO(text))


def test_spectral_csv_names_unreadable_files(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read spectrum CSV"):
        spectral_from_csv(tmp_path / "absent.csv")
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"xi,re,im\n\xff,0,0\n")
    with pytest.raises(ConfigurationError, match="spectrum CSV is not text"):
        spectral_from_csv(binary)


def test_spacetime_csv_layout(sample):
    text = to_string(spacetime_to_csv, sample)
    lines = text.splitlines()
    assert lines[0] == "t,xi,re,im"
    assert len(lines) == 1 + 5 * sample.grid.count
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == sample.grid.xi_min


def test_reading_takes_about_one_stack(tmp_path):
    """A 5 x 65,536 checkpoint file, shaped like `gdnls solve` writes it
    (the k = -M/2 column is zero): reading peaks near the stored stack, not
    at several copies of it."""
    grid = FrequencyGrid(xi_min=-32768.0, delta_xi=1.0, count=65536)
    tg = TimeGrid(t_max=1.0, steps=4)
    rng = np.random.default_rng(1)
    dense = rng.normal(size=(5, grid.count)) + 1j * rng.normal(size=(5, grid.count))
    dense[:, 0] = 0
    path = tmp_path / "frames.niqk1"
    write_frames(SpaceTimeFunction(tg, grid, dense), path)
    stack = dense.nbytes
    del dense
    tracemalloc.start()
    try:
        back = read_frames(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stack
    assert back.values.flags.writeable and back.columns.size == grid.count - 1
    assert np.array_equal(back.columns, np.arange(1, grid.count))
