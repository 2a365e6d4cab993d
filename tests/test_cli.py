import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gdnls import cli
from gdnls.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_trees_count(capsys):
    code, out, _ = run(capsys, "trees", "--count", "1", "1")
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_trees_enumerate(capsys):
    code, out, _ = run(capsys, "trees", "--enumerate", "0", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 1
    assert payload["trees"][0]["kind"] == "node5"


def test_trees_requires_an_action(capsys):
    code, _, err = run(capsys, "trees")
    assert code == 2
    assert "ConfigurationError" in err


def test_trees_depth_cap_resource_error(capsys):
    code, _, err = run(capsys, "trees", "--enumerate", "3", "2")
    assert code == 3
    assert "ResourceError" in err


@pytest.mark.parametrize(
    "message, detail",
    [("Unable to allocate 8.00 TiB", "out of memory: Unable to allocate 8.00 TiB"), ("", "out of memory")],
)
def test_out_of_memory_exits_3(capsys, monkeypatch, message, detail):
    def _no_memory(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "norms", _no_memory)
    code, out, err = run(capsys, "norms", "--N", "256", "--A", "16", "--R", "4", "--s", "-1")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error:ResourceError:norms", detail]


def test_verify_lemma28_central_value(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "2.8")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["central_value_5fold_unit"] - 115.0 / 192.0) < 1e-9


def test_verify_bad_preconditions_exit_2(capsys):
    code, _, err = run(
        capsys, "verify", "--lemma", "2.9", "--N", "4", "--A", "1", "--R", "0.1", "--s", "-1"
    )
    assert code == 2
    assert "ConfigurationError" in err


def test_norms_json(capsys):
    code, out, _ = run(capsys, "norms", "--N", "256", "--A", "16", "--R", "4", "--s", "-1")
    payload = json.loads(out)
    assert code == 0
    assert payload["fl_inf"] == 4.0
    assert payload["fl1"] == pytest.approx(128.0, rel=1e-2)


def test_norms_csv_format(capsys):
    code, out, _ = run(
        capsys, "norms", "--N", "256", "--A", "16", "--R", "4", "--s", "-1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == ["h_s", "l2", "fl1", "fl_inf"]
    assert len(lines) == 2


def test_norms_accepts_points_per_block_other_subcommands_accept(capsys):
    code, out, err = run(
        capsys, "norms", "--N", "256", "--A", "16", "--R", "4", "--s", "-1",
        "--points-per-block", "16",
    )
    assert code == 0, err
    assert json.loads(out)["fl_inf"] == 4.0


def test_output_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["norms", "--N", "256", "--A", "16", "--R", "4", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 256.0, "A": 16.0, "R": 4.0}))
    code, out, _ = run(capsys, "norms", "--config", str(cfg))
    assert code == 0
    base = json.loads(out)["fl_inf"]
    assert base == 4.0
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "norms", "--config", str(cfg), "--R", "8")
    assert json.loads(out)["fl_inf"] == 8.0


def test_config_unknown_keys_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 256.0, "bogus_knob": 1}))
    code, _, err = run(capsys, "norms", "--config", str(cfg))
    assert code == 2
    assert "bogus_knob" in err


@pytest.mark.parametrize(
    "command, config, flag",
    [
        ("norms", {"N": "abc", "A": 16, "R": 4}, "--N"),
        ("norms", {"N": 256, "points_per_block": 16.0}, "--points-per-block"),
        ("norms", {"N": 256, "R": True}, "--R"),
        ("norms", {"N": 256, "format": "xml"}, "--format"),
        ("norms", {"N": 256, "output": 5}, "--output"),
        ("inflate", {"N": 64}, "--N"),
        ("inflate", {"N": [64, "x"]}, "--N"),
        ("inflate", {"N": [64], "no_perturbation": "yes"}, "--no-perturbation"),
        ("trees", {"count": [1]}, "--count"),
    ],
)
def test_config_values_type_checked(capsys, tmp_path, command, config, flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "ConfigurationError" in err
    assert flag in err


def test_config_inflate_matches_flags(capsys, tmp_path):
    flags = ["--s", "-1", "--N", "64", "--delta", "1", "--j-max", "1", "--time-steps", "4",
             "--no-perturbation"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"s": -1, "N": [64], "delta": 1, "j_max": 1, "time_steps": 4,
                               "no_perturbation": True}))
    code, by_flags, _ = run(capsys, "inflate", *flags)
    assert code == 0
    code, by_config, _ = run(capsys, "inflate", "--config", str(cfg))
    assert code == 0
    assert by_config == by_flags


def test_config_negative_value_matches_the_flag(capsys, tmp_path):
    """A config value that starts with '-' is the option's value, not a flag."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 256, "s": -0.75}))
    code, by_flags, _ = run(capsys, "norms", "--N", "256", "--s", "-0.75")
    assert code == 0
    code, by_config, _ = run(capsys, "norms", "--config", str(cfg))
    assert code == 0
    assert by_config == by_flags


def test_config_output_path_starting_with_a_dash(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 256, "output": "-x.json"}))
    code, out, _ = run(capsys, "norms", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert json.loads((tmp_path / "-x.json").read_text())["fl_inf"] == 4.0


def test_config_empty_list_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": []}))
    code, _, err = run(capsys, "inflate", "--config", str(cfg))
    assert code == 2
    assert "ConfigurationError" in err
    assert "--N" in err


@pytest.mark.parametrize(
    "command, config, text",
    [("inflate", {"N": [64, "--zz"]}, "--zz"), ("trees", {"count": [1, 1, 1]}, "--count")],
)
def test_config_list_items_no_flag_takes_exit_2(capsys, tmp_path, command, config, text):
    """A list item read as an unknown flag, or one past the flag's count, is
    a configuration error, not an argparse usage exit."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "ConfigurationError" in err
    assert text in err


def _no_estimate(*args, **kwargs):
    raise AssertionError("the lemma ran before its flags were checked")


@pytest.mark.parametrize(
    "lemma, extra",
    [
        ("2.8", ["--N", "5", "--time-steps", "3", "--j", "9"]),
        ("2.5", ["--N", "256", "--j", "2"]),
        ("2.6", ["--N", "256", "--t", "1e-6"]),
        ("2.9", ["--N", "256", "--k", "1"]),
        ("2.10", ["--N", "256", "--p", "0"]),
        ("2.10", ["--N", "256", "--margin", "3"]),
        ("2.9", ["--N", "256", "--T", "1e-6"]),
    ],
)
def test_verify_rejects_flags_the_lemma_does_not_read(capsys, monkeypatch, lemma, extra):
    for name in ("verify_lemma25", "verify_lemma26", "verify_prop29", "verify_lemma210"):
        monkeypatch.setattr(f"gdnls.estimates.{name}", _no_estimate)
    code, _, err = run(capsys, "verify", "--lemma", lemma, *extra)
    assert code == 2
    assert "ConfigurationError" in err
    assert extra[-2] in err


def test_verify_rejects_config_keys_the_lemma_does_not_read(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 256, "j": 1}))
    code, _, err = run(capsys, "verify", "--lemma", "2.5", "--config", str(cfg))
    assert code == 2
    assert "--j" in err


def test_cli_import_leaves_out_scipy_signal():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gdnls.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_out_scipy_integrate():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gdnls.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_iterate_and_frames_output(capsys, tmp_path):
    frames_path = tmp_path / "out.niqk1"
    code, out, _ = run(
        capsys,
        "iterate",
        "--N", "16", "--A", "4", "--R", "1", "--s", "-1", "--T", "1e-3",
        "--k", "0", "--p", "1",
        "--points-per-block", "8", "--time-steps", "16",
        "--frames-out", str(frames_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h_s"] > 0
    from gdnls.frames import read_frames

    stored = read_frames(frames_path)
    assert stored.time_grid.steps == 16


def test_solve_mass_report(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "0.01",
        "--amplitude", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mass_drift_relative"] < 1e-10
    assert payload["t_final"] == pytest.approx(0.01)


def test_solve_blowup_exit_4(capsys):
    code, _, err = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "0.05",
        "--amplitude", "200",
    )
    assert code == 4
    assert "AccuracyError" in err


@pytest.mark.parametrize("amplitude", ["inf", "nan"])
def test_solve_non_finite_amplitude_exit_2(capsys, amplitude):
    code, _, err = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "4e-4",
        "--amplitude", amplitude,
    )
    assert code == 2
    assert "ConfigurationError" in err and "samples must be finite" in err


def test_inflate_csv_monotone_ratio(capsys):
    code, out, _ = run(
        capsys,
        "inflate", "--s", "-1", "--delta", "1.0", "--N", "512", "1024",
        "--margin", "4", "--points-per-block", "8", "--time-steps", "16",
        "--j-max", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    ratio_col = header.index("ratio")
    ratios = [float(line.split(",")[ratio_col]) for line in lines[1:]]
    assert len(ratios) == 2
    assert ratios[1] > ratios[0]


def test_inflate_j_max_zero_exit_2(capsys):
    code, _, err = run(
        capsys,
        "inflate", "--s", "-1", "--N", "64", "--delta", "1", "--j-max", "0",
        "--no-perturbation", "--time-steps", "4",
    )
    assert code == 2
    assert "ConfigurationError" in err


def test_inflate_solver_mode_cap_exit_3(capsys):
    """The solver's mode cap is a resource limit; it is checked before any
    solving."""
    code, _, err = run(
        capsys,
        "inflate", "--s", "-1", "--N", "4096", "--delta", "1", "--margin", "4",
        "--points-per-block", "8", "--j-max", "1", "--method", "solver",
    )
    assert code == 3
    assert "ResourceError" in err
    assert "262144 modes" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--s", "-1", "--N", "4096", "--delta", "1", "--margin", "4", "--method", "both"], "262144 modes"),
        (["--s", "-0.5", "--delta", "0.5", "--margin", "1.4", "--no-perturbation", "--N", "64", "1e21"],
         "int64"),
    ],
    ids=["both-mode-cap", "sweep-int64-grid"],
)
def test_inflate_setup_refusals_come_before_any_series(capsys, monkeypatch, argv, message):
    """Every set-up of a sweep, each method's included, is made before the
    first N is computed: the solver's mode cap refuses a `both` run, and a
    later N's grid a sweep, before any series is evaluated."""

    def no_series(*args, **kwargs):
        raise AssertionError("a series was evaluated before a set-up refusal")

    monkeypatch.setattr("gdnls.inflation.series_levels", no_series)
    code, out, err = run(capsys, "inflate", *argv, "--points-per-block", "8", "--j-max", "1")
    assert code == 3
    assert out == ""
    assert "error:ResourceError:inflate" in err
    assert message in err


def test_inflate_solver_method_takes_no_time_grid(capsys):
    """The solver never reads the series' time grid, so its step cap does
    not apply: this run's phase would need 6,945 Simpson steps."""
    code, out, _ = run(
        capsys,
        "inflate", "--s", "-1", "--N", "24", "--delta", "0.1", "--j-max", "3", "--method", "solver",
        "--points-per-block", "1", "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["final"] == pytest.approx(1.0016, rel=1e-4)
    assert row["solver_drift"] < 1e-12


@pytest.mark.parametrize(
    "argv, flags",
    [(["norms"], "--N"), (["solve", "--L", "40", "--modes", "256"], "--dt, --T")],
)
def test_missing_required_options_exit_2(capsys, argv, flags):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "ConfigurationError" in err
    assert f"missing required option(s) {flags}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["trees", "--count", "-1", "0"],
        ["trees", "--enumerate", "0", "-1"],
        ["iterate", "--N", "64", "--k", "-1", "--p", "0"],
        ["verify", "--lemma", "2.5", "--N", "64", "--k", "-1", "--p", "1"],
    ],
)
def test_negative_generation_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error:ConfigurationError:{argv[0]}" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_inflate_n_below_one_exit_2(capsys, monkeypatch, n):
    def no_work(*args, **kwargs):
        raise AssertionError("inflate set up a run for n < 1")

    monkeypatch.setattr("gdnls.inflation.generation_setup", no_work)
    code, out, err = run(
        capsys,
        "inflate", "--s", "-1", "--N", "64", "--delta", "1", "--j-max", "1", "--time-steps", "4",
        "--n", n,
    )
    assert code == 2
    assert out == ""
    assert "error:ConfigurationError:inflate" in err
    assert "n must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["inflate", "--s", "-1", "--N", "64", "--delta", "1", "--j-max", "1", "--time-steps", "4",
             "--no-perturbation", "--margin", margin]
            for margin in ("0", "-1", "0.5")
        ),
        ["verify", "--lemma", "2.9", "--N", "256", "--margin", "0"],
    ],
)
def test_margin_below_one_exit_2(capsys, monkeypatch, argv):
    """A margin factor below 1 would pass conditions that fail, so it is
    refused, naming the value, before any run is set up."""

    def no_work(*args, **kwargs):
        raise AssertionError(f"{argv[0]} set up a run for a margin below 1")

    for module in ("inflation", "estimates"):
        monkeypatch.setattr(f"gdnls.{module}.generation_setup", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error:ConfigurationError:{argv[0]}" in err
    assert f"margin must be >= 1 (got {float(argv[-1])})" in err


def test_trees_count_far_past_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "trees", "--count", "1200", "0")
    assert code == 0
    assert json.loads(out)["count"] > 0


@contextlib.contextmanager
def _int_digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_trees_count_past_the_printable_digits_exit_3(capsys):
    """A count longer than sys.get_int_max_str_digits() cannot be printed:
    a ResourceError naming its digits and the limit, not a ValueError."""
    with _int_digit_limit(4300):
        code, out, err = run(capsys, "trees", "--count", "6000", "0")
    assert code == 3
    assert out == ""
    assert "error:ResourceError:trees" in err
    assert "has 4970 digits, more than the 4300" in err


def test_trees_count_prints_every_digit_without_a_limit(capsys):
    with _int_digit_limit(0):
        code, out, _ = run(capsys, "trees", "--count", "6000", "0")
        digits = len(str(json.loads(out)["count"]))
    assert code == 0
    assert digits == 4970


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--N", "256"],
        ["iterate", "--N", "64", "--k", "0", "--p", "1", "--time-steps", "4"],
        ["verify", "--lemma", "2.5", "--N", "64", "--time-steps", "4"],
        ["inflate", "--s", "-1", "--N", "64", "--delta", "1", "--j-max", "1", "--time-steps", "4"],
    ],
)
def test_zero_points_per_block_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv, "--points-per-block", "0")
    assert code == 2
    assert f"error:ConfigurationError:{argv[0]}" in err
    assert "points_per_block" in err


def test_iterate_refuses_more_steps_than_the_cap(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("iterate evaluated the generation past the step cap")

    monkeypatch.setattr("gdnls.picard.xi_generation", no_work)
    code, _, err = run(capsys, "iterate", "--N", "64", "--k", "0", "--p", "1", "--T", "1")
    assert code == 3
    assert "error:ResourceError:iterate" in err
    assert "--time-steps" in err


@pytest.mark.parametrize("lemma", ["2.6", "2.10"])
def test_verify_report_is_json(capsys, lemma):
    generation = {"2.6": ["--k", "1", "--p", "0"], "2.10": ["--j", "1"]}[lemma]
    code, out, _ = run(
        capsys, "verify", "--lemma", lemma, "--N", "256", *generation,
        "--time-steps", "8",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def _no_integration(*args, **kwargs):
    raise AssertionError("solve_gdnls ran before the checkpoint spacing was checked")


def test_solve_frames_out_rejects_uneven_checkpoints(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("gdnls.solver.solve_gdnls", _no_integration)
    # 10 steps, checkpoints at steps 0, 4, 8, 10: not evenly spaced
    code, _, err = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1e-3",
        "--checkpoint-every", "4", "--frames-out", str(tmp_path / "uneven.niqk1"),
    )
    assert code == 2
    assert "ConfigurationError" in err


def test_solve_frames_out_times_match_checkpoints(capsys, tmp_path):
    from gdnls.frames import read_frames

    path = tmp_path / "even.niqk1"
    code, out, _ = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1.6e-3",
        "--checkpoint-every", "4", "--frames-out", str(path),
    )
    assert code == 0
    assert json.loads(out)["checkpoints"] == 5
    stored = read_frames(path)
    assert stored.frames.shape[0] == 5
    checkpoint_times = 4e-4 * np.arange(5)
    assert np.allclose(stored.time_grid.times, checkpoint_times, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("every", [None, "0", "-4"])
def test_solve_frames_out_needs_positive_checkpoint_every(capsys, tmp_path, monkeypatch, every):
    monkeypatch.setattr("gdnls.solver.solve_gdnls", _no_integration)
    argv = ["solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1.6e-3",
            "--frames-out", str(tmp_path / "f.niqk1")]
    if every is not None:
        argv += ["--checkpoint-every", every]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "ConfigurationError" in err


def test_flags_only_on_subcommands_that_read_them(capsys, tmp_path):
    solve = ["solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1e-3"]
    with pytest.raises(SystemExit) as exc:
        main([*solve, "--time-steps", "8"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # iterate evaluates at --T
        main(["iterate", "--N", "64", "--k", "0", "--p", "1", "--t", "1e-6"])
    assert exc.value.code == 2
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"margin": 3.0}))
    code, _, err = run(capsys, *solve, "--config", str(cfg))
    assert code == 2
    assert "margin" in err


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


@pytest.mark.parametrize(
    "case",
    ["csv-non-numeric", "csv-ragged", "csv-missing", "csv-not-text",
     "config-missing", "config-invalid-json", "config-not-text", "config-number", "config-list"],
)
def test_malformed_outside_input_exit_2(capsys, tmp_path, case):
    solve = ["solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1e-3"]
    norms = ["norms", "--N", "256", "--A", "16", "--R", "4"]
    argv = {
        "csv-non-numeric": solve + ["--initial-csv", _write(tmp_path / "a.csv", "xi,re,im\n0,1,x\n1,0,0\n")],
        "csv-ragged": solve + ["--initial-csv", _write(tmp_path / "b.csv", "xi,re,im\n0,1,0\n1,0\n")],
        "csv-missing": solve + ["--initial-csv", str(tmp_path / "absent.csv")],
        "csv-not-text": solve + ["--initial-csv", _write(tmp_path / "f.csv", b"xi,re,im\n\xff,0,0\n")],
        "config-missing": norms + ["--config", str(tmp_path / "absent.json")],
        "config-invalid-json": norms + ["--config", _write(tmp_path / "c.json", "{N: 256")],
        "config-not-text": norms + ["--config", _write(tmp_path / "g.json", b"\xff\xfe{")],
        "config-number": norms + ["--config", _write(tmp_path / "d.json", "256")],
        "config-list": norms + ["--config", _write(tmp_path / "e.json", "[1, 2]")],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "ConfigurationError" in err


def _csv_spectrum(path, xi_min_cells, count, length=40.0):
    from gdnls.frames import spectral_to_csv
    from gdnls.spectrum import FrequencyGrid, SpectralFunction

    dxi = 2 * np.pi / length
    grid = FrequencyGrid(xi_min=xi_min_cells * dxi, delta_xi=dxi, count=count)
    xis = grid.xis
    f = SpectralFunction(grid, 0.5 * np.sqrt(np.pi) * np.exp(-(xis**2) / 4 - 0.5j * length * xis))
    spectral_to_csv(f, path)
    return f


def test_solve_off_lattice_csv_exit_2(capsys, tmp_path):
    path = tmp_path / "off.csv"
    _csv_spectrum(path, -10.5, 21)
    code, _, err = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1e-3",
        "--initial-csv", str(path),
    )
    assert code == 2
    assert "ConfigurationError" in err


def test_solve_frames_carry_package_spectrum(capsys, tmp_path):
    from gdnls.frames import read_frames

    csv, frames_path = tmp_path / "g.csv", tmp_path / "f.niqk1"
    f = _csv_spectrum(csv, -85, 171)
    code, _, _ = run(
        capsys,
        "solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "4e-4",
        "--initial-csv", str(csv), "--checkpoint-every", "1", "--frames-out", str(frames_path),
    )
    assert code == 0
    stored = read_frames(frames_path)
    # frame grid: k = -128..127; the CSV holds k = -85..85
    frame0 = stored.frames[0][128 - 85 : 128 + 86]
    assert np.allclose(stored.grid.xis[128 - 85 : 128 + 86], f.grid.xis, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(frame0 - f.values)) <= 1e-12 * np.max(np.abs(f.values))


_SOLVE = ["solve", "--L", "40", "--modes", "256", "--dt", "1e-4", "--T", "1e-3"]
# per case: the run, and a flag with its value that this run does not read
_UNREAD_FLAG_RUNS = {
    "trees-count": (["trees", "--count", "2", "1"], "--depth-cap", "1"),
    "solve-initial-csv": ([*_SOLVE, "--initial-csv", "{csv}"], "--amplitude", "7"),
    "inflate-method-solver": (["inflate", "--N", "64", "--method", "solver"], "--time-steps", "8"),
}


def _unread_flag_run(tmp_path, case):
    csv = tmp_path / "g.csv"
    _csv_spectrum(csv, -85, 171)
    argv, flag, value = _UNREAD_FLAG_RUNS[case]
    return [a.format(csv=csv) for a in argv], flag, value


@pytest.mark.parametrize("case", sorted(_UNREAD_FLAG_RUNS))
def test_flag_the_run_does_not_read_exit_2(capsys, tmp_path, case):
    argv, flag, value = _unread_flag_run(tmp_path, case)
    code, _, err = run(capsys, *argv, flag, value)
    assert code == 2
    assert "ConfigurationError" in err
    assert f"does not read {flag}" in err


@pytest.mark.parametrize("case", sorted(_UNREAD_FLAG_RUNS))
def test_config_key_the_run_does_not_read_exit_2(capsys, tmp_path, case):
    argv, flag, value = _unread_flag_run(tmp_path, case)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): int(value)}))
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"does not read {flag}" in err


def test_trees_enumerate_reads_depth_cap(capsys):
    code, _, err = run(capsys, "trees", "--enumerate", "2", "1", "--depth-cap", "2")
    assert code == 3
    assert "ResourceError" in err


_CASE2 = ["--s", "-0.5", "--delta", "0.5", "--margin", "1.4", "--no-perturbation"]
_CASE1 = ["--s", "-1", "--delta", "1", "--margin", "4"]


@pytest.mark.parametrize(
    "datum, N, code, error",
    [
        (_CASE2, "1e21", 3, "ResourceError"),
        (_CASE2, str(2**60), 4, "AccuracyError"),
        (_CASE2, str(2**56), 4, "AccuracyError"),
        (_CASE1, str(2**64), 4, "AccuracyError"),
        (_CASE1, str(2**60), 4, "AccuracyError"),
    ],
    ids=["case2-1e21", "case2-2^60", "case2-2^56", "case1-2^64", "case1-2^60"],
)
def test_inflate_past_the_float64_grid_exits_3_or_4(capsys, datum, N, code, error):
    """Past int64 the grid's indices are no integers (exit 3); below it,
    float64 may not place delta_xi near 2N or 3N, and a block of phi then
    holds fewer than its A / delta_xi points (exit 4).  Each of these once
    exited 1 with a traceback, or 0 with a gap of 0."""
    got, _, err = run(capsys, "inflate", *datum, "--N", N, "--points-per-block", "8", "--j-max", "1")
    assert got == code
    assert f"error:{error}:inflate" in err


def test_write_checkpoints_builds_the_stack_once(tmp_path):
    """The frame stack of a 5-checkpoint trajectory at M = 4096 is built on
    the M - 1 columns spectrum_from_state writes and never copied: the traced
    peak is 2.1 stacks (2.6 with a dense stack copied to drop column 0)."""
    from gdnls.frames import read_frames
    from gdnls.solver import PhysicalState, TorusConfig, spectrum_from_state

    modes, count = 4096, 5
    config = TorusConfig(length=40.0, modes=modes, dt=1e-6)
    rng = np.random.default_rng(0)
    trajectory = [
        PhysicalState(config, rng.normal(size=modes) + 1j * rng.normal(size=modes), n * config.dt)
        for n in range(count)
    ]
    path = tmp_path / "w.niqk1"
    tracemalloc.start()
    try:
        cli._write_checkpoints(trajectory, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * count * modes * 16
    back = read_frames(path)
    assert np.array_equal(back.columns, np.arange(1, modes))
    for row, state in zip(back.values, trajectory):
        f = spectrum_from_state(state, back.grid)
        assert np.array_equal(row[f.columns - 1], f.amplitudes)
