"""Command-line entry point.

Subcommands: trees, norms, iterate, verify, solve, inflate.  A JSON config
file may supply any long-option value; explicit flags win.  Exit codes:
0 success, 2 configuration error, 3 resource-limit error, 4 accuracy or
divergence error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import __version__, estimates, frames, inflation, picard, solver, spectrum, trees
from .errors import ConfigurationError, GdnlsError, ResourceError

__all__ = ["main"]


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The gdnls parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="gdnls",
        description="Norm-inflation laboratory for the gauged derivative NLS",
    )
    parser.add_argument("--version", action="version", version=f"gdnls {__version__} (experiment format 0.1.0)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with option defaults; flags win")
    common.add_argument("--output", help="write the result to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"))

    p = sub.add_parser("trees", parents=[common], help="count or enumerate ternary-quinary trees")
    p.add_argument("--count", nargs=2, type=int, metavar=("K", "P"))
    p.add_argument("--enumerate", nargs=2, type=int, metavar=("K", "P"))
    p.add_argument("--depth-cap", type=int)

    p = sub.add_parser("norms", parents=[common], help="norm report of the two-block datum")
    _data_flags(p)
    _shared_flags(p, "points-per-block")

    p = sub.add_parser("iterate", parents=[common], help="evaluate one Picard generation")
    _data_flags(p)
    _shared_flags(p, "T", "points-per-block", "time-steps")
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--frames-out", help="write all time frames in the binary NIQK1 format")

    p = sub.add_parser("verify", parents=[common], help="run one lemma verification")
    p.add_argument("--lemma", required=True, choices=("2.5", "2.6", "2.8", "2.9", "2.10"))
    _data_flags(p)
    _shared_flags(p, "T", "margin", "points-per-block", "time-steps")
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--t", type=float)

    p = sub.add_parser("solve", parents=[common], help="integrate the gauged equation")
    p.add_argument("--L", type=float)
    p.add_argument("--modes", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--initial-csv", help="initial spectrum as CSV (xi,re,im); "
                                         "default is a centered Gaussian")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--frames-out", help="write checkpoints in the binary NIQK1 format")

    p = sub.add_parser("inflate", parents=[common], help="run the norm-inflation sweep")
    _shared_flags(p, "margin", "points-per-block", "time-steps")
    p.add_argument("--s", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--N", nargs="+", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=("series", "solver", "both"))
    p.add_argument("--j-max", type=int,
                   help="series truncation level (2 gives the tail diagnostic)")
    p.add_argument("--no-perturbation", action="store_true",
                   help="use psi = 0 instead of the default smooth bump")
    return parser, sub.choices


def _data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--A", type=float)
    p.add_argument("--R", type=float)


# flags taken by some subcommands only: each subcommand gets the ones it reads
_SHARED_FLAGS = {
    "T": dict(type=float, help="default 0.05 / N^2"),
    "margin": dict(type=float, help="operational factor (>= 1) for 'much less/greater than'"),
    "points-per-block": dict(type=int, help="frequency grid points per block width A"),
    "time-steps": dict(type=int, help="override the time-quadrature step count"),
}


def _shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument("--" + name, **_SHARED_FLAGS[name])


# defaults applied after the config file, so that both flags and config
# entries can override them; flags always win over the config.  Options left
# out here keep the library's own defaults (see _given).
_DEFAULTS = {
    "format": "json",
    "s": -1.0,
    "A": 16.0,
    "R": 4.0,
    "k": 0,
    "p": 1,
    "j": 1,
    "amplitude": 0.1,
}


def _apply_config(args: argparse.Namespace, subparser: argparse.ArgumentParser, argv: list[str]):
    """The options with the config file's values given to the subcommand's
    parser as flag text, placed before its command-line arguments `argv`:
    argparse converts and checks them, and keeps an option's last value, so
    flags win."""
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigurationError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {args.config} must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in cfg.items():
        action = actions[key]
        flag = action.option_strings[0]
        if action.nargs == 0:  # store_true: true is the bare flag, false nothing
            if not isinstance(value, bool):
                raise ConfigurationError(f"config value for {flag} must be true or false, got {value!r}")
            tokens += [flag] if value else []
            continue
        if action.nargs is not None and not (isinstance(value, list) and action.nargs in ("+", len(value))):
            count = "" if action.nargs == "+" else f" of {action.nargs} values"
            raise ConfigurationError(f"config value for {flag} must be a JSON list{count}, got {value!r}")
        if action.type is None and not isinstance(value, str):
            raise ConfigurationError(f"config value for {flag} must be a string, got {value!r}")
        # a JSON number is written as its JSON text, as a flag's own text:
        # 16.0 is no int, and true is no number
        texts = [v if isinstance(v, str) else json.dumps(v) for v in (value if action.nargs else [value])]
        # a single value is one token, so that one such as -1 is never read as a flag
        tokens += [flag, *texts] if action.nargs else [f"{flag}={texts[0]}"]
    subparser.exit_on_error = False
    try:
        parsed, extra = subparser.parse_known_args([*tokens, *argv])
    except argparse.ArgumentError as exc:
        raise ConfigurationError(str(exc)) from exc
    if extra:  # a list item that argparse reads as a flag no option has
        raise ConfigurationError(f"config values that no flag takes: {' '.join(extra)}")
    parsed.command = args.command
    return parsed


# the verify flags each lemma reads; any other one, set as a flag or as a
# config key, is an error
_DATUM_FLAGS = ("s", "N", "A", "R", "T", "points_per_block", "time_steps")
_LEMMA_FLAGS = {
    "2.5": (*_DATUM_FLAGS, "k", "p"),
    "2.6": (*_DATUM_FLAGS, "k", "p"),
    "2.8": (),
    "2.9": ("s", "N", "A", "R", "points_per_block", "time_steps", "margin", "t"),
    "2.10": (*_DATUM_FLAGS, "j"),
}

# flags other subcommands read only in some runs: (flag, whether this run
# reads it, the runs that do not); set in any other run, it is an error
_RUN_FLAGS = {
    "trees": ("depth_cap", lambda args: args.enumerate is not None, "trees without --enumerate"),
    "solve": ("amplitude", lambda args: args.initial_csv is None, "solve --initial-csv"),
}


def _check_unread_flags(args: argparse.Namespace) -> None:
    """Reject flags that this run does not read; runs before the defaults
    fill them."""
    if args.command == "verify":
        read = {"command", "config", "output", "format", "lemma", *_LEMMA_FLAGS[args.lemma]}
        unread = sorted(k for k, v in vars(args).items() if v is not None and k not in read)
        runs = f"verify --lemma {args.lemma}"
    elif args.command in _RUN_FLAGS:
        flag, reads, runs = _RUN_FLAGS[args.command]
        unread = [flag] if getattr(args, flag) is not None and not reads(args) else []
    else:
        return
    if unread:
        flags = ", ".join("--" + k.replace("_", "-") for k in unread)
        raise ConfigurationError(f"{runs} does not read {flags}")


def _apply_defaults(args: argparse.Namespace) -> None:
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _given(args, *names) -> dict:
    """The named options that a flag or the config file set, as keyword
    arguments: the library's own defaults apply to the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _require(args, *keys):
    missing = [k for k in keys if getattr(args, k, None) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ConfigurationError(f"{args.command}: missing required option(s) {flags}")


def _params_from(args) -> spectrum.ParameterSet:
    _require(args, "N")
    T = getattr(args, "T", None)  # norms takes no --T
    if T is None:
        T = estimates.TIME_WINDOW_FACTOR * args.N**-2
    return spectrum.ParameterSet(s=args.s, N=args.N, A=args.A, R=args.R, T=T)


def _emit(args, payload) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_csv(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    flat_rows = [_flatten(r) for r in rows]
    keys: list[str] = []
    for r in flat_rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    buf = io.StringIO()
    buf.write(",".join(keys) + "\n")
    for r in flat_rows:
        buf.write(",".join(_csv_cell(r.get(k, "")) for k in keys) + "\n")
    return buf.getvalue()


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return '"' + ";".join(str(x) for x in v) + '"'
    return str(v)


def _cmd_trees(args) -> dict:
    if args.count:
        k, p = args.count
        count, limit = trees.count_trees(k, p), sys.get_int_max_str_digits()
        if limit and count >= 10**limit:
            raise ResourceError(
                f"trees: the count for ({k}, {p}) has {int(math.log10(count)) + 1} digits, more than "
                f"the {limit} that sys.get_int_max_str_digits() lets Python print (0 lifts the limit)"
            )
        return {"k": k, "p": p, "count": count}
    if args.enumerate:
        k, p = args.enumerate
        forest = trees.enumerate_trees(k, p, **_given(args, "depth_cap"))
        return {
            "k": k,
            "p": p,
            "count": len(forest),
            "trees": [json.loads(trees.tree_to_json(t)) for t in forest],
        }
    raise ConfigurationError("trees: pass --count K P or --enumerate K P")


def _cmd_norms(args) -> dict:
    params = _params_from(args)
    ppb = 64 if args.points_per_block is None else args.points_per_block
    grid = spectrum.default_grid(params, generations=0, points_per_block=ppb)
    phi = spectrum.make_phi(params, grid, min_points_per_block=ppb)
    return spectrum.norm_report(phi, params.s).as_dict()


def _cmd_iterate(args) -> dict:
    params = _params_from(args)
    ppb = 16 if args.points_per_block is None else args.points_per_block
    _, tg, phi = estimates.generation_setup(params, args.k + args.p, params.T, ppb, args.time_steps)
    result = picard.xi_generation(args.k, args.p, phi, tg)
    if args.frames_out:
        frames.write_frames(result, args.frames_out)
    report = spectrum.norm_report(result.final, params.s)
    return {"k": args.k, "p": args.p, "t": params.T, "steps": tg.steps, **report.as_dict()}


def _cmd_verify(args) -> dict:
    if args.lemma == "2.8":
        unit_boxes = [estimates.BoxSpec(0.0, 1.0)] * 5
        central = float(estimates.box_convolution(unit_boxes, 0.0))
        edge = float(estimates.box_convolution(unit_boxes, -0.5))
        return {
            "lemma": "2.8",
            "central_value_5fold_unit": central,
            "edge_value_5fold_unit": edge,
            "note": "lower-bound constant c is the edge value of the order-5 B-spline",
        }
    params = _params_from(args)
    # _check_unread_flags let through only the options this lemma reads
    options = _given(args, "points_per_block", "time_steps", "margin")
    if args.lemma == "2.5":
        rep = estimates.verify_lemma25(params, args.k, args.p, **options)
    elif args.lemma == "2.6":
        rep = estimates.verify_lemma26(params, args.k, args.p, **options)
    elif args.lemma == "2.9":
        t = args.t if args.t is not None else 0.5 * estimates.TIME_WINDOW_FACTOR * params.N**-2
        rep = estimates.verify_prop29(params, t, **options)
    else:
        grid = spectrum.default_grid(params, generations=1,
                                     points_per_block=options.get("points_per_block", 16))
        bump = inflation.default_perturbation(grid, params.s)
        rep = estimates.verify_lemma210(params, bump, args.j, **options)
    return rep.as_dict()


def _cmd_solve(args) -> dict:
    _require(args, "L", "modes", "dt", "T")
    config = solver.TorusConfig(length=args.L, modes=args.modes, dt=args.dt)
    if args.frames_out:
        steps, every = round(args.T / args.dt), args.checkpoint_every or 0
        intervals = steps // every if every > 0 and steps % every == 0 else 0
        # NIQK1 frames carry no times of their own: they are read back as an
        # even, evenly spaced Simpson grid on [0, t_max]
        if intervals < 4 or intervals % 2:
            raise ConfigurationError(
                f"--frames-out needs --checkpoint-every to split the {steps} steps into an "
                f"even number (>= 4) of equal intervals (got --checkpoint-every {every})"
            )
    if args.initial_csv:
        f = frames.spectral_from_csv(args.initial_csv)
        state = solver.state_from_spectrum(f, config)
    else:
        xs = config.xs
        samples = args.amplitude * np.exp(-((xs - args.L / 2) ** 2))
        state = solver.PhysicalState(config, samples.astype(np.complex128))
    trajectory = solver.solve_gdnls(state, args.T, checkpoint_every=args.checkpoint_every)
    if args.frames_out:
        _write_checkpoints(trajectory, args.frames_out)
    final = trajectory[-1]
    return {
        "t_final": final.time,
        "checkpoints": len(trajectory),
        "mass_initial": trajectory[0].mass,
        "mass_final": final.mass,
        "mass_drift_relative": abs(final.mass - trajectory[0].mass)
        / max(trajectory[0].mass, np.finfo(float).tiny),
    }


def _write_checkpoints(trajectory, path) -> None:
    cfg = trajectory[0].config
    dxi = 2 * math.pi / cfg.length
    grid = spectrum.FrequencyGrid(xi_min=-(cfg.modes // 2) * dxi, delta_xi=dxi, count=cfg.modes)
    # spectrum_from_state writes the band |k| <= M/2 - 1, grid columns 1..M-1;
    # column 0 (k = -M/2) stays zero and is left out of the stack
    columns = np.arange(1, cfg.modes)
    spectra = np.zeros((len(trajectory), columns.size), dtype=np.complex128)
    for row, state in zip(spectra, trajectory):
        f = solver.spectrum_from_state(state, grid)
        row[f.columns - 1] = f.amplitudes
    tg = picard.TimeGrid(t_max=abs(trajectory[-1].time - trajectory[0].time), steps=len(trajectory) - 1)
    frames.write_frames(picard.SpaceTimeFunction._on_columns(tg, grid, columns, spectra), path)


def _cmd_inflate(args) -> list:
    _require(args, "N")
    psi = None
    if not args.no_perturbation:
        bump_grid = spectrum.FrequencyGrid.symmetric(
            2 * inflation.DEFAULT_BUMP_RADIUS, inflation.DEFAULT_BUMP_RADIUS / 64
        )
        psi = inflation.default_perturbation(bump_grid, args.s)
    results = inflation.run_experiment(
        args.s, psi, args.N,
        **_given(args, "n", "method", "delta", "margin", "j_max", "points_per_block", "time_steps"),
    )
    return [r.as_dict() for r in results]


_COMMANDS = {
    "trees": _cmd_trees,
    "norms": _cmd_norms,
    "iterate": _cmd_iterate,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "inflate": _cmd_inflate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, subparsers[args.command], argv[argv.index(args.command) + 1:])
        _check_unread_flags(args)
        _apply_defaults(args)
        payload = _COMMANDS[args.command](args)
        _emit(args, payload)
    except (GdnlsError, MemoryError) as exc:
        error = exc if isinstance(exc, GdnlsError) else ResourceError(f"out of memory: {exc}".rstrip(": "))
        print(f"error:{type(error).__name__}:{args.command}", file=sys.stderr)
        print(str(error), file=sys.stderr)
        return error.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
