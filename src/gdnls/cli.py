"""Command-line entry point.

Subcommands: trees, norms, iterate, verify, solve, inflate.  A JSON config
file may supply any long-option value; explicit flags win.  Exit codes:
0 success, 2 configuration error, 3 resource/cap error, 4 accuracy or
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
    p.add_argument("--t", type=float, help="evaluation time (default T)")
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
    "margin": dict(type=float, help="operational factor for 'much less/greater than'"),
    "points-per-block": dict(type=int, help="frequency grid points per block width A"),
    "time-steps": dict(type=int, help="override the time-quadrature step count"),
}


def _shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument("--" + name, **_SHARED_FLAGS[name])


# defaults applied after the config file, so that both flags and config
# entries can override them; flags always win over the config
_DEFAULTS = {
    "format": "json",
    "margin": estimates.DEFAULT_MARGIN,
    "depth_cap": trees.DEFAULT_DEPTH_CAP,
    "s": -1.0,
    "A": 16.0,
    "R": 4.0,
    "k": 0,
    "p": 1,
    "j": 1,
    "amplitude": 0.1,
    "delta": 0.1,
    "n": 1,
    "method": "series",
    "j_max": 2,
}


def _apply_config(args: argparse.Namespace, subparser: argparse.ArgumentParser) -> None:
    if not args.config:
        return
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
    for key, value in cfg.items():
        value = _config_value(actions[key], value)
        # flags win: only fill values the command line did not set (an unset
        # store_true flag reads False)
        current = getattr(args, key)
        if current is None or current is False:
            setattr(args, key, value)


def _config_value(action: argparse.Action, value):
    """A config value converted as argparse converts the flag's own text:
    through the flag's type, nargs and choices."""
    flag = action.option_strings[0]
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ConfigurationError(f"config value for {flag} must be true or false, got {value!r}")
        return value
    if action.nargs is None:
        return _config_item(action, flag, value)
    if not isinstance(value, list) or not value or action.nargs not in ("+", len(value)):
        count = "one or more" if action.nargs == "+" else action.nargs
        raise ConfigurationError(f"config value for {flag} must be a list of {count} values, got {value!r}")
    return [_config_item(action, flag, item) for item in value]


def _config_item(action: argparse.Action, flag: str, item):
    if isinstance(item, str):
        text = item
    elif action.type is None:
        raise ConfigurationError(f"config value for {flag} must be a string, got {item!r}")
    else:
        # a JSON number converts from its JSON text, as a flag from its own
        # text: 16.0 is no int, and true is no number
        text = json.dumps(item)
    try:
        converted = text if action.type is None else action.type(text)
    except ValueError as exc:
        raise ConfigurationError(f"config value {item!r} is not valid for {flag}: {exc}") from exc
    if action.choices is not None and converted not in action.choices:
        raise ConfigurationError(f"config value {item!r} for {flag} is not one of {list(action.choices)}")
    return converted


# the verify flags each lemma reads; any other one, set as a flag or as a
# config key, is an error
_DATUM_FLAGS = ("s", "N", "A", "R", "T", "points_per_block", "time_steps")
_LEMMA_FLAGS = {
    "2.5": (*_DATUM_FLAGS, "k", "p"),
    "2.6": (*_DATUM_FLAGS, "k", "p"),
    "2.8": (),
    "2.9": (*_DATUM_FLAGS, "margin", "t"),
    "2.10": (*_DATUM_FLAGS, "j"),
}


def _check_lemma_flags(args: argparse.Namespace) -> None:
    """Reject verify flags the chosen lemma does not read; runs before the
    defaults fill them."""
    read = {"command", "config", "output", "format", "lemma", *_LEMMA_FLAGS[args.lemma]}
    unread = sorted(k for k, v in vars(args).items() if v is not None and k not in read)
    if unread:
        flags = ", ".join("--" + k.replace("_", "-") for k in unread)
        raise ConfigurationError(f"verify --lemma {args.lemma} does not read {flags}")


def _apply_defaults(args: argparse.Namespace) -> None:
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


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
        return {"k": k, "p": p, "count": trees.count_trees(k, p)}
    if args.enumerate:
        k, p = args.enumerate
        forest = trees.enumerate_trees(k, p, depth_cap=args.depth_cap)
        return {
            "k": k,
            "p": p,
            "count": len(forest),
            "trees": [json.loads(trees.tree_to_json(t)) for t in forest],
        }
    raise ConfigurationError("trees: pass --count K P or --enumerate K P")


def _cmd_norms(args) -> dict:
    params = _params_from(args)
    ppb = args.points_per_block or 64
    grid = spectrum.default_grid(params, generations=0, points_per_block=ppb)
    phi = spectrum.make_phi(params, grid, min_points_per_block=ppb)
    return spectrum.norm_report(phi, params.s).as_dict()


def _cmd_iterate(args) -> dict:
    _require(args, "k", "p")
    params = _params_from(args)
    t = args.t if args.t is not None else params.T
    gens = args.k + args.p
    _, tg, phi = estimates.generation_setup(
        params, gens, t, args.points_per_block or 16, args.time_steps
    )
    result = picard.xi_generation(args.k, args.p, phi, tg, cap=max(gens, 2))
    if args.frames_out:
        frames.write_frames(result, args.frames_out)
    report = spectrum.norm_report(result.final, params.s)
    return {"k": args.k, "p": args.p, "t": t, "steps": tg.steps, **report.as_dict()}


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
    ppb = args.points_per_block
    kwargs = {}
    if ppb is not None:
        kwargs["points_per_block"] = ppb
    if args.time_steps is not None:
        kwargs["time_steps"] = args.time_steps
    if args.lemma == "2.5":
        rep = estimates.verify_lemma25(params, args.k, args.p, **kwargs)
    elif args.lemma == "2.6":
        rep = estimates.verify_lemma26(params, args.k, args.p, **kwargs)
    elif args.lemma == "2.9":
        t = args.t if args.t is not None else 0.5 * estimates.TIME_WINDOW_FACTOR * params.N**-2
        rep = estimates.verify_prop29(params, t, margin=args.margin, **kwargs)
    else:
        grid = spectrum.default_grid(params, generations=1,
                                     points_per_block=ppb or 16)
        bump = inflation.default_perturbation(grid, params.s)
        rep = estimates.verify_lemma210(params, bump, args.j, **kwargs)
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
    spectra = np.zeros((len(trajectory), cfg.modes), dtype=np.complex128)
    for row, state in zip(spectra, trajectory):
        f = solver.spectrum_from_state(state, grid)
        row[f.columns] = f.amplitudes
    tg = picard.TimeGrid(t_max=abs(trajectory[-1].time - trajectory[0].time), steps=len(trajectory) - 1)
    frames.write_frames(picard.SpaceTimeFunction(tg, grid, spectra), path)


def _cmd_inflate(args) -> list:
    _require(args, "N")
    psi = None
    if not args.no_perturbation:
        bump_grid = spectrum.FrequencyGrid.symmetric(
            2 * inflation.DEFAULT_BUMP_RADIUS, inflation.DEFAULT_BUMP_RADIUS / 64
        )
        psi = inflation.default_perturbation(bump_grid, args.s)
    kwargs = {}
    if args.points_per_block is not None:
        kwargs["points_per_block"] = args.points_per_block
    if args.time_steps is not None:
        kwargs["time_steps"] = args.time_steps
    results = inflation.run_experiment(
        args.s, psi, args.N, n=args.n, method=args.method,
        delta=args.delta, margin=args.margin, j_max=args.j_max, **kwargs,
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
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, subparsers[args.command])
        if args.command == "verify":
            _check_lemma_flags(args)
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
