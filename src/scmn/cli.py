"""Command-line batch jobs: capacity, design rate, DE thresholds, EXIT-like
curves, and Monte-Carlo decoding, with reproducible CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from ._inputs import real
from .channel import ChannelFamily, capacity, dimension_distribution
from .de import (
    DEFAULT_BISECT_TOL,
    MAX_ITER,
    TOL,
    _ANCHOR_TOL,
    ConvergenceError,
    ebp_trace,
    threshold,
)
from .ensemble import EnsembleParams, design_rate, design_rate_exact
from .sim import DecodingFaultError, run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_INTERNAL = 4

# Most targets an exit-curve grid may hold: at about 5.5 ms per point of an
# L=20/w=3 cd m=6 trace, some 9 minutes of tracing and 0.8 MB of targets.
MAX_CURVE_POINTS = 100_000


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _emit(args, command: str, config: dict, columns: list[str], rows: list[dict]) -> None:
    config = {**config, "command": command, "seed": args.seed, "version": __version__}
    if args.format == "json":
        text = json.dumps({"config": config, "rows": rows}, sort_keys=True, indent=2)
        text += "\n"
    else:
        lines = [f"# {k}={config[k]}" for k in sorted(config)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Reject an --out path that cannot be written; main calls this before
    the command runs, so a bad path costs no computation."""
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(os.path.abspath(path))
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise ValueError(f"--out {path!r} is not a writable file path")


def _ensemble(args) -> EnsembleParams:
    return EnsembleParams(dl=args.dl, dr=args.dr, dg=args.dg, L=args.L, w=args.w)


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--seed", type=int, default=0, help="master seed (u64)")


def _add_ensemble(sp) -> None:
    sp.add_argument("--dl", type=int, required=True)
    sp.add_argument("--dr", type=int, required=True)
    sp.add_argument("--dg", type=int, required=True)
    sp.add_argument("-L", "--half-width", dest="L", type=int, required=True)
    sp.add_argument("-w", "--window", dest="w", type=int, required=True)


def _add_channel(sp, kinds=("cd", "bd")) -> None:
    sp.add_argument("--channel", choices=kinds, required=True)
    sp.add_argument("-m", "--symbol-bits", dest="m", type=int, required=True)


def _cmd_capacity(args) -> int:
    option, value = ("--dim", args.dim) if args.channel == "w" else ("--eps", args.eps)
    if value is None:
        raise ValueError(f"channel {args.channel!r} needs {option}")
    family = ChannelFamily(args.channel, args.m, value)
    cap = capacity(dimension_distribution(family))
    config = {"channel": args.channel, "m": args.m, "parameter": family.parameter}
    rows = [{"m": args.m, "family": args.channel,
             "parameter": float(family.parameter), "capacity": cap}]
    _emit(args, "capacity", config, ["m", "family", "parameter", "capacity"], rows)
    return EXIT_OK


def _cmd_rate(args) -> int:
    params = _ensemble(args)
    config = asdict(params)
    rows = [{
        **config,
        "rate": design_rate(params),
        "rate_exact": str(design_rate_exact(params)),
    }]
    _emit(args, "rate", config,
          ["dl", "dr", "dg", "L", "w", "rate", "rate_exact"], rows)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    params = _ensemble(args)
    eps_star = threshold(params, args.channel, args.m, bisect_tol=args.bisect_tol)
    config = {**asdict(params), "channel": args.channel, "m": args.m,
              "bisect_tol": args.bisect_tol, "tol": TOL, "max_iter": MAX_ITER}
    rows = [{"m": args.m, "family": args.channel, "L": params.L, "w": params.w,
             "epsilon_star": eps_star, "bisect_tol": args.bisect_tol}]
    _emit(args, "threshold", config,
          ["m", "family", "L", "w", "epsilon_star", "bisect_tol"], rows)
    return EXIT_OK


def _cmd_exit_curve(args) -> int:
    params = _ensemble(args)
    # Comparisons with NaN are false, so NaN is rejected too.
    if not 0.0 < args.chi_min <= args.chi_max <= 1.0:
        raise ValueError("need 0 < --chi-min <= --chi-max <= 1")
    # Targets closer than the anchor tolerance can be met by the same state.
    real("--chi-step", args.chi_step, _ANCHOR_TOL, sys.float_info.max)
    # The stop sits just below chi_min, so chi_min reached with rounding error
    # stays on the grid but no point falls below it (or to a drifted zero).
    # Its length is counted as np.arange counts it, before it is allocated.
    n_points = math.ceil((args.chi_max - args.chi_min) / args.chi_step + 1e-6)
    if n_points > MAX_CURVE_POINTS:
        raise ValueError(
            f"the chi grid has {n_points} points, more than {MAX_CURVE_POINTS}; "
            "raise --chi-step or narrow --chi-min..--chi-max"
        )
    chis = np.arange(args.chi_max, args.chi_min - 1e-6 * args.chi_step, -args.chi_step)
    points = ebp_trace(params, args.channel, args.m, chis, alternative=args.h_alt)
    config = {**asdict(params), "channel": args.channel, "m": args.m,
              "chi_max": args.chi_max, "chi_min": args.chi_min,
              "chi_step": args.chi_step, "h_alt": args.h_alt}
    rows = [{"chi": pt.chi, "epsilon": pt.epsilon, "h": pt.h,
             "residual": pt.residual, "iterations": pt.rounds} for pt in points]
    _emit(args, "exit-curve", config,
          ["chi", "epsilon", "h", "residual", "iterations"], rows)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _ensemble(args)
    grid = [float(x) for x in args.eps_grid.split(",") if x]
    if not grid:
        raise ValueError("--eps-grid must list at least one parameter")
    rows_out = run_experiment(
        params, args.section_size, args.channel, args.m,
        grid, args.trials, args.seed,
    )
    config = {**asdict(params), "channel": args.channel, "m": args.m,
              "M": args.section_size, "trials": args.trials, "eps_grid": args.eps_grid}
    rows = [{"epsilon": r.parameter, "trials": r.trials, "M": r.M,
             "ber_mean": r.ber_mean, "ber_std": r.ber_std, "seed": args.seed}
            for r in rows_out]
    _emit(args, "simulate", config,
          ["epsilon", "trials", "M", "ber_mean", "ber_std", "seed"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmn",
        description="Coupled MacKay-Neal codes over affine-subspace channels: "
                    "thresholds, curves, capacity, rate, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"scmn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("capacity", help="normalized channel capacity")
    _add_channel(sp, kinds=("w", "cd", "bd"))
    sp.add_argument("--eps", type=float, help="parameter for cd/bd")
    sp.add_argument("--dim", type=int, help="noise dimension for channel 'w'")
    _add_common(sp)
    sp.set_defaults(func=_cmd_capacity)

    sp = sub.add_parser("rate", help="ensemble design rate")
    _add_ensemble(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("threshold", help="DE threshold by bisection")
    _add_ensemble(sp)
    _add_channel(sp)
    sp.add_argument("--bisect-tol", type=float, default=DEFAULT_BISECT_TOL)
    _add_common(sp)
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("exit-curve", help="EXIT-like fixed-point curve")
    _add_ensemble(sp)
    _add_channel(sp)
    sp.add_argument("--chi-max", type=float, default=0.95)
    sp.add_argument("--chi-min", type=float, default=0.02)
    sp.add_argument("--chi-step", type=float, default=0.005)
    sp.add_argument("--h-alt", action="store_true",
                    help="plot f(z)*z instead of f(z)*z**dg")
    _add_common(sp)
    sp.set_defaults(func=_cmd_exit_curve)

    sp = sub.add_parser("simulate", help="Monte-Carlo decoding trials")
    _add_ensemble(sp)
    _add_channel(sp)
    sp.add_argument("-M", "--section-size", dest="section_size", type=int, required=True)
    sp.add_argument("--eps-grid", required=True, help="comma-separated parameters")
    sp.add_argument("--trials", type=int, default=10)
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= args.seed < 1 << 64:
            raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except ValueError as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except DecodingFaultError as exc:
        print(f"error: internal-fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
