"""Command-line front end.

Verbs: bound, drop, remainder, simulate, sweep, compare.  Exit codes:
0 success, 1 usage or configuration error or infeasible load, 2
comparison failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .errors import ConfigError, InfeasibleError
from .experiments import KEYS, ExperimentSpec, linear_grid, load_config, parse_time, run_experiment

# the INI key each flag overrides; the flag's text is parsed as that key's is
_FLAG_KEYS = {"scheme": ("experiment", "schemes"), "seed": ("experiment", "seeds"),
              "epsilon": ("snc", "epsilon"), "horizon": ("experiment", "horizon")}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, as configuration errors do: 2
    is compare's failed check.  Subparsers are built of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves a parser as it was,
    so every main() call reuses it."""
    parser = _Parser(
        prog="hapticsched",
        description="Uplink grant-scheme analysis: drop walks, leftover service bounds and simulation.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file (defaults apply when omitted)")
    common.add_argument("--out", metavar="PATH", default="-", help="output CSV path, '-' for stdout")
    common.add_argument("--scheme", metavar="LIST", help="comma list of DS,SPS,SRR,FA (default: from config)")
    common.add_argument("--seed", metavar="N[,N...]", help="comma list of simulation seeds")
    common.add_argument("--epsilon", help="outage probability target")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--horizon", metavar="T", help="simulation horizon (accepts ms/s suffix)")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--param", choices=("t_ib", "tti"), help="swept parameter")
    grid.add_argument("--from", dest="sweep_from", metavar="X", help="grid start (accepts ms/s suffix)")
    grid.add_argument("--to", dest="sweep_to", metavar="Y", help="grid end")
    grid.add_argument("--steps", type=int, metavar="K", help="number of grid points (>= 2)")
    grid.add_argument("--values", metavar="a,b,c", help="explicit grid values, overrides --from/--to/--steps")

    sub.add_parser("bound", parents=[common], help="analytic leftover delay bound per scheme")
    sub.add_parser("drop", parents=[common], help="exact one-period drop walk per scheme")
    sub.add_parser("remainder", parents=[common], help="capacity left to background traffic per period")
    sub.add_parser("simulate", parents=[common, sim], help="slot-accurate simulation per scheme and seed")
    sub.add_parser("sweep", parents=[common, grid], help="grid sweep writing drop/remainder/bound rows")
    sub.add_parser(
        "compare", parents=[common, sim, grid],
        help="sweep plus simulation cross-checks (exit 2 on any violated check)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        loaded = load_config(args.config)
        for flag, (section, key) in _FLAG_KEYS.items():
            text = getattr(args, flag, None)  # only simulate and compare take --horizon
            if text is not None:
                parse, _ = KEYS[section][key]
                loaded = replace(loaded, **{key: parse(text, f"--{flag}")})

        sweep_param = None
        sweep_values = None
        if args.mode in ("sweep", "compare"):
            sweep_param = args.param
            if args.values:
                sweep_values = tuple(
                    sorted(parse_time(v, "--values") for v in args.values.split(",") if v.strip())
                )
            elif args.sweep_from and args.sweep_to and args.steps:
                sweep_values = linear_grid(
                    parse_time(args.sweep_from, "--from"), parse_time(args.sweep_to, "--to"), args.steps
                )
            else:
                raise ConfigError("sweep: provide --param with --values or --from/--to/--steps")

        spec = ExperimentSpec(
            mode=args.mode, loaded=loaded, out=args.out, sweep_param=sweep_param, sweep_values=sweep_values
        )
        return run_experiment(spec)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy refuses an array the configuration's sizes imply
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
