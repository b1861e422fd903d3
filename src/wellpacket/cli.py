"""Command line entry point.

Subcommands map one-to-one onto the run drivers in runs.py.  Exit codes:
0 success, 1 config error (a bad config value or command-line usage),
2 numerical failure (consistency check or collapse fit), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, load_config, parse_config
from .correlation import CollapseFitError
from .observables import NumericalConsistencyError
from .runs import (run_correlate, run_evolve, run_observables, run_powerlaw,
                   run_scan_flatten, run_timescales)

__all__ = ["main", "build_parser"]

_COMMANDS = {
    "evolve": run_evolve,
    "observables": run_observables,
    "correlate": run_correlate,
    "powerlaw": run_powerlaw,
    "scan-flatten": run_scan_flatten,
    "timescales": run_timescales,
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 1), not argparse's exit 2;
    the subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wellpacket",
        description="Wave packet dynamics in a box: densities, expectation "
                    "values, correlation functions, and power-law well spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("evolve", "write probability densities at listed times"),
        ("observables", "write <x>, dx, <p>, dp over a time schedule"),
        ("correlate", "write |C(t)| series and optional fit / revival scan"),
        ("powerlaw", "write WKB spectrum and time scales for power-law wells"),
        ("scan-flatten", "scan initial widths for the flattening time"),
        ("timescales", "write the closed-form time-scale report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=False, default=None,
                       help="INI config file (defaults used when omitted)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the [output] format")
        p.add_argument("--precision", type=int, default=None,
                       help="override the [output] significant digits")
    return parser


# Built once per process: main() runs many jobs in one process, and
# building the parser costs more than parsing with it.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = parse_config("") if args.config is None else load_config(args.config)
        options = {k: getattr(args, k) for k in ("format", "precision")
                   if getattr(args, k) is not None}
        try:
            cfg = replace(cfg, output=replace(cfg.output, **options))
        except ValueError as e:
            raise ConfigError(f"--{e}") from None
        files = _COMMANDS[args.command](cfg, args.out)
        for path in files:
            print(path)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NumericalConsistencyError, CollapseFitError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
