"""Argument declarations and handler plumbing more than one command
module needs."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable

Handler = Callable[[argparse.Namespace], int]


def at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type=``: an integer no smaller than ``low``, else a
    one-line usage error (exit 2) before the command runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: ..." for non-numbers
    return parse


def positive_seconds(text: str) -> float:
    """An argparse ``type=``: a finite number of seconds above 0, else a
    one-line usage error (exit 2) before the command runs."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {text}"
        )
    return value


positive_seconds.__name__ = "float"  # argparse's "invalid float value: ..."


def add_out_dir(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--out-dir", default="traces",
        help=f"directory for {what} (default: traces/)",
    )


def add_experiment(
    parser: argparse.ArgumentParser,
    dest: str = "experiment",
    help: str = "experiment id from 'list'",
    out_dir: str | None = None,
) -> None:
    """The experiment (or trace file) positional, ``--quick`` and, when
    ``out_dir`` says what is written there, ``--out-dir``."""
    parser.add_argument(dest, help=help)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller configuration (fewer seeds/iterations)",
    )
    if out_dir is not None:
        add_out_dir(parser, out_dir)


def add_pool(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard cells across (default: 1)",
    )
    parser.add_argument(
        "--max-cells", type=at_least(0), default=None,
        help="stop after N newly executed cells (deterministic interrupt)",
    )


def add_group(subparsers, name: str, help: str) -> argparse._SubParsersAction:
    """A command whose leaves are sub-commands; without one it prints its
    usage to stderr and exits 2."""
    group = subparsers.add_parser(name, help=help)
    group.set_defaults(run=lambda args: group.print_usage(sys.stderr) or 2)
    return group.add_subparsers()


def user_errors(error: str, prefix: str) -> Callable[[Handler], Handler]:
    """A handler raising ``repro.util.errors.<error>`` prints one
    ``<prefix> error: ...`` line to stderr and exits 2."""

    def decorate(handler: Handler) -> Handler:
        @functools.wraps(handler)
        def run(args: argparse.Namespace) -> int:
            from repro.util import errors

            try:
                return handler(args)
            except getattr(errors, error) as exc:
                print(f"{prefix} error: {exc}", file=sys.stderr)
                return 2

        return run

    return decorate
