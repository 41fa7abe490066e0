"""Command-line front end.

Subcommands::

    covrough cov FILE                    neighborhoods of a covering
    covrough analyze FILE [--lambda] [--json]
    covrough reduce FILE                 remove reducible blocks
    covrough check-neighborhoods FILE    is this family a neighborhoods?
    covrough preimages FILE [--limit N]  coverings inducing this family
    covrough verify --n K [--json]       exhaustive law verification

Coverings are read from JSON files ({"universe": [...], "blocks": [[...]]}).
Results go to stdout, errors to stderr.  Exit codes: 0 success, 1 bad input
or failed verification, 2 usage error, 130 for a ``verify`` run stopped by
an interrupt (Ctrl-C), which ends with one stderr line saying how far it
got.  A negative ``--limit`` and a ``--n`` below 1 are usage errors;
``--n`` above 5 is refused with exit code 1.  ``verify --n 5`` runs for
minutes (see ``verify --help``) and writes a progress line to stderr about
every 10 s; shorter runs write none.  When the reader of stdout closes it
early (``covrough preimages FILE | head -1``), the command stops without a
message and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import CoveringError
from .neighborhoods import cov, is_cov_fixed_point, quick_reject_neighborhoods
from .reduction import reduct
from .setsys import Covering, covering_to_json, read_covering


def _cmd_cov(args: argparse.Namespace) -> int:
    print(covering_to_json(cov(args.covering)))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .report import analyze, render_report, report_to_json

    report = analyze(args.covering, include_lambda=args.lambda_matrix)
    if args.json:
        print(report_to_json(report))
        return 0
    try:
        print(render_report(report), end="")
    except UnicodeEncodeError as exc:
        # Labels are the only text of the report outside ASCII.
        bad = exc.object[exc.start]
        label = next((x for x in args.covering.universe.names if bad in x), bad)
        raise CoveringError(
            f"cannot write label {label!a} in the output encoding "
            f"{exc.encoding}; use --json, which writes ASCII only"
        ) from None
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    print(covering_to_json(reduct(args.covering)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    c = args.covering
    reason = quick_reject_neighborhoods(c)
    if reason is not None:
        print(f"is NOT a neighborhoods: {reason.value}")
    elif is_cov_fixed_point(c):
        print("IS a neighborhoods: Cov(D) = D")
    else:
        print("is NOT a neighborhoods: Cov(D) differs from D")
    return 0


def _cmd_preimages(args: argparse.Namespace) -> int:
    from .oracle import preimages

    for p in preimages(args.covering, limit=args.limit):
        print(covering_to_json(p))
    return 0


def _render_summary(summary) -> str:
    lines = [
        f"universe size:      {summary.universe_size}",
        f"coverings checked:  {summary.total_coverings}",
        f"partitions:         {summary.partitions}",
        f"irreducible:        {summary.irreducible}",
        f"invariable:         {summary.invariable}",
        f"Cov fixed points:   {summary.fixed_points}",
        f"violations:         {len(summary.violations)}",
    ]
    for covering, law in summary.violations:
        lines.append(f"  {law}: {covering}")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    # The oracle logs its progress on long runs; show it, one line per
    # record, on this command's stderr only.  Imported here, like the
    # oracle itself, so that the other commands start without them.
    import logging

    from .oracle import summary_to_dict, verify_laws

    log = logging.getLogger("covrough.oracle")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        summary = verify_laws(args.n)
    except KeyboardInterrupt:
        # verify_laws has logged how far it got: that line is all
        return 130
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    if args.json:
        print(json.dumps(summary_to_dict(summary)))
    else:
        print(_render_summary(summary))
    return 0 if not summary.violations else 1


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}; got {value}")
        return value

    return parse


def _add_file_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="covering file (JSON)")


@functools.cache  # built on first use, then shared: parse_args never changes it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covrough",
        description="Analyze coverings of finite universes: neighborhoods, "
        "repeat degrees, core blocks, reduction, invariability.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("cov", help="print the neighborhoods of a covering")
    _add_file_argument(sub)
    sub.set_defaults(func=_cmd_cov)

    sub = subs.add_parser("analyze", help="full per-element and per-block report")
    _add_file_argument(sub)
    sub.add_argument(
        "--lambda",
        dest="lambda_matrix",
        action="store_true",
        help="include the pair repeat-degree matrix",
    )
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(func=_cmd_analyze)

    sub = subs.add_parser("reduce", help="remove reducible blocks")
    _add_file_argument(sub)
    sub.set_defaults(func=_cmd_reduce)

    sub = subs.add_parser(
        "check-neighborhoods",
        help="decide whether the family is the neighborhoods of some covering",
    )
    _add_file_argument(sub)
    sub.set_defaults(func=_cmd_check)

    sub = subs.add_parser(
        "preimages", help="enumerate the coverings whose neighborhoods equal this family"
    )
    _add_file_argument(sub)
    sub.add_argument(
        "--limit", type=_at_least(0), default=None, help="stop after N results"
    )
    sub.set_defaults(func=_cmd_preimages)

    sub = subs.add_parser(
        "verify", help="exhaustively verify all structural laws for universe size N"
    )
    sub.add_argument(
        "--n",
        type=_at_least(1),
        required=True,
        help="universe size, 1..5 (5 takes about 16 minutes)",
    )
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch one command line; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code) if exc.code else 0
    try:
        if "file" in args:
            args.covering = _read_input(args.file)
        return args.func(args)
    except (CoveringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read_input(path: str) -> Covering:
    """Read the covering file, turning the ways it can fail to be read or
    parsed into ``CoveringError``s with one-line messages."""
    try:
        return read_covering(path)
    except FileNotFoundError as exc:
        raise CoveringError(f"file not found: {exc.filename}") from None
    except OSError as exc:
        raise CoveringError(f"cannot read {exc.filename}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CoveringError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise CoveringError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise CoveringError("JSON input is nested too deeply") from None


def main() -> None:
    # A reader that stops early, such as ``head``, closes stdout: end
    # quietly, as the note on SIGPIPE in the ``signal`` documentation
    # recommends, and point stdout at devnull so that the flush at exit
    # cannot fail again.
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
