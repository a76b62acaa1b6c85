"""Command-line interface.

Subcommands: cohomology, rhom, mutate, class, gram, kernel, check, report.
Exit code 0 when all selected checks pass, 1 on any failure, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .expressions import ParseError, parse_divisor, pretty
from .calculus import PreconditionError
from .harness import (
    ConfigError,
    Context,
    HarnessConfig,
    default_config,
    emit_report,
    run_checks,
    split_selection,
)


def _load_config(path: Optional[str]) -> HarnessConfig:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return HarnessConfig.from_text(handle.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="quadstab",
        description="Exact checks for the resolved one-node quadric threefold.",
    )
    parser.add_argument("--config", help="path to a configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="graded cohomology of a line bundle")
    p.add_argument("divisor", help="divisor such as 'H-h-k'")

    p = sub.add_parser("rhom", help="graded Hom between two objects")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("mutate", help="left or right mutation")
    p.add_argument("direction", choices=["L", "R"])
    p.add_argument("first", help="L: the exceptional object; R: the operand")
    p.add_argument("second", help="L: the operand; R: the exceptional object")

    p = sub.add_parser("class", help="K-theory class of an object")
    p.add_argument("expression")

    p = sub.add_parser("gram", help="Euler-pairing gram matrix")
    names = ", ".join(Context.COLLECTIONS)
    p.add_argument("objects", nargs="+", help=f"collection name ({names}) or expressions")

    sub.add_parser("kernel", help="pushforward-kernel lattice and its quotient")

    p = sub.add_parser("check", help="run the named checks")
    p.add_argument("--only", help="comma-separated check names")
    p.add_argument("--json", dest="json_path", help="write a JSON report to this path")

    sub.add_parser("report", help="run all checks and print the text report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        ctx = Context(_load_config(args.config))
        return _dispatch(args, ctx)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, ctx: Context) -> int:
    if args.command in ("check", "report"):
        selection = None
        if args.command == "check" and args.only is not None:
            selection = split_selection(args.only)
        results = run_checks(ctx, selection)
        print(emit_report(results, "text", ctx.config.twist))
        if args.command == "check" and args.json_path:
            import datetime

            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(emit_report(results, "json", ctx.config.twist, timestamp=stamp))
                handle.write("\n")
        return 0 if all(r.status in ("pass", "skipped") for r in results) else 1

    if args.command == "cohomology":
        D = parse_divisor(args.divisor)
        print(ctx.geometry.threefold_cohomology(D))
        return 0
    if args.command == "rhom":
        result = ctx.calc.rhom(ctx.obj(args.source), ctx.obj(args.target))
        print(result)
        return 0
    if args.command == "mutate":
        first = ctx.obj(args.first)
        second = ctx.obj(args.second)
        if args.direction == "L":
            out = ctx.calc.mutate_left(first, second)
        else:
            out = ctx.calc.mutate_right(first, second)
        print(pretty(out))
        return 0
    if args.command == "class":
        obj = ctx.obj(args.expression)
        cls = ctx.calc.class_of(obj)
        coords = ctx.kt.coordinates(cls)
        print(f"chern: {ctx.kt.chern(cls)}")
        print(f"coordinates: [{', '.join(map(str, coords))}]")
        return 0
    if args.command == "gram":
        if len(args.objects) == 1 and args.objects[0] in Context.COLLECTIONS:
            objects = ctx.collection(args.objects[0])
        else:
            objects = [ctx.obj(text) for text in args.objects]
        classes = [ctx.calc.class_of(x) for x in objects]
        for row in ctx.kt.gram_matrix(classes):
            print("[" + ", ".join(map(str, row)) + "]")
        return 0
    if args.command == "kernel":
        quot = ctx.kernel_quotient()
        print(f"kernel {quot.kernel}")
        print(f"source {quot.source}")
        print(f"quotient rank {quot.rank}, torsion {list(quot.torsion) or 'none'}")
        return 0
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
