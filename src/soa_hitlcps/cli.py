"""Command line front end.

Exit codes: 0 on success, 1 for domain problems (parse or consistency
failures, unmet scenario expectations), 2 for usage problems such as missing
or unreadable files (those a scenario names included) or malformed
arguments.

Each handler imports the layers it runs, so that a subcommand loads only
its own modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .errors import SoaHitlcpsError
from .kb import decode_document, parse_document, read_document, serialize

LOA_NOTE = (
    "The automation level is advisory: keep a human able to inspect, "
    "override, and take back control of any automated step."
)


class _Usage(Exception):
    pass


def _read(path: str) -> str:
    if path == "-":
        return decode_document(sys.stdin.buffer.read())
    if not Path(path).is_file():
        raise _Usage(f"no such file: {path}")
    return read_document(path)


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text, end="" if text.endswith("\n") else "\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_validate(args) -> int:
    from .reasoner import check_consistency, check_ontoclean, render_report

    kb = parse_document(_read(args.kb))
    report = check_consistency(kb)
    if kb.annotations:
        report.ontoclean_violations.extend(check_ontoclean(kb))
    _emit(args, render_report(report))
    return 0 if report.is_consistent else 1


def _cmd_reason(args) -> int:
    from .reasoner import materialize

    kb = parse_document(_read(args.kb))
    print(serialize(materialize(kb)), end="")
    return 0


def _cmd_query(args) -> int:
    from .query import evaluate, parse_query
    from .reasoner import materialize

    kb = materialize(parse_document(_read(args.kb)))
    table = evaluate(kb, parse_query(_read(args.query)))
    print(table.to_tsv(), end="")
    return 0


def _cmd_metrics(args) -> int:
    from . import metrics

    kb = parse_document(_read(args.kb))
    if args.cq_dir and not Path(args.cq_dir).is_dir():
        raise _Usage(f"no such directory: {args.cq_dir}")
    cq = metrics.load_cq_dir(args.cq_dir) if args.cq_dir else None
    include = True if args.annotations else None
    report = metrics.eval_report(kb, cq_queries=cq, include_ontoclean=include)
    print(report.to_text(), end="")
    return 0


def _cmd_discover(args) -> int:
    from .broker import ServiceBroker, parse_discovery_request
    from .registry import ServiceRegistry

    registry = ServiceRegistry.from_kb(parse_document(_read(args.kb)))
    # os.path.isfile is False for any name the OS refuses, such as a
    # DISCOVER line longer than a file name may be
    spec = _read(args.request) if args.request == "-" or os.path.isfile(args.request) \
        else args.request
    request = parse_discovery_request(spec.strip())
    for ranked in ServiceBroker(registry).discover(request):
        print(f"{ranked.service}\t{ranked.provider}\t{ranked.score}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import load_scenario, run_scenario

    path = Path(args.scenario)
    if not path.is_file():
        raise _Usage(f"no such file: {args.scenario}")
    scenario = load_scenario(read_document(path), path.parent)
    result = run_scenario(scenario)
    if args.trace:
        print(result.trace.to_tsv(), end="")
    for check in result.checks:
        if check.ok:
            _emit(args, check.line())
        else:
            print(check.line(), file=sys.stderr)
    return 0 if result.all_ok else 1


def _cmd_loa(args) -> int:
    from . import allocation

    tasks = allocation.parse_task_file(_read(args.tasks))
    weights = _parse_category_weights(args.category_weights) if args.category_weights else None
    print(f"loa {allocation.loa(tasks)}")
    if weights is not None:
        print(f"loa-weighted {allocation.loa_weighted(tasks, weights)}")
    for category in sorted({t.category for t in tasks}, key=lambda c: c.value):
        stance = allocation.recommend_allocation(category)
        _emit(args, f"default {category.value} {stance.value}")
    return 0


def _cmd_export_base(args) -> int:
    from .datafiles import base_kb_text

    text = base_kb_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _emit(args, f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _parse_category_weights(spec: str):
    from .allocation import CategoryWeights

    parts = spec.split(",")
    if len(parts) != 4:
        raise _Usage("expected four comma-separated weights: skill,rule,knowledge,expertise")
    try:
        values = [Decimal(p) for p in parts]
    except InvalidOperation:
        raise _Usage(f"weights must be decimals: {spec}")
    return CategoryWeights(*values)


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soa-hitlcps",
        description="Semantic service registry for mixed human/machine service networks.",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output; rely on exit codes")
    # accepted after the subcommand as well; SUPPRESS keeps a pre-subcommand
    # --quiet from being reset to the default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a knowledge base for violations")
    p.add_argument("kb", help="knowledge base file, or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reason", parents=[common], help="print the materialized knowledge base")
    p.add_argument("kb", help="knowledge base file, or - for stdin")
    p.set_defaults(func=_cmd_reason)

    p = sub.add_parser("query", parents=[common], help="run a query and print TSV rows")
    p.add_argument("kb", help="knowledge base file, or - for stdin")
    p.add_argument("query", help="query file, or - for stdin")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("metrics", parents=[common], help="print the evaluation report for a knowledge base")
    p.add_argument("kb", help="knowledge base file, or - for stdin")
    p.add_argument("--cq-dir", help="directory of .q competency question files")
    p.add_argument("--annotations", action="store_true",
                   help="force the metaproperty section using the kb's own META lines")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("discover", parents=[common], help="rank services matching a DISCOVER request")
    p.add_argument("kb", help="knowledge base file, or - for stdin")
    p.add_argument("request", help="request file or literal DISCOVER line")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("simulate", parents=[common], help="run a scenario and check its expectations")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--trace", action="store_true", help="print the TSV event trace")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "loa",
        parents=[common],
        help="compute the automation level of a task split",
        description="Compute the automation level of a task split. " + LOA_NOTE,
    )
    p.add_argument("tasks", help="task file, or - for stdin")
    p.add_argument("--category-weights", metavar="S,R,K,E",
                   help="substitute cognitive-category weights (skill,rule,knowledge,expertise)")
    p.set_defaults(func=_cmd_loa)

    p = sub.add_parser("export-base", parents=[common], help="print or save the bundled base ontology")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_export_base)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_Usage, OSError) as err:  # OSError: a file named inside an input, or --out
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SoaHitlcpsError as err:
        print(f"error: {err.__class__.__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
