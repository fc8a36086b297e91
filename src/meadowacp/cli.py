"""Command-line interface.

Subcommands: normalize, equiv, lts, axioms.  Every equivalence query is
double-checked against the bisimulation oracle; a disagreement between
the normalizer and the oracle exits with a distinct code (2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .axioms import (
    OracleDisagreement,
    _check_eq_instance,
    check_acp_axioms,
    check_derived,
    check_enriched_axioms,
)
from .lts import build_lts, ordered_transitions, to_dot
from .meadow import MeadowError, MeadowKind, check_meadow_axioms
from .normalize import GuardChainMismatch, normalize
from .speclang import SpecError, parse_spec, parse_term
from .terms import ProcessError, SpecContext


def _load_spec(path: str) -> SpecContext:
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read(), filename=path)


def cmd_normalize(args) -> int:
    ctx = _load_spec(args.spec)
    term = parse_term(args.term, ctx)
    nf = normalize(term, ctx, debug_guard_chain=args.debug_guard_chain)
    if args.json:
        print(json.dumps({"term": args.term, "normal_form": str(nf)}, sort_keys=True))
    else:
        print(str(nf))
    return 0


def cmd_equiv(args) -> int:
    ctx = _load_spec(args.spec)
    t1 = parse_term(args.term1, ctx)
    t2 = parse_term(args.term2, ctx)
    # a disagreement of the two routes raises OracleDisagreement: exit 2
    equivalent, nf1, nf2 = _check_eq_instance(t1, t2, ctx)
    verdict = "equivalent" if equivalent else "not equivalent"
    if args.json:
        print(
            json.dumps(
                {
                    "verdict": verdict,
                    "normal_form_1": str(nf1),
                    "normal_form_2": str(nf2),
                },
                sort_keys=True,
            )
        )
    else:
        # rendered whole before printing, so a failed rendering prints no verdict
        print(f"{verdict}\n  {args.term1}  ~>  {nf1}\n  {args.term2}  ~>  {nf2}")
    return 0 if equivalent else 1


def cmd_lts(args) -> int:
    ctx = _load_spec(args.spec)
    term = parse_term(args.term, ctx)
    lts = build_lts(term, ctx)
    if args.dot:
        print(to_dot(lts))
    elif args.json:
        print(
            json.dumps(
                {
                    "states": lts.num_states,
                    "initial": lts.initial,
                    "done": lts.done,
                    "transitions": sorted(
                        [p, str(a), q] for p, a, q in lts.transitions
                    ),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"states: {lts.num_states} (done: {lts.done})")
        for p, a, q in ordered_transitions(lts):
            print(f"  {p} --{a}--> {q}")
    return 0


def _print_report(report) -> None:
    header = f"[{report.suite}] meadow={report.meadow} mode={report.mode}"
    print(header)
    for r in report.axioms:
        line = f"  {r.status.upper():4s} {r.id}  {r.name}  ({r.checked} checked)"
        print(line)
        if r.counterexample:
            for k, v in sorted(r.counterexample.items()):
                print(f"        {k}: {v}")
    for key in ("separation", "cancellation", "general_inverse"):
        value = getattr(report, key)
        if value is not None:
            print(f"  {value.upper():4s} {key}")


def cmd_axioms(args) -> int:
    ctx = _load_spec(args.spec) if args.spec else None
    meadow = ctx.meadow if args.spec else MeadowKind.from_name(args.meadow)
    mode = "exhaustive" if meadow.is_finite else "random"
    reports = [check_meadow_axioms(meadow, mode, args.samples, args.seed)]
    if args.spec:
        for check in (check_acp_axioms, check_enriched_axioms, check_derived):
            reports.append(check(ctx, args.samples, args.seed))

    failed = any(not r.passed(strict_separation=args.strict_separation) for r in reports)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            _print_report(r)
        print("RESULT: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args keeps
    no state between calls, each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="meadowacp",
        description="Normalization, equivalence checking and axiom "
        "verification for data-enriched process terms over meadows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical normal form of a term")
    p.add_argument("--spec", required=True, help="path to an .acpm specification")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")
    p.add_argument("--debug-guard-chain", action="store_true",
                   help="cross-check data synchronization via the guard-chain route")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equiv", help="decide equivalence of two terms")
    p.add_argument("--spec", required=True)
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("lts", help="build the labelled transition system of a term")
    p.add_argument("--spec", required=True)
    p.add_argument("term")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("axioms", help="run the axiom verification suites")
    p.add_argument("--spec", help="run meadow + process + enrichment + derived suites")
    p.add_argument("--meadow", help="run only the meadow suite: q0, fP or trivial")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--strict-separation", action="store_true",
                   help="treat a failing separation property as a suite failure")
    p.set_defaults(func=cmd_axioms)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "axioms" and not (args.spec or args.meadow):
        parser.error("axioms requires --spec or --meadow")
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be >= 1")
    try:
        return args.func(args)
    except (SpecError, MeadowError, ProcessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OracleDisagreement, GuardChainMismatch) as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nested too deeply for the interpreter's stack", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
