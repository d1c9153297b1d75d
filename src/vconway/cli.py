"""Command line front end.

Commands:
  compute <file>                     invariant report for one diagram file
  verify  [<file>] [--random k,c,m]  property campaign, or checks on one input
  skein   <file> --crossing <id>     the three skein terms and their residual
  orient  <file>                     c1 under the four orientation variants
  search  [--max-crossings n] [--budget b] [--links]
                                     first knot code with orientation-sensitive c1;
                                     --links: first sampled singular link whose
                                     twice-extended c1 is nonzero
  random  --crossings k --components c [--doubles m] --seed S [--emit]

Exit codes: 0 success, 1 verification failure or exhausted search,
2 input error.  `--format json` prints a stable machine-readable form.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys

from .diagram import (
    Diagram,
    format_diagram,
    mirror,
    parse_diagram,
    reverse,
    validate,
)
from .invariants import MAX_DOUBLE_POINTS, c1, mutated_blocks, report, skein_terms, vassiliev_eval
# unused here, but perfbench/tracing.py wraps this attribute of the module
from .invariants import z_polynomial  # noqa: F401
from .moves import GeneratorConfig, random_diagram
from .verify import (
    DEFAULT_MOVES,
    CheckResult,
    check_singular_orders,
    find_c1_order_defect_link,
    find_noninvertible_knot,
    run_campaign,
    tally_diagram_checks,
)

# links `vconway search --links` samples unless --budget says otherwise
LINK_SEARCH_BUDGET = 10000

# most crossings of a diagram sampled by `verify --random` or `search --links`:
# one verify trial takes 0.9 s at 24 crossings and 38 s at 40
MAX_SAMPLED_CROSSINGS = 24

LINK_NOTE = ("note: c1 is printed for links too, but its order-one property "
             "is specific to knots")


class InputError(Exception):
    pass


def _load(path: str) -> Diagram:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        d = parse_diagram(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    problems = validate(d)
    if problems:
        raise InputError("; ".join(problems))
    _check_double_points(len(d.double_ids()))
    return d


def _check_double_points(m: int) -> None:
    # the extension to double points sums over 2^m resolutions
    if m > MAX_DOUBLE_POINTS:
        raise InputError(f"{m} double points exceed the supported maximum "
                         f"of {MAX_DOUBLE_POINTS}")


def _check_sampled_crossings(what: str, k: int) -> None:
    if k > MAX_SAMPLED_CROSSINGS:
        raise InputError(f"{what} of at most {MAX_SAMPLED_CROSSINGS} crossings, got {k}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _print_checks(results: list[CheckResult], fmt: str) -> int:
    ok = all(r.passed for r in results if not r.informational)
    if fmt == "json":
        payload = {
            "passed": ok,
            "checks": [
                {
                    "name": r.name,
                    "trials": r.trials,
                    "failures": r.failures,
                    "passed": r.passed,
                    "informational": r.informational,
                    "examples": r.examples,
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
            for e in r.examples:
                print(f"    counterexample: {e}")
        print("result: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_compute(args) -> int:
    d = _load(args.file)
    rep = report(d)
    if args.format == "json":
        out = rep.to_json_dict()
        if rep.double_points == 0 and rep.components > 1:
            out["notes"] = [LINK_NOTE]
        print(json.dumps(out, indent=2))
    else:
        print(rep.to_text())
        if rep.double_points == 0 and rep.components > 1:
            print(LINK_NOTE)
    return 0


def _cmd_verify(args) -> int:
    moves = DEFAULT_MOVES if args.moves is None else args.moves
    with mutated_blocks() if args.mutate else contextlib.nullcontext():
        if args.file is not None:
            if args.random is not None:
                raise InputError("--random does not apply to a diagram file, "
                                 "which is checked itself")
            d = _load(args.file)
            if not d.components:
                raise InputError(f"{args.file} has no component to check")
            if d.has_doubles():
                raise InputError("verification runs on non-singular diagrams; "
                                 "resolve double points first")
            results = tally_diagram_checks([(d, args.seed)], moves)
        elif args.random is not None:
            try:
                k, c, m = (int(p) for p in args.random.split(","))
                GeneratorConfig(k, c, m)  # rejects negative counts
            except ValueError as exc:
                raise InputError(f"bad --random spec {args.random!r}: "
                                 "expected crossings,components,doubles") from exc
            _check_double_points(m)
            _check_sampled_crossings("--random samples diagrams", k)
            if m == 0:
                rng = random.Random(args.seed)
                # each case draws its diagram seed, then its walk seed
                cases = ((random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30))),
                          rng.randrange(1 << 30)) for _ in range(args.trials))
                results = tally_diagram_checks(cases, moves)
            elif args.moves is not None:
                raise InputError("--moves does not apply to --random with double points, "
                                 "which runs no move walk")
            else:
                results = check_singular_orders(args.trials, args.seed, classical=k,
                                                components=c, doubles=m)
        else:
            results = run_campaign(args.trials, moves, args.seed)
    return _print_checks(results, args.format)


def _cmd_skein(args) -> int:
    d = _load(args.file)
    if d.has_doubles():
        raise InputError("skein triples need a non-singular diagram; "
                         "resolve double points first")
    cid = args.crossing
    rec = d.crossings.get(cid)
    if rec is None or rec.kind != "x":
        raise InputError(f"no classical crossing {cid} in {args.file}")
    zp, zm, z0, residual = skein_terms(d, cid)
    if args.format == "json":
        print(json.dumps({
            "crossing": cid,
            "z_positive": zp.render(),
            "z_negative": zm.render(),
            "z_smoothed": z0.render(),
            "residual": residual.render(),
            "passed": residual.is_zero(),
        }, indent=2))
    else:
        print(f"Z(D+)    {zp.render()}")
        print(f"Z(D-)    {zm.render()}")
        print(f"Z(D0)    {z0.render()}")
        print(f"residual {residual.render()}")
    return 0 if residual.is_zero() else 1


def _cmd_orient(args) -> int:
    d = _load(args.file)
    if d.has_doubles():
        raise InputError("orientation table needs a non-singular diagram; "
                         "resolve double points first")
    rows = [
        ("original", d),
        ("reversed", reverse(d)),
        ("mirrored", mirror(d)),
        ("mirrored+reversed", mirror(reverse(d))),
    ]
    values = [(label, c1(v).render()) for label, v in rows]
    if args.format == "json":
        print(json.dumps({"c1": dict(values)}, indent=2))
    else:
        width = max(len(label) for label, _ in values)
        for label, val in values:
            print(f"{label:<{width}}  {val}")
    return 0


def _cmd_search(args) -> int:
    k, budget = args.max_crossings, args.budget
    if args.links:
        _check_sampled_crossings("--links samples links", k)
        budget = LINK_SEARCH_BUDGET if budget is None else budget
        hit = find_c1_order_defect_link(k, trials=budget)
        if hit is not None:
            d, value, trial = hit
            hit = d, value, vassiliev_eval(reverse(d), c1), trial + 1
        miss, noun = "no singular link with nonzero twice-extended c1 found", "links"
    else:
        hit = find_noninvertible_knot(k, budget=budget)
        miss, noun = "no orientation-sensitive knot found", "codes"
    if hit is None:
        if args.format == "json":
            print(json.dumps({"found": False}, indent=2))
        else:
            print(f"{miss} (max crossings {k}, budget {budget})")
        return 1
    d, a, b, examined = hit
    if args.format == "json":
        print(json.dumps({
            "found": True,
            "examined": examined,
            "code": format_diagram(d),
            "c1": a.render(),
            "c1_reversed": b.render(),
        }, indent=2))
    else:
        print(f"found after {examined} {noun}:")
        print(format_diagram(d))
        print(f"c1           {a.render()}")
        print(f"c1 reversed  {b.render()}")
    return 0


def _cmd_random(args) -> int:
    try:
        cfg = GeneratorConfig(args.crossings, args.components, args.doubles,
                              seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    d = random_diagram(cfg)
    if args.emit:
        print(format_diagram(d))
    else:
        print(f"components          {len(d.components)}")
        print(f"classical crossings {d.n_classical()}")
        print(f"double points       {len(d.double_ids())}")
        print(f"writhe              {d.writhe()}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vconway",
        description="Conway-type polynomial invariants of virtual links "
                    "from signed Gauss codes",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="invariant report for a diagram file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="run the property campaign")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", metavar="K,C,M", default=None,
                   help="generate inputs with K crossings, C components, "
                        "M double points instead of the mixed default stream; "
                        f"K at most {MAX_SAMPLED_CROSSINGS}; not accepted with a diagram file")
    p.add_argument("--trials", type=_positive_int, default=500)
    p.add_argument("--moves", type=_positive_int, default=None,
                   help=f"steps of each move walk (default {DEFAULT_MOVES}); "
                        "not accepted with --random K,C,M for M > 0, which runs no walk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutate", action="store_true",
                   help="run every check with a deliberately wrong crossing block; "
                        "the campaign must then fail")
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("skein", help="print one skein triple and its residual")
    p.add_argument("file")
    p.add_argument("--crossing", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_skein)

    p = sub.add_parser("orient", help="c1 under reversal and mirroring")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=_cmd_orient)

    p = sub.add_parser("search",
                       help="exhaustive hunt for an orientation-sensitive c1, "
                            "or with --links a sampled link where c1 is not order one")
    p.add_argument("--max-crossings", type=_nonnegative_int, default=4,
                   help="classical crossings of the enumerated knots or the "
                        f"sampled links (default 4; at most "
                        f"{MAX_SAMPLED_CROSSINGS} with --links)")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="stop after examining this many codes (default: all) "
                        f"or sampled links (default {LINK_SEARCH_BUDGET})")
    p.add_argument("--links", action="store_true",
                   help="sample 2-component links with 2 double points for a "
                        "nonzero twice-extended c1 instead of searching knots")
    add_format(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("random", help="generate a reproducible random diagram")
    p.add_argument("--crossings", type=int, required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--doubles", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--emit", action="store_true",
                   help="print the diagram in the input file format")
    p.set_defaults(fn=_cmd_random)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
