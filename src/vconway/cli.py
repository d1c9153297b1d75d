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

Exit codes: 0 success, 1 verification failure or exhausted search, 2 input
error: a diagram file that cannot be read, parsed or validated, or that has
double points where verify, skein and orient need none; or a count above its
ceiling (the MAX_* constants), refused before any work.
`--format json` prints a stable machine-readable form.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from typing import Callable

from .diagram import (
    Diagram,
    format_diagram,
    mirror,
    parse_diagram,
    reverse,
    validate,
)
from .invariants import MAX_DOUBLE_POINTS, c1, mutated_blocks, report, skein_terms
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

# most links `search --links` may sample: 100,000 links of 0 crossings, none
# a hit, took 26 s (2-core shared machine, Python 3.11.7)
MAX_LINK_SEARCH_BUDGET = 100000

# most `verify --trials`.  Whole process, 2-core shared machine, Python
# 3.11.7: the default campaign took 0.9-1.0 s at 500 trials and 20 s at
# 10,000; the ceiling does not weigh code size, and `verify --random
# 24,14,0 --seed 0` took 26 s for 60 trials, about 75 minutes at 10,000
MAX_TRIALS = 10000

# most `verify --moves` per walk: 100 trials of 1,000 moves took 1.1 s (whole
# process, 2-core shared machine, Python 3.11.7)
MAX_MOVES = 1000

# most resolved diagrams `verify --random K,C,M` with M > 0 may check, trials
# times 2^M, at up to 4 components: `24,3,6 --trials 128` (8,192) took 21 s,
# and the default 500 trials may run up to M = 4.
# A resolution costs more with more components, so at C components the most
# is MAX_RESOLUTIONS // ceil(C^2 / 16).  One trial of `24,C,6` (64
# resolutions) took 0.2 s at C = 1-5, 0.9 s at 8, 1.3 s at 10, 2.5 s at 12
# and 2.6-3.7 s at 14 (means over 3-10 trials at seed 0); at 20-24 a trial
# with no empty component took up to 10 s, one with one about 0.01 s
MAX_RESOLUTIONS = 8192

# most crossings of a diagram sampled by `verify --random` or `search --links`:
# one verify trial of `K,1,0` took 0.06 s at 24 crossings and 1.4-1.5 s at 40
# (means over 5 trials at seed 0)
MAX_SAMPLED_CROSSINGS = 24

# most crossings of a diagram file, each double point counted (a resolution
# makes it classical), and most components of a file and of what `random`
# and `verify --random` draw.  One Z of random_diagram(GeneratorConfig(K, C,
# 0, seed=S)) took 0.12-0.15 s at K = 64 (C, S = 1, 1000 and 2, 1001),
# 1.3-1.6 s at K = 96 (1, 1000; 2, 1001; 3, 1002) and 4.5 s at K = 96 (1,
# 1003), on a 2-core shared machine with Python 3.11.7
MAX_CLASSICAL_CROSSINGS = 64

LINK_NOTE = ("note: c1 is printed for links too, but its order-one property "
             "is specific to knots")


class InputError(Exception):
    pass


def _load(path: str, *, classical: bool = False) -> Diagram:
    """Every rule of a diagram file; `classical` also refuses double points."""
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
    _check_max(len(d.double_ids()), "double points", MAX_DOUBLE_POINTS)
    _check_max(len(d.crossings), "crossings", MAX_CLASSICAL_CROSSINGS)
    _check_max(len(d.components), "components", MAX_CLASSICAL_CROSSINGS)
    if classical and d.has_doubles():
        raise InputError(f"{path} has double points; resolve them first")
    return d


def _check_max(count: int, what: str, limit: int) -> None:
    if count > limit:
        raise InputError(f"{count} {what} exceed the supported maximum of {limit}")


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


def _emit(fmt: str, payload: Callable[[], object], text: Callable[[], str]) -> None:
    """Print `payload()` as JSON or `text()` as it stands, whichever `fmt`
    names; the other is never built."""
    print(json.dumps(payload(), indent=2) if fmt == "json" else text())


def _print_checks(results: list[CheckResult], fmt: str) -> int:
    # with no check at all nothing was verified, which is no pass
    ok = bool(results) and all(r.passed for r in results if not r.informational)
    _emit(fmt, lambda: {
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
    }, lambda: "\n".join([line for r in results
                          for line in (r.line(), *(f"    counterexample: {e}" for e in r.examples))]
                         + ([] if results else ["no check ran a trial"])
                         + ["result: " + ("pass" if ok else "FAIL")]))
    return 0 if ok else 1


def _cmd_compute(args) -> int:
    rep = report(_load(args.file))
    notes = [LINK_NOTE] if rep.double_points == 0 and rep.components > 1 else []
    _emit(args.format, lambda: rep.to_json_dict() | ({"notes": notes} if notes else {}),
          lambda: "\n".join([rep.to_text(), *notes]))
    return 0


def _cmd_verify(args) -> int:
    trials = 500 if args.trials is None else args.trials
    _check_max(trials, "trials", MAX_TRIALS)
    moves = DEFAULT_MOVES if args.moves is None else args.moves
    _check_max(moves, "moves per walk", MAX_MOVES)
    with mutated_blocks() if args.mutate else contextlib.nullcontext():
        if args.file is not None:
            if args.random is not None:
                raise InputError("--random does not apply to a diagram file, "
                                 "which is checked itself")
            if args.trials is not None:
                raise InputError("--trials does not apply to a diagram file, "
                                 "which is checked along one walk")
            d = _load(args.file, classical=True)
            if not d.components:
                raise InputError(f"{args.file} has no component to check")
            results = tally_diagram_checks([(d, args.seed)], moves)
        elif args.random is not None:
            bad = f"bad --random spec {args.random!r}: expected crossings,components,doubles"
            try:
                k, c, m = (int(p) for p in args.random.split(","))
            except ValueError as exc:
                raise InputError(bad) from exc
            try:
                GeneratorConfig(k, c, m)  # rejects negative counts and no component
            except ValueError as exc:
                raise InputError(f"{bad}; {exc}") from exc
            _check_max(m, "double points", MAX_DOUBLE_POINTS)
            _check_max(k, "crossings for --random", MAX_SAMPLED_CROSSINGS)
            _check_max(c, "components for --random", MAX_CLASSICAL_CROSSINGS)
            if m == 0:
                rng = random.Random(args.seed)
                # each case draws its diagram seed, then its walk seed
                cases = ((random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30))),
                          rng.randrange(1 << 30)) for _ in range(trials))
                results = tally_diagram_checks(cases, moves)
            elif args.moves is not None:
                raise InputError("--moves does not apply to --random with double points, "
                                 "which runs no move walk")
            else:
                _check_max(trials << m, f"resolutions (trials x 2^M) for C = {c}",
                           MAX_RESOLUTIONS // ((c * c + 15) // 16))
                results = check_singular_orders(trials, args.seed, classical=k,
                                                components=c, doubles=m)
        else:
            results = run_campaign(trials, moves, args.seed)
    return _print_checks(results, args.format)


def _cmd_skein(args) -> int:
    d = _load(args.file, classical=True)
    cid = args.crossing
    rec = d.crossings.get(cid)
    if rec is None or rec.kind != "x":
        raise InputError(f"no classical crossing {cid} in {args.file}")
    zp, zm, z0, residual = skein_terms(d, cid)
    _emit(args.format, lambda: {
        "crossing": cid,
        "z_positive": zp.render(),
        "z_negative": zm.render(),
        "z_smoothed": z0.render(),
        "residual": residual.render(),
        "passed": residual.is_zero(),
    }, lambda: f"Z(D+)    {zp.render()}\nZ(D-)    {zm.render()}\n"
               f"Z(D0)    {z0.render()}\nresidual {residual.render()}")
    return 0 if residual.is_zero() else 1


def _cmd_orient(args) -> int:
    d = _load(args.file, classical=True)
    rows = [
        ("original", d),
        ("reversed", reverse(d)),
        ("mirrored", mirror(d)),
        ("mirrored+reversed", mirror(reverse(d))),
    ]
    values = [(label, c1(v).render()) for label, v in rows]
    width = max(len(label) for label, _ in values)
    _emit(args.format, lambda: {"c1": dict(values)},
          lambda: "\n".join(f"{label:<{width}}  {val}" for label, val in values))
    return 0


def _cmd_search(args) -> int:
    k, budget = args.max_crossings, args.budget
    if args.links:
        _check_max(k, "crossings for --links", MAX_SAMPLED_CROSSINGS)
        budget = LINK_SEARCH_BUDGET if budget is None else budget
        _check_max(budget, "links for --budget", MAX_LINK_SEARCH_BUDGET)
        hit = find_c1_order_defect_link(k, trials=budget)
        if hit is not None:
            d, value, trial = hit
            hit = d, value, report(reverse(d)).c1, trial + 1
        miss, noun = "no singular link with nonzero twice-extended c1 found", "links"
    else:
        hit = find_noninvertible_knot(k, budget=budget)
        miss, noun = "no orientation-sensitive knot found", "codes"
    if hit is None:
        bound = "no budget" if budget is None else f"budget {budget}"
        _emit(args.format, lambda: {"found": False},
              lambda: f"{miss} (max crossings {k}, {bound})")
        return 1
    d, a, b, examined = hit
    _emit(args.format, lambda: {
        "found": True,
        "examined": examined,
        "code": format_diagram(d),
        "c1": a.render(),
        "c1_reversed": b.render(),
    }, lambda: f"found after {examined} {noun}:\n{format_diagram(d)}\n"
               f"c1           {a.render()}\nc1 reversed  {b.render()}")
    return 0


def _cmd_random(args) -> int:
    try:
        cfg = GeneratorConfig(args.crossings, args.components, args.doubles,
                              seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    # the same ceilings as a diagram file, so `random --emit` output fits `compute`
    _check_max(args.crossings + args.doubles, "crossings and double points",
               MAX_CLASSICAL_CROSSINGS)
    _check_max(args.doubles, "double points", MAX_DOUBLE_POINTS)
    _check_max(args.components, "components", MAX_CLASSICAL_CROSSINGS)
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
                        f"K at most {MAX_SAMPLED_CROSSINGS}, C at most {MAX_CLASSICAL_CROSSINGS}, "
                        f"M at most {MAX_DOUBLE_POINTS}, and for M > 0 trials x 2^M at most "
                        f"{MAX_RESOLUTIONS} // ceil(C^2 / 16); not accepted with a diagram file")
    p.add_argument("--trials", type=_positive_int, default=None,
                   help=f"default 500, at most {MAX_TRIALS}; not accepted with a diagram file, "
                        "which is checked along one walk")
    p.add_argument("--moves", type=_positive_int, default=None,
                   help=f"steps of each move walk (default {DEFAULT_MOVES}, at most {MAX_MOVES}); "
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
                   help="stop after examining this many codes (default: all) or sampled "
                        f"links (default {LINK_SEARCH_BUDGET}, at most {MAX_LINK_SEARCH_BUDGET})")
    p.add_argument("--links", action="store_true",
                   help="sample 2-component links with 2 double points for a "
                        "nonzero twice-extended c1 instead of searching knots")
    add_format(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("random", help="generate a reproducible random diagram")
    p.add_argument("--crossings", type=int, required=True,
                   help=f"classical crossings; at most {MAX_CLASSICAL_CROSSINGS} "
                        "together with --doubles")
    p.add_argument("--components", type=int, required=True,
                   help=f"at most {MAX_CLASSICAL_CROSSINGS}")
    p.add_argument("--doubles", type=int, default=0,
                   help=f"double points (default 0, at most {MAX_DOUBLE_POINTS})")
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
