"""Spans and counts at the module boundaries of vconway, recorded from outside.

The tracer replaces module attributes that callers look up at call time
(for example `vconway.invariants.det`, which `z_polynomial` reads from its
own module globals) with wrappers that record a span per call: its id, its
parent span, the benchmark operation it belongs to, its name, and its start
and end in nanoseconds.  Wrappers record only while `active` is set, which
the harness sets around timed operations, so the correctness checks it runs
between operations leave no spans.  Spans stay in memory and are written
out once, after the run.

Nothing inside the package is changed: tracing inside `det` (pivot kinds,
multiplication and exact-division counts) needs hooks in `vconway.laurent`
and is not done here.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  One name can be reached through several
# modules, because each caller reads the function from its own globals.
WRAPPED = {
    ("invariants", "det"): "laurent.det",
    ("invariants", "normalize_x"): "laurent.normalize_x",
    ("invariants", "expand_conway"): "laurent.expand_conway",
    ("invariants", "z_polynomial"): "invariants.z",
    ("verify", "z_polynomial"): "invariants.z",
    ("cli", "z_polynomial"): "invariants.z",
    ("invariants", "c0_via_tp"): "invariants.c0_via_tp",
    ("verify", "c0_via_tp"): "invariants.c0_via_tp",
    ("invariants", "vassiliev_eval"): "invariants.vassiliev_eval",
    ("verify", "vassiliev_eval"): "invariants.vassiliev_eval",
    ("invariants", "build_P"): "diagram.build_P",
    ("invariants", "build_TP"): "diagram.build_TP",
    ("diagram", "parse_diagram"): "diagram.parse",
    ("cli", "parse_diagram"): "diagram.parse",
    ("diagram", "format_diagram"): "diagram.format",
    ("verify", "format_diagram"): "diagram.format",
    ("cli", "format_diagram"): "diagram.format",
    ("diagram", "validate"): "diagram.validate",
    ("moves", "validate"): "diagram.validate",
    ("cli", "validate"): "diagram.validate",
    ("moves", "random_walk"): "moves.random_walk",
    ("verify", "random_walk"): "moves.random_walk",
    ("moves", "apply"): "moves.apply",
    ("verify", "apply"): "moves.apply",
    ("cli", "main"): "cli.main",
    ("cli", "check_singular_orders"): "verify.check_singular_orders",
}

# The checks the campaign workload reaches through `run_campaign` and
# `vconway verify --random`; each gets a `.s` and a `.trials` metric.
CAMPAIGN_CHECKS = (
    "check_move_invariance",
    "check_kink_factors",
    "check_skein",
    "check_disjoint_union",
    "check_c0_permutation_form",
    "check_c0_orientation",
    "check_c0_symmetry",
    "check_knot_vanishing",
    "check_vassiliev_orders",
    "check_mirror_reverse_conjecture",
    "check_singular_orders",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("laurent.det.calls", "count", "lower"),
    ("laurent.det.s", "s", "lower"),
    ("laurent.det.side_max", "rows", "lower"),
    ("laurent.det.side_mean", "rows", "lower"),
    ("laurent.det.result_terms_max", "terms", "lower"),
    ("laurent.normalize_expand.s", "s", "lower"),
    ("invariants.z.calls", "count", "lower"),
    ("invariants.z.distinct", "count", "lower"),
    ("invariants.z.s", "s", "lower"),
    ("invariants.z.assembly_s", "s", "lower"),
    ("invariants.c0_via_tp.s", "s", "lower"),
    ("invariants.vassiliev_eval.calls", "count", "lower"),
    ("invariants.vassiliev_eval.resolutions", "count", "lower"),
    ("invariants.vassiliev_eval.s", "s", "lower"),
    ("diagram.build_P.s", "s", "lower"),
    ("diagram.build_TP.s", "s", "lower"),
    ("diagram.parse.s", "s", "lower"),
    ("diagram.format.s", "s", "lower"),
    ("diagram.validate.calls", "count", "lower"),
    ("diagram.validate.s", "s", "lower"),
    ("moves.random_walk.calls", "count", "lower"),
    ("moves.random_walk.s", "s", "lower"),
    ("moves.apply.calls", "count", "lower"),
    ("moves.apply.s", "s", "lower"),
    ("moves.site_scan.s", "s", "lower"),
] + [
    (f"verify.{check}.{kind}", unit, better)
    for check in CAMPAIGN_CHECKS
    for kind, unit, better in (("s", "s", "lower"), ("trials", "count", "higher"))
] + [
    ("cli.overhead_s", "s", "lower"),
]


def _trials(result) -> int:
    if isinstance(result, list):
        return sum(r.trials for r in result)
    return result.trials


class Tracer:
    """Records spans and counts around the wrapped functions of one program."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, int, int, str, int, int] | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.det_side_sum = 0
        self.det_side_max = 0
        self.det_terms_max = 0
        self.z_seen: set = set()

    # -- installing ---------------------------------------------------------

    def install(self, program) -> None:
        """Wrap every boundary function of `program`, a namespace of vconway modules."""
        targets = dict(WRAPPED)
        for check in CAMPAIGN_CHECKS:
            targets[("verify", check)] = f"verify.{check}"
        observers = {
            "laurent.det": self._observe_det,
            "invariants.z": self._observe_z,
            "invariants.vassiliev_eval": self._observe_vassiliev,
        }
        for (mod_name, attr), name in targets.items():
            module = getattr(program, mod_name)
            observe = observers.get(name)
            if name.startswith("verify.check_"):
                observe = functools.partial(self._observe_check, name)
            self._wrap(module, attr, name, observe)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, module, attr: str, name: str, observe) -> None:
        fn = getattr(module, attr)
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, tracer.op, name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    # -- counts -------------------------------------------------------------

    def _observe_det(self, args, kwargs, result) -> None:
        side = args[0].n
        self.det_side_sum += side
        self.det_side_max = max(self.det_side_max, side)
        self.det_terms_max = max(self.det_terms_max, result.term_count())

    def _observe_z(self, args, kwargs, result) -> None:
        blocks = kwargs.get("blocks")
        self.z_seen.add((args[0], None if blocks is None else id(blocks)))

    def _observe_vassiliev(self, args, kwargs, result) -> None:
        self.counts["invariants.vassiliev_eval.resolutions"] += 2 ** len(args[0].double_ids())

    def _observe_check(self, name: str, args, kwargs, result) -> None:
        self.counts[f"{name}.trials"] += _trials(result)

    # -- operations ---------------------------------------------------------

    def begin(self, op: int) -> None:
        """Start recording the spans of benchmark operation `op`."""
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False

    # -- results ------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Totals per layer over every recorded span, keyed as in PER_LAYER."""
        spans = [s for s in self.spans if s is not None]
        total = defaultdict(int)
        calls = Counter()
        child = defaultdict(int)  # span id -> time covered by its direct children
        for sid, parent, _op, name, start, end in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(int)
        for sid, _parent, _op, name, start, end in spans:
            self_time[name] += end - start - child[sid]
        # checks reached from cli.main: their time is not CLI overhead
        names = {sid: name for sid, _p, _o, name, _s, _e in spans}
        parents = {sid: parent for sid, parent, _o, _n, _s, _e in spans}
        check_under_cli = 0
        for sid, parent, _op, name, start, end in spans:
            if not name.startswith("verify.check_"):
                continue
            up = parent
            while up >= 0 and names[up] != "cli.main":
                up = parents[up]
            if up >= 0:
                check_under_cli += end - start

        def sec(ns: int) -> float:
            return ns / 1e9

        det_calls = calls["laurent.det"]
        out = {
            "laurent.det.calls": det_calls,
            "laurent.det.s": sec(total["laurent.det"]),
            "laurent.det.side_max": self.det_side_max,
            "laurent.det.side_mean": self.det_side_sum / det_calls if det_calls else 0.0,
            "laurent.det.result_terms_max": self.det_terms_max,
            "laurent.normalize_expand.s": sec(total["laurent.normalize_x"]
                                              + total["laurent.expand_conway"]),
            "invariants.z.calls": calls["invariants.z"],
            "invariants.z.distinct": len(self.z_seen),
            "invariants.z.s": sec(total["invariants.z"]),
            "invariants.z.assembly_s": sec(self_time["invariants.z"]),
            "invariants.c0_via_tp.s": sec(total["invariants.c0_via_tp"]),
            "invariants.vassiliev_eval.calls": calls["invariants.vassiliev_eval"],
            "invariants.vassiliev_eval.resolutions":
                self.counts["invariants.vassiliev_eval.resolutions"],
            "invariants.vassiliev_eval.s": sec(total["invariants.vassiliev_eval"]),
            "diagram.build_P.s": sec(total["diagram.build_P"]),
            "diagram.build_TP.s": sec(total["diagram.build_TP"]),
            "diagram.parse.s": sec(total["diagram.parse"]),
            "diagram.format.s": sec(total["diagram.format"]),
            "diagram.validate.calls": calls["diagram.validate"],
            "diagram.validate.s": sec(total["diagram.validate"]),
            "moves.random_walk.calls": calls["moves.random_walk"],
            "moves.random_walk.s": sec(total["moves.random_walk"]),
            "moves.apply.calls": calls["moves.apply"],
            "moves.apply.s": sec(total["moves.apply"]),
            "moves.site_scan.s": sec(self_time["moves.random_walk"]),
        }
        for check in CAMPAIGN_CHECKS:
            name = f"verify.{check}"
            out[f"{name}.s"] = sec(total[name])
            out[f"{name}.trials"] = self.counts[f"{name}.trials"]
        out["cli.overhead_s"] = sec(total["cli.main"] - check_under_cli)
        return out

    def write_spans(self, path) -> None:
        """Write one JSON array per span: id, parent, op, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")
