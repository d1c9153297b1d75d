"""Property campaigns: the theorem checklist run over random diagrams.

Each property is written once, as a per-diagram predicate.  A check
tallies its predicate over its own reproducible diagram stream, and
`tally_diagram_checks` tallies the per-diagram ones over given inputs;
failures are counted and a few counterexample codes kept for display.
Run inside `invariants.mutated_blocks()`, every check sees a wrong
crossing block (mutation testing): a correct harness must then find
counterexamples.

Also hosts the searches used by the CLI: exhaustive enumeration of
small virtual knot codes for an orientation-sensitive c1, and a
randomized search for a singular link where the twice-extended c1
fails to vanish.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from .diagram import (
    Crossing,
    Diagram,
    Passage,
    disjoint_union,
    format_diagram,
    mirror,
    reverse,
    set_sign,
    smooth,
)
from .invariants import (
    c0,
    c0_via_tp,
    c1,
    kink_factor,
    skein_terms,
    vassiliev_eval,
    order_one_defect,
    z_normalized,
    z_polynomial,
)
from .laurent import eval_x1, expand_conway, substitute_y_inverse
from .moves import (
    GeneratorConfig,
    KINK_TYPES,
    MoveEvent,
    apply,
    random_diagram,
    random_walk,
)

MAX_SHOWN = 3

# Steps of each random move walk, unless a caller asks for another length.
DEFAULT_MOVES = 50

# A predicate checks one diagram and returns (trials, failure texts), or
# None when its check does not apply to that diagram.
Outcome = tuple[int, list[str]] | None


class CheckResult:
    """The running tally of one check: its trials, failures and the first
    MAX_SHOWN failure texts."""

    __slots__ = ("name", "trials", "failures", "examples", "informational")

    def __init__(self, name: str, trials: int, failures: int = 0,
                 examples: list[str] | None = None, informational: bool = False) -> None:
        self.name = name
        self.trials = trials
        self.failures = failures
        self.examples = [] if examples is None else examples
        self.informational = informational

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"CheckResult({args})"

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, text: str) -> None:
        self.failures += 1
        if len(self.examples) < MAX_SHOWN:
            self.examples.append(text)

    def add(self, outcome: Outcome) -> None:
        if outcome is not None:
            self.trials += outcome[0]
            for text in outcome[1]:
                self.record(text)

    def line(self) -> str:
        tag = "info" if self.informational else ("pass" if self.passed else "FAIL")
        return f"[{tag}] {self.name}: {self.trials} trials, {self.failures} failures"


def _code(d: Diagram) -> str:
    return format_diagram(d).replace("\n", " / ")


def _stream(trials: int, seed: int, *, max_crossings: int = 8, max_components: int = 3,
            components: int | None = None):
    """Reproducible mixed-size diagram stream."""
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(0, max_crossings)
        c = components if components is not None else rng.randint(1, max_components)
        yield random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30)))


def _tally(name: str, diagrams: Iterable, predicate, *args,
           informational: bool = False) -> CheckResult:
    """Sum `predicate(d, *args)` over the diagrams into one result."""
    res = CheckResult(name, 0, informational=informational)
    for d in diagrams:
        res.add(predicate(d, *args))
    return res


# ---------------------------------------------------------------------------
# per-diagram predicates; each check_* below states its property


def _move_invariance(d: Diagram, moves: int, walk_seed: int) -> Outcome:
    before = z_normalized(d)
    w = random_walk(d, moves, seed=walk_seed)
    after = z_normalized(w)
    return 1, [] if before == after else [f"{_code(d)} -> {_code(w)}: {before} != {after}"]


def _kink_factors(d: Diagram, rng: random.Random) -> Outcome:
    gaps = [(ci, g) for ci, comp in enumerate(d.components)
            for g in range(max(len(comp), 1))]
    ci, g = rng.choice(gaps)
    base = z_polynomial(d)
    failures = []
    for over_first, sign in KINK_TYPES:
        kinked = apply(d, MoveEvent("R1_add", (ci, g, over_first, sign)))
        want = kink_factor(over_first, sign) * base
        got = z_polynomial(kinked)
        if got != want:
            failures.append(f"{_code(d)} kink ({over_first},{sign:+d}) at {(ci, g)}: "
                            f"{got} != {want}")
    return len(KINK_TYPES), failures


def _skein(d: Diagram) -> Outcome:
    if d.n_classical() == 0:
        return None
    residuals = [(cid, skein_terms(d, cid)[3]) for cid in d.classical_ids()]
    return len(residuals), [f"{_code(d)} at crossing {cid}: residual {r}"
                            for cid, r in residuals if not r.is_zero()]


def _disjoint_union(pair: tuple[Diagram, Diagram]) -> Outcome:
    d1, d2 = pair
    prod = z_polynomial(d1) * z_polynomial(d2)
    same = z_polynomial(disjoint_union(d1, d2)) == prod
    return 1, [] if same else [f"{_code(d1)} | {_code(d2)}"]


def _c0_permutation_form(d: Diagram) -> Outcome:
    if d.n_classical() == 0 or d.has_empty_component():
        return None
    a, b = c0(d), c0_via_tp(d)
    return 1, [] if a == b else [f"{_code(d)}: {a} != {b}"]


def _c0_orientation(d: Diagram) -> Outcome:
    return 1, [] if c0(reverse(d)) == c0(d) else [_code(d)]


def _c0_symmetry(d: Diagram) -> Outcome:
    a = c0(d)
    want, got = substitute_y_inverse(a), (a if len(d.components) % 2 == 0 else -a)
    return 1, [] if want == got else [f"{_code(d)}: {want} vs {got}"]


def _knot_vanishing(d: Diagram) -> Outcome:
    if len(d.components) != 1:
        return None
    v = c0(d)
    return 1, [] if v.is_zero() else [f"{_code(d)}: c0 = {v}"]


def _vassiliev_orders(d: Diagram, rng: random.Random) -> Outcome:
    ids = d.classical_ids()
    trials, failures = len(ids), []
    for cid in ids:
        pos, neg = set_sign(d, cid, 1), set_sign(d, cid, -1)
        if c0(pos) != c0(neg):
            failures.append(f"{_code(d)}: c0 jumps at {cid}")
            continue
        lhs = c1(pos) - c1(neg)
        rhs = c0(smooth(pos, cid))
        if lhs != rhs:
            failures.append(f"{_code(d)}: c1 jump at {cid} is {lhs}, smoothing c0 is {rhs}")
    if len(ids) >= 2 and len(d.components) == 1:
        id1, id2 = rng.sample(ids, 2)
        trials += 1
        defect = order_one_defect(d, id1, id2)
        if not defect.is_zero():
            failures.append(f"{_code(d)}: pair ({id1},{id2}) defect {defect}")
    return trials, failures


def _mirror_reverse(d: Diagram) -> Outcome:
    return 1, [] if c1(mirror(d)) == -c1(reverse(d)) else [_code(d)]


def _vanishing(d: Diagram, v) -> Outcome:
    return 1, [] if v.is_zero() else [f"{_code(d)}: {v}"]


def check_move_invariance(trials: int = 500, moves: int = DEFAULT_MOVES, seed: int = 0, *,
                          max_crossings: int = 8, max_components: int = 3) -> CheckResult:
    """Normalized Z is exactly equal across random move walks."""
    walk_rng = random.Random(seed ^ 0x5EED)
    diagrams = _stream(trials, seed, max_crossings=max_crossings, max_components=max_components)
    return _tally("move invariance", diagrams, lambda d: _move_invariance(
        d, moves, walk_rng.randrange(1 << 30)))


def check_kink_factors(trials: int = 100, seed: int = 0) -> CheckResult:
    """A single kink multiplies raw Z by exactly 1, x, x^-1 or 1 by type."""
    return _tally("kink factors", _stream(trials, seed + 1, max_crossings=6),
                  _kink_factors, random.Random(seed))


def check_skein(trials: int = 200, seed: int = 0) -> CheckResult:
    """Z(D+) - x Z(D-) - (1-x) Z(D0) = 0 at every classical crossing."""
    return _tally("skein relation", _stream(trials, seed, max_crossings=6), _skein)


def check_disjoint_union(pairs: int = 100, seed: int = 0) -> CheckResult:
    left = _stream(pairs, seed, max_crossings=4, max_components=2)
    right = _stream(pairs, seed + 7, max_crossings=4, max_components=2)
    return _tally("disjoint union", zip(left, right), _disjoint_union)


def check_c0_permutation_form(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0 from Z agrees with the companion-permutation determinant."""
    return _tally("c0 permutation form", _stream(trials, seed), _c0_permutation_form)


def check_c0_orientation(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0 does not see orientation reversal."""
    return _tally("c0 orientation invariance", _stream(trials, seed), _c0_orientation)


def check_c0_symmetry(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0(y^-1) = (-1)^components * c0(y)."""
    return _tally("c0 y-inversion symmetry", _stream(trials, seed), _c0_symmetry)


def check_knot_vanishing(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0 = 0 on every one-component code."""
    return _tally("c0 vanishes on knots", _stream(trials, seed, components=1), _knot_vanishing)


def check_vassiliev_orders(trials: int = 200, seed: int = 0) -> CheckResult:
    """c0 is order zero everywhere; on knots c1 has the order-one structure."""
    return _tally("vassiliev orders", _stream(trials, seed, max_crossings=6, components=1),
                  _vassiliev_orders, random.Random(seed + 13))


def check_mirror_reverse_conjecture(trials: int = 200, seed: int = 0) -> CheckResult:
    """Fuzzed conjecture, reported but never failing a campaign:
    c1(mirror(d)) = -c1(reverse(d)) on knot codes.  The general form over
    links is false (the negative virtual Hopf link already breaks it), so
    the fuzz is scoped to one-component codes."""
    return _tally("c1 mirror/reverse conjecture (knots)",
                  _stream(trials, seed, max_crossings=6, components=1),
                  _mirror_reverse, informational=True)


def check_singular_orders(trials: int = 100, seed: int = 0, *, classical: int = 4,
                          components: int = 1, doubles: int = 1) -> list[CheckResult]:
    """Order bounds via the singular extension: the extended c0 vanishes as
    soon as one double point is present, and the extended c1 vanishes on
    singular knots with at least two.  A draw without a double point, or
    with a component that has no crossing (where Z is 0 by definition),
    is skipped, and a check that ran 0 trials is left out."""
    rng = random.Random(seed)
    res0 = CheckResult("extended c0 vanishes", 0)
    res1 = CheckResult("extended c1 vanishes on singular knots", 0)
    for _ in range(trials):
        d = random_diagram(GeneratorConfig(classical, components, doubles,
                                           seed=rng.randrange(1 << 30)))
        if not d.has_doubles() or d.has_empty_component():
            continue
        # one sum of normalized Z; c0 and c1 are linear read-outs of it
        zn = vassiliev_eval(d)
        res0.add(_vanishing(d, eval_x1(zn)))
        if components == 1 and len(d.double_ids()) >= 2:
            res1.add(_vanishing(d, expand_conway(zn).coeff(1)))
    return [res for res in (res0, res1) if res.trials]


def run_campaign(trials: int = 500, moves: int = DEFAULT_MOVES, seed: int = 0) -> list[CheckResult]:
    """The full checklist at sizes scaled off one trial count; a check
    that ran 0 trials is left out."""
    t = trials
    results = [
        check_move_invariance(t, moves, seed),
        check_kink_factors(max(t // 5, 1) if t else 0, seed + 1),
        check_skein(max(t * 2 // 5, 1) if t else 0, seed + 2),
        check_disjoint_union(max(t // 5, 1) if t else 0, seed + 3),
        check_c0_permutation_form(t, seed + 4),
        check_c0_orientation(t, seed + 5),
        check_c0_symmetry(t, seed + 6),
        check_knot_vanishing(t, seed + 7),
        check_vassiliev_orders(max(t * 2 // 5, 1) if t else 0, seed + 8),
        check_mirror_reverse_conjecture(max(t * 2 // 5, 1) if t else 0, seed + 9),
    ]
    return [res for res in results if res.trials]


def tally_diagram_checks(cases: Iterable[tuple[Diagram, int]],
                         moves: int = DEFAULT_MOVES) -> list[CheckResult]:
    """The per-diagram checks summed over (diagram, walk seed) cases, in a
    fixed order; a check that applied to no case is left out.  A diagram
    with a crossing-free component has Z = 0, so only its walk is checked."""
    results: dict[str, CheckResult] = {}
    for d, walk_seed in cases:
        results.setdefault("move invariance", CheckResult("move invariance", 0)).add(
            _move_invariance(d, moves, walk_seed))
        if d.has_empty_component():
            continue
        for name, outcome in (
            ("skein relation", _skein(d)),
            ("c0 permutation form", _c0_permutation_form(d)),
            ("c0 orientation invariance", _c0_orientation(d)),
            ("c0 y-inversion symmetry", _c0_symmetry(d)),
            ("c0 vanishes on knots", _knot_vanishing(d)),
        ):
            results.setdefault(name, CheckResult(name, 0)).add(outcome)
    return [res for res in results.values() if res.trials]


# ---------------------------------------------------------------------------
# searches


def _role_sequences(n: int):
    """All one-component sequences of n crossings, each passed once over and
    once under, ids numbered by first appearance.  Yields tuples of
    (id, role) pairs.

    Each step either opens crossing `nxt` (as O, then as U) or closes one of
    the open crossings in its other role.  Closing the k-th open crossing
    passes open[k+1:] + open[:k] down, so the crossings still open rotate.
    This order fixes which code the search finds first."""

    def rec(seq: tuple, open_: list, nxt: int):
        if len(seq) == 2 * n:
            yield seq
            return
        if nxt <= n:
            for role in ("O", "U"):
                yield from rec(seq + ((nxt, role),), open_ + [(nxt, role)], nxt + 1)
        for k, (cid, role) in enumerate(open_):
            yield from rec(seq + ((cid, "U" if role == "O" else "O"),),
                           open_[k + 1:] + open_[:k], nxt)

    yield from rec((), [], 1)


def _first_appearance_form(seq: tuple) -> tuple:
    names: dict[int, int] = {}
    out = []
    for cid, role in seq:
        if cid not in names:
            names[cid] = len(names) + 1
        out.append((names[cid], role))
    return tuple(out)


def _rotation_minimal(seq: tuple) -> bool:
    """Whether seq, already in first-appearance form, is no greater than the
    first-appearance form of any of its rotations."""
    return all(seq <= _first_appearance_form(seq[r:] + seq[:r]) for r in range(1, len(seq)))


def enumerate_virtual_knot_codes(max_crossings: int):
    """All one-component signed codes with up to the given number of
    classical crossings, one representative per rotation class."""
    yield Diagram(((),), {})
    for n in range(1, max_crossings + 1):
        for seq in _role_sequences(n):
            if not _rotation_minimal(seq):
                continue
            comp = tuple(Passage(cid, role) for cid, role in seq)
            for signs in itertools.product((1, -1), repeat=n):
                table = {cid: Crossing(cid, "x", signs[cid - 1]) for cid in range(1, n + 1)}
                yield Diagram((comp,), table)


def find_noninvertible_knot(max_crossings: int = 4, *, budget: int | None = None):
    """First enumerated knot code with orientation-sensitive c1.

    Returns (diagram, c1_forward, c1_backward, examined) or None when the
    enumeration (or budget) is exhausted."""
    examined = 0
    for d in enumerate_virtual_knot_codes(max_crossings):
        if budget is not None and examined >= budget:
            return None
        examined += 1
        a = c1(d)
        b = c1(reverse(d))
        if a != b:
            return d, a, b, examined
    return None


def find_c1_order_defect_link(max_classical: int = 6, trials: int = 10000,
                              seed: int = 0):
    """Randomized search for a 2-double-point singular link whose twice
    extended c1 is nonzero, demonstrating that c1 is not order one on
    links.  Returns (diagram, value, trial_index) or None."""
    rng = random.Random(seed)
    for t in range(trials):
        k = rng.randint(0, max_classical)
        d = random_diagram(GeneratorConfig(k, 2, 2, seed=rng.randrange(1 << 30)))
        v = expand_conway(vassiliev_eval(d)).coeff(1)
        if not v.is_zero():
            return d, v, t
    return None
