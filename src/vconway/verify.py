"""Property campaigns: the theorem checklist run over random diagrams.

Each property is written once, as a per-diagram predicate.  A check
tallies its predicate over its own reproducible diagram stream, and
`tally_diagram_checks` tallies the per-diagram ones over given inputs;
failures are counted and a few counterexample codes kept for display.
The `blocks` override exists so a deliberately wrong crossing block
can be injected (mutation testing): a correct harness must then find
counterexamples.

Also hosts the searches used by the CLI: exhaustive enumeration of
small virtual knot codes for an orientation-sensitive c1, and a
randomized search for a singular link where the twice-extended c1
fails to vanish.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable

from .diagram import (
    Diagram,
    disjoint_union,
    format_diagram,
    mirror,
    reverse,
    set_sign,
    smooth,
)
from .invariants import (
    NEG_BLOCK,
    POS_BLOCK,
    Blocks,
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
from .laurent import LaurentPoly2, substitute_y_inverse
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


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int = 0
    examples: list[str] = field(default_factory=list)
    informational: bool = False

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


def mutated_blocks() -> Blocks:
    """A deliberately wrong negative block for harness sanity checks."""
    return {1: POS_BLOCK, -1: tuple(tuple(-e for e in row) for row in NEG_BLOCK)}


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


def _move_invariance(d: Diagram, blocks, moves: int, walk_seed: int) -> Outcome:
    before = z_normalized(d, blocks=blocks)
    w = random_walk(d, moves, seed=walk_seed)
    after = z_normalized(w, blocks=blocks)
    return 1, [] if before == after else [f"{_code(d)} -> {_code(w)}: {before} != {after}"]


def _kink_factors(d: Diagram, blocks, rng: random.Random) -> Outcome:
    gaps = [(ci, g) for ci, comp in enumerate(d.components)
            for g in range(max(len(comp), 1))]
    ci, g = rng.choice(gaps)
    base = z_polynomial(d, blocks=blocks)
    failures = []
    for over_first, sign in KINK_TYPES:
        kinked = apply(d, MoveEvent("R1_add", (ci, g, over_first, sign)))
        want = kink_factor(over_first, sign) * base
        got = z_polynomial(kinked, blocks=blocks)
        if got != want:
            failures.append(f"{_code(d)} kink ({over_first},{sign:+d}) at {(ci, g)}: "
                            f"{got} != {want}")
    return len(KINK_TYPES), failures


def _skein(d: Diagram, blocks) -> Outcome:
    if d.n_classical() == 0:
        return None
    residuals = [(cid, skein_terms(d, cid, blocks=blocks)[3]) for cid in d.classical_ids()]
    return len(residuals), [f"{_code(d)} at crossing {cid}: residual {r}"
                            for cid, r in residuals if not r.is_zero()]


def _disjoint_union(pair: tuple[Diagram, Diagram], blocks) -> Outcome:
    d1, d2 = pair
    prod = z_polynomial(d1, blocks=blocks) * z_polynomial(d2, blocks=blocks)
    same = z_polynomial(disjoint_union(d1, d2), blocks=blocks) == prod
    return 1, [] if same else [f"{_code(d1)} | {_code(d2)}"]


def _c0_permutation_form(d: Diagram, blocks) -> Outcome:
    if d.n_classical() == 0 or d.has_empty_component():
        return None
    a, b = c0(d, blocks=blocks), c0_via_tp(d)
    return 1, [] if a == b else [f"{_code(d)}: {a} != {b}"]


def _c0_orientation(d: Diagram, blocks) -> Outcome:
    return 1, [] if c0(reverse(d), blocks=blocks) == c0(d, blocks=blocks) else [_code(d)]


def _c0_symmetry(d: Diagram, blocks) -> Outcome:
    a = c0(d, blocks=blocks)
    want, got = substitute_y_inverse(a), (a if len(d.components) % 2 == 0 else -a)
    return 1, [] if want == got else [f"{_code(d)}: {want} vs {got}"]


def _knot_vanishing(d: Diagram, blocks) -> Outcome:
    if len(d.components) != 1:
        return None
    v = c0(d, blocks=blocks)
    return 1, [] if v.is_zero() else [f"{_code(d)}: c0 = {v}"]


def _vassiliev_orders(d: Diagram, blocks, rng: random.Random) -> Outcome:
    ids = d.classical_ids()
    trials, failures = len(ids), []
    for cid in ids:
        pos, neg = set_sign(d, cid, 1), set_sign(d, cid, -1)
        if c0(pos, blocks=blocks) != c0(neg, blocks=blocks):
            failures.append(f"{_code(d)}: c0 jumps at {cid}")
            continue
        lhs = c1(pos, blocks=blocks) - c1(neg, blocks=blocks)
        rhs = c0(smooth(pos, cid), blocks=blocks)
        if lhs != rhs:
            failures.append(f"{_code(d)}: c1 jump at {cid} is {lhs}, smoothing c0 is {rhs}")
    if len(ids) >= 2 and len(d.components) == 1:
        id1, id2 = rng.sample(ids, 2)
        trials += 1
        defect = order_one_defect(d, id1, id2, blocks=blocks)
        if not defect.is_zero():
            failures.append(f"{_code(d)}: pair ({id1},{id2}) defect {defect}")
    return trials, failures


def _mirror_reverse(d: Diagram) -> Outcome:
    return 1, [] if c1(mirror(d)) == -c1(reverse(d)) else [_code(d)]


def _extended_vanishing(d: Diagram, invariant, min_doubles: int, blocks) -> Outcome:
    if len(d.double_ids()) < min_doubles:
        return None
    v = vassiliev_eval(d, lambda r: invariant(r, blocks=blocks), zero=LaurentPoly2.zero())
    return 1, [] if v.is_zero() else [f"{_code(d)}: {v}"]


def check_move_invariance(trials: int = 500, moves: int = DEFAULT_MOVES, seed: int = 0, *,
                          blocks: Blocks | None = None, max_crossings: int = 8,
                          max_components: int = 3) -> CheckResult:
    """Normalized Z is exactly equal across random move walks."""
    walk_rng = random.Random(seed ^ 0x5EED)
    diagrams = _stream(trials, seed, max_crossings=max_crossings, max_components=max_components)
    return _tally("move invariance", diagrams, lambda d: _move_invariance(
        d, blocks, moves, walk_rng.randrange(1 << 30)))


def check_kink_factors(trials: int = 100, seed: int = 0, *,
                       blocks: Blocks | None = None) -> CheckResult:
    """A single kink multiplies raw Z by exactly 1, x, x^-1 or 1 by type."""
    return _tally("kink factors", _stream(trials, seed + 1, max_crossings=6),
                  _kink_factors, blocks, random.Random(seed))


def check_skein(trials: int = 200, seed: int = 0, *,
                blocks: Blocks | None = None) -> CheckResult:
    """Z(D+) - x Z(D-) - (1-x) Z(D0) = 0 at every classical crossing."""
    return _tally("skein relation", _stream(trials, seed, max_crossings=6), _skein, blocks)


def check_disjoint_union(pairs: int = 100, seed: int = 0, *,
                         blocks: Blocks | None = None) -> CheckResult:
    left = _stream(pairs, seed, max_crossings=4, max_components=2)
    right = _stream(pairs, seed + 7, max_crossings=4, max_components=2)
    return _tally("disjoint union", zip(left, right), _disjoint_union, blocks)


def check_c0_permutation_form(trials: int = 500, seed: int = 0, *,
                              blocks: Blocks | None = None) -> CheckResult:
    """c0 from Z agrees with the companion-permutation determinant."""
    return _tally("c0 permutation form", _stream(trials, seed), _c0_permutation_form, blocks)


def check_c0_orientation(trials: int = 500, seed: int = 0, *,
                         blocks: Blocks | None = None) -> CheckResult:
    """c0 does not see orientation reversal."""
    return _tally("c0 orientation invariance", _stream(trials, seed), _c0_orientation, blocks)


def check_c0_symmetry(trials: int = 500, seed: int = 0, *,
                      blocks: Blocks | None = None) -> CheckResult:
    """c0(y^-1) = (-1)^components * c0(y)."""
    return _tally("c0 y-inversion symmetry", _stream(trials, seed), _c0_symmetry, blocks)


def check_knot_vanishing(trials: int = 500, seed: int = 0, *,
                         blocks: Blocks | None = None) -> CheckResult:
    """c0 = 0 on every one-component code."""
    return _tally("c0 vanishes on knots", _stream(trials, seed, components=1),
                  _knot_vanishing, blocks)


def check_vassiliev_orders(trials: int = 200, seed: int = 0, *,
                           blocks: Blocks | None = None) -> CheckResult:
    """c0 is order zero everywhere; on knots c1 has the order-one structure."""
    return _tally("vassiliev orders", _stream(trials, seed, max_crossings=6, components=1),
                  _vassiliev_orders, blocks, random.Random(seed + 13))


def check_mirror_reverse_conjecture(trials: int = 200, seed: int = 0) -> CheckResult:
    """Fuzzed conjecture, reported but never failing a campaign:
    c1(mirror(d)) = -c1(reverse(d)) on knot codes.  The general form over
    links is false (the negative virtual Hopf link already breaks it), so
    the fuzz is scoped to one-component codes."""
    return _tally("c1 mirror/reverse conjecture (knots)",
                  _stream(trials, seed, max_crossings=6, components=1),
                  _mirror_reverse, informational=True)


def check_singular_orders(trials: int = 100, seed: int = 0, *, classical: int = 4,
                          components: int = 1, doubles: int = 1,
                          blocks: Blocks | None = None) -> list[CheckResult]:
    """Order bounds via the singular extension: the extended c0 vanishes as
    soon as one double point is present, and the extended c1 vanishes on
    singular knots with at least two."""
    rng = random.Random(seed)
    res0 = CheckResult("extended c0 vanishes", 0)
    res1 = CheckResult("extended c1 vanishes on singular knots", 0)
    for _ in range(trials):
        d = random_diagram(GeneratorConfig(classical, components, doubles,
                                           seed=rng.randrange(1 << 30)))
        # c1 right after c0 on the same resolutions finds their Z memoised
        res0.add(_extended_vanishing(d, c0, 1, blocks))
        if components == 1:
            res1.add(_extended_vanishing(d, c1, 2, blocks))
    return [res0, res1] if res1.trials else [res0]


def run_campaign(trials: int = 500, moves: int = DEFAULT_MOVES, seed: int = 0, *,
                 blocks: Blocks | None = None) -> list[CheckResult]:
    """The full checklist at sizes scaled off one trial count; a check
    that ran 0 trials is left out."""
    t = trials
    results = [
        check_move_invariance(t, moves, seed, blocks=blocks),
        check_kink_factors(max(t // 5, 1) if t else 0, seed + 1, blocks=blocks),
        check_skein(max(t * 2 // 5, 1) if t else 0, seed + 2, blocks=blocks),
        check_disjoint_union(max(t // 5, 1) if t else 0, seed + 3, blocks=blocks),
        check_c0_permutation_form(t, seed + 4, blocks=blocks),
        check_c0_orientation(t, seed + 5, blocks=blocks),
        check_c0_symmetry(t, seed + 6, blocks=blocks),
        check_knot_vanishing(t, seed + 7, blocks=blocks),
        check_vassiliev_orders(max(t * 2 // 5, 1) if t else 0, seed + 8, blocks=blocks),
        check_mirror_reverse_conjecture(max(t * 2 // 5, 1) if t else 0, seed + 9),
    ]
    return [res for res in results if res.trials]


def tally_diagram_checks(cases: Iterable[tuple[Diagram, int]], moves: int = DEFAULT_MOVES, *,
                         blocks: Blocks | None = None) -> list[CheckResult]:
    """The per-diagram checks summed over (diagram, walk seed) cases, in a
    fixed order; a check that applied to no case is left out."""
    results: dict[str, CheckResult] = {}
    for d, walk_seed in cases:
        for name, outcome in (
            ("move invariance", _move_invariance(d, blocks, moves, walk_seed)),
            ("skein relation", _skein(d, blocks)),
            ("c0 permutation form", _c0_permutation_form(d, blocks)),
            ("c0 orientation invariance", _c0_orientation(d, blocks)),
            ("c0 y-inversion symmetry", _c0_symmetry(d, blocks)),
            ("c0 vanishes on knots", _knot_vanishing(d, blocks)),
        ):
            results.setdefault(name, CheckResult(name, 0)).add(outcome)
    return [res for res in results.values() if res.trials]


# ---------------------------------------------------------------------------
# searches


def _role_sequences(n: int):
    """All one-component sequences of n crossings, each passed once over and
    once under, ids numbered by first appearance.  Yields tuples of
    (id, role) pairs."""
    seq: list[tuple[int, str]] = []
    open_roles: dict[int, str] = {}

    def rec(nxt: int):
        if len(seq) == 2 * n:
            if not open_roles:
                yield tuple(seq)
            return
        if nxt <= n:
            for role in ("O", "U"):
                seq.append((nxt, role))
                open_roles[nxt] = role
                yield from rec(nxt + 1)
                del open_roles[nxt]
                seq.pop()
        for cid in list(open_roles):
            role = "U" if open_roles[cid] == "O" else "O"
            seq.append((cid, role))
            del open_roles[cid]
            yield from rec(nxt)
            open_roles[cid] = "O" if role == "U" else "U"
            seq.pop()

    yield from rec(1)


def _first_appearance_form(seq: tuple) -> tuple:
    names: dict[int, int] = {}
    out = []
    for cid, role in seq:
        if cid not in names:
            names[cid] = len(names) + 1
        out.append((names[cid], role))
    return tuple(out)


def _rotation_minimal(seq: tuple) -> bool:
    base = _first_appearance_form(seq)
    L = len(seq)
    for r in range(1, L):
        rot = _first_appearance_form(seq[r:] + seq[:r])
        if rot < base:
            return False
    return True


def enumerate_virtual_knot_codes(max_crossings: int):
    """All one-component signed codes with up to the given number of
    classical crossings, one representative per rotation class."""
    from .diagram import Crossing, Passage

    yield Diagram(((),), {})
    for n in range(1, max_crossings + 1):
        for seq in _role_sequences(n):
            if not _rotation_minimal(seq):
                continue
            comp = tuple(Passage(cid, role) for cid, role in seq)
            for signs in itertools.product((1, -1), repeat=n):
                table = {cid: Crossing(cid, "x", signs[cid - 1]) for cid in range(1, n + 1)}
                yield Diagram((comp,), table)


def find_noninvertible_knot(max_crossings: int = 4, *, budget: int | None = None,
                            blocks: Blocks | None = None):
    """First enumerated knot code with orientation-sensitive c1.

    Returns (diagram, c1_forward, c1_backward, examined) or None when the
    enumeration (or budget) is exhausted."""
    examined = 0
    for d in enumerate_virtual_knot_codes(max_crossings):
        if budget is not None and examined >= budget:
            return None
        examined += 1
        a = c1(d, blocks=blocks)
        b = c1(reverse(d), blocks=blocks)
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
        v = vassiliev_eval(d, c1, zero=LaurentPoly2.zero())
        if not v.is_zero():
            return d, v, t
    return None
