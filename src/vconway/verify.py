"""Property campaigns: the theorem checklist run over random diagrams.

Each property is written once, as a per-diagram predicate, and each check
once, as a row of `_ROWS`.  One loop, `_run_rows`, runs rows over a stream
of draws: each draw is made once and every row that takes it runs on it,
sharing its Z through the memo in `invariants`.  `run_campaign` runs every
row over one stream, `tally_diagram_checks` the per-diagram rows over given
inputs, and each `check_*` its own row over its own stream.  Inside
`invariants.mutated_blocks()` every check sees a wrong crossing block
(mutation testing): a correct harness must then find counterexamples.

Also hosts the searches used by the CLI: exhaustive enumeration of small
virtual knot codes for an orientation-sensitive c1, and a randomized search
for a singular link where the twice-extended c1 fails to vanish.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, NamedTuple

from .diagram import (Crossing, Diagram, Passage, disjoint_union, format_diagram, mirror,
                      reverse, set_sign, smooth)
from .invariants import (c0, c0_via_tp, c1, kink_factor, order_one_defect, skein_terms,
                         vassiliev_eval, z_normalized, z_polynomial)
from .laurent import eval_x1, expand_conway, substitute_y_inverse
from .moves import GeneratorConfig, KINK_TYPES, MoveEvent, apply, random_diagram, random_walk

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

    def __init__(self, name: str, trials: int, informational: bool = False) -> None:
        self.name, self.trials, self.informational = name, trials, informational
        self.failures, self.examples = 0, []

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
            components: int | None = None, doubles: int = 0):
    """Reproducible mixed-size diagram stream."""
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(0, max_crossings)
        c = components if components is not None else rng.randint(1, max_components)
        yield random_diagram(GeneratorConfig(k, c, doubles, seed=rng.randrange(1 << 30)))


def _walk_seeds(seed: int):
    """The endless stream of walk seeds that goes with a seeded draw stream."""
    rng = random.Random(seed ^ 0x5EED)
    return iter(lambda: rng.randrange(1 << 30), None)


# ---------------------------------------------------------------------------
# per-diagram predicates; the row table below names each check


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


class _Row(NamedTuple):
    """One check.  The campaign gives it the draws it `fits`, trials *
    fifths // 5 of them (at least one), or as many pairs if `pairs`.
    `check(draw, walk, rng)` is its predicate, given the draw's walk
    (moves, seed) and the row's own random.Random(seed + salt)."""

    name: str
    fits: Callable[[Diagram], bool]
    fifths: int
    check: Callable[..., Outcome]
    salt: int = 0
    pairs: bool = False
    informational: bool = False


def _at_most(crossings: float = math.inf, components: float = math.inf):
    return lambda d: d.n_classical() <= crossings and len(d.components) <= components


# Kinks, skein triples and crossing changes at every crossing take small
# draws.  The predicates are looked up at call time, so a test can replace one.
_ROWS = (
    _Row("move invariance", _at_most(), 5, lambda d, w, r: _move_invariance(d, *w)),
    _Row("kink factors", _at_most(6), 1, lambda d, w, r: _kink_factors(d, r)),
    _Row("skein relation", _at_most(6), 2, lambda d, w, r: _skein(d)),
    _Row("disjoint union", _at_most(4, 2), 1, lambda p, w, r: _disjoint_union(p), pairs=True),
    _Row("c0 permutation form", _at_most(), 5, lambda d, w, r: _c0_permutation_form(d)),
    _Row("c0 orientation invariance", _at_most(), 5, lambda d, w, r: _c0_orientation(d)),
    _Row("c0 y-inversion symmetry", _at_most(), 5, lambda d, w, r: _c0_symmetry(d)),
    _Row("c0 vanishes on knots", _at_most(components=1), 5, lambda d, w, r: _knot_vanishing(d)),
    _Row("vassiliev orders", _at_most(6, 1), 2, lambda d, w, r: _vassiliev_orders(d, r), salt=13),
    # c1(mirror(d)) = -c1(reverse(d)) is fuzzed, reported and never fails a
    # campaign.  Its form over links is false (the negative virtual Hopf link
    # breaks it), so it is scoped to knots.
    _Row("c1 mirror/reverse conjecture (knots)", _at_most(6, 1), 2,
         lambda d, w, r: _mirror_reverse(d), informational=True),
)
_ROW = {row.name: row for row in _ROWS}


def _run_rows(rows, cases: Iterable[tuple[Diagram, int]], seed: int = 0,
              moves: int = DEFAULT_MOVES, quotas=None) -> list[CheckResult]:
    """One result per row over the (draw, walk seed) cases.  Each row runs on
    every draw it fits until its quota is spent (without quotas, on every
    draw); no draw is taken once all quotas are spent."""
    results = [CheckResult(row.name, 0, informational=row.informational) for row in rows]
    left = list(quotas or [math.inf] * len(rows))
    rngs = [random.Random(seed + row.salt) for row in rows]
    held: list = [None] * len(rows)  # a pairs row's draw waiting for its partner
    for d, walk_seed in cases:
        for i, row in enumerate(rows):
            if not left[i] or not row.fits(d):
                continue
            if row.pairs and held[i] is None:
                held[i] = d
                continue
            x, held[i] = ((held[i], d) if row.pairs else d), None
            left[i] -= 1
            results[i].add(row.check(x, (moves, walk_seed), rngs[i]))
        if not any(left):
            break
    return results


def _one(name: str, draws, seed: int = 0, moves: int = DEFAULT_MOVES) -> CheckResult:
    """One row of the table over its own draws."""
    return _run_rows([_ROW[name]], zip(draws, _walk_seeds(seed)), seed, moves)[0]


def check_move_invariance(trials: int = 500, moves: int = DEFAULT_MOVES, seed: int = 0, *,
                          max_crossings: int = 8, max_components: int = 3) -> CheckResult:
    """Normalized Z is exactly equal across random move walks."""
    return _one("move invariance", _stream(trials, seed, max_crossings=max_crossings,
                                           max_components=max_components), seed, moves)


def check_kink_factors(trials: int = 100, seed: int = 0) -> CheckResult:
    """A single kink multiplies raw Z by exactly 1, x, x^-1 or 1 by type."""
    return _one("kink factors", _stream(trials, seed + 1, max_crossings=6), seed)


def check_skein(trials: int = 200, seed: int = 0) -> CheckResult:
    """Z(D+) - x Z(D-) - (1-x) Z(D0) = 0 at every classical crossing."""
    return _one("skein relation", _stream(trials, seed, max_crossings=6))


def check_disjoint_union(pairs: int = 100, seed: int = 0) -> CheckResult:
    left = _stream(pairs, seed, max_crossings=4, max_components=2)
    right = _stream(pairs, seed + 7, max_crossings=4, max_components=2)
    return _one("disjoint union", itertools.chain.from_iterable(zip(left, right)))


def check_c0_permutation_form(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0 from Z agrees with the companion-permutation determinant."""
    return _one("c0 permutation form", _stream(trials, seed))


def check_c0_orientation(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0 does not see orientation reversal."""
    return _one("c0 orientation invariance", _stream(trials, seed))


def check_c0_symmetry(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0(y^-1) = (-1)^components * c0(y)."""
    return _one("c0 y-inversion symmetry", _stream(trials, seed))


def check_knot_vanishing(trials: int = 500, seed: int = 0) -> CheckResult:
    """c0 = 0 on every one-component code."""
    return _one("c0 vanishes on knots", _stream(trials, seed, components=1))


def check_vassiliev_orders(trials: int = 200, seed: int = 0) -> CheckResult:
    """c0 is order zero everywhere; on knots c1 has the order-one structure."""
    return _one("vassiliev orders", _stream(trials, seed, max_crossings=6, components=1), seed)


def check_mirror_reverse_conjecture(trials: int = 200, seed: int = 0) -> CheckResult:
    """The informational c1 conjecture of `_ROWS` on knot codes."""
    return _one("c1 mirror/reverse conjecture (knots)",
                _stream(trials, seed, max_crossings=6, components=1))


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
    """Every row of `_ROWS` over one stream, `_stream(trials, seed)`; a check
    that ran 0 trials is left out.  Each draw is made once, and every row
    that fits it and has quota left runs on it, so its Z is computed once
    for all of them.  The quotas: every draw for move invariance and the c0
    checks on links, trials knots for c0 on knots, trials // 5 pairs for the
    disjoint union, and trials // 5 or 2 * trials // 5 small draws or knots
    for the others.  A row still short of its quota, above all a knot row,
    tops up from `_stream(trials, seed + 7, components=1)`, drawn only until
    every quota is met.  Rows draw their own randomness off seed + 1."""
    quotas = [max(trials * row.fifths // 5, 1) if trials else 0 for row in _ROWS]
    draws = itertools.chain(_stream(trials, seed), _stream(trials, seed + 7, components=1))
    results = _run_rows(_ROWS, zip(draws, _walk_seeds(seed)), seed + 1, moves, quotas)
    return [res for res in results if res.trials]


def tally_diagram_checks(cases: Iterable[tuple[Diagram, int]],
                         moves: int = DEFAULT_MOVES) -> list[CheckResult]:
    """The per-diagram rows summed over (diagram, walk seed) cases, in the
    table's order, at every size; a check that applied to no case is left
    out.  A diagram with a crossing-free component has Z = 0, so only its
    walk is checked."""
    rows = [_ROW["move invariance"]] + [
        _ROW[name]._replace(fits=lambda d: not d.has_empty_component())
        for name in ("skein relation", "c0 permutation form", "c0 orientation invariance",
                     "c0 y-inversion symmetry", "c0 vanishes on knots")]
    return [res for res in _run_rows(rows, cases, moves=moves) if res.trials]


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
    return tuple((names.setdefault(cid, len(names) + 1), role) for cid, role in seq)


def _rotation_minimal(seq: tuple) -> bool:
    """Whether seq, already in first-appearance form, is no greater than the
    first-appearance form of any of its rotations."""
    return all(seq <= _first_appearance_form(seq[r:] + seq[:r]) for r in range(1, len(seq)))


def enumerate_virtual_knot_codes(max_crossings: int):
    """All one-component signed codes with up to the given number of
    classical crossings, one representative per rotation class."""
    yield Diagram(((),), {})
    for n in range(1, max_crossings + 1):
        for seq in filter(_rotation_minimal, _role_sequences(n)):
            comp = tuple(Passage(cid, role) for cid, role in seq)
            for signs in itertools.product((1, -1), repeat=n):
                table = {cid: Crossing(cid, "x", signs[cid - 1]) for cid in range(1, n + 1)}
                yield Diagram((comp,), table)


def find_noninvertible_knot(max_crossings: int = 4, *, budget: int | None = None):
    """First enumerated knot code with orientation-sensitive c1.

    Returns (diagram, c1_forward, c1_backward, examined) or None when the
    enumeration (or budget) is exhausted."""
    codes = itertools.islice(enumerate_virtual_knot_codes(max_crossings), budget)
    for examined, d in enumerate(codes, 1):
        a, b = c1(d), c1(reverse(d))
        if a != b:
            return d, a, b, examined
    return None


def find_c1_order_defect_link(max_classical: int = 6, trials: int = 10000, seed: int = 0):
    """Randomized search for a 2-double-point singular link whose twice
    extended c1 is nonzero, demonstrating that c1 is not order one on
    links.  Returns (diagram, value, trial_index) or None."""
    links = _stream(trials, seed, max_crossings=max_classical, components=2, doubles=2)
    for t, d in enumerate(links):
        v = expand_conway(vassiliev_eval(d)).coeff(1)
        if not v.is_zero():
            return d, v, t
    return None
