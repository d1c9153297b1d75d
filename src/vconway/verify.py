"""Property campaigns: the theorem checklist run over random diagrams.

Each check draws its own reproducible diagram stream from a seed,
counts failures, and keeps a few counterexample codes for display.
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
    Blocks,
    c0,
    c0_via_tp,
    c1,
    kink_factor,
    vassiliev_eval,
    order_one_defect,
    z_normalized,
    z_polynomial,
)
from .laurent import X, ONE, LaurentPoly2, substitute_y_inverse
from .moves import (
    GeneratorConfig,
    KINK_TYPES,
    MoveEvent,
    apply,
    random_diagram,
    random_walk,
)

MAX_SHOWN = 3


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


def check_move_invariance(trials: int = 500, moves: int = 50, seed: int = 0, *,
                          blocks: Blocks | None = None, max_crossings: int = 8,
                          max_components: int = 3) -> CheckResult:
    """Normalized Z is exactly equal across random move walks."""
    res = CheckResult("move invariance", trials)
    walk_rng = random.Random(seed ^ 0x5EED)
    for d in _stream(trials, seed, max_crossings=max_crossings, max_components=max_components):
        before = z_normalized(d, blocks=blocks)
        w = random_walk(d, moves, seed=walk_rng.randrange(1 << 30))
        after = z_normalized(w, blocks=blocks)
        if before != after:
            res.record(f"{_code(d)} -> {_code(w)}: {before} != {after}")
    return res


def check_kink_factors(trials: int = 100, seed: int = 0, *,
                       blocks: Blocks | None = None) -> CheckResult:
    """A single kink multiplies raw Z by exactly 1, x, x^-1 or 1 by type."""
    res = CheckResult("kink factors", trials * len(KINK_TYPES))
    rng = random.Random(seed)
    for d in _stream(trials, seed + 1, max_crossings=6):
        gaps = [(ci, g) for ci, comp in enumerate(d.components)
                for g in range(max(len(comp), 1))]
        ci, g = rng.choice(gaps)
        base = z_polynomial(d, blocks=blocks)
        for over_first, sign in KINK_TYPES:
            kinked = apply(d, MoveEvent("R1_add", (ci, g, over_first, sign)))
            want = kink_factor(over_first, sign) * base
            got = z_polynomial(kinked, blocks=blocks)
            if got != want:
                res.record(f"{_code(d)} kink ({over_first},{sign:+d}) at {(ci, g)}: "
                           f"{got} != {want}")
    return res


def check_skein(trials: int = 200, seed: int = 0, *,
                blocks: Blocks | None = None) -> CheckResult:
    """Z(D+) - x Z(D-) - (1-x) Z(D0) = 0 at every classical crossing."""
    res = CheckResult("skein relation", 0)
    for d in _stream(trials, seed, max_crossings=6):
        for cid in d.classical_ids():
            res.trials += 1
            pos = set_sign(d, cid, 1)
            neg = set_sign(d, cid, -1)
            zero = smooth(pos, cid)
            lhs = (z_polynomial(pos, blocks=blocks)
                   - X * z_polynomial(neg, blocks=blocks)
                   - (ONE - X) * z_polynomial(zero, blocks=blocks))
            if not lhs.is_zero():
                res.record(f"{_code(d)} at crossing {cid}: residual {lhs}")
    return res


def check_disjoint_union(pairs: int = 100, seed: int = 0, *,
                         blocks: Blocks | None = None) -> CheckResult:
    res = CheckResult("disjoint union", pairs)
    left = _stream(pairs, seed, max_crossings=4, max_components=2)
    right = _stream(pairs, seed + 7, max_crossings=4, max_components=2)
    for d1, d2 in zip(left, right):
        u = disjoint_union(d1, d2)
        prod = z_polynomial(d1, blocks=blocks) * z_polynomial(d2, blocks=blocks)
        if z_polynomial(u, blocks=blocks) != prod:
            res.record(f"{_code(d1)} | {_code(d2)}")
    return res


def check_c0_permutation_form(trials: int = 500, seed: int = 0, *,
                              blocks: Blocks | None = None) -> CheckResult:
    """c0 from Z agrees with the companion-permutation determinant."""
    res = CheckResult("c0 permutation form", 0)
    for d in _stream(trials, seed):
        if d.n_classical() == 0 or d.has_empty_component():
            continue
        res.trials += 1
        a = c0(d, blocks=blocks)
        b = c0_via_tp(d)
        if a != b:
            res.record(f"{_code(d)}: {a} != {b}")
    return res


def check_c0_orientation(trials: int = 500, seed: int = 0, *,
                         blocks: Blocks | None = None) -> CheckResult:
    """c0 does not see orientation reversal."""
    res = CheckResult("c0 orientation invariance", trials)
    for d in _stream(trials, seed):
        if c0(reverse(d), blocks=blocks) != c0(d, blocks=blocks):
            res.record(_code(d))
    return res


def check_c0_symmetry(trials: int = 500, seed: int = 0, *,
                      blocks: Blocks | None = None) -> CheckResult:
    """c0(y^-1) = (-1)^components * c0(y)."""
    res = CheckResult("c0 y-inversion symmetry", trials)
    for d in _stream(trials, seed):
        a = c0(d, blocks=blocks)
        want = substitute_y_inverse(a)
        got = a if len(d.components) % 2 == 0 else -a
        if want != got:
            res.record(f"{_code(d)}: {substitute_y_inverse(a)} vs {got}")
    return res


def check_knot_vanishing(trials: int = 500, seed: int = 0, *,
                         blocks: Blocks | None = None) -> CheckResult:
    """c0 = 0 on every one-component code."""
    res = CheckResult("c0 vanishes on knots", trials)
    for d in _stream(trials, seed, components=1):
        v = c0(d, blocks=blocks)
        if not v.is_zero():
            res.record(f"{_code(d)}: c0 = {v}")
    return res


def check_vassiliev_orders(trials: int = 200, seed: int = 0, *,
                           blocks: Blocks | None = None) -> CheckResult:
    """c0 is order zero everywhere; on knots c1 has the order-one structure."""
    res = CheckResult("vassiliev orders", 0)
    rng = random.Random(seed + 13)
    for d in _stream(trials, seed, max_crossings=6, components=1):
        ids = d.classical_ids()
        for cid in ids:
            res.trials += 1
            pos, neg = set_sign(d, cid, 1), set_sign(d, cid, -1)
            if c0(pos, blocks=blocks) != c0(neg, blocks=blocks):
                res.record(f"{_code(d)}: c0 jumps at {cid}")
                continue
            lhs = c1(pos, blocks=blocks) - c1(neg, blocks=blocks)
            rhs = c0(smooth(pos, cid), blocks=blocks)
            if lhs != rhs:
                res.record(f"{_code(d)}: c1 jump at {cid} is {lhs}, smoothing c0 is {rhs}")
        if len(ids) >= 2:
            id1, id2 = rng.sample(ids, 2)
            four = [set_sign(set_sign(d, id1, s1), id2, s2)
                    for s1 in (1, -1) for s2 in (1, -1)]
            if all(len(r.components) == 1 for r in four):
                res.trials += 1
                defect = order_one_defect(d, id1, id2, blocks=blocks)
                if not defect.is_zero():
                    res.record(f"{_code(d)}: pair ({id1},{id2}) defect {defect}")
    return res


def check_mirror_reverse_conjecture(trials: int = 200, seed: int = 0) -> CheckResult:
    """Fuzzed conjecture, reported but never failing a campaign:
    c1(mirror(d)) = -c1(reverse(d)) on knot codes.  The general form over
    links is false (the negative virtual Hopf link already breaks it), so
    the fuzz is scoped to one-component codes."""
    res = CheckResult("c1 mirror/reverse conjecture (knots)", trials, informational=True)
    for d in _stream(trials, seed, max_crossings=6, components=1):
        if c1(mirror(d)) != -c1(reverse(d)):
            res.record(_code(d))
    return res


def check_singular_orders(trials: int = 100, seed: int = 0, *, classical: int = 4,
                          components: int = 1, doubles: int = 1,
                          blocks: Blocks | None = None) -> list[CheckResult]:
    """Order bounds via the singular extension: the extended c0 vanishes as
    soon as one double point is present, and the extended c1 vanishes on
    singular knots with at least two."""
    rng = random.Random(seed)
    zero = LaurentPoly2.zero()
    res0 = CheckResult("extended c0 vanishes", 0)
    res1 = CheckResult("extended c1 vanishes on singular knots", 0)
    for _ in range(trials):
        d = random_diagram(GeneratorConfig(classical, components, doubles,
                                           seed=rng.randrange(1 << 30)))
        if doubles >= 1:
            res0.trials += 1
            v = vassiliev_eval(d, lambda r: c0(r, blocks=blocks), zero=zero)
            if not v.is_zero():
                res0.record(f"{_code(d)}: {v}")
        if doubles >= 2 and components == 1:
            res1.trials += 1
            v = vassiliev_eval(d, lambda r: c1(r, blocks=blocks), zero=zero)
            if not v.is_zero():
                res1.record(f"{_code(d)}: {v}")
    out = [res0]
    if res1.trials:
        out.append(res1)
    return out


def run_campaign(trials: int = 500, moves: int = 50, seed: int = 0, *,
                 blocks: Blocks | None = None) -> list[CheckResult]:
    """The full checklist at sizes scaled off one trial count."""
    t = trials
    return [
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


def run_diagram_checks(d: Diagram, moves: int = 50, seed: int = 0, *,
                       blocks: Blocks | None = None) -> list[CheckResult]:
    """The per-diagram subset of the checklist, applied to one input."""
    out: list[CheckResult] = []

    res = CheckResult("move invariance", 1)
    w = random_walk(d, moves, seed=seed)
    if z_normalized(d, blocks=blocks) != z_normalized(w, blocks=blocks):
        res.record(f"walk endpoint {_code(w)}")
    out.append(res)

    res = CheckResult("skein relation", 0)
    for cid in d.classical_ids():
        res.trials += 1
        pos = set_sign(d, cid, 1)
        lhs = (z_polynomial(pos, blocks=blocks)
               - X * z_polynomial(set_sign(d, cid, -1), blocks=blocks)
               - (ONE - X) * z_polynomial(smooth(pos, cid), blocks=blocks))
        if not lhs.is_zero():
            res.record(f"crossing {cid}: residual {lhs}")
    out.append(res)

    if d.n_classical() > 0 and not d.has_empty_component():
        res = CheckResult("c0 permutation form", 1)
        if c0(d, blocks=blocks) != c0_via_tp(d):
            res.record(_code(d))
        out.append(res)

    res = CheckResult("c0 orientation invariance", 1)
    if c0(reverse(d), blocks=blocks) != c0(d, blocks=blocks):
        res.record(_code(d))
    out.append(res)

    res = CheckResult("c0 y-inversion symmetry", 1)
    a = c0(d, blocks=blocks)
    if substitute_y_inverse(a) != (a if len(d.components) % 2 == 0 else -a):
        res.record(_code(d))
    out.append(res)

    if len(d.components) == 1:
        res = CheckResult("c0 vanishes on knots", 1)
        if not c0(d, blocks=blocks).is_zero():
            res.record(_code(d))
        out.append(res)
    return out


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
