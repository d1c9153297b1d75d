"""Classical Reidemeister moves on Gauss codes, plus a random diagram generator.

The move engine is the fuzzing backbone: walks made of these moves
preserve the link type, so every polynomial the package computes must
agree (exactly, or up to the documented x-power for raw Z) across a
walk's endpoints.

Moves operate purely on the code.  Moves involving only virtual
crossings never change a Gauss code, so they need no representation;
the detour argument also makes every gap pair usable for a second-move
insertion and both sign choices reachable.  For the third move we
generate the braid-like subset (three crossings pairwise adjacent
along three strands, all signs equal); a sound subset is enough for
fuzzing.

Site encodings (component indices ci, cyclic positions t, gaps g):
  R1_add     (ci, g, over_first, sign)       insert a kink at gap g
  R1_remove  (ci, t)                          window t, t+1 is one crossing's O and U
  R2_add     ((ci1, g1), (ci2, g2), role1, parallel, sign)
  R2_remove  ((ci1, t1), (ci2, t2))           over-window first, under-window second
  R3         ((ci1, t1), (ci2, t2), (ci3, t3), variant)

A gap g means insertion before position g; cyclic gaps are
0 .. len-1 (an empty component has the single gap 0).  A window t
covers positions t and (t+1) mod len.

All removal and third-move sites come from one pass over the windows
(`_removal_sites`) that indexes them by passage and by crossing pair: a
valid code holds each passage once, so a site's other windows are
dictionary lookups instead of scans over every window.  The order of
each site list is part of the contract, the order a scan in window order
gives: walks draw from these lists with a seeded rng, so the order makes
a walk, and every `verify` result, reproducible from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .diagram import (
    CLASSICAL_ROLES,
    Diagram,
    Crossing,
    OVER,
    Passage,
    UNDER,
    FIRST,
    SECOND,
)
# unused here, but perfbench/tracing.py wraps this attribute of the module
from .diagram import validate  # noqa: F401


class MoveError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class MoveEvent:
    kind: str
    site: tuple


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    classical_crossings: int
    components: int
    double_points: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classical_crossings < 0 or self.double_points < 0:
            raise ValueError("crossing counts must be non-negative")
        if self.components < 1:
            raise ValueError("need at least one component")


# The four kink types, in the canonical order used for factor tables:
# (over_first, sign).
KINK_TYPES: tuple[tuple[bool, int], ...] = ((True, 1), (False, 1), (False, -1), (True, -1))

# the kinds of the three lists `_removal_sites` returns
_REMOVAL_KINDS = ("R1_remove", "R2_remove", "R3")


def _gaps(comp: tuple) -> range:
    return range(max(len(comp), 1))


def _next_id(d: Diagram) -> int:
    return max(d.crossings, default=0) + 1


# R3 window patterns per variant: three windows given as ((role, key), (role, key))
# over abstract crossing keys 0, 1, 2, plus the common sign.  Window 1 holds
# keys 0 and 1; window 2 holds one of them and introduces key 2.
_R3_PATTERNS = {
    "L+": ((("O", 0), ("O", 1)), (("U", 0), ("O", 2)), (("U", 1), ("U", 2)), 1),
    "R+": ((("O", 0), ("O", 1)), (("O", 2), ("U", 1)), (("U", 2), ("U", 0)), 1),
    "L-": ((("U", 0), ("U", 1)), (("O", 0), ("U", 2)), (("O", 1), ("O", 2)), -1),
    "R-": ((("U", 0), ("U", 1)), (("U", 2), ("O", 1)), (("O", 2), ("O", 0)), -1),
}


def _removal_sites(d: Diagram) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """The R1_remove, R2_remove and R3 sites of a valid code, from one pass.

    The pass visits every window whose two passages are classical, in window
    order (component, then position).  It indexes each window of two
    opposite-signed crossings by that pair, and each window of two distinct
    same-signed crossings by its first and by its last passage.  A valid code
    holds each passage exactly once, so the under-window partners of an R2
    over-window and the second and third windows of an R3 site are dictionary
    lookups, not scans.  Windows touching a double point are skipped.  Every
    list is in window order, R3 sites by variant first.
    """
    sign = {cid: rec.sign for cid, rec in d.crossings.items() if rec.kind == "x"}
    r1: list[tuple] = []
    r2_over = []  # O-O windows of opposite-signed crossings
    r2_under: dict[tuple[int, int], list[tuple[int, int]]] = {}  # U-U ones, by crossing pair
    r3_first = {1: [], -1: []}  # O-O windows signed + +, U-U windows signed - -
    # (role, crossing) of a same-signed window's first (last) passage -> its
    # (ci, t) and the (role, crossing) of its other passage
    first: dict[tuple[str, int], tuple[int, int, str, int]] = {}
    last: dict[tuple[str, int], tuple[int, int, str, int]] = {}
    for ci, comp in enumerate(d.components):
        if len(comp) < 2:
            continue
        for t, (p, q) in enumerate(zip(comp, comp[1:] + comp[:1])):
            a, b = p.crossing, q.crossing
            if a not in sign or b not in sign:
                continue
            pr, qr = p.role, q.role
            if a == b:  # a valid code passes one crossing once over, once under
                r1.append((ci, t))
                continue
            s = sign[a]
            if s != sign[b]:
                if pr == qr == OVER:
                    r2_over.append((ci, t, a, b))
                elif pr == qr:
                    r2_under.setdefault((min(a, b), max(a, b)), []).append((ci, t))
                continue
            first[pr, a] = (ci, t, qr, b)
            last[qr, b] = (ci, t, pr, a)
            if pr == qr and (s > 0) == (pr == OVER):
                r3_first[s].append((ci, t, a, b))

    r2 = [
        ((ci, t), w)
        for ci, t, a, b in r2_over
        for w in r2_under.get((min(a, b), max(a, b)), ())
    ]

    r3: list[tuple] = []
    for variant, (_, w2pat, w3pat, s) in _R3_PATTERNS.items():
        (ra, ka), (rb, kb) = w2pat
        (r3a, k3a), (r3b, k3b) = w3pat
        # window 2 is found through its slot that holds key 0 or 1.  In a valid
        # code its other slot then holds a third crossing in the pattern's role:
        # crossing c0 or c1 there would repeat a passage of window 1, and the
        # other role one of window 3.
        index, (role, k) = (first, (ra, ka)) if kb == 2 else (last, (rb, kb))
        for ci1, t1, c0, c1 in r3_first[s]:
            w2 = index.get((role, (c0, c1)[k]))
            if w2 is None:
                continue
            key = (c0, c1, w2[3])
            w3 = first.get((r3a, key[k3a]))
            if w3 is not None and w3[2] == r3b and w3[3] == key[k3b]:
                r3.append(((ci1, t1), w2[:2], w3[:2], variant))
    return r1, r2, r3


def _insert(comp: tuple, gap: int, items: tuple) -> tuple:
    return comp[:gap] + items + comp[gap:]


def _window(d: Diagram, ci: int, t: int) -> tuple[Passage, Passage]:
    """The two passages of window t of component ci, or MoveError if d has none."""
    if not 0 <= ci < len(d.components):
        raise MoveError(f"inapplicable move: no component {ci}")
    comp = d.components[ci]
    if len(comp) < 2 or not 0 <= t < len(comp):
        raise MoveError(f"inapplicable move: no window {t} in component {ci}")
    return comp[t], comp[(t + 1) % len(comp)]


def _check_gap(d: Diagram, ci: int, g: int) -> None:
    if not 0 <= ci < len(d.components) or g not in _gaps(d.components[ci]):
        raise MoveError(f"inapplicable move: no gap {g} in component {ci}")


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise MoveError(f"inapplicable move: sign {sign!r} is not +1 or -1")


def _drop_windows(comp: tuple, ts: list[int]) -> tuple:
    """comp without the passages of its windows ts."""
    drop = {u for t in ts for u in (t, (t + 1) % len(comp))}
    return tuple(x for k, x in enumerate(comp) if k not in drop)


def _apply_r1_add(d: Diagram, site: tuple) -> Diagram:
    ci, gap, over_first, sign = site
    _check_gap(d, ci, gap)
    _check_sign(sign)
    nid = _next_id(d)
    roles = (OVER, UNDER) if over_first else (UNDER, OVER)
    comps = list(d.components)
    comps[ci] = _insert(comps[ci], gap, (Passage(nid, roles[0]), Passage(nid, roles[1])))
    return Diagram(tuple(comps), {**d.crossings, nid: Crossing(nid, "x", sign)})


def _apply_r1_remove(d: Diagram, site: tuple) -> Diagram:
    ci, t = site
    p, q = _window(d, ci, t)
    if p.crossing != q.crossing or {p.role, q.role} != set(CLASSICAL_ROLES):
        raise MoveError(f"inapplicable move: window {t} is not a kink")
    comps = list(d.components)
    comps[ci] = _drop_windows(comps[ci], [t])
    table = {k: v for k, v in d.crossings.items() if k != p.crossing}
    return Diagram(tuple(comps), table)


def _apply_r2_add(d: Diagram, site: tuple) -> Diagram:
    (ci1, g1), (ci2, g2), role1, parallel, sign = site
    if (ci1, g1) == (ci2, g2):
        raise MoveError("inapplicable move: second-move strands need two distinct gaps")
    _check_gap(d, ci1, g1)
    _check_gap(d, ci2, g2)
    if role1 not in CLASSICAL_ROLES:
        raise MoveError(f"inapplicable move: role {role1!r} is not classical")
    _check_sign(sign)
    nid = _next_id(d)
    ids = (nid, nid + 1)
    role2 = UNDER if role1 == OVER else OVER
    strand1 = (Passage(ids[0], role1), Passage(ids[1], role1))
    if parallel:
        strand2 = (Passage(ids[0], role2), Passage(ids[1], role2))
    else:
        strand2 = (Passage(ids[1], role2), Passage(ids[0], role2))
    comps = list(d.components)
    inserts = [((ci1, g1), strand1), ((ci2, g2), strand2)]
    # same component: apply the later gap first so the earlier index stays valid
    inserts.sort(key=lambda it: (it[0][0], -it[0][1]))
    for (ci, g), items in inserts:
        comps[ci] = _insert(comps[ci], g, items)
    table = dict(d.crossings)
    table[ids[0]] = Crossing(ids[0], "x", sign)
    table[ids[1]] = Crossing(ids[1], "x", -sign)
    return Diagram(tuple(comps), table)


def _apply_r2_remove(d: Diagram, site: tuple) -> Diagram:
    (ci1, t1), (ci2, t2) = site
    w1, w2 = _window(d, ci1, t1), _window(d, ci2, t2)
    if not (w1[0].role == OVER and w1[1].role == OVER and w2[0].role == UNDER and w2[1].role == UNDER):
        raise MoveError("inapplicable move: second-move cancellation pattern absent")
    ids1 = {w1[0].crossing, w1[1].crossing}
    if len(ids1) != 2 or {w2[0].crossing, w2[1].crossing} != ids1:
        raise MoveError("inapplicable move: windows do not pair the same two crossings")
    a, b = w1[0].crossing, w1[1].crossing
    if d.crossings[a].sign != -d.crossings[b].sign:
        raise MoveError("inapplicable move: crossings must have opposite signs")
    comps = list(d.components)
    drop = {ci1: [t1]}
    drop.setdefault(ci2, []).append(t2)
    for ci, ts in drop.items():
        comps[ci] = _drop_windows(comps[ci], ts)
    table = {k: v for k, v in d.crossings.items() if k not in ids1}
    return Diagram(tuple(comps), table)


# swapping a variant's three windows leaves the opposite-handed pattern
_R3_FLIP = {"L+": "R+", "R+": "L+", "L-": "R-", "R-": "L-"}


def _r3_pattern_holds(d: Diagram, pairs: list, variant: str) -> bool:
    """Whether the windows' passage pairs carry the variant's pattern."""
    w1pat, w2pat, w3pat, sign = _R3_PATTERNS[variant]
    key: dict[int, int] = {}
    for pair, pat in zip(pairs, (w1pat, w2pat, w3pat)):
        for pas, (role, kk) in zip(pair, pat):
            if pas.role != role or d.crossings[pas.crossing].sign != sign:
                return False
            if kk in key:
                if key[kk] != pas.crossing:
                    return False
            else:
                if pas.crossing in key.values():
                    return False
                key[kk] = pas.crossing
    return len(key) == 3


def _apply_r3(d: Diagram, site: tuple) -> Diagram:
    (ci1, t1), (ci2, t2), (ci3, t3), variant = site
    if variant not in _R3_PATTERNS:
        raise MoveError(f"inapplicable move: unknown third-move variant {variant!r}")
    windows = ((ci1, t1), (ci2, t2), (ci3, t3))
    if len(set(windows)) != 3:
        raise MoveError("inapplicable move: third-move windows must be distinct")
    pairs = [_window(d, ci, t) for ci, t in windows]
    # the same windows carry the opposite-handed pattern after one swap,
    # so re-applying an event undoes it
    if not (
        _r3_pattern_holds(d, pairs, variant)
        or _r3_pattern_holds(d, pairs, _R3_FLIP[variant])
    ):
        raise MoveError("inapplicable move: third-move pattern absent")
    comps = list(d.components)
    for ci, t in windows:
        comp = list(comps[ci])
        u = (t + 1) % len(comp)
        comp[t], comp[u] = comp[u], comp[t]
        comps[ci] = tuple(comp)
    return Diagram(tuple(comps), dict(d.crossings))


_APPLIERS = {
    "R1_add": _apply_r1_add,
    "R1_remove": _apply_r1_remove,
    "R2_add": _apply_r2_add,
    "R2_remove": _apply_r2_remove,
    "R3": _apply_r3,
}


def apply(d: Diagram, m: MoveEvent) -> Diagram:
    """Apply one move to the valid diagram d; the result is valid.

    Raises MoveError when the site does not fit d.  d itself is not
    checked: parsing and the generator are the input boundary.
    """
    fn = _APPLIERS.get(m.kind)
    if fn is None:
        raise MoveError(f"inapplicable move: unknown kind {m.kind!r}")
    return fn(d, m.site)


def random_walk(
    d: Diagram, steps: int, seed: int, *, max_crossings: int | None = None
) -> Diagram:
    """Apply `steps` random moves, never materializing the full move list.

    Each step picks uniformly among the currently available move kinds,
    then uniformly among that kind's sites.  A soft cap (default: the
    starting crossing count plus 4) excludes additions while at or over
    the cap, except as a last resort when nothing else applies.
    """
    if steps < 0:
        raise ValueError(f"a walk needs a non-negative number of steps, got {steps}")
    if d.has_doubles():
        raise ValueError("moves are generated for non-singular diagrams only")
    if not d.components:
        raise ValueError("a walk needs a component to put a kink in")
    rng = random.Random(seed)
    cap = max_crossings if max_crossings is not None else d.n_classical() + 4
    cur = d
    for _ in range(steps):
        n = cur.n_classical()
        removal_sites = dict(zip(_REMOVAL_KINDS, _removal_sites(cur)))
        kinds = [k for k, v in removal_sites.items() if v]
        if n + 1 <= cap:
            kinds.append("R1_add")
        if n + 2 <= cap:
            kinds.append("R2_add")
        if not kinds:
            kinds = ["R1_add"]
        kind = rng.choice(kinds)
        if kind in removal_sites:
            m = MoveEvent(kind, rng.choice(removal_sites[kind]))
        else:
            gaps = [(ci, g) for ci, comp in enumerate(cur.components) for g in _gaps(comp)]
            if kind == "R1_add":
                ci, g = rng.choice(gaps)
                over_first, sign = rng.choice(KINK_TYPES)
                m = MoveEvent("R1_add", (ci, g, over_first, sign))
            elif len(gaps) < 2:
                m = MoveEvent("R1_add", (0, 0, True, 1))
            else:
                g1, g2 = rng.sample(gaps, 2)
                role1 = rng.choice(CLASSICAL_ROLES)
                parallel = rng.random() < 0.5
                sign = rng.choice((1, -1))
                m = MoveEvent("R2_add", (g1, g2, role1, parallel, sign))
        cur = apply(cur, m)
    return cur


def random_diagram(cfg: GeneratorConfig) -> Diagram:
    """A uniform random valid code with the requested counts, deterministic in seed.

    Call order is fixed: component assignment for every passage token
    (classical ids first, then double points), then one shuffle per
    component, then one sign draw per classical crossing.
    """
    rng = random.Random(cfg.seed)
    k, m = cfg.classical_crossings, cfg.double_points
    tokens: list[Passage] = []
    for cid in range(1, k + 1):
        tokens.append(Passage(cid, OVER))
        tokens.append(Passage(cid, UNDER))
    for cid in range(k + 1, k + m + 1):
        tokens.append(Passage(cid, FIRST))
        tokens.append(Passage(cid, SECOND))
    comp_lists: list[list[Passage]] = [[] for _ in range(cfg.components)]
    for tok in tokens:
        comp_lists[rng.randrange(cfg.components)].append(tok)
    for lst in comp_lists:
        rng.shuffle(lst)
    table: dict[int, Crossing] = {}
    for cid in range(1, k + 1):
        table[cid] = Crossing(cid, "x", rng.choice((1, -1)))
    for cid in range(k + 1, k + m + 1):
        table[cid] = Crossing(cid, "d", None)
    return Diagram(tuple(tuple(lst) for lst in comp_lists), table)
