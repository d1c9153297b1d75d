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

Moves are made on one mutable code (`_Code`): each component a list of
int passage keys 4·crossing + role, a sign table, and a site index kept
current by three edits (insert a strand pair at a gap, delete a window's
pair, swap a window).  A window is named by its first passage; the index
holds successor and predecessor maps over the passages, the R1_remove,
R2_remove and R3 site sets, and the sites of each window, as the site
tuples themselves (a site's kind is its length: 1, 2, or 4 with the
variant).  An edit changes at most three windows and re-indexes only
those: a valid code holds each passage once, so a window's sites are
dictionary lookups, not scans.  A third-move site is matched from its three
crossings: a same-sign window names two, and one neighbour test names each
possible third, a crossing of the same sign next to the other passages of
both; most windows have none, and no site can.  With the three ids known,
each pattern window is one successor lookup.  A walk converts its diagram
once, steps on the code and builds one Diagram at the end; `apply` makes
the same edits on a code built from its diagram, and takes a removal or
third-move site only if that code's index holds it.

Positions (ci, t) are read only when a site list is wanted, and each list
is sorted into window order (component, then position; R3 sites by
variant first).  That order is part of the contract: walks draw from
these lists with a seeded rng, so the order makes a walk, and every
`verify` result, reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import NamedTuple

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


class MoveEvent(NamedTuple):
    kind: str
    site: tuple


class _GeneratorConfigFields(NamedTuple):
    classical_crossings: int
    components: int
    double_points: int
    seed: int


class GeneratorConfig(_GeneratorConfigFields):
    __slots__ = ()

    def __new__(cls, classical_crossings: int, components: int, double_points: int = 0,
                seed: int = 0) -> "GeneratorConfig":
        if classical_crossings < 0 or double_points < 0:
            raise ValueError("crossing counts must be non-negative")
        if components < 1:
            raise ValueError("need at least one component")
        return tuple.__new__(cls, (classical_crossings, components, double_points, seed))


# The four kink types, in the canonical order used for factor tables:
# (over_first, sign).
KINK_TYPES: tuple[tuple[bool, int], ...] = ((True, 1), (False, 1), (False, -1), (True, -1))

# the kinds of the site index, in the order of `_Code.removal_sites`
_REMOVAL_KINDS = ("R1_remove", "R2_remove", "R3")

# passage keys: 4 * crossing + role, the roles O, U, A, B read as 0, 1, 2, 3
_ROLE_KEY = {OVER: 0, UNDER: 1, FIRST: 2, SECOND: 3}
_KEY_ROLE = (OVER, UNDER, FIRST, SECOND)
_O, _U = _ROLE_KEY[OVER], _ROLE_KEY[UNDER]

# R3 window patterns per variant: three windows given as ((role, key), (role, key))
# over abstract crossing keys 0, 1, 2, plus the common sign.  Any two of the
# windows share exactly one key, so one window of a site locates the other two.
_R3_PATTERNS = {
    "L+": (((_O, 0), (_O, 1)), ((_U, 0), (_O, 2)), ((_U, 1), (_U, 2)), 1),
    "R+": (((_O, 0), (_O, 1)), ((_O, 2), (_U, 1)), ((_U, 2), (_U, 0)), 1),
    "L-": (((_U, 0), (_U, 1)), ((_O, 0), (_U, 2)), ((_O, 1), (_O, 2)), -1),
    "R-": (((_U, 0), (_U, 1)), ((_U, 2), (_O, 1)), ((_O, 2), (_O, 0)), -1),
}
_R3_RANK = {variant: i for i, variant in enumerate(_R3_PATTERNS)}

# swapping a variant's three windows leaves the opposite-handed pattern
_R3_FLIP = {"L+": "R+", "R+": "L+", "L-": "R-", "R-": "L-"}


def _slot_key(ra: int, rb: int, s: int) -> int:
    """One small int for (first role, second role, sign) of a window; s & 4
    is 4 for s = -1 and 0 for s = 1."""
    return ra << 1 | rb | s & 4


def _r3_slots() -> tuple[tuple[tuple[str, int, tuple], ...], ...]:
    """`_slot_key` of a window -> (variant, slot j, windows) of every pattern
    slot such a window can fill."""
    slots: list[list] = [[] for _ in range(8)]
    for variant, (*windows, sign) in _R3_PATTERNS.items():
        for j, ((ra, _), (rb, _)) in enumerate(windows):
            slots[_slot_key(ra, rb, sign)].append((variant, j, tuple(windows)))
    return tuple(map(tuple, slots))


_R3_SLOTS = _r3_slots()

# a site's kind by its length: an R3 site carries its variant after its
# three windows, the other kinds are their windows
_KIND_OF_SIZE = (None, "R1_remove", "R2_remove", None, "R3")


class _Code:
    """A mutable Gauss code that keeps its removal and third-move sites current.

    `comps` holds each component as a list of passage keys and `sign` maps
    every crossing id to its sign (None for a double point), in the order of
    the diagram's crossing table.  A window is named by its first passage:
    `nxt` and `prv` link each passage to its neighbours along its component (a
    one-passage component links its passage to itself and has no window).
    `sites` holds the sites of each kind as tuples of window names, and `at`
    holds the sites of each window, whose kind `_KIND_OF_SIZE` reads off
    their length.  The three edits below change at most three windows each
    and re-index only those.
    """

    __slots__ = ("comps", "sign", "comp_of", "nxt", "prv", "sites", "at")

    def __init__(self, d: Diagram) -> None:
        self.comps = [[4 * p.crossing + _ROLE_KEY[p.role] for p in comp] for comp in d.components]
        self.sign = {cid: rec.sign for cid, rec in d.crossings.items()}
        self.comp_of = {k: ci for ci, comp in enumerate(self.comps) for k in comp}
        self.nxt: dict[int, int] = {}
        self.prv: dict[int, int] = {}
        for comp in self.comps:
            for p, q in zip(comp, comp[1:] + comp[:1]):
                self.nxt[p] = q
                self.prv[q] = p
        self.sites: dict[str, set[tuple]] = {kind: set() for kind in _REMOVAL_KINDS}
        self.at: dict[int, set[tuple]] = {}
        for w in self.nxt:
            self._find(w)

    def diagram(self) -> Diagram:
        comps = tuple(
            tuple(Passage(k >> 2, _KEY_ROLE[k & 3]) for k in comp) for comp in self.comps
        )
        table = {cid: Crossing(cid, "d" if s is None else "x", s) for cid, s in self.sign.items()}
        return Diagram(comps, table)

    # -- the site index

    def _add(self, kind: str, site: tuple) -> None:
        sites = self.sites[kind]
        if site not in sites:
            sites.add(site)
            for w in site[:3]:
                self.at.setdefault(w, set()).add(site)

    def _drop(self, w: int) -> None:
        """Forget every site that has window w."""
        at = self.at
        for site in at.pop(w, ()):
            self.sites[_KIND_OF_SIZE[len(site)]].remove(site)
            for u in site[:3]:
                if u != w:
                    at[u].remove(site)

    def _find(self, a: int) -> None:
        """Index every site that has window a; a valid code holds each passage
        once, so the site's other windows are dictionary lookups.

        A third-move site needs a third crossing c of the same sign, next to
        both a ^ 1 and b ^ 1: its six passages are distinct, and each of its
        other two windows pairs one of them with a passage of c.  So a
        window without such a c, as most same-sign windows are, is matched
        against no pattern.  Each such c among the two neighbours of b ^ 1
        is tried; a pattern slot fixes c, so no site is found twice.  A
        passage not linked yet (between `add_bigon`'s two inserts) stands in
        for its own neighbours, and so has none."""
        nxt = self.nxt
        b = nxt[a]
        if a == b or (a | b) & 2:
            return  # no window, or one through a double point
        ca, cb = a >> 2, b >> 2
        if ca == cb:
            self._add("R1_remove", (a,))
            return
        s = self.sign[ca]
        if s != self.sign[cb]:
            if (a ^ b) & 1 == 0:  # O-O or U-U; a site names its over-window first
                for p, q in ((a ^ 1, b ^ 1), (b ^ 1, a ^ 1)):
                    if nxt.get(p) == q:
                        self._add("R2_remove", (p, a) if a & 1 else (a, p))
            return
        prv, p, q = self.prv, a ^ 1, b ^ 1
        u, v = nxt.get(p, p) >> 2, prv.get(p, p) >> 2
        for c in {nxt.get(q, q) >> 2, prv.get(q, q) >> 2}:
            if (c == u or c == v) and c != ca and c != cb and self.sign[c] == s:
                for variant, j, windows in _R3_SLOTS[_slot_key(a & 1, b & 1, s)]:
                    site = self._r3_site(variant, j, windows, a, b, c)
                    if site is not None:
                        self._add("R3", site)

    def _r3_site(self, variant: str, j: int, windows: tuple,
                 a: int, b: int, c: int) -> tuple | None:
        """The `variant` site whose window j is a -> b and whose third
        crossing is c, if the code holds it."""
        (_, ka), (_, kb) = windows[j]
        ids = [c, c, c]
        ids[ka], ids[kb] = a >> 2, b >> 2
        starts = [a, a, a]
        for i in ((1, 2), (0, 2), (0, 1))[j]:
            (r1, k1), (r2, k2) = windows[i]
            starts[i] = p = 4 * ids[k1] + r1
            if self.nxt.get(p) != 4 * ids[k2] + r2:
                return None
        return (*starts, variant)

    # -- the three edits

    def insert(self, ci: int, g: int, k1: int, k2: int) -> None:
        """Put passages k1, k2 at gap g of component ci."""
        comp, nxt, prv = self.comps[ci], self.nxt, self.prv
        self.comp_of[k1] = self.comp_of[k2] = ci
        nxt[k1], prv[k2] = k2, k1
        if comp:
            x, y = comp[g - 1], comp[g]
            self._drop(x)
            nxt[x], prv[k1], nxt[k2], prv[y] = k1, x, y, k2
            self._find(x)
        else:
            nxt[k2], prv[k1] = k1, k2
        comp[g:g] = (k1, k2)
        self._find(k1)
        self._find(k2)

    def delete(self, a: int) -> None:
        """Take out the two passages of window a."""
        nxt, prv = self.nxt, self.prv
        b = nxt[a]
        x, y = prv[a], nxt[b]
        for w in (x, a, b):
            self._drop(w)
        comp = self.comps[self.comp_of.pop(a)]
        del self.comp_of[b]
        i = comp.index(a)
        if i + 1 < len(comp):
            del comp[i : i + 2]
        else:
            del comp[i], comp[0]
        del nxt[a], prv[a], nxt[b], prv[b]
        if comp:
            nxt[x], prv[y] = y, x
            self._find(x)

    def swap(self, a: int) -> None:
        """Exchange the two passages of window a."""
        nxt, prv = self.nxt, self.prv
        b = nxt[a]
        x, y = prv[a], nxt[b]
        comp = self.comps[self.comp_of[a]]
        i = comp.index(a)
        j = (i + 1) % len(comp)
        comp[i], comp[j] = b, a
        if x == b:
            return  # a two-passage cycle reads the same either way round
        for w in (x, a, b):
            self._drop(w)
        nxt[x], prv[b], nxt[b], prv[a], nxt[a], prv[y] = b, x, a, b, y, a
        for w in (x, a, b):
            self._find(w)

    # -- moves in terms of the edits

    def add_kink(self, ci: int, g: int, over_first: bool, sign: int) -> None:
        """A first-move kink at gap g of component ci; new ids follow the largest."""
        cid = max(self.sign, default=0) + 1
        self.sign[cid] = sign
        o, u = 4 * cid + _O, 4 * cid + _U
        self.insert(ci, g, *((o, u) if over_first else (u, o)))

    def add_bigon(self, gap1: tuple[int, int], gap2: tuple[int, int],
                  role1: str, parallel: bool, sign: int) -> None:
        """A second-move pair of crossings, strand 1 at gap1 and strand 2 at gap2."""
        c = max(self.sign, default=0) + 1
        self.sign[c] = sign
        self.sign[c + 1] = -sign
        r1 = _ROLE_KEY[role1]
        r2 = r1 ^ 1
        strand1 = (4 * c + r1, 4 * c + 4 + r1)
        strand2 = (4 * c + r2, 4 * c + 4 + r2) if parallel else (4 * c + 4 + r2, 4 * c + r2)
        # same component: the later gap first, so the earlier gap stays in place
        if (gap2[0], -gap2[1]) < (gap1[0], -gap1[1]):
            gap1, strand1, gap2, strand2 = gap2, strand2, gap1, strand1
        self.insert(*gap1, *strand1)
        self.insert(*gap2, *strand2)

    def remove(self, kind: str, site: tuple) -> None:
        """Make a removal or third move at a site given by window names."""
        if kind == "R3":
            for w in site[:3]:
                self.swap(w)
            return
        gone = {site[0] >> 2, self.nxt[site[0]] >> 2}
        for w in site:
            self.delete(w)
        for cid in gone:
            del self.sign[cid]

    def gap(self, i: int) -> tuple[int, int]:
        """Gap i in the order (component, gap)."""
        for ci, comp in enumerate(self.comps):
            n = len(comp) or 1
            if i < n:
                return ci, i
            i -= n
        raise IndexError(i)

    # -- site listings in (ci, t) positions

    def _pos(self, k: int) -> tuple[int, int]:
        ci = self.comp_of[k]
        return ci, self.comps[ci].index(k)

    def listing(self, kind: str) -> list[tuple]:
        """The sites of one kind in window order, R3 sites by variant first."""
        pos, sites = self._pos, self.sites[kind]
        if len(sites) == 1:
            return list(sites)
        if kind == "R1_remove":
            return sorted(sites, key=lambda s: pos(s[0]))
        if kind == "R2_remove":
            return sorted(sites, key=lambda s: (pos(s[0]), pos(s[1])))
        return sorted(sites, key=lambda s: (_R3_RANK[s[3]], pos(s[0])))

    def removal_sites(self) -> tuple[list[tuple], list[tuple], list[tuple]]:
        """Every site listing with windows as (ci, t) positions."""
        pos = self._pos
        r1, r2, r3 = (self.listing(kind) for kind in _REMOVAL_KINDS)
        return (
            [pos(w) for w, in r1],
            [(pos(w1), pos(w2)) for w1, w2 in r2],
            [(pos(w1), pos(w2), pos(w3), v) for w1, w2, w3, v in r3],
        )


def _window(code: _Code, pos: tuple[int, int]) -> int:
    """The name (first passage key) of window t of component ci, given as
    pos = (ci, t), or MoveError if there is none."""
    ci, t = pos
    if not 0 <= ci < len(code.comps):
        raise MoveError(f"inapplicable move: no component {ci}")
    comp = code.comps[ci]
    if len(comp) < 2 or not 0 <= t < len(comp):
        raise MoveError(f"inapplicable move: no window {t} in component {ci}")
    return comp[t]


def _check_gap(code: _Code, ci: int, g: int) -> None:
    if not 0 <= ci < len(code.comps) or g not in range(len(code.comps[ci]) or 1):
        raise MoveError(f"inapplicable move: no gap {g} in component {ci}")


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise MoveError(f"inapplicable move: sign {sign!r} is not +1 or -1")


# what a removal or third-move site must be, for the MoveError when it is not
_SITE_OF = {"R1_remove": "a kink", "R2_remove": "a second-move pair", "R3": "a third-move triple"}


def _indexed_site(code: _Code, kind: str, site: tuple) -> tuple:
    """A removal or third-move site in window names, if the code's index holds it."""
    if kind == "R1_remove":
        names = [(_window(code, site),)]
    elif kind == "R2_remove":
        names = [tuple(_window(code, pos) for pos in site)]
    else:
        *windows, variant = site
        triple = tuple(_window(code, pos) for pos in windows)
        # the same windows carry the opposite-handed pattern after one swap,
        # so re-applying an event undoes it
        names = [(*triple, variant), (*triple, _R3_FLIP.get(variant))]
    for name in names:
        if name in code.sites[kind]:
            return name
    raise MoveError(f"inapplicable move: {site!r} is not {_SITE_OF[kind]}")


def apply(d: Diagram, m: MoveEvent) -> Diagram:
    """Apply one move to the valid diagram d; the result is valid.

    Raises MoveError when the site does not fit d.  d itself is not
    checked: parsing and the generator are the input boundary.
    """
    code = _Code(d)
    if m.kind == "R1_add":
        ci, gap, over_first, sign = m.site
        _check_gap(code, ci, gap)
        _check_sign(sign)
        code.add_kink(ci, gap, over_first, sign)
    elif m.kind == "R2_add":
        (ci1, g1), (ci2, g2), role1, parallel, sign = m.site
        if (ci1, g1) == (ci2, g2):
            raise MoveError("inapplicable move: second-move strands need two distinct gaps")
        _check_gap(code, ci1, g1)
        _check_gap(code, ci2, g2)
        if role1 not in CLASSICAL_ROLES:
            raise MoveError(f"inapplicable move: role {role1!r} is not classical")
        _check_sign(sign)
        code.add_bigon((ci1, g1), (ci2, g2), role1, parallel, sign)
    elif m.kind in _REMOVAL_KINDS:
        code.remove(m.kind, _indexed_site(code, m.kind, m.site))
    else:
        raise MoveError(f"inapplicable move: unknown kind {m.kind!r}")
    return code.diagram()


def _step(code: _Code, rng: random.Random, cap: int) -> None:
    """One random move on a code without double points: a kind uniformly
    among those available, then a site of that kind uniformly."""
    n = len(code.sign)
    kinds = [kind for kind in _REMOVAL_KINDS if code.sites[kind]]
    if n + 1 <= cap:
        kinds.append("R1_add")
    if n + 2 <= cap:
        kinds.append("R2_add")
    if not kinds:
        kinds = ["R1_add"]
    kind = rng.choice(kinds)
    if kind in code.sites:
        code.remove(kind, rng.choice(code.listing(kind)))
        return
    # gaps are drawn by index in (component, gap) order: rng.choice(range(G))
    # and rng.sample(range(G), 2) draw as they would from a list of the G gaps
    n_gaps = sum(len(comp) or 1 for comp in code.comps)
    if kind == "R1_add":
        ci, g = code.gap(rng.choice(range(n_gaps)))
        over_first, sign = rng.choice(KINK_TYPES)
        code.add_kink(ci, g, over_first, sign)
    elif n_gaps < 2:
        code.add_kink(0, 0, True, 1)
    else:
        g1, g2 = rng.sample(range(n_gaps), 2)
        role1 = rng.choice(CLASSICAL_ROLES)
        parallel = rng.random() < 0.5
        sign = rng.choice((1, -1))
        code.add_bigon(code.gap(g1), code.gap(g2), role1, parallel, sign)


def random_walk(
    d: Diagram, steps: int, seed: int, *, max_crossings: int | None = None
) -> Diagram:
    """Apply `steps` random moves to one mutable code and return its diagram.

    The walk converts d once, steps on the code, whose site index is kept
    current by each move, and builds one Diagram at the end.  Each step
    picks uniformly among the currently available move kinds, then
    uniformly among that kind's sites in listing order.  A soft cap
    (default: the starting crossing count plus 4) excludes additions while
    at or over the cap, except as a last resort when nothing else applies.
    """
    if steps < 0:
        raise ValueError(f"a walk needs a non-negative number of steps, got {steps}")
    if d.has_doubles():
        raise ValueError("moves are generated for non-singular diagrams only")
    if not d.components:
        raise ValueError("a walk needs a component to put a kink in")
    rng = random.Random(seed)
    cap = max_crossings if max_crossings is not None else d.n_classical() + 4
    code = _Code(d)
    for _ in range(steps):
        _step(code, rng, cap)
    return code.diagram()


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
