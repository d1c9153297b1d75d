"""Virtual link diagrams as signed Gauss codes, plus the two slot permutations.

Text format
-----------
A diagram is a list of components, one per line, each line being the
word "component:" followed by whitespace-separated passage tokens in
the cyclic order in which the component traverses its crossings:

    component: O1+ U2+ O3- U1+ O2+ U3-
    component: U4- O4-

A token is a role letter, a crossing id (positive integer), and for
classical crossings a sign.  Roles O (over) and U (under) mark the two
passages through a classical crossing and must carry the same sign
(+ or -) on both.  Roles A and B mark the two passages through a
double point (a rigid singular crossing) and carry no sign.  A line
"component:" with no tokens is an empty component (a crossing-free
closed curve).  Blank lines and lines starting with '#' are ignored.

Virtual crossings are deliberately not recorded: moves that involve
only virtual crossings never change the code, and every abstract code
of this shape is realizable as a virtual diagram, so the code itself
is the honest object of study.

Slot convention
---------------
Every classical crossing owns two matrix slots, left (l) and right (r).
Crossings are ranked by ascending id; crossing of rank i contributes
slot indices 2*i (its l) and 2*i + 1 (its r).  Draw both strands
pointing upward, so each crossing has two incoming lower half-edges
and two outgoing upper half-edges.  At a positive crossing the
overpass enters on the left and exits on the right, the underpass
enters on the right and exits on the left; a negative crossing swaps
left and right throughout.  Hence:

    entry side:  over -> l if sign > 0 else r
                 under -> r if sign > 0 else l
    exit side:   the opposite letter of the entry side

`entry_slots` is the one place that maps a passage to its slot: it
lists each component's entry slots in traversal order, and a passage
leaves by the other slot of its crossing, entry ^ 1.  P, TP and the
arc matrix of the invariants module are all read off that list.

The permutation P maps, for each pair of consecutive passages p -> q
along a component (cyclically), the entry slot of q to the exit slot
of p.  As a matrix, column s carries a single 1 in row P.perm[s].  The
companion permutation is read off by walking along each component and
writing down the exit slots in traversal order: it maps the exit slot
of p to the exit slot of q, contributing one cycle per component.
With T the permutation that swaps the two slots of every crossing,
the companion equals T composed with the inverse of P; tests pin this
identity down.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .laurent import ONE, LaurentPoly2, PolyMatrix

OVER = "O"
UNDER = "U"
FIRST = "A"
SECOND = "B"

CLASSICAL_ROLES = (OVER, UNDER)
DOUBLE_ROLES = (FIRST, SECOND)


class Passage(NamedTuple):
    """One traversal of a crossing: which crossing, and in which role."""

    crossing: int
    role: str


class _CrossingFields(NamedTuple):
    id: int
    kind: str
    sign: int | None


class Crossing(_CrossingFields):
    """A crossing record: classical ('x', signed) or double point ('d', unsigned)."""

    __slots__ = ()

    def __new__(cls, id: int, kind: str, sign: int | None) -> "Crossing":
        if kind == "x":
            if sign not in (1, -1):
                raise ValueError(f"classical crossing {id} needs sign +1 or -1")
        elif kind == "d":
            if sign is not None:
                raise ValueError(f"double point {id} must not carry a sign")
        else:
            raise ValueError(f"unknown crossing kind {kind!r}")
        return tuple.__new__(cls, (id, kind, sign))


class _DiagramFields(NamedTuple):
    components: tuple[tuple[Passage, ...], ...]
    crossings: dict[int, Crossing]


class Diagram(_DiagramFields):
    """An immutable signed Gauss code: components of passages plus a crossing table."""

    __slots__ = ()

    def __new__(cls, components: tuple[tuple[Passage, ...], ...],
                crossings: dict[int, Crossing]) -> "Diagram":
        return tuple.__new__(cls, (components, dict(crossings)))

    def classical_ids(self) -> list[int]:
        return sorted(i for i, c in self.crossings.items() if c.kind == "x")

    def double_ids(self) -> list[int]:
        return sorted(i for i, c in self.crossings.items() if c.kind == "d")

    def n_classical(self) -> int:
        return sum(1 for c in self.crossings.values() if c.kind == "x")

    def has_doubles(self) -> bool:
        return any(c.kind == "d" for c in self.crossings.values())

    def has_empty_component(self) -> bool:
        return any(not comp for comp in self.components)

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings.values() if c.kind == "x")

    def __hash__(self) -> int:
        return hash((self.components, frozenset(self.crossings.items())))


_TOKEN_RE = re.compile(r"^([OUAB])([0-9]+)([+-]?)$")


def parse_diagram(text: str) -> Diagram:
    """Parse the text format above; raises ValueError with line/token context."""
    components: list[tuple[Passage, ...]] = []
    crossings: dict[int, Crossing] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("component:"):
            raise ValueError(f"line {lineno}: expected 'component:', got {line.split()[0]!r}")
        passages: list[Passage] = []
        for tok in line[len("component:"):].split():
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ValueError(f"line {lineno}: malformed passage token {tok!r}")
            role, id_s, sign_s = m.groups()
            cid = int(id_s)
            if cid <= 0:
                raise ValueError(f"line {lineno}: crossing id must be positive in {tok!r}")
            if role in CLASSICAL_ROLES:
                if not sign_s:
                    raise ValueError(f"line {lineno}: classical passage {tok!r} needs a sign")
                sign = 1 if sign_s == "+" else -1
                rec = Crossing(cid, "x", sign)
            else:
                if sign_s:
                    raise ValueError(f"line {lineno}: double point passage {tok!r} must not have a sign")
                rec = Crossing(cid, "d", None)
            prev = crossings.get(cid)
            if prev is None:
                crossings[cid] = rec
            elif prev != rec:
                prev_desc = prev.kind if prev.sign is None else f"{prev.kind}{prev.sign:+d}"
                raise ValueError(
                    f"line {lineno}: crossing {cid} redeclared inconsistently "
                    f"({prev_desc} vs token {tok!r})"
                )
            passages.append(Passage(cid, role))
        components.append(tuple(passages))
    return Diagram(tuple(components), crossings)


def format_diagram(d: Diagram) -> str:
    """Inverse of parse_diagram up to whitespace; round-trips token for token."""
    lines = []
    for comp in d.components:
        toks = []
        for p in comp:
            c = d.crossings[p.crossing]
            if c.kind == "x":
                toks.append(f"{p.role}{p.crossing}{'+' if c.sign > 0 else '-'}")
            else:
                toks.append(f"{p.role}{p.crossing}")
        lines.append("component: " + " ".join(toks) if toks else "component:")
    return "\n".join(lines)


# each kind's two roles, and the orders in which two visits cover them
_ROLES = {"x": CLASSICAL_ROLES, "d": DOUBLE_ROLES}
_COVERS = {kind: (roles, roles[::-1]) for kind, roles in _ROLES.items()}


def validate(d: Diagram) -> list[str]:
    """Structural checks; returns human-readable problems (empty list if sound).

    One pass over the passages reports each passage through an undeclared
    crossing or in a role its crossing's kind lacks, in traversal order,
    and notes the roles each crossing is visited in; then each crossing not
    visited exactly twice, in the two roles of its kind, is reported, by id.
    """
    problems: list[str] = []
    crossings = d.crossings
    visits: dict[int, tuple[str, ...]] = dict.fromkeys(crossings, ())
    for ci, comp in enumerate(d.components):
        for cid, role in comp:
            rec = crossings.get(cid)
            if rec is None:
                problems.append(f"component {ci}: passage through undeclared crossing {cid}")
                continue
            if role not in _ROLES[rec.kind]:
                problems.append(f"component {ci}: role {role!r} invalid for {rec.kind!r} crossing {cid}")
            visits[cid] += (role,)
    for cid in sorted(cid for cid, roles in visits.items() if roles not in _COVERS[crossings[cid].kind]):
        roles, kind = visits[cid], crossings[cid].kind
        if len(roles) != 2:
            problems.append(f"crossing {cid}: visited {len(roles)} times, expected exactly 2")
        else:
            problems.append(f"crossing {cid}: roles {sorted(roles)} do not cover {sorted(_ROLES[kind])}")
    return problems


def _require_valid(d: Diagram) -> None:
    problems = validate(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# slot permutations
# ---------------------------------------------------------------------------


class _SlotPermutationFields(NamedTuple):
    n: int
    perm: tuple[int, ...]


class SlotPermutation(_SlotPermutationFields):
    """A permutation of the 2n crossing slots, stored as perm[src] = dst."""

    __slots__ = ()

    def __new__(cls, n: int, perm: tuple[int, ...]) -> "SlotPermutation":
        if len(perm) != 2 * n or sorted(perm) != list(range(2 * n)):
            raise ValueError(f"not a permutation of {2 * n} slots: {perm}")
        return tuple.__new__(cls, (n, perm))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * (2 * self.n)
        out = []
        for start in range(2 * self.n):
            if seen[start]:
                continue
            cyc = []
            s = start
            while not seen[s]:
                seen[s] = True
                cyc.append(s)
                s = self.perm[s]
            out.append(tuple(cyc))
        return out

    def matrix(self) -> PolyMatrix:
        """Column s holds a single 1 in row perm[s]."""
        entries: list[dict[int, LaurentPoly2]] = [{} for _ in self.perm]
        for s, t in enumerate(self.perm):
            entries[t][s] = ONE
        return PolyMatrix(len(entries), tuple(entries))


# (role, sign) -> entry side, 0 = l and 1 = r, for the two classical roles
# only; see the slot convention in the module docstring
_SIDES = {(OVER, 1): 0, (OVER, -1): 1, (UNDER, 1): 1, (UNDER, -1): 0}


def entry_slots(d: Diagram) -> list[list[int]]:
    """Each component's entry slots in traversal order, 2 * rank + entry
    side; a passage exits by the other slot, entry ^ 1.  Raises KeyError
    on a passage that has no slot: one through an undeclared crossing or a
    double point, or in a role other than O or U.  Nothing else is checked."""
    base = {cid: 2 * i for i, cid in enumerate(d.classical_ids())}
    table = d.crossings
    return [[base[cid] + _SIDES[role, table[cid].sign] for cid, role in comp]
            for comp in d.components]


def _classical_slots(d: Diagram) -> list[list[int]]:
    """entry_slots of d, once d is a valid diagram without double points."""
    if d.has_doubles():
        raise ValueError("resolve double points first: slot permutations need a classical diagram")
    _require_valid(d)
    return entry_slots(d)


def build_P(d: Diagram) -> SlotPermutation:
    """Connection permutation: entry slot of each passage -> exit slot of the previous."""
    perm = [-1] * (2 * d.n_classical())
    for slots in _classical_slots(d):
        for prev, e in zip(slots[-1:] + slots[:-1], slots):
            perm[e] = prev ^ 1
    return SlotPermutation(len(perm) // 2, tuple(perm))


def build_TP(d: Diagram) -> SlotPermutation:
    """Companion permutation: exit slot of each passage -> exit slot of the next.

    Built by walking each component and writing down the exit slots in
    traversal order, one cycle per component.  Independent of build_P;
    tests pin down that it equals T composed with the inverse of P.
    """
    perm = [-1] * (2 * d.n_classical())
    for slots in _classical_slots(d):
        for e, nxt in zip(slots, slots[1:] + slots[:1]):
            perm[e ^ 1] = nxt ^ 1
    return SlotPermutation(len(perm) // 2, tuple(perm))


# ---------------------------------------------------------------------------
# diagram surgery
# ---------------------------------------------------------------------------


def switch(d: Diagram, cid: int) -> Diagram:
    """Flip the sign of classical crossing cid and exchange its O and U passages."""
    rec = d.crossings.get(cid)
    if rec is None or rec.kind != "x":
        raise ValueError(f"crossing {cid} is not a classical crossing of this diagram")
    return _relabel(d, cid, {OVER: UNDER, UNDER: OVER}, -rec.sign)


def _relabel(d: Diagram, cid: int, roles: dict[str, str], sign: int) -> Diagram:
    """Map crossing cid's passage roles through `roles` and make it a
    classical crossing of the given sign."""
    comps = tuple(
        tuple(Passage(p.crossing, roles[p.role]) if p.crossing == cid else p for p in comp)
        for comp in d.components
    )
    return Diagram(comps, {**d.crossings, cid: Crossing(cid, "x", sign)})


def set_sign(d: Diagram, cid: int, sign: int) -> Diagram:
    """Force classical crossing cid to the given sign, switching if needed."""
    rec = d.crossings.get(cid)
    if rec is None or rec.kind != "x":
        raise ValueError(f"crossing {cid} is not a classical crossing of this diagram")
    return d if rec.sign == sign else switch(d, cid)


def smooth(d: Diagram, cid: int) -> Diagram:
    """Oriented smoothing at crossing cid: reconnects strands, drops the crossing.

    The rule is positional and ignores role and sign.  If both
    passages sit on one component, splitting the cyclic word at them
    as alpha p beta p' gamma yields two components (alpha gamma) and
    (beta); if they sit on two components alpha p and beta p', the
    result is the single merged component (alpha beta).
    """
    rec = d.crossings.get(cid)
    if rec is None:
        raise ValueError(f"crossing {cid} is not a crossing of this diagram")
    hits = [
        (ci, t)
        for ci, comp in enumerate(d.components)
        for t, p in enumerate(comp)
        if p.crossing == cid
    ]
    if len(hits) != 2:
        raise ValueError(f"crossing {cid} must be visited exactly twice to smooth")
    table = {k: v for k, v in d.crossings.items() if k != cid}
    (c1, t1), (c2, t2) = hits
    comps = list(d.components)
    if c1 == c2:
        comp = comps[c1]
        lo, hi = sorted((t1, t2))
        alpha_gamma = comp[:lo] + comp[hi + 1 :]
        beta = comp[lo + 1 : hi]
        comps[c1] = alpha_gamma
        comps.insert(c1 + 1, beta)
    else:
        a = comps[c1]
        b = comps[c2]
        # rotate each so its passage sits last, then drop both and join
        merged = a[t1 + 1 :] + a[:t1] + b[t2 + 1 :] + b[:t2]
        comps[c1] = merged
        del comps[c2]
    return Diagram(tuple(comps), table)


def resolve_double(d: Diagram, cid: int) -> Diagram:
    """Resolve double point cid to a positive crossing with the A passage on
    top.  Its switch is the negative resolution."""
    rec = d.crossings.get(cid)
    if rec is None or rec.kind != "d":
        raise ValueError(f"crossing {cid} is not a double point of this diagram")
    return _relabel(d, cid, {FIRST: OVER, SECOND: UNDER}, 1)


def reverse(d: Diagram) -> Diagram:
    """Reverse the orientation of every component (signs are unchanged)."""
    comps = tuple(tuple(reversed(comp)) for comp in d.components)
    return Diagram(comps, dict(d.crossings))


def mirror(d: Diagram) -> Diagram:
    """Mirror image: every classical crossing is switched, so it changes sign
    and swaps O with U; double points stay as they are."""
    for cid in d.classical_ids():
        d = switch(d, cid)
    return d


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side, renumbering d2's crossings above d1's."""
    offset = max(d1.crossings, default=0)
    comps2 = tuple(
        tuple(Passage(p.crossing + offset, p.role) for p in comp) for comp in d2.components
    )
    table = dict(d1.crossings)
    for cid, rec in d2.crossings.items():
        table[cid + offset] = Crossing(cid + offset, rec.kind, rec.sign)
    return Diagram(d1.components + comps2, table)
