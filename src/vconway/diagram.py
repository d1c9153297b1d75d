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
from dataclasses import dataclass
from typing import Iterable

from .laurent import ONE, ZERO, PolyMatrix

OVER = "O"
UNDER = "U"
FIRST = "A"
SECOND = "B"

CLASSICAL_ROLES = (OVER, UNDER)
DOUBLE_ROLES = (FIRST, SECOND)


@dataclass(frozen=True, slots=True)
class Passage:
    """One traversal of a crossing: which crossing, and in which role."""

    crossing: int
    role: str


@dataclass(frozen=True, slots=True)
class Crossing:
    """A crossing record: classical ('x', signed) or double point ('d', unsigned)."""

    id: int
    kind: str
    sign: int | None

    def __post_init__(self) -> None:
        if self.kind == "x":
            if self.sign not in (1, -1):
                raise ValueError(f"classical crossing {self.id} needs sign +1 or -1")
        elif self.kind == "d":
            if self.sign is not None:
                raise ValueError(f"double point {self.id} must not carry a sign")
        else:
            raise ValueError(f"unknown crossing kind {self.kind!r}")


@dataclass(frozen=True)
class Diagram:
    """An immutable signed Gauss code: components of passages plus a crossing table."""

    components: tuple[tuple[Passage, ...], ...]
    crossings: dict[int, Crossing]

    def __post_init__(self) -> None:
        object.__setattr__(self, "crossings", dict(self.crossings))

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
        return hash((self.components, tuple(sorted(self.crossings.items(), key=lambda kv: kv[0]))))


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


def validate(d: Diagram) -> list[str]:
    """Structural checks; returns human-readable problems (empty list if sound)."""
    problems: list[str] = []
    seen: dict[int, list[str]] = {}
    for ci, comp in enumerate(d.components):
        for p in comp:
            rec = d.crossings.get(p.crossing)
            if rec is None:
                problems.append(f"component {ci}: passage through undeclared crossing {p.crossing}")
                continue
            expected = CLASSICAL_ROLES if rec.kind == "x" else DOUBLE_ROLES
            if p.role not in expected:
                problems.append(
                    f"component {ci}: role {p.role!r} invalid for {rec.kind!r} crossing {p.crossing}"
                )
            seen.setdefault(p.crossing, []).append(p.role)
    for cid, rec in sorted(d.crossings.items()):
        roles = seen.get(cid, [])
        if len(roles) != 2:
            problems.append(f"crossing {cid}: visited {len(roles)} times, expected exactly 2")
            continue
        expected = set(CLASSICAL_ROLES if rec.kind == "x" else DOUBLE_ROLES)
        if set(roles) != expected:
            problems.append(f"crossing {cid}: roles {sorted(roles)} do not cover {sorted(expected)}")
    return problems


def _require_valid(d: Diagram) -> None:
    problems = validate(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# slot permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SlotPermutation:
    """A permutation of the 2n crossing slots, stored as perm[src] = dst."""

    n: int
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.perm) != 2 * self.n or sorted(self.perm) != list(range(2 * self.n)):
            raise ValueError(f"not a permutation of {2 * self.n} slots: {self.perm}")

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
        m = 2 * self.n
        rows = [[ZERO] * m for _ in range(m)]
        for s, t in enumerate(self.perm):
            rows[t][s] = ONE
        return PolyMatrix(tuple(tuple(r) for r in rows))


def _entry_side(role: str, sign: int) -> int:
    # 0 = l, 1 = r; see the slot convention in the module docstring
    if role == OVER:
        return 0 if sign > 0 else 1
    return 1 if sign > 0 else 0


def _exit_side(role: str, sign: int) -> int:
    return _entry_side(role, sign) ^ 1


def _classical_rank(d: Diagram) -> dict[int, int]:
    return {cid: i for i, cid in enumerate(d.classical_ids())}


def _consecutive_passages(d: Diagram) -> Iterable[tuple[Passage, Passage]]:
    for comp in d.components:
        L = len(comp)
        for t in range(L):
            yield comp[t], comp[(t + 1) % L]


def build_P(d: Diagram) -> SlotPermutation:
    """Connection permutation: entry slot of each passage -> exit slot of the previous."""
    if d.has_doubles():
        raise ValueError("resolve double points first: slot permutations need a classical diagram")
    _require_valid(d)
    rank = _classical_rank(d)
    n = len(rank)
    perm = [-1] * (2 * n)
    for p, q in _consecutive_passages(d):
        sp = d.crossings[p.crossing].sign
        sq = d.crossings[q.crossing].sign
        src = 2 * rank[q.crossing] + _entry_side(q.role, sq)
        dst = 2 * rank[p.crossing] + _exit_side(p.role, sp)
        perm[src] = dst
    return SlotPermutation(n, tuple(perm))


def build_TP(d: Diagram) -> SlotPermutation:
    """Companion permutation: exit slot of each passage -> exit slot of the next.

    Built by walking each component and writing down the exit slots in
    traversal order, one cycle per component.  Independent of build_P;
    tests pin down that it equals T composed with the inverse of P.
    """
    if d.has_doubles():
        raise ValueError("resolve double points first: slot permutations need a classical diagram")
    _require_valid(d)
    rank = _classical_rank(d)
    n = len(rank)
    perm = [-1] * (2 * n)
    for p, q in _consecutive_passages(d):
        sp = d.crossings[p.crossing].sign
        sq = d.crossings[q.crossing].sign
        src = 2 * rank[p.crossing] + _exit_side(p.role, sp)
        dst = 2 * rank[q.crossing] + _exit_side(q.role, sq)
        perm[src] = dst
    return SlotPermutation(n, tuple(perm))


# ---------------------------------------------------------------------------
# diagram surgery
# ---------------------------------------------------------------------------


def switch(d: Diagram, cid: int) -> Diagram:
    """Flip the sign of classical crossing cid and exchange its O and U passages."""
    rec = d.crossings.get(cid)
    if rec is None or rec.kind != "x":
        raise ValueError(f"crossing {cid} is not a classical crossing of this diagram")
    flip = {OVER: UNDER, UNDER: OVER}
    comps = tuple(
        tuple(Passage(p.crossing, flip[p.role]) if p.crossing == cid else p for p in comp)
        for comp in d.components
    )
    return Diagram(comps, {**d.crossings, cid: Crossing(cid, "x", -rec.sign)})


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
    role_map = {FIRST: OVER, SECOND: UNDER}
    comps = tuple(
        tuple(
            Passage(p.crossing, role_map[p.role]) if p.crossing == cid else p for p in comp
        )
        for comp in d.components
    )
    return Diagram(comps, {**d.crossings, cid: Crossing(cid, "x", 1)})


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
