"""Polynomial invariants of virtual link diagrams.

The central object is the Z polynomial: with n classical crossings and
r components, build the 2n x 2n matrix M - P, where M is block
diagonal with one 2 x 2 block per crossing (by sign) and P is the
connection permutation of the diagram, and set

    Z(d) = (-1)^(n+r) * det(M - P)  in  Z[x^(+-1), y^(+-1)].

The component count belongs in the prefactor: smoothing a crossing
drops n by one and moves r by one, so without the r term the skein
relation below would flip sign at every smoothing.  The property suite
(classical vanishing, kink factors, the skein relation, and the
companion-permutation formula for c0) holds with this prefactor and
with no other, which is what pins it down.

Z is computed on a smaller matrix with the same determinant up to sign.
Each crossing's over-exit row of M - P holds one unit and P's -1, so
those n rows are eliminated along each component without a search or a
division (Silver & Williams, JKTR 10, 2001, present the generalized
Alexander polynomial on arcs the same way).  What is left is the arc
matrix: one row per under passage over one column per arc, plus one row
and column per component with no under passage, n + a in all.

A crossing-free diagram, or any diagram with a crossing-free
component, has Z = 0 by definition; the second case is forced by
first-move invariance, because a kink block on an otherwise empty
component contributes the factor det(block - I) = 0.

Z itself changes by a power of x under the first move.  The
x-normalized polynomial (lowest x-exponent shifted to 0) is invariant
under all the moves, and rewriting it in z = 1 - x gives the Conway
form whose z^0 and z^1 coefficients c0 and c1 are the invariants this
package studies.  c0 equals Z at x = 1 and also equals a single
determinant built from the companion permutation TP, which gives an
independent route used for cross-checking.

Diagrams with double points are evaluated through the alternating-sum
extension: a function f on classical diagrams extends to
sum over sign patterns of (product of signs) * f(resolved diagram).
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Callable

from .laurent import (
    ONE,
    X,
    X_INV,
    Y,
    Y_INV,
    ZERO,
    ConwayPoly,
    LaurentPoly2,
    PolyMatrix,
    _odd,
    det,
    det_terms,
    eval_x1,
    expand_conway,
    normalize_x,
)
from .diagram import (
    UNDER,
    Diagram,
    SlotPermutation,
    _require_valid,
    build_TP,
    resolve_double,
    set_sign,
    smooth,
    switch,
)
# unused here, but perfbench/tracing.py wraps this attribute of the module
from .diagram import build_P  # noqa: F401

# 2 x 2 crossing blocks; the negative block is the inverse of the positive one.
POS_BLOCK: tuple[tuple[LaurentPoly2, ...], ...] = (
    (ONE - X, -Y),
    (LaurentPoly2.monomial(-1, 1, -1), ZERO),
)
NEG_BLOCK: tuple[tuple[LaurentPoly2, ...], ...] = (
    (ZERO, LaurentPoly2.monomial(-1, -1, 1)),
    (-Y_INV, ONE - X_INV),
)

DEFAULT_BLOCKS = {1: POS_BLOCK, -1: NEG_BLOCK}
_blocks = DEFAULT_BLOCKS  # what Z is built from; see mutated_blocks()


@contextlib.contextmanager
def mutated_blocks():
    """Build Z with a deliberately wrong (negated) negative block inside the
    `with` body.  The memo is emptied on entry and on exit, also on an
    exception, so no Z value crosses between the right block and the wrong
    one.  This is module state, not thread-safe; the package starts no threads."""
    global _blocks
    _blocks = {1: POS_BLOCK, -1: tuple(tuple(-e for e in row) for row in NEG_BLOCK)}
    _z_memo.cache_clear()
    try:
        yield
    finally:
        _blocks = DEFAULT_BLOCKS
        _z_memo.cache_clear()


# most double points `vassiliev_eval` resolves, 2^m diagrams in all: `compute`
# took 32 s on a 64-crossing file with m = 6 (58 crossings, 2 components), and
# `verify --random 24,1,m --trials 1` 0.7 / 2.8 / 22 s at m = 6 / 8 / 10
MAX_DOUBLE_POINTS = 6

# Small on purpose: a campaign's repeats come within a few calls of each
# other, and a larger memo holds more 24+ crossing polynomials for nothing.
Z_MEMO_SIZE = 32


def z_polynomial(d: Diagram) -> LaurentPoly2:
    """The raw determinant polynomial Z(d) of a classical-only diagram.

    M is made of the crossing pair above; inside `mutated_blocks()` its
    negative block is wrong.  det(M - P) is taken on the arc matrix
    (`_arc_matrix`), of side n plus one per component with no under
    passage.  The Z_MEMO_SIZE most recently used values are kept, keyed
    by the diagram, so a diagram evaluated again (c1 after c0, D+ or D-
    equal to D in a skein triple) costs no determinant.
    """
    if d.has_doubles():
        raise ValueError("resolve double points first: Z is defined on classical diagrams")
    return _z_memo(d)


def _slot_matrix(blocks: list[tuple[tuple[LaurentPoly2, ...], ...]],
                 perm: SlotPermutation) -> PolyMatrix:
    """The 2n x 2n matrix with the 2 x 2 `blocks` down the diagonal, one per
    crossing by rank, plus 1 in row perm[s] of each column s; only its
    nonzero entries are written."""
    rows = [{j: e for j, e in enumerate(half, 2 * i) if e._t}
            for i, blk in enumerate(blocks) for half in blk]
    for s, t in enumerate(perm.perm):
        e = rows[t].pop(s, ZERO) + ONE
        if e._t:
            rows[t][s] = e
    return PolyMatrix(2 * perm.n, tuple(rows))


_split: tuple = (None, {})  # (a block set, its rows by sign), read once per block set


def _block_rows() -> dict[int, tuple]:
    """For each sign, from `_blocks`, the term dicts of the over-exit row's
    one entry, a unit in the over-entry column, and of the under-exit
    row's entries in the over-entry and under-entry columns.  Raises
    ValueError if an over-exit row is not one unit."""
    global _split
    if _split[0] is not _blocks:
        rows = {}
        for sign, block in _blocks.items():
            o = 0 if sign > 0 else 1  # the over-entry side, as in diagram's slot convention
            over = block[o ^ 1][o]._t
            if block[o ^ 1][o ^ 1] or len(over) != 1 or abs(*over.values()) != 1:
                raise ValueError(f"the over-exit row of the {sign:+d} block is not one unit")
            rows[sign] = (over, block[o][o]._t, block[o][o ^ 1]._t)
        _split = (_blocks, rows)
    return _split[1]


def _arc_matrix(d: Diagram) -> tuple[list[dict[int, dict[int, int]]], bool]:
    """M - P with its over-exit rows eliminated along each component, as
    rows of term dicts for `det_terms`, and whether det(M - P) is minus
    their determinant.

    Rows of M - P are exit slots and columns entry slots.  Crossing c's
    over-exit row holds its block's unit u_c in c's over-entry column and
    P's -1 in the next passage's entry column, so pivoting on that -1
    gives v_next = u_c * v_entry.  Along an arc, from just after one under
    passage to the next, each entry slot is thus m times the arc's first,
    m the product of the units passed.  The Schur complement left has one
    row per under passage, its block row plus P's -1 with each entry
    times the m of its slot, over one column per arc.  A component with
    no under passage keeps its last over row, whose one entry u*m - 1
    closes the cycle.  In walk order the eliminated rows against their -1
    columns form a triangular block with -1 down its diagonal.
    """
    rows_of = _block_rows()
    # the over passage enters on l at a positive crossing and on r at a
    # negative one, the under passage on the other side (diagram.py)
    over_entry = {cid: 2 * i + (d.crossings[cid].sign < 0)
                  for i, cid in enumerate(d.classical_ids())}
    at = [(0, 0, 0)] * (2 * len(over_entry))  # entry slot -> (its arc, m as key and coefficient)
    row_order: list[int] = []
    col_order: list[int] = []
    arcs: list[int] = []  # the first entry slot of each arc
    kept: list[tuple[int, int, int]] = []  # (entry slot, crossing, next entry slot)
    for comp in d.components:
        ends = [t for t, p in enumerate(comp) if p.role == UNDER]
        start = ends[-1] + 1 if ends else 0
        walk = comp[start:] + comp[:start]
        slots = [over_entry[p.crossing] ^ (p.role == UNDER) for p in walk]
        slots.append(slots[0])
        arc, mk, mc = len(arcs), 0, 1
        arcs.append(slots[0])
        for t, p in enumerate(walk):
            e, nxt = slots[t], slots[t + 1]
            at[e] = (arc, mk, mc)
            if p.role == UNDER:
                kept.append((e, p.crossing, nxt))
                if t + 1 < len(walk):  # the last one closes onto the first arc
                    arc, mk, mc = len(arcs), 0, 1
                    arcs.append(nxt)
            elif ends or t + 1 < len(walk):
                (uk, uc), = rows_of[d.crossings[p.crossing].sign][0].items()
                mk, mc = mk + uk, mc * uc
                row_order.append(e ^ 1)
                col_order.append(nxt)
            else:  # the closing row of a component with no under passage
                kept.append((e, p.crossing, nxt))
    rows = []
    for e, cid, nxt in kept:
        o = over_entry[cid]
        u, a, w = rows_of[d.crossings[cid].sign]
        cells = [(at[o], u)] if e == o else [(at[o], a), (at[o ^ 1], w)]
        cells.append(((at[nxt][0], 0, -1), ONE._t))  # P's -1; m is 1 there
        row: dict[int, dict[int, int]] = {}
        for (arc, mk, mc), terms in cells:
            entry = row.setdefault(arc, {})
            for k, c in terms.items():
                v = entry.get(k + mk, 0) + c * mc
                if v:
                    entry[k + mk] = v
                else:
                    del entry[k + mk]
        rows.append({j: entry for j, entry in row.items() if entry})
    odd = len(row_order) + _odd(row_order + [e ^ 1 for e, _, _ in kept]) + _odd(col_order + arcs)
    return rows, odd % 2 == 1


@functools.lru_cache(maxsize=Z_MEMO_SIZE)
def _z_memo(d: Diagram) -> LaurentPoly2:
    n = d.n_classical()
    if n == 0 or d.has_empty_component():
        return ZERO
    _require_valid(d)
    rows, negated = _arc_matrix(d)
    value = det_terms(rows)
    return -value if (negated + n + len(d.components)) % 2 else value


def z_normalized(d: Diagram) -> LaurentPoly2:
    """Z with its lowest x-exponent shifted to 0; invariant under all the moves."""
    return normalize_x(z_polynomial(d))


def conway(d: Diagram) -> ConwayPoly:
    """The normalized Z rewritten in z = 1 - x."""
    return expand_conway(z_normalized(d))


def c0(d: Diagram) -> LaurentPoly2:
    """Constant Conway coefficient, computed as Z at x = 1.

    Substituting x = 1 commutes with the x-normalization shift, so
    this equals conway(d).coeff(0) without expanding.
    """
    return eval_x1(z_polynomial(d))


def _companion_TP(d: Diagram) -> SlotPermutation:
    """TP of d, once d meets the preconditions of the companion-permutation
    routes: no double points, a classical crossing, no crossing-free
    component."""
    if d.has_doubles():
        raise ValueError("resolve double points first: c0 is defined on classical diagrams")
    if d.n_classical() == 0 or d.has_empty_component():
        raise ValueError("companion-permutation route needs a crossing on every component")
    return build_TP(d)


def c0_via_tp(d: Diagram) -> LaurentPoly2:
    """c0 through the companion permutation: det(diag(y^-1, y, ...) + TP).

    Independent of the Z route (no crossing blocks, no sign
    dependence).  Requires at least one classical crossing and no
    crossing-free component, where the identity holds.
    """
    TP = _companion_TP(d)
    return det(_slot_matrix([((Y_INV, ZERO), (ZERO, Y))] * TP.n, TP))


def c0_cycle_form(d: Diagram) -> LaurentPoly2:
    """Closed form of c0_via_tp: product over TP-cycles of
    (product of diagonal weights on the cycle) + (-1)^(cycle length - 1).

    A third route, used only for cross-checking; same preconditions as
    c0_via_tp.
    """
    TP = _companion_TP(d)
    total = ONE
    for cyc in TP.cycles():
        ey = sum(1 if s & 1 else -1 for s in cyc)
        factor = LaurentPoly2.monomial(1, 0, ey) + (-1 if len(cyc) % 2 == 0 else 1)
        total = total * factor
    return total


def c1(d: Diagram) -> LaurentPoly2:
    """Linear Conway coefficient of the normalized Z."""
    return conway(d).coeff(1)


def kink_factor(over_first: bool, sign: int) -> LaurentPoly2:
    """The power of x that Z gains when a kink of the given type is added.

    A kink is a first-move insertion [O U] (over_first) or [U O] with
    the given sign; the four types give 1, x, x^-1, 1.
    """
    if sign > 0:
        return ONE if over_first else X
    return X_INV if not over_first else ONE


def skein_terms(d: Diagram, cid: int):
    """Z of D+, D- and D0 at classical crossing `cid`, and the skein residual
    Z(D+) - x Z(D-) - (1 - x) Z(D0), which is 0 on every diagram."""
    pos = set_sign(d, cid, 1)
    zp = z_polynomial(pos)
    zm = z_polynomial(set_sign(d, cid, -1))
    z0 = z_polynomial(smooth(pos, cid))
    return zp, zm, z0, zp - X * zm - (ONE - X) * z0


def vassiliev_eval(d: Diagram, f: Callable[[Diagram], LaurentPoly2]) -> LaurentPoly2:
    """Alternating-sum extension of f to diagrams with double points.

    Resolves every double point to + or -, weighting each full
    resolution by the product of its signs, and sums the values in the
    Laurent ring.  `eval_x1` and `expand_conway` are linear, so extended
    c0, c1 and Conway series all read off one sum of normalized Z.
    """
    doubles = d.double_ids()
    if len(doubles) > MAX_DOUBLE_POINTS:
        raise ValueError(
            f"{len(doubles)} double points exceed the supported maximum of {MAX_DOUBLE_POINTS}"
        )
    total = ZERO
    stack = [(d, 1, 0)]
    while stack:
        cur, weight, idx = stack.pop()
        if idx == len(doubles):
            total = total + f(cur) if weight > 0 else total - f(cur)
            continue
        cid = doubles[idx]
        pos = resolve_double(cur, cid)
        stack.append((pos, weight, idx + 1))
        stack.append((switch(pos, cid), -weight, idx + 1))
    return total


def order_one_defect(d: Diagram, id1: int, id2: int) -> LaurentPoly2:
    """Second finite difference of c1 at two crossings:
    c1(++) - c1(+-) - c1(-+) + c1(--) with both crossings forced to the
    given signs.  Vanishes on knot diagrams; can be nonzero on links.
    Raises ValueError unless id1 and id2 are two distinct classical crossings."""
    if id1 == id2:
        raise ValueError(f"need two distinct crossings, got {id1} twice")

    def at(s1: int, s2: int) -> LaurentPoly2:
        return c1(set_sign(set_sign(d, id1, s1), id2, s2))

    return at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)


@dataclass(frozen=True)
class InvariantReport:
    """Everything the CLI prints for one diagram."""

    z: LaurentPoly2
    z_normalized: LaurentPoly2
    conway: ConwayPoly
    c0: LaurentPoly2
    c1: LaurentPoly2
    components: int
    classical_crossings: int
    double_points: int

    def to_text(self) -> str:
        lines = [
            f"components          {self.components}",
            f"classical crossings {self.classical_crossings}",
        ]
        if self.double_points:
            lines.append(f"double points       {self.double_points}")
        else:
            lines += [
                f"Z                   {self.z.render()}",
                f"Z normalized        {self.z_normalized.render()}",
                f"conway              {self.conway.render()}",
            ]
        lines += [
            f"c0                  {self.c0.render()}",
            f"c1                  {self.c1.render()}",
        ]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out = {
            "components": self.components,
            "classical_crossings": self.classical_crossings,
            "double_points": self.double_points,
            "c0": self.c0.render(),
            "c1": self.c1.render(),
        }
        if not self.double_points:
            out["z"] = self.z.render()
            out["z_normalized"] = self.z_normalized.render()
            out["conway"] = self.conway.render()
            out["conway_coeffs"] = [c.render() for c in self.conway.coeffs]
        return out


def report(d: Diagram) -> InvariantReport:
    """Compute the full report from one sum of normalized Z over the
    resolutions of the double points (just normalized Z on a classical
    diagram); raw Z is reported on classical diagrams only."""
    zn = vassiliev_eval(d, z_normalized)
    cw = expand_conway(zn)
    return InvariantReport(
        z=ZERO if d.has_doubles() else z_polynomial(d),
        z_normalized=zn,
        conway=cw,
        c0=cw.coeff(0),
        c1=cw.coeff(1),
        components=len(d.components),
        classical_crossings=d.n_classical(),
        double_points=len(d.double_ids()),
    )
