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
with no other, which is what pins it down.  The prefactor is det P:
TP = T P^-1, with T the swap of each crossing's two slots, has one cycle
per component, so sgn P = (-1)^n * (-1)^(2n-r), and Z = det(M P^-1 - 1).

Z is computed on a smaller matrix, as Z = (-1)^r * det(arc matrix).
Each crossing's over-exit row of M - P holds one unit and P's -1, so
those n rows are eliminated along each component without a search or a
division (Silver & Williams, JKTR 10, 2001, present the generalized
Alexander polynomial on arcs the same way).  What is left is the arc
matrix: one row per under passage over one column per arc, plus one row
and column per component with no under passage, n + a in all.  The walk
that builds it also checks the code: every passage must have a slot, and
2n passages must fill the 2n slots once each; on a code that fails,
`diagram.validate` gives the error message.

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
extension of normalized Z, the sum over sign patterns of (product of
signs) * Z_normalized(resolved diagram); c0, c1 and the Conway form are
read off that one sum.
"""

from __future__ import annotations

import contextlib
import functools
from typing import NamedTuple

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
    _addmul,
    det,
    det_terms,
    eval_x1,
    expand_conway,
    normalize_x,
)
from .diagram import (
    OVER,
    UNDER,
    Diagram,
    SlotPermutation,
    _SIDES,
    _require_valid,
    build_TP,
    entry_slots,
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


# most double points `vassiliev_eval` resolves, 2^m diagrams in all.  On a
# 2-core shared machine with Python 3.11.7, `compute` of the file `random
# --crossings 58 --components 2 --doubles 6 --seed 0` emits took 38 s; the
# whole `verify --random 24,1,6 --trials 1` process took 0.3 s, and its check
# in-process, `check_singular_orders` with this ceiling lifted, 0.7 s at m = 8
# and 11 s at m = 10
MAX_DOUBLE_POINTS = 6

# Small on purpose: a campaign's repeats come within a few calls of each
# other, and a larger memo holds more 24+ crossing polynomials for nothing.
Z_MEMO_SIZE = 32


def z_polynomial(d: Diagram) -> LaurentPoly2:
    """The raw determinant polynomial Z(d) of a classical-only diagram.

    M is made of the crossing pair above; inside `mutated_blocks()` its
    negative block is wrong.  Z = (-1)^r * det(`_arc_matrix`), r the
    component count, on a matrix of side n plus one per component with no
    under passage.  The Z_MEMO_SIZE most recently used values are kept,
    keyed by the diagram, so a diagram evaluated again (c1 after c0, D+ or
    D- equal to D in a skein triple) costs no determinant.

    Raises ValueError on double points, and on an invalid code with a
    crossing on every component, where validity is read off the slot fill
    of `_arc_matrix` and the message, "invalid diagram: ...", from
    `diagram.validate`.  A crossing-free code, or one with a crossing-free
    component, has Z = 0 without a check.
    """
    if d.has_doubles():
        raise ValueError("resolve double points first: Z is defined on classical diagrams")
    return _z_memo(d)


_split: tuple = (None, {})  # (a block set, its rows by sign), read once per block set


def _block_rows() -> dict[int, tuple]:
    """For each sign, from `_blocks`, the (key, coefficient) pairs of the
    over-exit row's one entry, a unit in the over-entry column, and of the
    under-exit row's entries in the over-entry and under-entry columns, as
    tuples.  Raises ValueError if an over-exit row is not one unit."""
    global _split
    if _split[0] is not _blocks:
        rows = {}
        for sign, block in _blocks.items():
            o = _SIDES[OVER, sign]  # the over passage's entry side, 0 = l, 1 = r
            over = block[o ^ 1][o]._t
            if block[o ^ 1][o ^ 1] or len(over) != 1 or abs(*over.values()) != 1:
                raise ValueError(f"the over-exit row of the {sign:+d} block is not one unit")
            entries = (block[o ^ 1][o], block[o][o], block[o][o ^ 1])
            rows[sign] = tuple(tuple(e._t.items()) for e in entries)
        _split = (_blocks, rows)
    return _split[1]


def _arc_matrix(d: Diagram) -> list[dict[int, dict[int, int]]]:
    """M - P with its over-exit rows eliminated along each component, as
    rows of term dicts for `det_terms`.  Raises `validate`'s ValueError if
    d is not a valid code.

    Rows of M - P are exit slots and columns entry slots, both taken from
    `diagram.entry_slots` (a passage exits by entry ^ 1).  Crossing c's
    over-exit row holds its block's unit u_c in c's over-entry column and
    P's -1 in the next passage's entry column, so pivoting on that -1
    gives v_next = u_c * v_entry.  Along an arc, from just after one under
    passage to the next, each entry slot is thus m times the arc's first,
    m the product of the units passed.  The Schur complement left has one
    row per under passage, its block row plus P's -1 with each entry
    times the m of its slot, over one column per arc.  A component with
    no under passage keeps its last over row, whose one entry u*m - 1
    closes the cycle.  Each cell is built in one go, and merged with
    another only where two fall on one arc.

    Validity comes from the same walk: `entry_slots` raises KeyError on a
    passage with no slot, and otherwise 2n passages fill the 2n slots once
    each exactly when every crossing is passed once over and once under.
    On a code that fails, `validate` gives the message.

    Z is (-1)^r times their determinant, by three facts: sgn P =
    (-1)^(n+r); the eliminated rows against their -1 columns form a
    triangular block of determinant (-1)^(n-a), a the components with no
    under passage; and rows go in walk order and arcs in creation order,
    which rotates each component's k_c under passages against their P
    columns by one step, a sign of (-1)^(k_c-1).  With r - a such
    components the product is (-1)^n, and this order is part of correctness.
    """
    rows_of = _block_rows()
    # entry slot -> (its arc, m as key and coefficient); Z admits no double points
    at = [None] * (2 * len(d.crossings))
    try:
        slots_of = entry_slots(d)
    except KeyError:
        _require_valid(d)
        raise
    n_arcs = 0
    kept: list[tuple[int, bool, int, int]] = []  # (entry slot, under?, sign, next entry slot)
    for comp, slots in zip(d.components, slots_of):
        ends = [t for t, p in enumerate(comp) if p.role == UNDER]
        start = ends[-1] + 1 if ends else 0
        walk = comp[start:] + comp[:start]
        slots = slots[start:] + slots[:start]
        slots.append(slots[0])
        arc, mk, mc = n_arcs, 0, 1
        n_arcs += 1
        for t, p in enumerate(walk):
            e, nxt = slots[t], slots[t + 1]
            at[e] = (arc, mk, mc)
            sign = d.crossings[p.crossing].sign
            if p.role == UNDER:
                kept.append((e, True, sign, nxt))
                if t + 1 < len(walk):  # the last one closes onto the first arc
                    arc, mk, mc = n_arcs, 0, 1
                    n_arcs += 1
            elif ends or t + 1 < len(walk):
                (uk, uc), = rows_of[sign][0]
                mk, mc = mk + uk, mc * uc
            else:  # the closing row of a component with no under passage
                kept.append((e, False, sign, nxt))
    if sum(map(len, d.components)) != len(at) or None in at:
        _require_valid(d)
    rows = []
    for e, under, sign, nxt in kept:
        u, a, w = rows_of[sign]
        row: dict[int, dict[int, int]] = {at[nxt][0]: {0: -1}}  # P's -1; m is 1 there
        # an under row's over-entry column is its crossing's other slot
        for (arc, mk, mc), terms in ((at[e ^ 1], a), (at[e], w)) if under else ((at[e], u),):
            if arc in row:  # two cells on one arc: merge, dropping a cell that cancels
                if not _addmul(row[arc], dict(terms), {mk: mc}):
                    del row[arc]
            elif terms:
                row[arc] = {k + mk: c * mc for k, c in terms}
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=Z_MEMO_SIZE)
def _z_memo(d: Diagram) -> LaurentPoly2:
    if not d.crossings or d.has_empty_component():
        return ZERO
    value = det_terms(_arc_matrix(d))
    return -value if len(d.components) % 2 else value


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
    rows = [{s: Y if s & 1 else Y_INV} for s in range(2 * TP.n)]
    for s, t in enumerate(TP.perm):
        rows[t][s] = rows[t].get(s, ZERO) + ONE
    return det(PolyMatrix(2 * TP.n, tuple(rows)))


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


def vassiliev_eval(d: Diagram) -> LaurentPoly2:
    """The alternating sum of normalized Z over the resolutions of d's
    double points: at each one, the positive resolution minus its switch
    (on a classical d, normalized Z itself).  `eval_x1` and `expand_conway`
    are linear, so the extended c0, c1 and Conway series read off this sum.
    """
    doubles = d.double_ids()
    if len(doubles) > MAX_DOUBLE_POINTS:
        raise ValueError(
            f"{len(doubles)} double points exceed the supported maximum of {MAX_DOUBLE_POINTS}"
        )

    def extend(cur: Diagram, i: int) -> LaurentPoly2:
        if i == len(doubles):
            return z_normalized(cur)
        pos = resolve_double(cur, doubles[i])
        return extend(pos, i + 1) - extend(switch(pos, doubles[i]), i + 1)

    return extend(d, 0)


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


class InvariantReport(NamedTuple):
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
    zn = vassiliev_eval(d)
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
