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

import functools
from dataclasses import dataclass
from typing import Callable

from .laurent import (
    ONE,
    X,
    Y,
    Y_INV,
    ZERO,
    ConwayPoly,
    LaurentPoly2,
    PolyMatrix,
    det,
    eval_x1,
    expand_conway,
    normalize_x,
)
from .diagram import (
    Diagram,
    SlotPermutation,
    build_P,
    build_TP,
    resolve_double,
    set_sign,
    smooth,
)

# 2 x 2 crossing blocks; the negative block is the inverse of the positive one.
POS_BLOCK: tuple[tuple[LaurentPoly2, ...], ...] = (
    (ONE - X, -Y),
    (LaurentPoly2.monomial(-1, 1, -1), ZERO),
)
NEG_BLOCK: tuple[tuple[LaurentPoly2, ...], ...] = (
    (ZERO, LaurentPoly2.monomial(-1, -1, 1)),
    (-Y_INV, ONE - LaurentPoly2.monomial(1, -1, 0)),
)

Blocks = dict[int, tuple[tuple[LaurentPoly2, ...], ...]]

DEFAULT_BLOCKS: Blocks = {1: POS_BLOCK, -1: NEG_BLOCK}

MAX_DOUBLE_POINTS = 20

# Small on purpose: a campaign's repeats come within a few calls of each
# other, and a larger memo holds more 24+ crossing polynomials for nothing.
Z_MEMO_SIZE = 32


def z_polynomial(d: Diagram, *, blocks: Blocks | None = None) -> LaurentPoly2:
    """The raw determinant polynomial Z(d) of a classical-only diagram.

    `blocks` overrides the per-sign 2 x 2 blocks; the default is the
    pair above.  The override exists so the verification harness can
    demonstrate that a wrong block is caught by the move fuzzer.

    The Z_MEMO_SIZE most recently used values are kept, keyed by the
    diagram and the blocks by value, so a diagram evaluated again with
    the same blocks (c1 after c0, D+ or D- equal to D in a skein triple)
    costs no determinant, and a wrong block never meets a value of the
    right one.
    """
    if d.has_doubles():
        raise ValueError("resolve double points first: Z is defined on classical diagrams")
    return _z_memo(d, None if blocks is None else tuple(sorted(blocks.items())))


@functools.lru_cache(maxsize=Z_MEMO_SIZE)
def _z_memo(d: Diagram, block_items: tuple | None) -> LaurentPoly2:
    blocks = DEFAULT_BLOCKS if block_items is None else dict(block_items)
    n = d.n_classical()
    if n == 0 or d.has_empty_component():
        return ZERO
    P = build_P(d)
    ids = d.classical_ids()
    m = 2 * n
    rows = [[ZERO] * m for _ in range(m)]
    for i, cid in enumerate(ids):
        blk = blocks[d.crossings[cid].sign]
        rows[2 * i][2 * i] = blk[0][0]
        rows[2 * i][2 * i + 1] = blk[0][1]
        rows[2 * i + 1][2 * i] = blk[1][0]
        rows[2 * i + 1][2 * i + 1] = blk[1][1]
    for s, t in enumerate(P.perm):
        rows[t][s] = rows[t][s] - ONE
    value = det(PolyMatrix(tuple(tuple(r) for r in rows)))
    if (n + len(d.components)) % 2:
        value = -value
    return value


def z_normalized(d: Diagram, *, blocks: Blocks | None = None) -> LaurentPoly2:
    """Z with its lowest x-exponent shifted to 0; invariant under all the moves."""
    return normalize_x(z_polynomial(d, blocks=blocks))


def conway(d: Diagram, *, blocks: Blocks | None = None) -> ConwayPoly:
    """The normalized Z rewritten in z = 1 - x."""
    return expand_conway(z_normalized(d, blocks=blocks))


def c0(d: Diagram, *, blocks: Blocks | None = None) -> LaurentPoly2:
    """Constant Conway coefficient, computed as Z at x = 1.

    Substituting x = 1 commutes with the x-normalization shift, so
    this equals conway(d).coeff(0) without expanding.
    """
    return eval_x1(z_polynomial(d, blocks=blocks))


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
    n = TP.n
    m = 2 * n
    rows = [[ZERO] * m for _ in range(m)]
    for i in range(n):
        rows[2 * i][2 * i] = Y_INV
        rows[2 * i + 1][2 * i + 1] = Y
    for s, t in enumerate(TP.perm):
        rows[t][s] = rows[t][s] + ONE
    return det(PolyMatrix(tuple(tuple(r) for r in rows)))


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


def c1(d: Diagram, *, blocks: Blocks | None = None) -> LaurentPoly2:
    """Linear Conway coefficient of the normalized Z."""
    return conway(d, blocks=blocks).coeff(1)


def kink_factor(over_first: bool, sign: int) -> LaurentPoly2:
    """The power of x that Z gains when a kink of the given type is added.

    A kink is a first-move insertion [O U] (over_first) or [U O] with
    the given sign; the four types give 1, x, x^-1, 1.
    """
    if sign > 0:
        return ONE if over_first else X
    return LaurentPoly2.monomial(1, -1, 0) if not over_first else ONE


def skein_terms(d: Diagram, cid: int, *, blocks: Blocks | None = None):
    """Z of D+, D- and D0 at classical crossing `cid`, and the skein residual
    Z(D+) - x Z(D-) - (1 - x) Z(D0), which is 0 on every diagram."""
    pos = set_sign(d, cid, 1)
    zp = z_polynomial(pos, blocks=blocks)
    zm = z_polynomial(set_sign(d, cid, -1), blocks=blocks)
    z0 = z_polynomial(smooth(pos, cid), blocks=blocks)
    return zp, zm, z0, zp - X * zm - (ONE - X) * z0


def vassiliev_eval(
    d: Diagram, f: Callable[[Diagram], object], *, zero=None
):
    """Alternating-sum extension of f to diagrams with double points.

    Resolves every double point to + or -, weighting each full
    resolution by the product of its signs.  Values are combined with
    + and unary -, starting from `zero` (default: Laurent zero).
    """
    doubles = d.double_ids()
    if len(doubles) > MAX_DOUBLE_POINTS:
        raise ValueError(
            f"{len(doubles)} double points exceed the supported maximum of {MAX_DOUBLE_POINTS}"
        )
    total = ZERO if zero is None else zero
    stack = [(d, 1, 0)]
    while stack:
        cur, weight, idx = stack.pop()
        if idx == len(doubles):
            val = f(cur)
            total = total + val if weight > 0 else total + (-val)
            continue
        cid = doubles[idx]
        stack.append((resolve_double(cur, cid, "+"), weight, idx + 1))
        stack.append((resolve_double(cur, cid, "-"), -weight, idx + 1))
    return total


def order_one_defect(d: Diagram, id1: int, id2: int, *, blocks: Blocks | None = None) -> LaurentPoly2:
    """Second finite difference of c1 at two crossings:
    c1(++) - c1(+-) - c1(-+) + c1(--) with both crossings forced to the
    given signs.  Vanishes on knot diagrams; can be nonzero on links."""
    if id1 == id2:
        raise ValueError(f"need two distinct crossings, got {id1} twice")
    for cid in (id1, id2):
        rec = d.crossings.get(cid)
        if rec is None or rec.kind != "x":
            raise ValueError(f"no classical crossing {cid}")

    def at(s1: int, s2: int) -> LaurentPoly2:
        return c1(set_sign(set_sign(d, id1, s1), id2, s2), blocks=blocks)

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
            lines += [
                f"c0                  {self.c0.render()}",
                f"c1                  {self.c1.render()}",
            ]
        else:
            lines += [
                f"Z                   {self.z.render()}",
                f"Z normalized        {self.z_normalized.render()}",
                f"conway              {self.conway.render()}",
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
    """Compute the full report; singular diagrams get extended c0 and c1."""
    if d.has_doubles():
        cw = vassiliev_eval(d, conway, zero=ConwayPoly())
        return InvariantReport(
            z=ZERO,
            z_normalized=ZERO,
            conway=cw,
            c0=cw.coeff(0),
            c1=cw.coeff(1),
            components=len(d.components),
            classical_crossings=d.n_classical(),
            double_points=len(d.double_ids()),
        )
    z = z_polynomial(d)
    zn = normalize_x(z)
    cw = expand_conway(zn)
    return InvariantReport(
        z=z,
        z_normalized=zn,
        conway=cw,
        c0=eval_x1(z),
        c1=cw.coeff(1),
        components=len(d.components),
        classical_crossings=d.n_classical(),
        double_points=0,
    )
