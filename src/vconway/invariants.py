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

import contextlib
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
    switch,
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


MAX_DOUBLE_POINTS = 20

# Small on purpose: a campaign's repeats come within a few calls of each
# other, and a larger memo holds more 24+ crossing polynomials for nothing.
Z_MEMO_SIZE = 32
_MINUS_ONE = -ONE  # added at each entry of P: subtracting ONE would negate a copy


def z_polynomial(d: Diagram) -> LaurentPoly2:
    """The raw determinant polynomial Z(d) of a classical-only diagram.

    M is made of the crossing pair above; inside `mutated_blocks()` its
    negative block is wrong.  The Z_MEMO_SIZE most recently used values are
    kept, keyed by the diagram, so a diagram evaluated again (c1 after
    c0, D+ or D- equal to D in a skein triple) costs no determinant.
    """
    if d.has_doubles():
        raise ValueError("resolve double points first: Z is defined on classical diagrams")
    return _z_memo(d)


def _slot_matrix(blocks: list[tuple[tuple[LaurentPoly2, ...], ...]], perm: SlotPermutation,
                 entry: LaurentPoly2) -> PolyMatrix:
    """The 2n x 2n matrix with the 2 x 2 `blocks` down the diagonal, one per
    crossing by rank, plus `entry` in row perm[s] of each column s."""
    m = 2 * perm.n
    rows = [[ZERO] * m for _ in range(m)]
    for i, blk in enumerate(blocks):
        rows[2 * i][2 * i : 2 * i + 2] = blk[0]
        rows[2 * i + 1][2 * i : 2 * i + 2] = blk[1]
    for s, t in enumerate(perm.perm):
        rows[t][s] = rows[t][s] + entry
    return PolyMatrix(tuple(tuple(r) for r in rows))


@functools.lru_cache(maxsize=Z_MEMO_SIZE)
def _z_memo(d: Diagram) -> LaurentPoly2:
    n = d.n_classical()
    if n == 0 or d.has_empty_component():
        return ZERO
    P = build_P(d)
    blocks = [_blocks[d.crossings[cid].sign] for cid in d.classical_ids()]
    value = det(_slot_matrix(blocks, P, _MINUS_ONE))
    if (n + len(d.components)) % 2:
        value = -value
    return value


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
    return det(_slot_matrix([((Y_INV, ZERO), (ZERO, Y))] * TP.n, TP, ONE))


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
    return LaurentPoly2.monomial(1, -1, 0) if not over_first else ONE


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
