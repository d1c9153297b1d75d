"""Exact arithmetic for sparse integer Laurent polynomials in x and y.

Everything this package computes lives in Z[x^(+-1), y^(+-1)]: link
polynomials are elements of the ring, matrices over it get exact
determinants, and the expansion in z = 1 - x is a thin coefficient
vector (`ConwayPoly`) whose entries are y-only elements of the same
ring.  All coefficients are Python ints, so nothing overflows and
every equality test is exact.

Representation: a mapping from exponent pairs to nonzero integer
coefficients.  Internally the pair (ex, ey) is packed into one integer
(ex * 2^32 + ey) so that exponent addition during multiplication is a
single integer add; the empty mapping is the zero polynomial.

Rendering grammar, used verbatim by the CLI and by regression tests:
terms are sorted by (ex + ey, ex) ascending and joined with " + " or
" - ".  A monomial prints as `x^a*y^b`, omitting a factor whose
exponent is 0 and the `^` mark when the exponent is 1; a coefficient
of magnitude 1 is omitted unless the monomial part is empty.  The zero
polynomial prints as "0".  Examples:

    1 + x*y^-1 + y + x
    2 - x - x^-1
    -3*y^2 + x^-2*y
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

_SHIFT = 1 << 32
_HALF = 1 << 31
_EXP_LIMIT = 1 << 30


def _pack(ex: int, ey: int) -> int:
    if not (-_EXP_LIMIT < ex < _EXP_LIMIT and -_EXP_LIMIT < ey < _EXP_LIMIT):
        raise OverflowError(f"exponent pair ({ex}, {ey}) out of supported range")
    return ex * _SHIFT + ey


def _unpack(key: int) -> tuple[int, int]:
    ey = ((key + _HALF) % _SHIFT) - _HALF
    return (key - ey) >> 32, ey


class LaurentPoly2:
    """An element of Z[x^(+-1), y^(+-1)] in canonical sparse form."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        data: dict[int, int] = {}
        if terms:
            for (ex, ey), c in terms.items():
                if c:
                    key = _pack(ex, ey)
                    v = data.get(key, 0) + c
                    if v:
                        data[key] = v
                    else:
                        data.pop(key, None)
        self._t = data

    @classmethod
    def _raw(cls, packed: dict[int, int]) -> "LaurentPoly2":
        obj = object.__new__(cls)
        obj._t = packed
        return obj

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls._raw({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly2":
        return cls._raw({0: c} if c else {})

    @classmethod
    def monomial(cls, c: int, ex: int, ey: int) -> "LaurentPoly2":
        return cls._raw({_pack(ex, ey): c} if c else {})

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def terms(self) -> dict[tuple[int, int], int]:
        """The canonical {(ex, ey): coefficient} view (a fresh dict)."""
        return {_unpack(k): c for k, c in self._t.items()}

    def term_count(self) -> int:
        return len(self._t)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly2):
            return self._t == other._t
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._t.items()))

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._raw({k: -c for k, c in self._t.items()})

    def __add__(self, other: "LaurentPoly2 | int") -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        elif not isinstance(other, LaurentPoly2):
            return NotImplemented
        if not self._t:
            return other
        if not other._t:
            return self
        out = dict(self._t)
        for k, c in other._t.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return LaurentPoly2._raw(out)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly2 | int") -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        elif not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly2":
        return LaurentPoly2.const(other) + (-self)

    def __mul__(self, other: "LaurentPoly2 | int") -> "LaurentPoly2":
        if isinstance(other, int):
            if not other:
                return _ZERO
            return LaurentPoly2._raw({k: c * other for k, c in self._t.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            (ka, ca), = a.items()
            return LaurentPoly2._raw({k + ka: c * ca for k, c in b.items()})
        if len(b) == 1:
            (kb, cb), = b.items()
            return LaurentPoly2._raw({k + kb: c * cb for k, c in a.items()})
        out: dict[int, int] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                v = out.get(k, 0) + ca * cb
                if v:
                    out[k] = v
                else:
                    del out[k]
        return LaurentPoly2._raw(out)

    __rmul__ = __mul__

    def shifted(self, dex: int, dey: int) -> "LaurentPoly2":
        """Multiply by the monomial x^dex * y^dey."""
        if not (dex or dey) or not self._t:
            return self
        dk = _pack(dex, dey)
        return LaurentPoly2._raw({k + dk: c for k, c in self._t.items()})

    def render(self) -> str:
        if not self._t:
            return "0"
        parts: list[str] = []
        first = True
        for key in sorted(self._t, key=_render_key):
            c = self._t[key]
            ex, ey = _unpack(key)
            factors = []
            if ex:
                factors.append("x" if ex == 1 else f"x^{ex}")
            if ey:
                factors.append("y" if ey == 1 else f"y^{ey}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if first:
                parts.append(f"-{body}" if c < 0 else body)
                first = False
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.render()!r})"


def _render_key(key: int) -> tuple[int, int]:
    ex, ey = _unpack(key)
    return ex + ey, ex


_ZERO = LaurentPoly2.zero()

ZERO = _ZERO
ONE = LaurentPoly2.one()
X = LaurentPoly2.monomial(1, 1, 0)
Y = LaurentPoly2.monomial(1, 0, 1)
X_INV = LaurentPoly2.monomial(1, -1, 0)
Y_INV = LaurentPoly2.monomial(1, 0, -1)


def lowest_x_exponent(p: LaurentPoly2) -> int:
    """Smallest x-exponent in the support; the zero polynomial raises."""
    if p.is_zero():
        raise ValueError("undefined exponent: zero polynomial has no support")
    return min(_unpack(k)[0] for k in p._t)


def normalize_x(p: LaurentPoly2) -> LaurentPoly2:
    """Shift by a power of x so the lowest x-exponent becomes 0 (zero maps to zero)."""
    if p.is_zero():
        return p
    return p.shifted(-lowest_x_exponent(p), 0)


def eval_x1(p: LaurentPoly2) -> LaurentPoly2:
    """Substitute x = 1, collapsing the support onto the y-axis."""
    out: dict[int, int] = {}
    for k, c in p._t.items():
        _, ey = _unpack(k)
        key = _pack(0, ey)
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            del out[key]
    return LaurentPoly2._raw(out)


def substitute_y_inverse(p: LaurentPoly2) -> LaurentPoly2:
    """Substitute y -> y^-1, an involution on the ring."""
    out: dict[int, int] = {}
    for k, c in p._t.items():
        ex, ey = _unpack(k)
        out[_pack(ex, -ey)] = c
    return LaurentPoly2._raw(out)


class ConwayPoly:
    """A read-only view of an x-normalized polynomial as a series in z,
    with coefficients in Z[y^(+-1)].

    Stored as the coefficient tuple (c_0, c_1, ...) with trailing zeros
    trimmed; `reconstruct` substitutes z = 1 - x back and returns the
    original x-normalized polynomial exactly.  It has no arithmetic:
    sums are taken in the Laurent ring before `expand_conway`, which is
    linear.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LaurentPoly2] = ()):
        cs = list(coeffs)
        for c in cs:
            if any(ex for (ex, _ey) in c.terms()):
                raise ValueError("conway coefficients must be polynomials in y only")
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[LaurentPoly2, ...]:
        return self._coeffs

    def coeff(self, k: int) -> LaurentPoly2:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return ZERO

    def is_zero(self) -> bool:
        return not self._coeffs

    def reconstruct(self) -> LaurentPoly2:
        """Sum of coeff(k) * (1 - x)^k as an element of Z[x, y^(+-1)]."""
        one_minus_x = ONE - X
        acc = ZERO
        power = ONE
        for c in self._coeffs:
            acc = acc + c * power
            power = power * one_minus_x
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConwayPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def render(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c.render()})")
            elif k == 1:
                parts.append(f"({c.render()})*z")
            else:
                parts.append(f"({c.render()})*z^{k}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ConwayPoly({self.render()!r})"


def expand_conway(p: LaurentPoly2) -> ConwayPoly:
    """Rewrite an x-normalized polynomial as sum of c_k * z^k with z = 1 - x.

    Requires all x-exponents nonnegative (run `normalize_x` first);
    substituting x = 1 - z term by term keeps everything exact.
    """
    coeffs: list[dict[int, int]] = []
    for k, c in p._t.items():
        ex, ey = _unpack(k)
        if ex < 0:
            raise ValueError("not x-normalized: negative x-exponent in conway expansion")
        while len(coeffs) <= ex:
            coeffs.append({})
        ykey = _pack(0, ey)
        # x^ex = (1 - z)^ex contributes comb(ex, j) * (-1)^j at z^j
        for j in range(ex + 1):
            add = c * comb(ex, j) * (-1 if j & 1 else 1)
            bucket = coeffs[j]
            v = bucket.get(ykey, 0) + add
            if v:
                bucket[ykey] = v
            else:
                bucket.pop(ykey, None)
    return ConwayPoly(LaurentPoly2._raw(b) for b in coeffs)


@dataclass(frozen=True)
class PolyMatrix:
    """A square matrix over the Laurent ring (immutable rows of rows)."""

    rows: tuple[tuple[LaurentPoly2, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {n} rows, a row of length {len(row)}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable["LaurentPoly2 | int"]]) -> "PolyMatrix":
        built = tuple(
            tuple(e if isinstance(e, LaurentPoly2) else LaurentPoly2.const(e) for e in row)
            for row in rows
        )
        return cls(built)

    @classmethod
    def block_diag(cls, *mats: "PolyMatrix") -> "PolyMatrix":
        n = sum(m.n for m in mats)
        rows = [[ZERO] * n for _ in range(n)]
        off = 0
        for m in mats:
            for i, row in enumerate(m.rows):
                for j, e in enumerate(row):
                    rows[off + i][off + j] = e
            off += m.n
        return cls(tuple(tuple(r) for r in rows))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("matrix size mismatch")
        return PolyMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )


def _exact_div(num: LaurentPoly2, den: LaurentPoly2) -> LaurentPoly2:
    """Exact division in the Laurent ring; raises if the quotient does not exist.

    Long division by lex-leading terms of the packed keys, which multiply
    in Z[x^(+-1), y^(+-1)], so quotient terms come out in falling order.
    In each variable an exact quotient's exponents run from the numerator's
    lowest minus the divisor's lowest to its highest minus the divisor's
    highest; a term outside that finite box means the division is inexact.
    """
    dt = den._t
    if not dt:
        raise ZeroDivisionError("division by the zero polynomial")
    nt = num._t
    if not nt:
        return ZERO
    if len(dt) == 1:
        (dk, dc), = dt.items()
        out: dict[int, int] = {}
        for k, c in nt.items():
            q, r = divmod(c, dc)
            if r:
                raise ArithmeticError("non-exact division")
            out[k - dk] = q
        return LaurentPoly2._raw(out)
    (nx, ny), (dx, dy) = (zip(*map(_unpack, t)) for t in (nt, dt))
    x_lo, x_hi = min(nx) - min(dx), max(nx) - max(dx)
    y_lo, y_hi = min(ny) - min(dy), max(ny) - max(dy)
    dk = max(dt)
    dc = dt[dk]
    rem = dict(nt)
    quo: dict[int, int] = {}
    while rem:
        lk = max(rem)
        qc, r = divmod(rem[lk], dc)
        qk = lk - dk
        qx, qy = _unpack(qk)
        if r or not (x_lo <= qx <= x_hi and y_lo <= qy <= y_hi):
            raise ArithmeticError("non-exact division")
        quo[qk] = qc
        for k, c in dt.items():
            kk = k + qk
            v = rem.get(kk, 0) - c * qc
            if v:
                rem[kk] = v
            else:
                rem.pop(kk, None)
    return LaurentPoly2._raw(quo)


def det(matrix: PolyMatrix) -> LaurentPoly2:
    """Exact determinant: unit pivots first, then Bareiss on the rest.

    Phase one eliminates on pivots that are units of the ring, i.e.
    +-x^a*y^b.  The inverse of such a pivot is again a monomial, so the
    Schur update a_ij - a_ic * p^-1 * a_rj needs no division at all.
    It runs over sparse rows, and each step takes the unit pivot of
    lowest Markowitz count (row_nnz - 1) * (col_nnz - 1), which keeps
    fill-in low.  The pivots multiply into a monomial, and the Laplace
    sign of each comes from its position among the active rows and
    columns.  The matrices this package builds are mostly monomials
    (M - P has only the 1 - x^+-1 diagonal terms as non-units), so
    typically a few rows are left, with no unit entry; phase two
    computes their determinant with `_bareiss`.
    """
    n = matrix.n
    if n == 0:
        return ONE
    rows: dict[int, dict[int, LaurentPoly2]] = {}
    cols: dict[int, set[int]] = {j: set() for j in range(n)}
    for i, row in enumerate(matrix.rows):
        entries = {j: e for j, e in enumerate(row) if e._t}
        if not entries:
            return ZERO
        rows[i] = entries
        for j in entries:
            cols[j].add(i)
    sign = 1
    unit_key = 0
    while True:
        pivot = _unit_pivot(rows, cols)
        if pivot is None:
            break
        r, c = pivot
        if (sum(1 for i in rows if i < r) + sum(1 for j in cols if j < c)) & 1:
            sign = -sign
        pivot_row = rows.pop(r)
        (pk, pc), = pivot_row.pop(c)._t.items()
        if pc < 0:
            sign = -sign
        unit_key += pk
        below = cols.pop(c)
        below.discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        for i in below:
            row_i = rows[i]
            # -a_ic * p^-1, where p^-1 = pc * x^-a*y^-b because pc is +-1
            f = LaurentPoly2._raw({k - pk: -v * pc for k, v in row_i.pop(c)._t.items()})
            for j, b in pivot_row.items():
                upd = row_i.get(j, _ZERO) + f * b
                if upd._t:
                    row_i[j] = upd
                    cols[j].add(i)
                elif j in row_i:
                    del row_i[j]
                    cols[j].discard(i)
            if not row_i:
                return ZERO
    value = ONE
    if rows:
        order = sorted(cols)
        value = _bareiss(PolyMatrix(tuple(
            tuple(rows[i].get(j, _ZERO) for j in order) for i in sorted(rows)
        )))
    return LaurentPoly2._raw({k + unit_key: v * sign for k, v in value._t.items()})


def _unit_pivot(
    rows: dict[int, dict[int, LaurentPoly2]], cols: dict[int, set[int]]
) -> tuple[int, int] | None:
    """The unit entry of lowest Markowitz count, or None if there is none."""
    best = None
    best_score = None
    for i, entries in rows.items():
        rn = len(entries) - 1
        for j, e in entries.items():
            score = rn * (len(cols[j]) - 1)
            if best_score is not None and score >= best_score:
                continue
            t = e._t
            if len(t) == 1:
                (v,) = t.values()
                if v == 1 or v == -1:
                    if not score:
                        return i, j
                    best, best_score = (i, j), score
    return best


def _bareiss(matrix: PolyMatrix) -> LaurentPoly2:
    """Exact determinant by fraction-free elimination.

    Bareiss-style one-step elimination with full pivoting, run directly
    in the Laurent ring.  Each entry after step k is a (k+1)-minor of the
    pivoted matrix, so every division by the previous pivot is exact in
    any integral domain, and Z[x^(+-1), y^(+-1)] is one.  Pivots are
    chosen to keep fill-in low.  `det` calls it on what unit elimination
    leaves, and the tests use it on whole matrices as an oracle for `det`.
    """
    n = matrix.n
    if n == 0:
        return ONE
    rows = [list(r) for r in matrix.rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        row_nnz = [0] * n
        col_nnz = [0] * n
        for i in range(k, n):
            for j in range(k, n):
                if rows[i][j]._t:
                    row_nnz[i] += 1
                    col_nnz[j] += 1
        best = None
        for i in range(k, n):
            if row_nnz[i] == 0:
                return ZERO
            for j in range(k, n):
                e = rows[i][j]
                if e._t:
                    score = ((row_nnz[i] - 1) * (col_nnz[j] - 1), len(e._t))
                    if best is None or score < best[0]:
                        best = (score, i, j)
        _, pi, pj = best
        if pi != k:
            rows[k], rows[pi] = rows[pi], rows[k]
            sign = -sign
        if pj != k:
            for r in rows:
                r[k], r[pj] = r[pj], r[k]
            sign = -sign
        piv = rows[k][k]
        row_k = rows[k]
        for i in range(k + 1, n):
            row_i = rows[i]
            aik = row_i[k]
            if aik._t:
                for j in range(k + 1, n):
                    num = piv * row_i[j] - aik * row_k[j]
                    row_i[j] = _exact_div(num, prev) if num._t else ZERO
                row_i[k] = ZERO
            else:
                for j in range(k + 1, n):
                    a = row_i[j]
                    if a._t:
                        row_i[j] = _exact_div(piv * a, prev)
        prev = piv
    result = rows[n - 1][n - 1]
    return -result if sign < 0 else result


def det_cofactor(matrix: PolyMatrix) -> LaurentPoly2:
    """Exact determinant by Laplace expansion, memoized over row subsets.

    Independent of `det` on purpose: the two must agree, and property
    tests compare them.  Cost grows like 2^n, so keep n small (<= 12).
    """
    n = matrix.n
    if n == 0:
        return ONE
    if n > 12:
        raise ValueError("cofactor determinant is limited to matrices of side <= 12")
    rows = matrix.rows
    memo: dict[tuple[int, ...], LaurentPoly2] = {}

    def rec(active: tuple[int, ...]) -> LaurentPoly2:
        if not active:
            return ONE
        got = memo.get(active)
        if got is not None:
            return got
        col = n - len(active)
        acc = ZERO
        for pos, r in enumerate(active):
            e = rows[r][col]
            if not e._t:
                continue
            sub = rec(active[:pos] + active[pos + 1 :])
            term = e * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[active] = acc
        return acc

    return rec(tuple(range(n)))
