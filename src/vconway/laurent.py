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
single integer add; the empty mapping is the zero polynomial.  Keys are
packed only from exponent pairs given by the caller; everything else
adds keys or decodes them (`_spread`, `_unpack`) and never packs them
again, so y -> y^-1 maps a key k to k - 2*ey.  A key decodes while
|ey| < 2^31, so a product or shift whose y-exponents would leave that
field raises the `OverflowError` that `_pack` raises, decided from each
operand's lowest and highest y-exponent; x, the key's high part, has no
field to leave.

Large products and quotients use Kronecker substitution (Schoenhage
1982; Harvey, J. Symb. Comp. 44, 2009): a polynomial becomes one
integer, its value at x = 2^B, y = 2^(B*w), where w is wide enough that
no row of x-exponents spills into the next.  Its terms are digits of
B bits, each holding a coefficient offset by 2^(B-1), so one bigint
product or `divmod` does the whole ring operation and `to_bytes` reads
the digits back.  B is 8, 16, 32 or 64 bits, read back as one `array`,
or beyond that as many whole bytes as the coefficient bound needs, read
back one `memoryview` slice at a time, so no operand is too wide to
pack.  Every exact division, by a single term too, takes one path: a
packed quotient is used only once its product with the divisor is shown
to give the numerator; failing that, or below `_PACK_PAIRS` term pairs,
long division decides.
`det_terms` routes a determinant residual, as rows of term dicts, to
`_leibniz`, `_det_packed` or `_bareiss` by the one rule its docstring
states.  Packed, each entry becomes one integer, shifted into the
exponent box that the residual's perfect matchings span, the integer
determinant is expanded, and its digits are the determinant's
coefficients, bounded in advance by a permanent.  Every product of two
term dicts, in `__mul__`, Leibniz and Bareiss alike, follows one rule
(`_mul_into`): packed from `_PACK_PAIRS` term pairs on, else term by
term.
The Conway expansion packs each x-column into one integer,
a digit per y-exponent, and Taylor-shifts every row at once.  Small
operands, and sparse ones whose box of slots would dwarf their term
count, go term by term through one multiply-add, `_addmul`, which also
makes the Schur updates of `det_terms` and the steps of long division.
Matrices (`PolyMatrix`) keep only their nonzero entries, and every
determinant reads just those.

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

import sys
from array import array
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, combinations, permutations
from math import comb, prod
from typing import Iterable, Mapping

_SHIFT = 1 << 32
_MASK = _SHIFT - 1
_HALF = 1 << 31
_EXP_LIMIT = 1 << 30

# term pairs len(a) * len(b) from which products and quotients are packed;
# times at 24 crossings were flat for thresholds from 50 to 400
_PACK_PAIRS = 150
# most digit slots a packed operand may take per term pair, so that a
# sparse (x^(2^29) + y) * (y^(2^29) + x) stays with `_addmul`
_SLOTS_PER_PAIR = 8
# most terms of a side-3 residual that `_leibniz` closes; on the side-3
# residuals of campaign codes and of 16- and 24-crossing codes (2-core shared
# machine, Python 3.11.7), medians of Leibniz against `_det_packed` were 38
# against 125 us at 30-39 terms, 120 against 153 us at 50-59, 175 against
# 171 us at 60-69 and 247 against 183 us at 80-89
_LEIBNIZ_TERMS = 60
# unsigned array typecode for each digit width in bytes
_DIGIT_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(ex: int, ey: int) -> int:
    if not (-_EXP_LIMIT < ex < _EXP_LIMIT and -_EXP_LIMIT < ey < _EXP_LIMIT):
        raise OverflowError(f"exponent pair ({ex}, {ey}) out of supported range")
    return ex * _SHIFT + ey


def _unpack(key: int) -> tuple[int, int]:
    ey = ((key + _HALF) % _SHIFT) - _HALF
    return (key - ey) >> 32, ey


def _ys(t: dict[int, int]) -> list[int]:
    """The y-exponents of packed terms, in the dict's order."""
    return [((k + _HALF) & _MASK) - _HALF for k in t]


def _y_span(t: dict[int, int]) -> tuple[int, int]:
    ys = _ys(t)
    return min(ys), max(ys)


def _check_y(lo: int, hi: int) -> None:
    """`OverflowError`, as `_pack` raises, unless y-exponents from lo to hi
    fit a key's y field, |ey| < 2^31, past which they would wrap."""
    if not (-_HALF < lo and hi < _HALF):
        raise OverflowError(f"y-exponents {lo} to {hi} out of supported range")


_Spread = tuple[list[int], list[int], list[int]]


def _spread(t: dict[int, int]) -> _Spread:
    """The x-exponents, y-exponents and coefficients of packed terms, in step."""
    ys = _ys(t)
    return [(k - y) >> 32 for k, y in zip(t, ys)], ys, list(t.values())


def _digit_bytes(bound: int) -> int:
    """Bytes of the narrowest digit that holds every coefficient of
    magnitude at most `bound` (offset by half its range): 1, 2, 4 or 8,
    or beyond 64 bits as many bytes as that takes."""
    bits = bound.bit_length() + 1
    for nb in (1, 2, 4, 8):
        if bits <= 8 * nb:
            return nb
    return (bits + 7) // 8


def _offset(nb: int, slots: int) -> int:
    """The packed integer whose every digit is 2^(8*nb - 1)."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * slots, "little")


def _to_bytes(spread: _Spread, x0: int, y0: int, w: int, h: int, nb: int) -> bytearray | array:
    """The little-endian digits of `_to_int`, each offset by 2^(8*nb - 1)."""
    half = 1 << (8 * nb - 1)
    if nb in _DIGIT_CODES:
        digits = array(_DIGIT_CODES[nb], [half]) * (w * h)
        for x, y, c in zip(*spread):
            digits[x - x0 + w * (y - y0)] = half + c
        if _BIG_ENDIAN:
            digits.byteswap()
        return digits
    raw = bytearray(half.to_bytes(nb, "little") * (w * h))
    for x, y, c in zip(*spread):
        s = nb * (x - x0 + w * (y - y0))
        raw[s:s + nb] = (half + c).to_bytes(nb, "little")
    return raw


def _to_int(spread: _Spread, x0: int, y0: int, w: int, h: int, nb: int) -> int:
    """Pack terms with exponents from (x0, y0) into h rows of w digits of nb bytes.

    The term x^a*y^b goes to digit (a - x0) + w*(b - y0).  The caller
    guarantees that every term fits and every coefficient is below
    2^(8*nb - 1) in magnitude.
    """
    return int.from_bytes(_to_bytes(spread, x0, y0, w, h, nb), "little") - _offset(nb, w * h)


def _digits(raw: bytes, nb: int) -> array | list[int]:
    """The little-endian unsigned digits of nb bytes that `raw` holds: one
    array for 1, 2, 4 or 8 bytes, wider ones one `memoryview` slice at a
    time."""
    if nb in _DIGIT_CODES:
        digits = array(_DIGIT_CODES[nb], raw)
        if _BIG_ENDIAN:
            digits.byteswap()
        return digits
    view = memoryview(raw)
    return [int.from_bytes(view[s:s + nb], "little") for s in range(0, len(raw), nb)]


def _from_int(v: int, x0: int, y0: int, w: int, h: int, nb: int,
              cols: int) -> dict[int, int] | None:
    """Unpack `v` as h rows of w digits of nb bytes, the inverse of `_to_int`.

    None if `v` needs more digits than that, or has a nonzero digit in a
    column at or beyond `cols`.
    """
    half = 1 << (8 * nb - 1)
    slots = w * h
    try:
        raw = (v + _offset(nb, slots)).to_bytes(nb * slots, "little")
    except OverflowError:
        return None
    digits = _digits(raw, nb)
    if cols < w:
        pad = _digits((bytes(nb - 1) + b"\x80") * (w - cols), nb)
        if any(digits[s + cols:s + w] != pad for s in range(0, slots, w)):
            return None
    base = x0 * _SHIFT + y0
    keys = chain.from_iterable(range(base + r, base + r + w * _SHIFT, _SHIFT) for r in range(h))
    return {k: d - half for k, d in zip(keys, digits) if d != half}


def _addmul(out: dict[int, int], a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Add a*b into the packed-key term dict `out`, one term pair at a
    time, dropping the coefficients that cancel; returns `out`."""
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _mul_into(out: dict[int, int], a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Add a*b into the term dict `out` and return the sum, which is `out`
    unless that was empty: from `_PACK_PAIRS` term pairs on a*b is one
    bigint product, unless `_mul_packed` declines, else `_addmul` adds it
    term pair by term pair."""
    if len(a) * len(b) >= _PACK_PAIRS:
        ab = _mul_packed(a, b)
        if ab is not None:
            return _addmul(out, ab, ONE._t) if out else ab
    return _addmul(out, a, b)


def _mul_packed(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """The product of two term dicts as one bigint product.

    Each operand is packed with rows of w slots, w the product's x-span,
    so no row of the product spills into the next.  A product
    coefficient is at most min(l1(a)*max|b|, l1(b)*max|a|) in magnitude,
    which sets the digit width.  None, for `_addmul`, when the
    slots exceed `_SLOTS_PER_PAIR` per term pair.
    """
    sa, sb = _spread(a), _spread(b)
    (ax, ay, ac), (bx, by, bc) = sa, sb
    ax0, ay0, bx0, by0 = min(ax), min(ay), min(bx), min(by)
    ha, hb = max(ay) - ay0 + 1, max(by) - by0 + 1
    w = max(ax) - ax0 + max(bx) - bx0 + 1
    if w * (ha + hb - 1) > _SLOTS_PER_PAIR * len(a) * len(b):
        return None
    ma, mb = list(map(abs, ac)), list(map(abs, bc))
    nb = _digit_bytes(min(sum(ma) * max(mb), sum(mb) * max(ma)))
    prod = _to_int(sa, ax0, ay0, w, ha, nb) * _to_int(sb, bx0, by0, w, hb, nb)
    return _from_int(prod, ax0 + bx0, ay0 + by0, w, ha + hb - 1, nb, w)


class LaurentPoly2:
    """An element of Z[x^(+-1), y^(+-1)] in canonical sparse form."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        # distinct pairs pack to distinct keys, so no two terms merge
        self._t = {_pack(ex, ey): c for (ex, ey), c in (terms or {}).items() if c}

    @classmethod
    def _raw(cls, packed: dict[int, int]) -> "LaurentPoly2":
        obj = object.__new__(cls)
        obj._t = packed
        return obj

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
        """The product, by `_mul_into`; `OverflowError` if its y-exponents
        would leave the key's y field."""
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly2._raw({k: c * other for k, c in self._t.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return ZERO
        (alo, ahi), (blo, bhi) = _y_span(a), _y_span(b)
        _check_y(alo + blo, ahi + bhi)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (ka, ca), = a.items()
            return LaurentPoly2._raw({k + ka: c * ca for k, c in b.items()})
        return LaurentPoly2._raw(_mul_into({}, a, b))

    __rmul__ = __mul__

    def shifted(self, dex: int, dey: int) -> "LaurentPoly2":
        """Multiply by the monomial x^dex * y^dey; `OverflowError` if a
        y-exponent would leave the key's y field."""
        if not (dex or dey) or not self._t:
            return self
        dk = _pack(dex, dey)
        if dey:
            lo, hi = _y_span(self._t)
            _check_y(lo + dey, hi + dey)
        return LaurentPoly2._raw({k + dk: c for k, c in self._t.items()})

    def render(self) -> str:
        if not self._t:
            return "0"
        parts: list[str] = []
        first = True
        for ex, ey, c in sorted(zip(*_spread(self._t)), key=lambda t: (t[0] + t[1], t[0])):
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


ZERO = LaurentPoly2()
ONE = LaurentPoly2.const(1)
X = LaurentPoly2.monomial(1, 1, 0)
Y = LaurentPoly2.monomial(1, 0, 1)
X_INV = LaurentPoly2.monomial(1, -1, 0)
Y_INV = LaurentPoly2.monomial(1, 0, -1)


def lowest_x_exponent(p: LaurentPoly2) -> int:
    """Smallest x-exponent in the support; the zero polynomial raises."""
    if p.is_zero():
        raise ValueError("undefined exponent: zero polynomial has no support")
    # |ey| < 2^31 in a key ex * 2^32 + ey, so the least key has the least ex
    return _unpack(min(p._t))[0]


def normalize_x(p: LaurentPoly2) -> LaurentPoly2:
    """Shift by a power of x so the lowest x-exponent becomes 0 (zero maps to zero)."""
    if p.is_zero():
        return p
    return p.shifted(-lowest_x_exponent(p), 0)


def eval_x1(p: LaurentPoly2) -> LaurentPoly2:
    """Substitute x = 1, collapsing the support onto the y-axis."""
    out: dict[int, int] = {}
    for ey, c in zip(*_spread(p._t)[1:]):
        out[ey] = out.get(ey, 0) + c  # the key of x^0*y^ey is ey
    return LaurentPoly2._raw({k: c for k, c in out.items() if c})


def substitute_y_inverse(p: LaurentPoly2) -> LaurentPoly2:
    """Substitute y -> y^-1, an involution on the ring."""
    ys = _spread(p._t)[1]
    return LaurentPoly2._raw({k - 2 * y: c for (k, c), y in zip(p._t.items(), ys)})


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
            # a key is ex * 2^32 + ey with |ey| < 2^31, so ex = 0 exactly when |key| < 2^31
            if c._t and not -_HALF < min(c._t) <= max(c._t) < _HALF:
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

    Requires all x-exponents nonnegative (run `normalize_x` first).  The
    terms of each y-exponent form an integer polynomial q(x) of degree
    below L; Taylor shift by repeated synthetic addition gives q(1 + t),
    and t = -z gives its coefficients in z, all exactly.  Every row is
    shifted at once: each x-column becomes one integer with a digit per
    y-exponent, and the passes add those L integers.  A coefficient
    b_j = sum a_i * C(i, j) of q(1 + t) is at most the row's l1 norm
    times C(L - 1, (L - 1) // 2), which sets the digit width, so the
    shifted columns read back exactly, digit by digit.
    """
    if not p._t:
        return ConwayPoly()
    xs, ys, cs = _spread(p._t)
    if min(xs) < 0:
        raise ValueError("not x-normalized: negative x-exponent in conway expansion")
    y0, length = min(ys), max(xs) + 1
    h = max(ys) - y0 + 1
    l1 = [0] * h
    for y, c in zip(ys, cs):
        l1[y - y0] += abs(c)
    nb = _digit_bytes(max(l1) * comb(length - 1, (length - 1) // 2))
    # column x is digits x*h to x*h + h - 1: y takes the place of x in the layout
    raw = memoryview(_to_bytes((ys, xs, cs), y0, 0, h, length, nb)).cast("B")
    size, offset = nb * h, _offset(nb, h)
    # highest power first; each pass sums a prefix, which is one
    # synthetic addition at x = 1 on the shrinking leading part
    r = [int.from_bytes(raw[s:s + size], "little") - offset
         for s in range(size * (length - 1), -1, -size)]
    for m in range(length, 1, -1):
        r[:m] = accumulate(r[:m])
    # t = -z negates the odd coefficients; each is read back as h digits
    digits = _digits(b"".join(((-v if j & 1 else v) + offset).to_bytes(size, "little")
                              for j, v in enumerate(reversed(r))), nb)
    half, ykeys = 1 << (8 * nb - 1), range(y0, y0 + h)  # the key of x^0*y^ey is ey
    return ConwayPoly(LaurentPoly2._raw({k: d - half for k, d in zip(ykeys, digits[s:s + h])
                                         if d != half}) for s in range(0, h * length, h))


class PolyMatrix:
    """A square matrix over the Laurent ring, kept as its nonzero entries.

    `entries[i]` maps each column j to the nonzero entry (i, j), so a
    sparse matrix costs by its entries, not by its n^2 cells; it has no
    dense form.  Of the determinants, `det_cofactor` reads `entries`, and
    `det` copies them into the term-dict rows that `det_terms` takes.
    Its fields `n` and `entries` cannot be reassigned.  It is no tuple, so
    that `len` and `+` do not read as a matrix's side and sum.
    """

    __slots__ = ("n", "entries")
    n: int
    entries: tuple[dict[int, LaurentPoly2], ...]

    def __init__(self, n: int, entries: tuple[dict[int, LaurentPoly2], ...]) -> None:
        if len(entries) != n:
            raise ValueError(f"matrix of side {n} has {len(entries)} rows")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.entries) == (other.n, other.entries)

    def __repr__(self) -> str:
        return f"PolyMatrix(n={self.n!r}, entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable["LaurentPoly2 | int"]]) -> "PolyMatrix":
        built = [[e if isinstance(e, LaurentPoly2) else LaurentPoly2.const(e) for e in row]
                 for row in rows]
        n = len(built)
        for row in built:
            if len(row) != n:
                raise ValueError(f"matrix is not square: {n} rows, a row of length {len(row)}")
        return cls(n, tuple({j: e for j, e in enumerate(row) if e} for row in built))

    @classmethod
    def block_diag(cls, *mats: "PolyMatrix") -> "PolyMatrix":
        entries: list[dict[int, LaurentPoly2]] = []
        for m in mats:
            off = len(entries)
            entries += ({j + off: e for j, e in row.items()} for row in m.entries)
        return cls(len(entries), tuple(entries))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("matrix size mismatch")
        out = []
        for ra, rb in zip(self.entries, other.entries):
            row = dict(ra)
            for j, e in rb.items():
                v = row.pop(j, ZERO) - e
                if v:
                    row[j] = v
            out.append(row)
        return PolyMatrix(self.n, tuple(out))


def _exact_div(num: LaurentPoly2, den: LaurentPoly2) -> LaurentPoly2:
    """num / den in the Laurent ring; raises `ArithmeticError` if the
    quotient does not exist.

    In each variable an exact quotient's exponents run from the
    numerator's lowest minus the divisor's lowest to its highest minus
    the divisor's highest; a quotient that leaves that box means the
    division is inexact.  From `_PACK_PAIRS` term pairs on, the
    numerator (w by h, w its x-span) and the divisor are packed with
    rows of w slots and digits wide enough for both, and one bigint
    `divmod` gives the quotient.  Evaluation is a ring homomorphism, so
    a nonzero remainder proves the division inexact.  A zero remainder
    only says that the decoded quotient q matches at this one evaluation
    point.  So q must lie in the box, and is accepted when q * den
    provably has digits in range (then it equals the numerator digit for
    digit), or when a packed multiply-back gives the numerator.
    Everything else, a single-term divisor below `_PACK_PAIRS` pairs
    included, goes to long division.
    """
    nt, dt = num._t, den._t
    if not dt:
        raise ZeroDivisionError("division by the zero polynomial")
    if not nt:
        return ZERO
    spread, dspread = _spread(nt), _spread(dt)
    (xs, ys, cs), (dxs, dys, dcs) = spread, dspread
    nx0, ny0, dx0, dy0, dy1 = min(xs), min(ys), min(dxs), min(dys), max(dys)
    box = x_lo, x_hi, y_lo, y_hi = nx0 - dx0, max(xs) - max(dxs), ny0 - dy0, max(ys) - dy1
    if x_lo > x_hi or y_lo > y_hi:
        raise ArithmeticError("non-exact division")
    w, h = max(xs) - nx0 + 1, max(ys) - ny0 + 1
    pairs = len(nt) * len(dt)
    if pairs >= _PACK_PAIRS and w * h <= _SLOTS_PER_PAIR * pairs:
        dmags = list(map(abs, dcs))
        nb = _digit_bytes(max(max(map(abs, cs)), max(dmags)))
        q, r = divmod(_to_int(spread, nx0, ny0, w, h, nb),
                      _to_int(dspread, dx0, dy0, w, dy1 - dy0 + 1, nb))
        if r:
            raise ArithmeticError("non-exact division")
        quo = _from_int(q, x_lo, y_lo, w, y_hi - y_lo + 1, nb, x_hi - x_lo + 1)
        if quo is not None:
            qmags = list(map(abs, quo.values()))
            bound = min(sum(qmags) * max(dmags), sum(dmags) * max(qmags))
            if bound < 1 << (8 * nb - 1) or _mul_packed(quo, dt) == nt:
                return LaurentPoly2._raw(quo)
    return LaurentPoly2._raw(_long_div(nt, dt, box))


def _long_div(nt: dict[int, int], dt: dict[int, int],
              box: tuple[int, int, int, int]) -> dict[int, int]:
    """Long division by lex-leading terms of the packed keys, which
    multiply in the ring, so quotient terms come out in falling order and
    each is checked against the exponent box; `_addmul` takes each
    quotient term times the divisor off the remainder."""
    x_lo, x_hi, y_lo, y_hi = box
    dk = max(dt)
    dc = dt[dk]
    rem = dict(nt)
    quo: dict[int, int] = {}
    # a max-heap of the remainder's keys; a key cancelled since its push
    # is skipped, and no key comes back once it has led
    heap = [-k for k in rem]
    heapify(heap)
    while rem:
        lk = -heappop(heap)
        if lk not in rem:
            continue
        qc, r = divmod(rem[lk], dc)
        qk = lk - dk
        qx, qy = _unpack(qk)
        if r or not (x_lo <= qx <= x_hi and y_lo <= qy <= y_hi):
            raise ArithmeticError("non-exact division")
        quo[qk] = qc
        _addmul(rem, dt, {qk: -qc})
        for k in dt:
            if qk + k in rem:
                heappush(heap, -(qk + k))
    return quo


def det(matrix: PolyMatrix) -> LaurentPoly2:
    """Exact determinant: the entries are copied into owned term dicts, in
    column order, and `det_terms` eliminates them.

    `OverflowError` if the rows' y-reaches sum to 2^31 or more, a row's
    reach being the span of its entries' y-exponents and 0.  That sum
    bounds the y-exponents of every minor and every Schur complement
    entry that elimination forms, so below it every key `det_terms`
    decodes lies in the y field; each product of two of them is checked
    by `LaurentPoly2.__mul__`.
    """
    rows = [{j: dict(row[j]._t) for j in sorted(row) if row[j]._t} for row in matrix.entries]
    reach = 0
    for row in rows:
        ys = [0, *chain.from_iterable(map(_ys, row.values()))]
        reach += max(ys) - min(ys)
    _check_y(0, reach)
    return det_terms(rows)


def det_terms(entries: list[dict[int, dict[int, int]]]) -> LaurentPoly2:
    """The determinant of the matrix whose row i maps each column j in
    range(len(entries)) to the term dict of its nonzero entry (i, j):
    unit pivots first, then the small residual.  The dicts are owned and
    updated in place; `det` copies a `PolyMatrix` into them, and Z builds
    them already reduced (see `invariants`).

    Phase one eliminates on pivots that are units of the ring,
    i.e. +-x^a*y^b.  The inverse of such a pivot is again a monomial, so
    the Schur update a_ij - a_ic * p^-1 * a_rj needs no division: it runs
    on the term dicts in place through `_addmul`.  Each step takes a unit
    of a row with the fewest entries, in a column with few entries, which
    keeps fill-in low; rows are kept in buckets by entry count, so the
    search reads only the first bucket that holds a unit (`_unit_pivot`).
    No output depends on the pivot order, since the determinant is exact
    and canonical.  The pivots multiply into a monomial, and the Laplace
    sign comes once, at the end, from the parity of the order in which
    rows and columns were eliminated.  What is left, a few rows with no
    unit entry, is the residual.  Its term dicts go on as they are, in
    rows keyed by column in range(side), and this one rule routes them:
    sides 0 to 2, and side 3 up to `_LEIBNIZ_TERMS` terms, close by the
    Leibniz formula (`_leibniz`); every other side 3 to 5 goes to
    `_det_packed`, one integer determinant over all n! permutations;
    side 6 and up, and a residual `_det_packed` declines, go to
    `_bareiss`.  The kernel decodes keys only in the residual, so its
    entries' y-exponents must stay in the key's y field: `det` checks a
    bound for that, and Z's arc matrix, whose exponents stay within its
    side, needs none.
    """
    n = len(entries)
    rows = dict(enumerate(entries))
    cols: dict[int, set[int]] = {j: set() for j in range(n)}
    buckets: list[set[int]] = [set() for _ in range(n + 1)]
    for i, row in rows.items():
        if not row:
            return ZERO
        buckets[len(row)].add(i)
        for j in row:
            cols[j].add(i)
    row_order: list[int] = []
    col_order: list[int] = []
    sign = 1
    unit_key = 0
    while True:
        pivot = _unit_pivot(rows, cols, buckets)
        if pivot is None:
            break
        r, c = pivot
        row_order.append(r)
        col_order.append(c)
        pivot_row = rows.pop(r)
        buckets[len(pivot_row)].discard(r)
        (pk, pc), = pivot_row.pop(c).items()
        if pc < 0:
            sign = -sign
        unit_key += pk
        below = cols.pop(c)
        below.discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        for i in below:
            row_i = rows[i]
            before = len(row_i)
            # -a_ic * p^-1, where p^-1 = pc * x^-a*y^-b because pc is +-1
            f = {k - pk: -v * pc for k, v in row_i.pop(c).items()}
            for j, b in pivot_row.items():
                if _addmul(row_i.setdefault(j, {}), f, b):
                    cols[j].add(i)
                else:
                    del row_i[j]
                    cols[j].discard(i)
            if not row_i:
                return ZERO
            if len(row_i) != before:
                buckets[before].discard(i)
                buckets[len(row_i)].add(i)
    left, right = sorted(rows), sorted(cols)
    if _odd(row_order + left) != _odd(col_order + right):
        sign = -sign
    order = {j: pos for pos, j in enumerate(right)}
    residual = [{order[j]: t for j, t in rows[i].items()} for i in left]
    side = len(residual)
    if side < 3 or side == 3 and (sum(len(t) for row in residual for t in row.values())
                                  <= _LEIBNIZ_TERMS):
        value = _leibniz(residual)
    else:
        packed = _det_packed(residual) if side <= 5 else None
        value = (_bareiss(residual) if packed is None else packed)._t
    return LaurentPoly2._raw({k + unit_key: v * sign for k, v in value.items()})


def _leibniz(rows: list[dict[int, dict[int, int]]]) -> dict[int, int]:
    """The determinant of a residual of side 0 to 3, as `det_terms` holds
    it, by the Leibniz formula: the sum over permutations of the signed
    products of entries, summed into one term dict, each product by
    `_mul_into`.  Side 3 expands along its first row, each entry times
    its 2 x 2 minor; a product with a zero entry is skipped, so a
    pattern with no perfect matching sums to zero."""
    if len(rows) < 2:
        return rows[0].get(0, {}) if rows else {0: 1}
    if len(rows) == 2:
        return _minor(rows[0], rows[1], 0, 1)
    top, mid, low = rows
    out: dict[int, int] = {}
    for j, k, l, odd in ((0, 1, 2, False), (1, 0, 2, True), (2, 0, 1, False)):
        a = top.get(j)
        if a:
            m = _minor(mid, low, k, l)
            if m:
                out = _mul_into(out, {key: -c for key, c in a.items()} if odd else a, m)
    return out


def _minor(upper: dict[int, dict[int, int]], lower: dict[int, dict[int, int]],
           k: int, l: int) -> dict[int, int]:
    """upper[k] * lower[l] - upper[l] * lower[k], a missing entry zero."""
    out: dict[int, int] = {}
    a, d = upper.get(k), lower.get(l)
    if a and d:
        out = _mul_into(out, a, d)
    b, c = upper.get(l), lower.get(k)
    if b and c:
        out = _mul_into(out, {key: -v for key, v in b.items()}, c)
    return out


def _unit_pivot(rows: dict[int, dict[int, dict[int, int]]], cols: dict[int, set[int]],
                buckets: list[set[int]]) -> tuple[int, int] | None:
    """A unit entry of a row with the fewest entries, or None if there is none.

    The first unit the scan meets whose column holds at most two entries
    is taken at once; failing that, the unit of that bucket whose column
    holds the fewest entries, ties to the first met.
    """
    for bucket in buckets:
        best = None
        fewest = len(buckets)  # more than any column holds
        for i in bucket:
            for j, t in rows[i].items():
                if len(t) == 1 and len(cols[j]) < fewest:
                    (v,) = t.values()
                    if v == 1 or v == -1:
                        best, fewest = (i, j), len(cols[j])
                        if fewest <= 2:
                            return best
        if best is not None:
            return best
    return None


def _odd(order: list[int]) -> bool:
    """Whether a permutation of range(len(order)), given as a list, is odd."""
    seen = [False] * len(order)
    odd = False
    for start in range(len(order)):
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            if j != start:
                odd = not odd
    return odd


def _det_packed(rows: list[dict[int, dict[int, int]]]) -> LaurentPoly2 | None:
    """The determinant of a residual's rows, as `det_terms` holds them, as
    one integer determinant at a Kronecker point, or None, for `_bareiss`,
    when its box is sparse (past `_SLOTS_PER_PAIR` slots per pair of the
    terms on its perfect matchings) or its result does not decode; see
    `det_terms` for the residuals it gets.

    A term of the expansion takes the entries of one perfect matching of
    the nonzero pattern, so entries on no such matching are left out, and
    in each variable the determinant's exponents lie between the least
    sum of the entries' lowest exponents over a matching and the largest
    sum of their highest.  Each entry is shifted by u_i + v_j, row and
    column potentials that reach that least sum (`_box_side`), so that
    every shifted exponent is nonnegative and the determinant's box
    starts at 0: rows of w digits, w its x-width, keep its terms apart,
    and likewise h rows for y.  Since |fg|_max <= |f|_max * |g|_1, no
    coefficient exceeds the permanent of the entries' l1 norms with one
    row's norms replaced by their largest coefficients; the least such
    permanent over the rows sets the digit width, however many bytes that
    takes, and bounds every entry's coefficients too.  Each entry is
    packed once, the integer determinant is expanded by `_expand`, and
    the result is decoded once.
    """
    n = len(rows)
    spreads = [{j: _spread(t) for j, t in row.items()} for row in rows]
    matchings = [p for p in permutations(range(n))
                 if all(j in row for j, row in zip(p, spreads))]
    if not matchings:
        return ZERO
    used: list[dict[int, _Spread]] = [{} for _ in range(n)]
    for p in matchings:
        for i, j in enumerate(p):
            used[i][j] = spreads[i][j]
    terms = sum(len(s[2]) for row in used for s in row.values())
    (ux, vx, x0, w), (uy, vy, y0, h) = (
        _box_side([{j: min(s[k]) for j, s in row.items()} for row in used],
                  [{j: max(s[k]) for j, s in row.items()} for row in used], matchings)
        for k in (0, 1))
    if w * h > _SLOTS_PER_PAIR * terms * terms:
        return None
    norms = [{j: sum(map(abs, s[2])) for j, s in row.items()} for row in used]
    tops = [{j: max(map(abs, s[2])) for j, s in row.items()} for row in used]
    bounds = [0] * n
    for p in matchings:
        norm = prod(norms[i][j] for i, j in enumerate(p))
        for i, j in enumerate(p):
            bounds[i] += norm // norms[i][j] * tops[i][j]
    nb = _digit_bytes(min(bounds))
    ints = [[0] * n for _ in range(n)]
    for i, row in enumerate(used):
        for j, s in row.items():
            y = uy[i] + vy[j]
            ints[i][j] = _to_int(s, ux[i] + vx[j], y, w, max(s[1]) - y + 1, nb)
    out = _from_int(_expand(ints), x0, y0, w, h, nb, w)
    return None if out is None else LaurentPoly2._raw(out)


def _box_side(lows: list[dict[int, int]], highs: list[dict[int, int]],
              matchings: list[tuple[int, ...]]) -> tuple[list[int], list[int], int, int]:
    """One variable's side of a determinant's exponent box, from the lowest
    and highest exponents of the entries (i, j) in `lows[i][j]` and
    `highs[i][j]`, and the perfect matchings of those entries.

    Returns row and column potentials u and v with u_i + v_j <= lows[i][j]
    for every entry and equality along a matching of least sum: the dual
    of the assignment problem, found by Bellman-Ford on the rows, since
    that matching leaves no negative cycle.  Their total, the same along
    every matching, is that least sum, the box's origin; the box's size
    is one more than the largest sum of highs[i][j] - u_i - v_j over a
    matching.
    """
    n = len(lows)
    least = min(matchings, key=lambda p: sum(lows[i][j] for i, j in enumerate(p)))
    u = [0] * n
    relaxed = True
    while relaxed:
        relaxed = False
        for k, j in enumerate(least):
            for i, row in enumerate(lows):
                if j in row and u[k] + row[j] - lows[k][j] < u[i]:
                    u[i] = u[k] + row[j] - lows[k][j]
                    relaxed = True
    v = [0] * n
    for k, j in enumerate(least):
        v[j] = lows[k][j] - u[k]
    size = 1 + max(sum(highs[i][j] - u[i] - v[j] for i, j in enumerate(p)) for p in matchings)
    return u, v, sum(u) + sum(v), size


def _expand(rows: list[list[int]]) -> int:
    """The determinant of a small integer matrix by Laplace expansion,
    row by row from the bottom, each minor kept by its column set."""
    n = len(rows)
    minors: dict[tuple[int, ...], int] = {(): 1}
    for i in range(n - 1, -1, -1):
        row = rows[i]
        below = minors
        minors = {}
        for cols in combinations(range(n), n - i):
            acc = 0
            for pos, j in enumerate(cols):
                if row[j]:
                    term = row[j] * below[cols[:pos] + cols[pos + 1:]]
                    acc = acc - term if pos & 1 else acc + term
            minors[cols] = acc
    return minors[tuple(range(n))]


def _bareiss(rows: list[dict[int, dict[int, int]]]) -> LaurentPoly2:
    """Exact determinant by fraction-free elimination.

    Bareiss-style one-step elimination with full pivoting, run directly
    in the Laurent ring.  Each entry after step k is a (k+1)-minor of the
    pivoted matrix, so every division by the previous pivot is exact in
    any integral domain, and Z[x^(+-1), y^(+-1)] is one.  Each step
    pivots on the nonzero entry of the active block with the fewest
    terms (ties to the lowest row, then column), which keeps products
    small, and returns 0 when there is none; a zero row left in the
    block stays zero under the update, so it ends as a zero determinant.
    Each step applies one update, a_ij <- (piv * a_ij - a_ik * a_kj) /
    prev, to every entry below and right of the pivot, a zero a_ik
    included.  Step 0 has no previous pivot (it is 1) and divides by
    nothing; from step 1 on, `_exact_div` divides by the previous pivot.
    On the dense residuals of large diagrams most products and quotients
    take the packed path, the rest go through `_addmul`, and every packed
    quotient is checked against its numerator before it is used.
    It takes a residual's rows as `det_terms` holds them, routed by the
    rule stated there, and wraps each cell once.  The tests use it on
    whole matrices, of any side, as an oracle for `det`.
    """
    n = len(rows)
    if n == 0:
        return ONE
    cells = [[LaurentPoly2._raw(row[j]) if j in row else ZERO for j in range(n)] for row in rows]
    sign = 1
    for k in range(n - 1):
        best = min(((len(e._t), i, j) for i in range(k, n)
                    for j, e in enumerate(cells[i][k:], k) if e._t), default=None)
        if best is None:
            return ZERO
        _, pi, pj = best
        if pi != k:
            cells[k], cells[pi] = cells[pi], cells[k]
            sign = -sign
        if pj != k:
            for r in cells:
                r[k], r[pj] = r[pj], r[k]
            sign = -sign
        piv = cells[k][k]
        row_k = cells[k]
        for i in range(k + 1, n):
            row_i = cells[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                e = piv * row_i[j] - aik * row_k[j]
                row_i[j] = _exact_div(e, prev) if k else e
        prev = piv
    result = cells[n - 1][n - 1]
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
    rows = matrix.entries
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
            e = rows[r].get(col)
            if e is None:
                continue
            sub = rec(active[:pos] + active[pos + 1 :])
            term = e * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[active] = acc
        return acc

    return rec(tuple(range(n)))
