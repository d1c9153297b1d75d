import hashlib
import random
import time
from array import array
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import dense, term_rows
from vconway import invariants, laurent
from vconway.diagram import build_P
from vconway.laurent import (
    ConwayPoly,
    LaurentPoly2,
    ONE,
    PolyMatrix,
    X,
    X_INV,
    Y,
    Y_INV,
    ZERO,
    _bareiss,
    det,
    det_cofactor,
    eval_x1,
    expand_conway,
    lowest_x_exponent,
    normalize_x,
    substitute_y_inverse,
)
from vconway.moves import GeneratorConfig, random_diagram


def _identity(n):
    return PolyMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def _matmul(a, b):
    return PolyMatrix.from_rows(
        [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*dense(b))]
         for row in dense(a)])


# the two crossing blocks, rebuilt locally so this file stays self-contained
M_POS = PolyMatrix.from_rows([[ONE - X, -Y], [-X * Y_INV, 0]])
M_NEG = PolyMatrix.from_rows([[0, -X_INV * Y], [-Y_INV, ONE - X_INV]])


def mono(c, ex, ey):
    return LaurentPoly2.monomial(c, ex, ey)


coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.integers(min_value=-4, max_value=4)
polys = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=6).map(
    LaurentPoly2
)


# ---------------------------------------------------------------------------
# ring basics


def test_zero_one_identities():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert ONE + ZERO == ONE
    assert ONE * ZERO == ZERO
    assert X * X_INV == ONE
    assert Y * Y_INV == ONE


def test_int_coercion():
    assert LaurentPoly2.const(3) == 3
    assert ONE + 1 == LaurentPoly2.const(2)
    assert 1 + ONE == LaurentPoly2.const(2)
    assert 2 - ONE == ONE
    assert 2 * X == X + X
    assert X * 0 == ZERO


def test_cancellation_keeps_canonical_form():
    p = X + Y - X
    assert p == Y
    assert p.term_count() == 1
    assert (X - X).is_zero()


def test_product_example():
    # (1 - x)(1 - x^-1) = 2 - x - x^-1
    lhs = (ONE - X) * (ONE - X_INV)
    assert lhs == 2 * ONE - X - X_INV


def test_exponent_out_of_range():
    mono(1, 2**30 - 1, 1 - 2**30)  # the extremes still fit
    for ex, ey in ((2**30, 0), (0, -2**30)):
        with pytest.raises(OverflowError, match="out of supported range"):
            mono(1, ex, ey)


def test_shifted():
    p = mono(1, 2, -1) + mono(3, 0, 4)
    assert p.shifted(1, 1) == mono(1, 3, 0) + mono(3, 1, 5)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    assert a * ONE == a


@given(polys)
@settings(max_examples=40, deadline=None)
def test_substitute_y_inverse_involution(p):
    assert substitute_y_inverse(substitute_y_inverse(p)) == p


# ---------------------------------------------------------------------------
# rendering grammar


@pytest.mark.parametrize(
    "poly,text",
    [
        (ZERO, "0"),
        (ONE, "1"),
        (LaurentPoly2.const(-2), "-2"),
        (X, "x"),
        (-Y, "-y"),
        (mono(1, 2, 0), "x^2"),
        (mono(-3, 0, -2), "-3*y^-2"),
        (mono(5, 1, 1), "5*x*y"),
        (ONE + X * Y_INV + Y + X, "1 + x*y^-1 + y + x"),
        (ONE - X, "1 - x"),
        (Y_INV + 2 * ONE + Y, "y^-1 + 2 + y"),
        (mono(1, -1, 2) + mono(-1, 2, -1), "x^-1*y^2 - x^2*y^-1"),
    ],
)
def test_render(poly, text):
    assert poly.render() == text


def test_render_sorts_by_total_degree_then_x():
    p = mono(1, 0, 2) + mono(1, 2, 0) + mono(1, 1, 1)
    assert p.render() == "y^2 + x*y + x^2"


# ---------------------------------------------------------------------------
# substitutions


def test_lowest_x_exponent_and_normalize():
    p = mono(1, -2, 0) + mono(4, 1, 3)
    assert lowest_x_exponent(p) == -2
    assert normalize_x(p) == ONE + mono(4, 3, 3)
    assert normalize_x(ZERO) == ZERO
    with pytest.raises(ValueError):
        lowest_x_exponent(ZERO)


def test_eval_x1():
    assert eval_x1(ONE - X) == ZERO
    assert eval_x1(mono(1, 5, 2) + mono(2, -3, 2)) == mono(3, 0, 2)
    assert eval_x1(ZERO) == ZERO


def test_substitute_y_inverse():
    assert substitute_y_inverse(Y) == Y_INV
    assert substitute_y_inverse(Y_INV + 2 * ONE + Y) == Y_INV + 2 * ONE + Y
    assert substitute_y_inverse(X * Y) == X * Y_INV


def reference_render(terms):
    """The module docstring's rendering grammar applied to an {(ex, ey): c}
    mapping of nonzero coefficients."""
    out = ""
    for (ex, ey), c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0][0])):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("x", ex), ("y", ey)) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        if out:
            out += f" - {body}" if c < 0 else f" + {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


EDGE = 2 ** 30 - 1  # the largest exponent magnitude a key holds
edge_exponents = st.one_of(st.integers(-3, 3), st.sampled_from([EDGE, EDGE - 1, 1 - EDGE, -EDGE]),
                           st.integers(-EDGE, EDGE))
edge_terms = st.dictionaries(st.tuples(edge_exponents, edge_exponents),
                             st.integers(-3, 3), max_size=8)


@given(edge_terms)
@settings(max_examples=300, deadline=None)
def test_keys_at_the_edge_of_their_range(terms):
    nonzero = {k: c for k, c in terms.items() if c}
    p = LaurentPoly2(terms)
    assert p.term_count() == len(nonzero) and 0 not in p._t.values()
    assert p.render() == reference_render(nonzero)
    if not nonzero:
        with pytest.raises(ValueError):
            lowest_x_exponent(p)
        assert normalize_x(p) == eval_x1(p) == substitute_y_inverse(p) == ZERO
        return
    low = min(ex for ex, _ in nonzero)
    assert lowest_x_exponent(p) == low
    # x-exponents up to 2^31 - 2 after the shift, beyond what a mapping may give
    assert normalize_x(p).render() == reference_render(
        {(ex - low, ey): c for (ex, ey), c in nonzero.items()})
    collapsed = {}
    for (_, ey), c in nonzero.items():
        collapsed[0, ey] = collapsed.get((0, ey), 0) + c
    assert eval_x1(p).render() == reference_render({k: c for k, c in collapsed.items() if c})
    assert substitute_y_inverse(p).render() == reference_render(
        {(ex, -ey): c for (ex, ey), c in nonzero.items()})


def test_products_and_shifts_that_would_wrap_raise():
    # a key decodes while |ey| < 2^31: the square of y^(2^30 - 1) still does,
    # its cube would wrap, and so would a shift past the field; x has no field
    edge = mono(1, 0, EDGE)
    square = edge * edge
    assert square.render() == "y^2147483646"
    assert (-square * mono(1, 0, 1)).render() == "-y^2147483647"
    with pytest.raises(OverflowError):
        square * edge
    with pytest.raises(OverflowError):
        edge * edge * edge
    with pytest.raises(OverflowError):
        (ONE + square).shifted(0, 2)
    assert (ONE + square).shifted(0, 1).render() == "y + y^2147483647"
    low = mono(3, 1, -EDGE)
    with pytest.raises(OverflowError):
        low * low * (X + Y_INV * Y_INV)
    assert (low * low * X).render() == "9*x^3*y^-2147483646"
    wide = mono(1, EDGE, 0)
    assert (wide * wide * wide).render() == f"x^{3 * EDGE}"


def test_det_refuses_rows_that_could_wrap():
    # the rows' y-reaches sum to 4 * (2^29 + 1) >= 2^31: the diagonal's
    # determinant, y^(2^31 + 4), would wrap.  At side 3 it fits
    def diagonal(*exps):
        n = len(exps)
        return PolyMatrix.from_rows([[mono(1, 0, e) if i == j else ZERO for j in range(n)]
                                     for i, e in enumerate(exps)])

    with pytest.raises(OverflowError):
        det(diagonal(*[2**29 + 1] * 4))
    assert det(diagonal(*[2**29 + 1] * 3)).render() == f"y^{3 * (2**29 + 1)}"
    # the bound is the field's: a reach sum of 2^31 - 1 fits, 2^31 does not,
    # on either side of 0
    for sign in (1, -1):
        assert det(diagonal(sign * EDGE, sign * EDGE, sign)).render() == f"y^{sign * (2**31 - 1)}"
        with pytest.raises(OverflowError):
            det(diagonal(sign * EDGE, sign * EDGE, 2 * sign))


# ---------------------------------------------------------------------------
# conway expansion


def test_expand_conway_examples():
    assert expand_conway(ONE - X).coeffs == (ZERO, ONE)
    assert expand_conway(X * X).coeffs == (ONE, -2 * ONE, ONE)
    got = expand_conway(Y + X * Y_INV)
    assert got.coeff(0) == Y + Y_INV
    assert got.coeff(1) == -Y_INV
    with pytest.raises(ValueError):
        expand_conway(X_INV)


def test_conway_validation_and_render():
    with pytest.raises(ValueError):
        ConwayPoly((X,))
    p = ConwayPoly((Y_INV + 2 * ONE + Y, -Y_INV - ONE))
    assert p.render() == "(y^-1 + 2 + y) + (-y^-1 - 1)*z"
    assert ConwayPoly().render() == "0"
    assert ConwayPoly((ZERO, ZERO)).is_zero()
    assert ConwayPoly((ONE, ZERO)).coeffs == (ONE,)


@given(st.lists(polys.map(eval_x1), max_size=4))
@settings(max_examples=40, deadline=None)
def test_conway_reconstruct_round_trip(cs):
    p = ConwayPoly(cs)
    assert expand_conway(p.reconstruct()) == p


def reference_expand_conway(p):
    """The per-term formula expand_conway used before its Taylor shift:
    x^ex = (1 - z)^ex adds comb(ex, j) * (-1)^j * c at z^j, one dict
    update per term and j."""
    coeffs = []
    for k, c in p._t.items():
        ex, ey = laurent._unpack(k)
        while len(coeffs) <= ex:
            coeffs.append({})
        ykey = laurent._pack(0, ey)
        for j, bucket in enumerate(coeffs[:ex + 1]):
            v = bucket.get(ykey, 0) + c * (-comb(ex, j) if j & 1 else comb(ex, j))
            if v:
                bucket[ykey] = v
            else:
                bucket.pop(ykey, None)
    return ConwayPoly(LaurentPoly2._raw(b) for b in coeffs)


# y-exponents with gaps between them, so some y-rows are empty; with
# x-exponents up to 40 and coefficients up to 10^30 some columns take
# digits wider than 8 bytes
x_normalized = st.dictionaries(
    st.tuples(st.integers(0, 40), st.sampled_from((-7, -3, -2, 0, 4, 9))),
    st.one_of(coeffs, st.integers(-10**30, 10**30)), max_size=30,
).map(LaurentPoly2).map(normalize_x)


@given(x_normalized)
@settings(max_examples=80, deadline=None)
def test_expand_conway_matches_per_term_formula(p):
    got = expand_conway(p)
    assert got == reference_expand_conway(p)
    assert got.reconstruct() == p


# ---------------------------------------------------------------------------
# exact division


def test_exact_div_long_and_negative_quotients():
    # 80 quotient terms; the quotient's exponents run negative in both variables
    assert laurent._exact_div(mono(1, 80, 0) - 1, X - 1) == sum(
        (mono(1, k, 0) for k in range(80)), ZERO)
    q = sum((mono(1, k - 50, k - 60) for k in range(80)), ZERO)
    assert laurent._exact_div(mono(1, 30, 20) - mono(1, -50, -60), X * Y - 1) == q


@pytest.mark.parametrize("num, den", [
    (mono(1, 3, 0) + 1, X - 1),  # remainder 2
    (X + 1, 2 * X + 1),  # leading coefficient does not divide
    (X * Y + 1, X + Y),  # quotient term leaves the exponent box
    (3 * X, LaurentPoly2.const(2)),  # a monomial divisor leaves a remainder
    (X, ONE + mono(1, 2, 0)),  # the divisor is wider than the numerator: empty box
])
def test_exact_div_rejects_inexact(num, den):
    with pytest.raises(ArithmeticError, match="non-exact"):
        laurent._exact_div(num, den)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        laurent._exact_div(X, ZERO)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_exact_div_undoes_multiplication(a, b):
    if not b.is_zero():
        assert laurent._exact_div(a * b, b) == a


# ---------------------------------------------------------------------------
# Kronecker-packed products and quotients


def test_digit_typecodes():
    # each digit width maps to an unsigned array typecode of exactly that size
    assert sorted(laurent._DIGIT_CODES) == [1, 2, 4, 8]
    for nb, code in laurent._DIGIT_CODES.items():
        assert code in "BHILQ"
        assert array(code).itemsize == nb


@pytest.mark.parametrize("bound, nb", [
    (0, 1), (127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8),
    (2**63 - 1, 8), (2**63, 9), (2**71 - 1, 9), (2**71, 10), (2**199, 26),
])
def test_digit_bytes(bound, nb):
    assert laurent._digit_bytes(bound) == nb


@pytest.mark.parametrize("nb", [1, 2, 4, 8, 9, 16, 21])
def test_digits_round_trip_at_any_width(nb):
    # 3 rows of 5 digits, the last two columns empty; coefficients reach the
    # edges of the digit, 2^(8*nb - 1) - 1 in magnitude
    rng = random.Random(nb)
    top = 2 ** (8 * nb - 1) - 1
    terms = {(x, y): rng.choice((top, -top, 1, -1, rng.randint(-top, top)))
             for x in range(-1, 2) for y in range(4, 7)}
    p = LaurentPoly2(terms)
    v = laurent._to_int(laurent._spread(p._t), -1, 4, 5, 3, nb)
    assert v == sum(c << (8 * nb * (x + 1 + 5 * (y - 4))) for (x, y), c in terms.items())
    assert laurent._from_int(v, -1, 4, 5, 3, nb, 3) == p._t
    # a nonzero digit in a column at or beyond `cols`, or a value too large
    assert laurent._from_int(v + (1 << (8 * nb * 4)), -1, 4, 5, 3, nb, 3) is None
    assert laurent._from_int(v << (8 * nb * 15), -1, 4, 5, 3, nb, 3) is None


def near(bits):
    """Coefficients of magnitude between 2^(bits-1) and 2^bits, either sign."""
    return st.builds(lambda m, s: m * s, st.integers(2 ** (bits - 1), 2 ** bits),
                     st.sampled_from((1, -1)))


def dense_polys(bits):
    # exponents in a 4 x 4 box, at least 6 terms, so no product is too sparse to pack
    small = st.integers(min_value=-2, max_value=1)
    return st.dictionaries(st.tuples(small, small), near(bits), min_size=6, max_size=12).map(
        LaurentPoly2)


def pairs(t):
    """The {(ex, ey): c} mapping of a packed-key term dict, its keys
    ex * 2^32 + ey decoded here."""
    out = {}
    for key, c in t.items():
        ey = (key + 2 ** 31) % 2 ** 32 - 2 ** 31
        out[(key - ey) >> 32, ey] = c
    return out


def reference_mul(a, b):
    """The product of two {(ex, ey): c} mappings, one term pair at a time,
    with the coefficients that cancel dropped: no code of `laurent`."""
    out = {}
    for (ax, ay), ca in a.items():
        for (bx, by), cb in b.items():
            k = ax + bx, ay + by
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("pack_pairs", [laurent._PACK_PAIRS, 0])
@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_addmul_matches_a_reference_product(pack_pairs, a, b, c):
    expect = reference_mul(pairs(a._t), pairs(b._t))
    for k, v in pairs(c._t).items():
        expect[k] = expect.get(k, 0) + v
    expect = {k: v for k, v in expect.items() if v}
    assert pairs(laurent._addmul(dict(c._t), a._t, b._t)) == expect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_PACK_PAIRS", pack_pairs)
        assert pairs((c + a * b)._t) == expect
    # adding -a*b back cancels every term
    minus = LaurentPoly2({k: -v for k, v in reference_mul(pairs(a._t), pairs(b._t)).items()})
    assert laurent._addmul(dict(minus._t), a._t, b._t) == {}


# coefficient bits that put the product bound into 1-, 2-, 4- and 8-byte
# digits, and beyond 64 bits, where digits take as many bytes as they need
@pytest.mark.parametrize("bits, nb", [(1, 1), (5, 2), (13, 4), (29, 8), (33, 9), (60, 16)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_packed_product_matches_schoolbook(bits, nb, data):
    a, b = data.draw(dense_polys(bits)), data.draw(dense_polys(bits))
    ma, mb = [abs(c) for c in a._t.values()], [abs(c) for c in b._t.values()]
    assert laurent._digit_bytes(min(sum(ma) * max(mb), sum(mb) * max(ma))) == nb
    expect = reference_mul(pairs(a._t), pairs(b._t))
    assert pairs(laurent._mul_packed(a._t, b._t)) == expect
    assert pairs((a * b)._t) == expect


@pytest.mark.parametrize("n, nb", [(127, 1), (128, 2)])
def test_packed_product_at_digit_boundary(n, nb):
    # the square of 1 + x + ... + x^(n-1) has middle coefficient n, exactly its bound
    a = sum((mono(1, i, 0) for i in range(n)), ZERO)
    assert laurent._digit_bytes(n) == nb
    assert pairs(laurent._mul_packed(a._t, a._t)) == reference_mul(pairs(a._t), pairs(a._t))


@pytest.mark.parametrize("bits", [1, 5, 13, 29, 33, 60])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_packed_division_undoes_multiplication(bits, data):
    a, b = data.draw(dense_polys(bits)), data.draw(dense_polys(bits))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_PACK_PAIRS", 0)
        assert laurent._exact_div(a * b, b) == a


@pytest.mark.parametrize("bits", [1, 5, 13, 29, 60])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_packed_division_rejects_a_monomial_remainder(bits, data):
    # a * b + e leaves remainder e, and no b of two or more terms divides a monomial
    a, b = data.draw(dense_polys(bits)), data.draw(dense_polys(bits))
    e = mono(data.draw(near(bits)), data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_PACK_PAIRS", 0)
        with pytest.raises(ArithmeticError, match="non-exact"):
            laurent._exact_div(a * b + e, b)


def spy_long_division(monkeypatch):
    calls = []
    long = laurent._long_div
    monkeypatch.setattr(laurent, "_PACK_PAIRS", 0)
    monkeypatch.setattr(laurent, "_long_div",
                        lambda nt, dt, box: calls.append(nt) or long(nt, dt, box))
    return calls


def test_packed_division_rejects_by_remainder(monkeypatch):
    # x^3 + 1 at x = 2^8 leaves remainder 2 modulo 2^8 - 1
    calls = spy_long_division(monkeypatch)
    with pytest.raises(ArithmeticError, match="non-exact"):
        laurent._exact_div(mono(1, 3, 0) + 1, X - 1)
    assert not calls


@pytest.mark.parametrize("digits, long_calls", [
    ((30000, 30000, 5535), 1),  # quotient 30000 - 5536*x fails; long division decides
    # the multiply-back takes 9-byte digits, past 64 bits; long division decides
    ((2**62, 2**62, 2**63 - 1), 1),
])
def test_packed_division_rejects_by_multiply_back(monkeypatch, digits, long_calls):
    # the digit sum is 2^B - 1 for the B-bit digits picked, so at x = 2^B the
    # numerator is divisible by 1 - 2^B although 1 - x does not divide it
    bits = 8 * laurent._digit_bytes(max(digits))
    assert sum(digits) == 2**bits - 1
    assert sum(c << (bits * i) for i, c in enumerate(digits)) % (1 - 2**bits) == 0
    num = sum((mono(c, i, 0) for i, c in enumerate(digits)), ZERO)
    calls = spy_long_division(monkeypatch)
    backs = []
    mul_packed = laurent._mul_packed
    monkeypatch.setattr(laurent, "_mul_packed",
                        lambda a, b: backs.append((a, b, mul_packed(a, b))) or backs[-1][2])
    with pytest.raises(ArithmeticError, match="non-exact"):
        laurent._exact_div(num, ONE - X)
    assert len(calls) == long_calls
    # the packed multiply-back was made, and it is the true product
    (quo, den, back), = backs
    assert pairs(back) == reference_mul(pairs(quo), pairs(den)) != pairs(num._t)


@pytest.mark.parametrize("num, den", [
    # 127*x^2 + 8 = 129 * 64520 at x = 2^8, and 64520 has a nonzero digit in
    # a third column, beyond the quotient's two
    (mono(127, 2, 0) + 8, X - 127),
    # at x = 2^8, y = 2^16 the quotient is 64522, more than its two digits hold
    (mono(127, 1, 1) + Y + 10 * X, Y - 127 * X),
])
def test_packed_division_rejects_an_undecodable_quotient(monkeypatch, num, den):
    decoded = []
    from_int = laurent._from_int
    monkeypatch.setattr(laurent, "_from_int",
                        lambda *args: decoded.append(from_int(*args)) or decoded[-1])
    calls = spy_long_division(monkeypatch)
    with pytest.raises(ArithmeticError, match="non-exact"):
        laurent._exact_div(num, den)
    assert decoded == [None] and len(calls) == 1


def test_packed_division_leaves_a_wide_quotient_to_long_division(monkeypatch):
    # the numerator's largest coefficient, 13260, picks 2-byte digits, in
    # which the quotient's 48620 = C(18, 9) does not fit
    qs = {(i, 0): comb(18, i) for i in range(19)}  # (1 + x)^18
    q, num = LaurentPoly2(qs), LaurentPoly2(reference_mul(qs, {(0, 0): 1, (1, 0): -1}))
    assert max(num._t.values()) == 13260 and max(q._t.values()) == 48620
    calls = spy_long_division(monkeypatch)
    assert laurent._exact_div(num, ONE - X) == q
    assert len(calls) == 1


def test_sparse_product_is_not_packed(monkeypatch):
    # a packed product would need about 2^58 slots
    monkeypatch.setattr(laurent, "_PACK_PAIRS", 0)
    a, b = mono(1, 2**29, 0) + Y, mono(1, 0, 2**29) + X
    assert laurent._mul_packed(a._t, b._t) is None
    assert a * b == mono(1, 2**29, 2**29) + mono(1, 2**29 + 1, 0) + mono(1, 0, 2**29 + 1) + X * Y


# ---------------------------------------------------------------------------
# matrices and determinants


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        PolyMatrix.from_rows([[ONE, X]])
    m = _identity(3)
    assert m.n == 3
    assert det(m) == ONE


def test_block_identities():
    assert det(M_POS) == -X
    assert det(M_POS - _identity(2)) == ZERO
    assert det(M_NEG) == -X_INV
    prod = _matmul(M_POS, M_NEG)
    assert dense(prod) == dense(_identity(2))
    # the engine behind the skein relation
    scaled = PolyMatrix.from_rows(
        [[X * e for e in row] for row in dense(M_NEG)]
    )
    diff = M_POS - scaled
    expect = (ONE - X)
    assert dense(diff) == ((expect, ZERO), (ZERO, expect))


def test_det_block_diag_multiplicative():
    m = PolyMatrix.block_diag(M_POS, M_NEG, M_POS)
    assert det(m) == det(M_POS) * det(M_NEG) * det(M_POS)


def test_det_matches_cofactor_on_random_matrices():
    rng = random.Random(8)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [
                [
                    mono(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-1, 1))
                    + mono(rng.randint(-1, 1), 0, rng.randint(-1, 1))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m = PolyMatrix.from_rows(rows)
            assert det(m) == det_cofactor(m)


def mixed_entry(rng, p_zero):
    """Zero, a unit +-x^a*y^b, a non-unit monomial, or a two-term polynomial."""
    if rng.random() < p_zero:
        return ZERO
    u = rng.random()
    ex, ey = rng.randint(-2, 2), rng.randint(-2, 2)
    if u < 0.65:
        return mono(rng.choice((1, -1)), ex, ey)
    if u < 0.8:
        return mono(rng.choice((2, -3)), ex, ey)
    return ONE - mono(1, ex, ey + 1)


def mixed_matrix(rng, n):
    # about four nonzero entries per row, as sparse as the diagram matrices
    p_zero = max(0.3, 1 - 4 / n)
    return PolyMatrix.from_rows([[mixed_entry(rng, p_zero) for _ in range(n)] for _ in range(n)])


def test_det_matches_cofactor_on_mixed_matrices():
    rng = random.Random(12)
    for n in range(1, 13):
        for _ in range(4 if n <= 10 else 2):
            m = mixed_matrix(rng, n)
            assert det(m) == det_cofactor(m) == _bareiss(term_rows(m))


def _no_bareiss(rows):
    # unit elimination left no residual: `det_terms` hands Bareiss only side 0
    if rows:
        raise AssertionError(f"unexpected Bareiss remainder of side {len(rows)}")
    return ONE


def test_det_all_unit_pivots(monkeypatch):
    # a signed permutation matrix plus one more unit entry: unit
    # elimination finishes the whole matrix and leaves no remainder
    rng = random.Random(3)
    n = 9
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[ZERO] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = mono(rng.choice((1, -1)), rng.randint(-2, 2), rng.randint(-2, 2))
    rows[0][perm[1]] = Y
    m = PolyMatrix.from_rows(rows)
    expect = det_cofactor(m)
    monkeypatch.setattr(laurent, "_bareiss", _no_bareiss)
    assert det(m) == expect
    assert expect.term_count() == 1


def test_det_without_units_is_all_bareiss(monkeypatch):
    rng = random.Random(4)

    def non_unit():
        u = rng.random()
        if u < 0.3:
            return ZERO
        if u < 0.65:
            return ONE + mono(rng.choice((1, 2)), rng.randint(1, 2), 0)
        return mono(2, rng.randint(-1, 1), rng.randint(-1, 1))

    n = 7
    m = PolyMatrix.from_rows([[non_unit() for _ in range(n)] for _ in range(n)])
    sides = []
    monkeypatch.setattr(laurent, "_bareiss", lambda rows: sides.append(len(rows)) or _bareiss(rows))
    got = det(m)
    assert got == det_cofactor(m)
    assert not got.is_zero()
    assert sides == [n]


def test_det_row_vanishes_during_unit_elimination(monkeypatch):
    # the last row is y times the first, so whichever of the two is
    # eliminated first turns the other into a zero row
    first = [ONE, X, ONE - X, 2 * Y]
    rows = [first, [X, ONE - X, 2 * ONE, Y], [ZERO, Y, X * Y, ONE + Y], [Y * e for e in first]]
    m = PolyMatrix.from_rows(rows)
    monkeypatch.setattr(laurent, "_bareiss", _no_bareiss)
    assert det(m) == ZERO == det_cofactor(m)


def test_det_row_swap_changes_sign():
    m = PolyMatrix.from_rows([[ONE, X], [Y, ONE - X]])
    swapped = PolyMatrix.from_rows([[Y, ONE - X], [ONE, X]])
    assert det(swapped) == -det(m)
    rng = random.Random(5)
    big = mixed_matrix(rng, 8)
    while det(big).is_zero():
        big = mixed_matrix(rng, 8)
    rows = [list(r) for r in dense(big)]
    rows[1], rows[6] = rows[6], rows[1]
    assert det(PolyMatrix.from_rows(rows)) == -det(big)
    cols = [r[:2] + (r[5],) + r[3:5] + (r[2],) + r[6:] for r in dense(big)]
    assert det(PolyMatrix.from_rows(cols)) == -det(big)


def test_det_singular_cases():
    assert det(PolyMatrix.from_rows([[ZERO, ZERO], [X, Y]])) == ZERO
    dup = PolyMatrix.from_rows([[X, Y], [X, Y]])
    assert det(dup) == ZERO
    assert det_cofactor(dup) == ZERO


def diagram_matrices():
    # M - P, assembled here as criterion 10 assembles it, and the matrix that
    # c0_via_tp hands to det
    mats = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "det", lambda m: mats.append(m) or det(m))
        for seed, (k, c) in enumerate([(16, 1), (20, 2), (24, 3), (24, 1)]):
            d = random_diagram(GeneratorConfig(k, c, 0, seed=seed))
            mats.append(PolyMatrix.block_diag(*(M_POS if d.crossings[cid].sign > 0 else M_NEG
                                                for cid in d.classical_ids()))
                        - build_P(d).matrix())
            invariants.c0_via_tp(d)
    assert [m.n for m in mats] == [32, 32, 40, 40, 48, 48, 48, 48]
    return mats


def test_det_matches_bareiss_on_diagram_matrices():
    for m in diagram_matrices():
        assert det(m) == _bareiss(term_rows(m))


@pytest.mark.parametrize("pairs", [0, 10**9], ids=["packed", "schoolbook"])
def test_det_oracles_agree_on_either_path(monkeypatch, pairs):
    # every product and quotient packed, or none: the determinants stay the same
    mats = diagram_matrices()
    expect = [det(m) for m in mats]
    monkeypatch.setattr(laurent, "_PACK_PAIRS", pairs)
    assert [det(m) for m in mats] == [_bareiss(term_rows(m)) for m in mats] == expect
    test_det_matches_cofactor_on_mixed_matrices()


def _is_unit(t):
    return len(t) == 1 and list(t.values()) in ([1], [-1])


def test_unit_pivot_takes_a_fewest_entry_row_and_column(monkeypatch):
    # at every step the pivot is a unit of a row with the fewest entries of any
    # row holding a unit: in the order the search reads that bucket (its rows,
    # then each row's entries), the first such unit whose column has at most
    # two entries, else the first whose column has the fewest.  Every active
    # row sits in the bucket of its entry count, and every active column lists
    # exactly the rows that hold an entry in it
    picks = []
    pivot = laurent._unit_pivot

    def checked(rows, cols, buckets):
        assert sorted(i for bucket in buckets for i in bucket) == sorted(rows)
        assert all(i in buckets[len(entries)] for i, entries in rows.items())
        assert all(cols[j] == {i for i, entries in rows.items() if j in entries} for j in cols)
        units = [(i, j) for i, entries in rows.items() for j, t in entries.items() if _is_unit(t)]
        got = pivot(rows, cols, buckets)
        if units:
            fewest = min(len(rows[i]) for i, _ in units)
            read = [(i, j) for i in buckets[fewest] for j, t in rows[i].items() if _is_unit(t)]
            early = [(i, j) for i, j in read if len(cols[j]) <= 2]
            assert got == (early[0] if early else min(read, key=lambda u: len(cols[u[1]])))
        else:
            assert got is None
        picks.append(got)
        return got

    rng = random.Random(30)
    mats = diagram_matrices() + [mixed_matrix(rng, n) for n in range(1, 16) for _ in range(3)]
    expect = [_bareiss(term_rows(m)) for m in mats]
    monkeypatch.setattr(laurent, "_unit_pivot", checked)
    assert [det(m) for m in mats] == expect
    assert len(picks) > 300
    assert None in picks


def test_bareiss_zero_rows_in_the_active_block():
    # row 2 is (1 + y) times row 0, which holds the only one-term entry, so
    # step 0 pivots in row 0 and leaves row 2 zero in the active block; the
    # later updates keep it zero.  A zero row from the start does the same,
    # and an all-zero active block ends the elimination at once.
    first = [ONE + X, 2 * X, ONE - Y, X + Y]
    rest = [[ONE + Y, X - Y, 2 + X, ONE - X], [X + 2 * Y, ONE + X * Y, Y - X, 3 + Y]]
    vanishing = PolyMatrix.from_rows([first, rest[0], [(ONE + Y) * e for e in first], rest[1]])
    zero_row = PolyMatrix.from_rows([rest[0], [ZERO] * 4, first, rest[1]])
    zero_block = PolyMatrix.from_rows([[X, ONE + X, Y], [ZERO] * 3, [ZERO] * 3])
    for m in (vanishing, zero_row, zero_block):
        assert _bareiss(term_rows(m)) == ZERO == det_cofactor(m)
    # a row that is a unit times another, in sparse matrices
    rng = random.Random(31)
    for n in range(2, 9):
        rows = [list(r) for r in dense(mixed_matrix(rng, n))]
        i, j = rng.sample(range(n), 2)
        unit = mono(rng.choice((1, -1)), 1, -1)
        rows[i] = [unit * e for e in rows[j]]
        m = PolyMatrix.from_rows(rows)
        assert _bareiss(term_rows(m)) == ZERO == det_cofactor(m)


def permutation_sign(order):
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -1 if inversions & 1 else 1


def test_det_sign_under_row_and_column_permutations():
    # the Laplace sign comes from the order in which rows and columns are
    # eliminated; permuting either must change Z by exactly the permutation's sign
    rng = random.Random(21)
    nonzero = 0
    for n in range(1, 11):
        for _ in range(3):
            m = mixed_matrix(rng, n)
            expect = det_cofactor(m)
            nonzero += not expect.is_zero()
            rp, cp = list(range(n)), list(range(n))
            rng.shuffle(rp)
            rng.shuffle(cp)
            cells = dense(m)
            permuted = PolyMatrix.from_rows([[cells[i][j] for j in cp] for i in rp])
            sign = permutation_sign(rp) * permutation_sign(cp)
            assert det(m) == expect
            assert det(permuted) == det_cofactor(permuted) == expect * sign
    assert nonzero >= 15


def residual_entry(rng, dense):
    """A dense entry of 13-20 terms, which makes a residual pack, or a
    sparse one of 0-2 terms; exponents run negative in both variables."""
    if dense:
        count = rng.randint(13, 20)
    else:
        count = rng.choice((0, 0, 1, 2))
    return LaurentPoly2({(rng.randint(-3, 2), rng.randint(-2, 3)): rng.randint(-9, 9) or 1
                         for _ in range(count)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_residual_matches_oracles(n):
    rng = random.Random(100 + n)
    for trial in range(8):
        dense = trial % 2 == 0
        rows = [[residual_entry(rng, dense) for _ in range(n)] for _ in range(n)]
        if trial >= 6:
            rows[rng.randrange(n)] = [ZERO] * n
        m = PolyMatrix.from_rows(rows)
        got = laurent._det_packed(term_rows(m))
        assert got is not None
        assert got == _bareiss(term_rows(m)) == det_cofactor(m)
        if trial >= 6:
            assert got.is_zero()
        elif dense:
            assert not got.is_zero()


def spy_residuals(monkeypatch):
    """The (kernel, side) of each residual `det_terms` closes, in order."""
    paths = []
    packed, bareiss, leibniz = laurent._det_packed, laurent._bareiss, laurent._leibniz

    def spy_packed(rows):
        out = packed(rows)
        paths.append(("packed" if out is not None else "declined", len(rows)))
        return out

    monkeypatch.setattr(laurent, "_det_packed", spy_packed)
    monkeypatch.setattr(laurent, "_bareiss",
                        lambda rows: paths.append(("bareiss", len(rows))) or bareiss(rows))
    monkeypatch.setattr(laurent, "_leibniz",
                        lambda rows: paths.append(("leibniz", len(rows))) or leibniz(rows))
    monkeypatch.setattr(laurent, "det_cofactor",
                        lambda m: pytest.fail("det called the cofactor oracle"))
    return paths


def packed_digit_bound(m):
    """The largest coefficient `_det_packed` allows for: the least, over the
    rows, of the permanent of the entries' l1 norms with that row's norms
    replaced by its largest coefficients."""
    cells = dense(m)

    def norm(i, j, replaced):
        cs = list(map(abs, cells[i][j]._t.values()))
        return (max(cs) if i == replaced else sum(cs)) if cs else 0
    n = m.n
    return min(sum(prod(norm(i, j, r) for i, j in enumerate(p)) for p in permutations(range(n)))
               for r in range(n))


def spy_packing(monkeypatch):
    """The (w, h, digit bytes) of each packed determinant decoded."""
    boxes = []
    from_int = laurent._from_int
    monkeypatch.setattr(laurent, "_from_int", lambda v, x0, y0, w, h, nb, cols:
                        boxes.append((w, h, nb)) or from_int(v, x0, y0, w, h, nb, cols))
    return boxes


def exact_box(m):
    """w and h of the determinant's exponent box: in each variable, one more
    than the largest sum of the entries' highest exponents over a perfect
    matching less the least sum of their lowest."""
    exps = [{j: [laurent._unpack(k) for k in e._t] for j, e in row.items()} for row in m.entries]
    matchings = [p for p in permutations(range(m.n)) if all(j in exps[i] for i, j in enumerate(p))]
    return tuple(
        max(sum(max(e[v] for e in exps[i][j]) for i, j in enumerate(p)) for p in matchings)
        - min(sum(min(e[v] for e in exps[i][j]) for i, j in enumerate(p)) for p in matchings) + 1
        for v in (0, 1))


@pytest.mark.parametrize("bits, path", [(4, [("packed", 3, 4)]), (20, [("packed", 3, 9)]),
                                        (50, [("packed", 3, 21)])])
def test_residual_path_by_permanent_bound(monkeypatch, bits, path):
    # 3 x 3 entries of 13 terms, no unit among them: the whole matrix is the
    # residual.  The permanent bound sets the digits: 4 bytes at 4-bit
    # coefficients, past 64 bits at 20 and past 160 at 50.
    rng = random.Random(bits)
    rows = [[LaurentPoly2({(i % 4, i // 4): rng.choice((1, -1)) * rng.randint(2 ** (bits - 1), 2 ** bits)
                           for i in range(13)}) for _ in range(3)] for _ in range(3)]
    m = PolyMatrix.from_rows(rows)
    expect = det_cofactor(m)
    paths = spy_residuals(monkeypatch)
    boxes = spy_packing(monkeypatch)
    assert det(m) == expect
    assert [(p, n, nb) for (p, n), (_, _, nb) in zip(paths, boxes)] == path
    assert laurent._digit_bytes(packed_digit_bound(m)) == path[0][2]


def test_packed_residual_leaves_out_entries_on_no_matching():
    # `far` spans 63 in x and 60 in y, but every perfect matching through it
    # meets a zero, so it cannot reach the determinant: the box is the
    # diagonal's, which `far` does not fit, and packing it would overrun
    a, c = ONE + 2 * X + Y, 3 - X * Y + mono(2, 2, 1)
    far = mono(1, 60, 0) + mono(-4, 0, 60) + mono(5, -3, 7)
    for rows in ([[a, far], [ZERO, c]], [[a, far, ZERO], [ZERO, c, ZERO], [X, far * far, Y]]):
        m = PolyMatrix.from_rows(rows)
        with pytest.MonkeyPatch.context() as mp:
            boxes = spy_packing(mp)
            got = laurent._det_packed(term_rows(m))
        assert got == _bareiss(term_rows(m)) == det_cofactor(m) != ZERO
        (w, h, _), = boxes
        assert (w, h) == exact_box(m)
        assert w <= 4 and h <= 4


def test_packed_residual_takes_two_byte_digits(monkeypatch):
    # 3 x 3 entries of ten coefficients of magnitude 3: the permanent of the l1
    # norms, 6 * 30^3, needs 4-byte digits, but with one row at its largest
    # coefficients, 6 * 3 * 30^2 = 16,200 < 2^15, 2-byte digits hold it
    rng = random.Random(17)
    rows = [[LaurentPoly2({(k % 4, k // 4): rng.choice((3, -3)) for k in range(10)})
             for _ in range(3)] for _ in range(3)]
    m = PolyMatrix.from_rows(rows)
    norms = [[sum(map(abs, e._t.values())) for e in row] for row in dense(m)]
    assert sum(prod(norms[i][j] for i, j in enumerate(p)) for p in permutations(range(3))) == 162000
    assert packed_digit_bound(m) == 16200
    boxes = spy_packing(monkeypatch)
    got = laurent._det_packed(term_rows(m))
    assert [nb for _, _, nb in boxes] == [2]
    assert got == _bareiss(term_rows(m)) == det_cofactor(m)
    assert max(map(abs, got._t.values())) < 2 ** 15


@st.composite
def spread_matrices(draw):
    """Side 2-4, entries of up to 5 terms with small exponents around a large
    offset of their row plus one of their column, negative ones included, and
    some entries zero, so that some lie on no perfect matching."""
    n = draw(st.integers(2, 4))
    offset = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    row_off = draw(st.lists(offset, min_size=n, max_size=n))
    col_off = draw(st.lists(offset, min_size=n, max_size=n))
    local = st.dictionaries(st.tuples(st.integers(-3, 5), st.integers(-3, 5)),
                            st.integers(-40, 40), max_size=5)
    return PolyMatrix.from_rows([[LaurentPoly2({
        (rx + cx + ex, ry + cy + ey): c for (ex, ey), c in draw(local).items()})
        for cx, cy in col_off] for rx, ry in row_off])


@settings(max_examples=150, deadline=None)
@given(spread_matrices())
def test_packed_residual_on_spread_exponents(m):
    # with the slot rule lifted every matrix packs, in exactly the box the
    # perfect matchings span, which the offsets of rows and columns do not widen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_SLOTS_PER_PAIR", 10**9)
        to_int = laurent._to_int

        def small_to_int(spread, x0, y0, w, h, nb):
            assert w <= 4 * 8 + 1 and h <= 4 * 8 + 1  # before any allocation
            return to_int(spread, x0, y0, w, h, nb)

        mp.setattr(laurent, "_to_int", small_to_int)
        boxes = spy_packing(mp)
        got = laurent._det_packed(term_rows(m))
    assert got == _bareiss(term_rows(m)) == det_cofactor(m)
    if boxes:
        (w, h, _), = boxes
        assert (w, h) == exact_box(m)
    else:
        assert got.is_zero()  # no perfect matching


def test_sparse_residual_is_not_packed(monkeypatch):
    # entries of 3 terms spread over 2^29 exponents: a packed residual would
    # need about 2^58 slots, so packing declines.  With 27 terms det closes it
    # by the Leibniz formula, whose products are too small to pack, and
    # Bareiss agrees
    rng = random.Random(7)
    rows = [[LaurentPoly2({(rng.randrange(2**29), rng.randrange(2**29)): rng.choice((1, -1))
                           for _ in range(3)}) for _ in range(3)] for _ in range(3)]
    m = PolyMatrix.from_rows(rows)
    expect = det_cofactor(m)
    assert laurent._det_packed(term_rows(m)) is None
    assert _bareiss(term_rows(m)) == expect
    paths = spy_residuals(monkeypatch)
    assert det(m) == expect
    assert paths == [("leibniz", 3)]


def test_sparse_long_division_takes_leading_terms_from_a_heap(monkeypatch):
    # 13-term entries spread over 2^29 exponents: Bareiss's last step divides
    # a 145,002-term numerator by the 13-term first pivot into 13,182
    # quotient terms, too sparse to pack, so long division decides.  With a
    # scan of the whole remainder per quotient term it took 13.7 s (2-core
    # machine, Python 3.11.7); with the heap, 0.26 s.
    rng = random.Random(7)
    rows = [[LaurentPoly2({(rng.randrange(2**29), rng.randrange(2**29)): rng.choice((1, -1))
                           for _ in range(13)}) for _ in range(3)] for _ in range(3)]
    m = PolyMatrix.from_rows(rows)
    expect = det_cofactor(m)
    sizes = []
    long = laurent._long_div
    monkeypatch.setattr(laurent, "_long_div",
                        lambda nt, dt, box: sizes.append((len(nt), len(dt))) or long(nt, dt, box))
    t0 = time.perf_counter()
    assert det(m) == expect
    assert time.perf_counter() - t0 < 5
    assert sizes == [(145002, 13)] and expect.term_count() == 13182


def campaign_entry(rng):
    """Zero, or 2-4 monomials of coefficient +-1 with small exponents, as
    in the side-3 residuals that small diagrams leave: never a unit."""
    if rng.random() < 0.3:
        return ZERO
    while True:
        e = LaurentPoly2({(rng.randint(-2, 3), rng.randint(-2, 3)): rng.choice((1, -1))
                          for _ in range(rng.randint(2, 4))})
        if e.term_count() >= 2:
            return e


def test_small_side_3_residuals_close_by_leibniz(monkeypatch):
    # at most _LEIBNIZ_TERMS terms, as in the campaign's side-3 residuals
    rng = random.Random(21)
    mats = []
    while len(mats) < 20:
        m = PolyMatrix.from_rows([[campaign_entry(rng) for _ in range(3)] for _ in range(3)])
        if all(m.entries):
            mats.append(m)
    assert all(residual_terms(term_rows(m)) <= laurent._LEIBNIZ_TERMS for m in mats)
    expect = [det_cofactor(m) for m in mats]
    assert expect == [_bareiss(term_rows(m)) for m in mats]
    assert expect == [laurent._det_packed(term_rows(m)) for m in mats]
    assert sum(not e.is_zero() for e in expect) >= 10
    paths = spy_residuals(monkeypatch)
    assert [det(m) for m in mats] == expect
    assert paths == [("leibniz", 3)] * len(mats)


def test_z_hands_residuals_over_as_term_rows(monkeypatch):
    # Z's residuals reach the kernels as the rows of term dicts that
    # `det_terms` holds: no PolyMatrix is built, sides 3 to 5 still pack, and
    # sides 1 and 2 close by the Leibniz formula
    monkeypatch.setattr(PolyMatrix, "__init__", lambda *args: pytest.fail("Z built a PolyMatrix"))
    paths = spy_residuals(monkeypatch)
    for i in range(40):
        invariants.z_polynomial(random_diagram(GeneratorConfig(24, 1 + i % 3, 0, seed=1000 + i)))
    assert {n for p, n in paths if p == "packed"} == {3, 4, 5}
    assert all(p == "leibniz" for p, n in paths if n < 3)
    assert all(p == "bareiss" for p, n in paths if n > 5)


def thirteen_terms(rng):
    """An entry of 13 terms in a 4 x 4 box: two of them make 169 term pairs,
    past _PACK_PAIRS, so their product packs."""
    return LaurentPoly2({(k % 4, k // 4): rng.choice((1, -1)) * rng.randint(1, 9) for k in range(13)})


def spy_packed_products(monkeypatch):
    pairs = []
    mul_packed = laurent._mul_packed
    monkeypatch.setattr(laurent, "_mul_packed",
                        lambda a, b: pairs.append(len(a) * len(b)) or mul_packed(a, b))
    return pairs


def test_side_2_residual_with_large_entries_packs_both_products(monkeypatch):
    # 2 x 2 entries of 13 terms, no unit among them: the whole matrix is the
    # residual, the Leibniz formula closes it as a*d - b*c, and both products
    # pack
    rng = random.Random(22)
    m = PolyMatrix.from_rows([[thirteen_terms(rng) for _ in range(2)] for _ in range(2)])
    expect = det_cofactor(m)
    assert expect == _bareiss(term_rows(m)) != ZERO
    paths = spy_residuals(monkeypatch)
    packed = spy_packed_products(monkeypatch)
    assert det(m) == expect
    assert paths == [("leibniz", 2)]
    assert packed == [169, 169]


@pytest.mark.parametrize("side", [1, 2])
def test_side_1_and_2_residuals_close_by_leibniz(monkeypatch, side):
    # units down the diagonal of the first rows, nothing else in those rows,
    # and entries of 13 terms in every other row: unit elimination leaves those
    # rows' corner as the residual, which the Leibniz formula closes as its one
    # entry or as a*d - b*c with packed products, wherever rows and columns are
    # shuffled
    rng = random.Random(40 + side)
    mats = []
    for units in range(6):
        n = units + side
        cells = [[ZERO] * n for _ in range(units)]
        for i in range(units):
            cells[i][i] = mono(rng.choice((1, -1)), rng.randint(-2, 2), rng.randint(-2, 2))
        cells += [[thirteen_terms(rng) for _ in range(n)] for _ in range(side)]
        rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
        mats.append(PolyMatrix.from_rows([[cells[i][j] for j in cp] for i in rp]))
    expect = [det_cofactor(m) for m in mats]
    assert expect == [_bareiss(term_rows(m)) for m in mats] and all(expect)
    paths = spy_residuals(monkeypatch)
    packed = spy_packed_products(monkeypatch)
    assert [det(m) for m in mats] == expect
    assert paths == [("leibniz", side)] * len(mats)
    assert packed == ([169] * 2 * len(mats) if side == 2 else [])


@st.composite
def small_residuals(draw):
    """A matrix of side 0 to 3, as `_leibniz` gets its rows: zero entries,
    sometimes a zero row or column (no perfect matching),
    sometimes a row that is a monomial times another (every product
    cancels), and at side 2 sometimes entries of 13 to 16 terms, whose
    products pack."""
    n = draw(st.integers(0, 3))
    terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                            st.integers(-3, 3), max_size=4)
    if n == 2 and draw(st.booleans()):
        terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                st.integers(1, 9) | st.integers(-9, -1), min_size=13, max_size=16)
    cells = [[LaurentPoly2(draw(terms)) for _ in range(n)] for _ in range(n)]
    if n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        shape = draw(st.sampled_from(["free", "zero row", "zero column", "multiple"]))
        if shape == "zero row":
            cells[i] = [ZERO] * n
        elif shape == "zero column":
            for row in cells:
                row[j] = ZERO
        elif shape == "multiple":
            unit = mono(draw(st.sampled_from((1, -1, 2))), draw(st.integers(-2, 2)), 1)
            cells[i] = [unit * e for e in cells[j]]
    return PolyMatrix.from_rows(cells)


# a*d = b*c, so both products cancel term for term; a zero column, so no
# perfect matching and no product
_A, _B = ONE + X, Y - 2 * X


@settings(max_examples=300, deadline=None)
@given(small_residuals())
@example(PolyMatrix.from_rows([[_A, _B], [mono(-1, 1, 2) * _A, mono(-1, 1, 2) * _B]]))
@example(PolyMatrix.from_rows([[_A, ZERO, _B], [X, ZERO, ONE - Y], [_B, ZERO, _A]]))
@example(PolyMatrix.from_rows([[_A, _B, ONE], [ZERO, ZERO, X], [ZERO, ZERO, Y]]))
def test_leibniz_matches_the_oracles(m):
    rows = term_rows(m)
    big = m.n == 2 and min((e.term_count() for row in m.entries for e in row.values()),
                           default=0) >= 13 and all(len(row) == 2 for row in m.entries)
    with pytest.MonkeyPatch.context() as mp:
        packed = spy_packed_products(mp)
        got = LaurentPoly2._raw(laurent._leibniz(rows))
    assert got == det_cofactor(m) == _bareiss(term_rows(m))
    assert rows == term_rows(m)  # the entries are left as they were
    if big:
        assert len(packed) == 2 and min(packed) >= laurent._PACK_PAIRS


def matched_terms(rows):
    """The terms of the entries on the perfect matchings of a residual's rows."""
    on = {(i, j) for p in permutations(range(len(rows)))
          if all(j in row for j, row in zip(p, rows)) for i, j in enumerate(p)}
    return sum(len(rows[i][j]) for i, j in on)


def residual_terms(rows):
    """The terms of all entries of a residual's rows, which route side 3."""
    return sum(len(t) for row in rows for t in row.values())


def test_det_takes_both_residual_paths():
    # sides 0 to 2, and side 3 up to _LEIBNIZ_TERMS terms, close by the
    # Leibniz formula; a larger side 3 and sides 4 and 5 pack unless the
    # entries on their perfect matchings have more than _PACK_TERMS terms;
    # every other side, and a declined residual, goes to Bareiss
    rng = random.Random(12)
    mats = [mixed_matrix(rng, n) for n in range(1, 13) for _ in range(3)]
    mats += [PolyMatrix.from_rows([[residual_entry(rng, True) for _ in range(n)] for _ in range(n)])
             for n in range(1, 7) for _ in range(2)]
    # side 4 and 5 past the ceiling: entries of 48 terms in a 6 x 8 box
    mats += [PolyMatrix.from_rows([[LaurentPoly2({(k % 6, k // 6): rng.choice((1, -1, 2))
                                                  for k in range(48)}) for _ in range(n)]
                                   for _ in range(n)]) for n in (4, 5)]
    expect = [det_cofactor(m) for m in mats]
    packed, bareiss, leibniz = laurent._det_packed, laurent._bareiss, laurent._leibniz
    runs = []
    for pairs in (0, laurent._PACK_PAIRS, 10**9):
        paths = []

        def spy_packed(rows):
            assert len(rows) > 3 or residual_terms(rows) > laurent._LEIBNIZ_TERMS
            out = packed(rows)
            paths.append(("packed" if out is not None else "declined", len(rows),
                          matched_terms(rows) > laurent._PACK_TERMS))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "_PACK_PAIRS", pairs)
            mp.setattr(laurent, "_det_packed", spy_packed)
            mp.setattr(laurent, "_bareiss",
                       lambda rows: paths.append(("bareiss", len(rows), None)) or bareiss(rows))
            mp.setattr(laurent, "_leibniz",
                       lambda rows: paths.append(("leibniz", len(rows),
                                                  residual_terms(rows))) or leibniz(rows))
            assert [det(m) for m in mats] == expect
        runs.append(paths)
    # the routing reads side 3's term count and no other entry size, and no
    # _PACK_PAIRS: the same paths at any value of it
    assert runs == [paths] * 3
    assert all(n < 3 or terms <= laurent._LEIBNIZ_TERMS for p, n, terms in paths if p == "leibniz")
    assert all(3 <= n <= 5 and past == (p == "declined")
               for p, n, past in paths if p in ("packed", "declined"))
    taken = [n for p, n, _ in paths if p == "bareiss"]
    declined = [n for p, n, _ in paths if p == "declined"]
    assert sorted(n for n in taken if 3 <= n <= 5) == sorted(declined)
    # every path is taken, Bareiss for each reason: beyond side 5 and past the
    # ceiling.  The dense matrices of side 1 to 3 hold no unit, so they are
    # whole residuals: those of side 3 are past _LEIBNIZ_TERMS and pack
    assert {(n, p) for p, n, _ in paths if n <= 3} >= {
        (0, "leibniz"), (1, "leibniz"), (2, "leibniz"), (3, "leibniz"), (3, "packed")}
    assert max(taken) > 5 and sorted(declined) == [4, 5]


def test_z_renders_are_pinned():
    # Z on fixed codes of 24 to 64 crossings, rendered and hashed; any change to
    # det, the packed arithmetic or the matrix assembly must leave it alone
    lines = []
    for k, count in ((24, 40), (32, 20), (48, 5), (64, 2)):
        for i in range(count):
            d = random_diagram(GeneratorConfig(k, 1 + i % 3, 0, seed=1000 + i))
            lines.append(invariants.z_polynomial(d).render())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9c89c8bb455f6c906aee2e6249c7b20decd4396f6398e58314c00e00c5e697f3"


def test_c0_via_tp_renders_are_pinned():
    # c0 through the all-unit TP matrices of the fixed codes of test_z_renders_are_pinned
    lines = []
    for k, count in ((24, 40), (32, 20), (48, 5), (64, 2)):
        for i in range(count):
            d = random_diagram(GeneratorConfig(k, 1 + i % 3, 0, seed=1000 + i))
            lines.append(invariants.c0_via_tp(d).render())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1f878ae965111d8f2cf8dce0cdb23b82bcf5a6b44866ee57cc147ac8ce345c84"


MERSENNE_61 = 2 ** 61 - 1


def point_value(poly, a, b, p):
    """poly at x = a, y = b mod p, its keys ex * 2^32 + ey decoded here."""
    total = 0
    for key, c in poly._t.items():
        ey = (key + 2 ** 31) % 2 ** 32 - 2 ** 31
        total += c * pow(a, (key - ey) >> 32, p) * pow(b, ey, p)
    return total % p


def point_z(d, a, b, p):
    """(-1)^(n+r) * det(M - P) at x = a, y = b mod p, with M's crossing
    blocks written out at the point and the determinant taken by Gaussian
    elimination mod p: no arithmetic of `laurent` is used."""
    ai, bi = pow(a, -1, p), pow(b, -1, p)
    blocks = {1: ((1 - a, -b), (-a * bi, 0)), -1: ((0, -ai * b), (-bi, 1 - ai))}
    n = d.n_classical()
    rows = [[0] * 2 * n for _ in range(2 * n)]
    for i, cid in enumerate(d.classical_ids()):
        for r, half in enumerate(blocks[d.crossings[cid].sign]):
            rows[2 * i + r][2 * i:2 * i + 2] = half
    for s, t in enumerate(build_P(d).perm):
        rows[t][s] -= 1
    value = -1 if (n + len(d.components)) % 2 else 1
    for k in range(2 * n):
        piv = next((i for i in range(k, 2 * n) if rows[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            value = -value
        row_k = rows[k]
        value = value * row_k[k] % p
        inv = pow(row_k[k], -1, p)
        nonzero = [(j, v) for j, v in enumerate(row_k[k + 1:], k + 1) if v % p]
        for row in rows[k + 1:]:
            f = row[k] * inv % p
            if f:
                for j, v in nonzero:
                    row[j] = (row[j] - f * v) % p
    return value


def test_z_matches_a_point_oracle():
    # Z of the fixed codes of test_z_renders_are_pinned, evaluated at a random
    # point mod a prime, against the determinant of M - P taken at that point;
    # a wrong Z agrees with probability at most deg / p (Schwartz-Zippel)
    rng = random.Random(61)
    nonzero = 0
    for k, count in ((24, 40), (32, 20), (48, 5), (64, 2)):
        for i in range(count):
            d = random_diagram(GeneratorConfig(k, 1 + i % 3, 0, seed=1000 + i))
            assert not d.has_empty_component()
            a, b = rng.randrange(2, MERSENNE_61), rng.randrange(2, MERSENNE_61)
            expect = point_z(d, a, b, MERSENNE_61)
            assert point_value(invariants.z_polynomial(d), a, b, MERSENNE_61) == expect
            nonzero += expect != 0
    assert nonzero >= 60


@given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32), st.data())
@settings(max_examples=150, deadline=None)
def test_z_matches_a_point_oracle_on_drawn_diagrams(crossings, components, seed, data):
    # the sizes whose determinant residuals reach side 4 and 5
    d = random_diagram(GeneratorConfig(crossings, components, 0, seed=seed))
    assume(not d.has_empty_component())
    a, b = (data.draw(st.integers(2, MERSENNE_61 - 1)) for _ in range(2))
    expect = point_z(d, a, b, MERSENNE_61)
    assert point_value(invariants.z_polynomial(d), a, b, MERSENNE_61) == expect


def test_det_cofactor_size_limit():
    with pytest.raises(ValueError):
        det_cofactor(_identity(13))
