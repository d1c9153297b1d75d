import random

import pytest
from hypothesis import given, settings, strategies as st

from vconway import invariants, laurent
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
        [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b.rows)]
         for row in a.rows])


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
    assert prod.rows == _identity(2).rows
    # the engine behind the skein relation
    scaled = PolyMatrix.from_rows(
        [[X * e for e in row] for row in M_NEG.rows]
    )
    diff = M_POS - scaled
    expect = (ONE - X)
    assert diff.rows == ((expect, ZERO), (ZERO, expect))


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
            assert det(m) == det_cofactor(m) == _bareiss(m)


def _no_bareiss(matrix):
    raise AssertionError(f"unexpected Bareiss remainder of side {matrix.n}")


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
    monkeypatch.setattr(laurent, "_bareiss", lambda mat: sides.append(mat.n) or _bareiss(mat))
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
    rows = [list(r) for r in big.rows]
    rows[1], rows[6] = rows[6], rows[1]
    assert det(PolyMatrix.from_rows(rows)) == -det(big)
    cols = [r[:2] + (r[5],) + r[3:5] + (r[2],) + r[6:] for r in big.rows]
    assert det(PolyMatrix.from_rows(cols)) == -det(big)


def test_det_singular_cases():
    assert det(PolyMatrix.from_rows([[ZERO, ZERO], [X, Y]])) == ZERO
    dup = PolyMatrix.from_rows([[X, Y], [X, Y]])
    assert det(dup) == ZERO
    assert det_cofactor(dup) == ZERO


def test_det_matches_bareiss_on_diagram_matrices(monkeypatch):
    # the matrices that z_polynomial and c0_via_tp hand to det
    mats = []
    monkeypatch.setattr(invariants, "det", lambda m: mats.append(m) or det(m))
    for seed, (k, c) in enumerate([(16, 1), (20, 2), (24, 3), (24, 1)]):
        d = random_diagram(GeneratorConfig(k, c, 0, seed=seed))
        invariants.z_polynomial(d)
        invariants.c0_via_tp(d)
    assert [m.n for m in mats] == [32, 32, 40, 40, 48, 48, 48, 48]
    for m in mats:
        assert det(m) == _bareiss(m)


def test_det_cofactor_size_limit():
    with pytest.raises(ValueError):
        det_cofactor(_identity(13))
