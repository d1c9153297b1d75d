import contextlib
import itertools
import json
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import term_rows
from vconway.diagram import (
    OVER,
    UNDER,
    Crossing,
    Diagram,
    Passage,
    build_P,
    disjoint_union,
    format_diagram,
    parse_diagram,
    resolve_double,
    reverse,
    set_sign,
    smooth,
    switch,
    validate,
)
from vconway import invariants
from vconway.invariants import (
    Z_MEMO_SIZE,
    c0,
    c0_cycle_form,
    c0_via_tp,
    c1,
    conway,
    kink_factor,
    mutated_blocks,
    order_one_defect,
    report,
    vassiliev_eval,
    z_normalized,
    z_polynomial,
)
from vconway.laurent import (
    ONE,
    X,
    X_INV,
    Y_INV,
    ZERO,
    LaurentPoly2,
    PolyMatrix,
    _bareiss,
    _odd,
    det_cofactor,
    eval_x1,
    expand_conway,
    normalize_x,
    substitute_y_inverse,
)
from vconway.moves import GeneratorConfig, random_diagram
from vconway.verify import enumerate_virtual_knot_codes


def _sample(count, seed, components=None, max_crossings=6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, max_crossings)
        c = components if components is not None else rng.randint(1, 3)
        out.append(random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30))))
    return out


# ---------------------------------------------------------------------------
# frozen values


def test_z_vanishes_on_classical(trefoil, fig8, classical_hopf, kink):
    for d in (trefoil, fig8, classical_hopf, kink):
        assert z_polynomial(d).is_zero()


def test_z_virtual_hopf(vhopf):
    assert z_polynomial(vhopf).render() == "1 + x*y^-1 + y + x"
    assert z_normalized(vhopf) == z_polynomial(vhopf)
    assert conway(vhopf).render() == "(y^-1 + 2 + y) + (-y^-1 - 1)*z"
    assert c0(vhopf).render() == "y^-1 + 2 + y"


def test_z_virtual_trefoil(vtref):
    assert z_polynomial(vtref).render() == "1 + x*y^-1 + y - x^2*y^-1 - x*y - x^2"
    assert conway(vtref).render() == "(y^-1 + 2 + y)*z + (-y^-1 - 1)*z^2"
    assert c0(vtref).is_zero()
    assert c1(vtref).render() == "y^-1 + 2 + y"


def test_pseudo_hopf_is_a_negative_control(pseudo_hopf):
    # role-alternation the wrong way round cannot come from a planar
    # diagram, and indeed Z does not vanish
    assert z_polynomial(pseudo_hopf).render() == "1 - x^2*y^-2 - y^2 + x^2"
    assert c0(pseudo_hopf).render() == "-y^-2 + 2 - y^2"


def test_c0_chain(chain3):
    assert c0(chain3).render() == "-y^-2 - 2*y^-1 + 2*y + y^2"


def test_empty_and_degenerate_cases():
    assert z_polynomial(parse_diagram("component:")).is_zero()
    assert z_polynomial(parse_diagram("component: O1+\ncomponent: U1+\ncomponent:")).is_zero()
    assert conway(parse_diagram("component:")).is_zero()


# ---------------------------------------------------------------------------
# the three c0 routes


def test_c0_routes_agree_on_fixtures(vhopf, vtref, chain3, pseudo_hopf):
    for d in (vhopf, vtref, chain3, pseudo_hopf):
        a = c0(d)
        assert c0_via_tp(d) == a
        assert c0_cycle_form(d) == a


def test_c0_routes_agree_randomized():
    for d in _sample(120, seed=21):
        if d.has_empty_component():
            continue
        assert c0(d) == c0_via_tp(d) == c0_cycle_form(d)


def test_c0_via_tp_preconditions():
    for route in (c0_via_tp, c0_cycle_form):
        with pytest.raises(ValueError, match="crossing on every component"):
            route(parse_diagram("component:"))
        with pytest.raises(ValueError, match="crossing on every component"):
            route(parse_diagram("component: O1+ U1+\ncomponent:"))
        with pytest.raises(ValueError, match="resolve double points first"):
            route(parse_diagram("component: A1 O2+ B1 U2+"))


# ---------------------------------------------------------------------------
# theorem-shaped properties, small seeded samples


def test_skein_relation_randomized():
    for d in _sample(40, seed=22, max_crossings=5):
        for cid in d.classical_ids():
            pos = set_sign(d, cid, 1)
            lhs = (
                z_polynomial(pos)
                - X * z_polynomial(set_sign(d, cid, -1))
                - (ONE - X) * z_polynomial(smooth(pos, cid))
            )
            assert lhs.is_zero(), (d, cid)


def test_x1_switch_independence():
    for d in _sample(40, seed=23, max_crossings=5):
        base = eval_x1(z_polynomial(d))
        for cid in d.classical_ids():
            assert eval_x1(z_polynomial(switch(d, cid))) == base


def test_disjoint_union_multiplicative(vhopf, vtref):
    pairs = zip(_sample(25, seed=24, max_crossings=4), _sample(25, seed=25, max_crossings=4))
    for d1, d2 in pairs:
        assert z_polynomial(disjoint_union(d1, d2)) == z_polynomial(d1) * z_polynomial(d2)
    assert z_polynomial(disjoint_union(vhopf, vtref)) == z_polynomial(vhopf) * z_polynomial(vtref)


def test_c0_knot_vanishing_and_link_symmetries():
    for d in _sample(60, seed=26, components=1):
        assert c0(d).is_zero()
    from vconway.laurent import substitute_y_inverse

    for d in _sample(60, seed=27):
        a = c0(d)
        assert c0(reverse(d)) == a
        flipped = a if len(d.components) % 2 == 0 else -a
        assert substitute_y_inverse(a) == flipped


def test_kink_factor_table():
    assert kink_factor(True, 1) == ONE
    assert kink_factor(False, 1) == X
    assert kink_factor(False, -1) == X_INV
    assert kink_factor(True, -1) == ONE


# ---------------------------------------------------------------------------
# the Z memo


def _count_dets(monkeypatch):
    """The side of each arc matrix Z hands to the determinant kernel."""
    calls = []
    det_terms = invariants.det_terms
    monkeypatch.setattr(invariants, "det_terms",
                        lambda rows: calls.append(len(rows)) or det_terms(rows))
    return calls


def test_repeated_z_computes_one_det(vtref, monkeypatch):
    calls = _count_dets(monkeypatch)
    first = z_polynomial(vtref)
    assert z_polynomial(vtref) == first
    assert c0(vtref) == eval_x1(first)
    assert c1(vtref) == conway(vtref).coeff(1)
    assert calls == [2]
    # an equal diagram built anew hits the same entry
    assert z_polynomial(parse_diagram("component: O1+ O2+ U1+ U2+")) == first
    assert calls == [2]


def test_z_memo_keeps_blocks_apart(monkeypatch):
    d = parse_diagram("component: O1-\ncomponent: U1-")
    calls = _count_dets(monkeypatch)
    right = z_polynomial(d)
    with mutated_blocks():
        # the memo was emptied on entry: the wrong block costs a new det
        wrong = z_polynomial(d)
        assert z_polynomial(d) == wrong
    assert wrong != right
    # and emptied again on exit: the right value is computed anew
    assert z_polynomial(d) == right
    assert calls == [2, 2, 2]


def test_mutated_blocks_restored_on_exception(monkeypatch):
    d = parse_diagram("component: O1-\ncomponent: U1-")
    right = z_polynomial(d)
    with pytest.raises(RuntimeError, match="inside"):
        with mutated_blocks():
            assert z_polynomial(d) != right
            raise RuntimeError("raised inside")
    calls = _count_dets(monkeypatch)
    assert z_polynomial(d) == right
    assert calls == [2]


def test_z_memo_is_bounded():
    assert invariants._z_memo.cache_info().maxsize == Z_MEMO_SIZE == 32
    for d in _sample(3 * Z_MEMO_SIZE, 11):
        z_polynomial(d)
        assert invariants._z_memo.cache_info().currsize <= Z_MEMO_SIZE
    assert invariants._z_memo.cache_info().currsize == Z_MEMO_SIZE


# ---------------------------------------------------------------------------
# the arc matrix: Z with M - P's over-exit rows eliminated along each component


def _z_of_m_minus_p(d):
    """(-1)^(n+r) * det(M - P), with M - P assembled from the blocks in use,
    as criterion 10 assembles it, and no code of the arc walk: by cofactors
    up to side 12 and by Bareiss on the whole matrix beyond."""
    m = PolyMatrix.block_diag(*(PolyMatrix.from_rows(invariants._blocks[d.crossings[cid].sign])
                                for cid in d.classical_ids())) - build_P(d).matrix()
    value = det_cofactor(m) if m.n <= 12 else _bareiss(term_rows(m))
    return -value if (d.n_classical() + len(d.components)) % 2 else value


@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32), st.booleans())
@settings(max_examples=120, deadline=None)
def test_arc_matrix_gives_det_of_m_minus_p(crossings, components, seed, mutate):
    d = random_diagram(GeneratorConfig(crossings, components, 0, seed=seed))
    assume(not d.has_empty_component())
    with mutated_blocks() if mutate else contextlib.nullcontext():
        assert z_polynomial(d) == _z_of_m_minus_p(d)


@given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_sign_of_p_is_the_prefactor(crossings, components, seed):
    # TP = T P^-1 has one cycle per component, so sgn P = (-1)^(n+r); the arc
    # matrix's sign rule, Z = (-1)^r * det, rests on this
    d = random_diagram(GeneratorConfig(crossings, components, 0, seed=seed))
    assume(not d.has_empty_component())
    assert _odd(list(build_P(d).perm)) == ((d.n_classical() + len(d.components)) % 2 == 1)


@pytest.mark.parametrize("code, side", [
    ("component: O1+ O2+\ncomponent: U2+ U1+", 3),  # one component with no under passage
    ("component: O1-\ncomponent: U1-", 2),  # and with one passage
    ("component: O1+ U1+", 1),  # kinks
    ("component: U1- O1-", 1),
    ("component: O1+ O2-\ncomponent: O3+\ncomponent: U1+ U3+ U2-", 5),  # two with none
    ("component: O1+ O2-\ncomponent: U2- U1+", 3),  # units multiplying to 1: Z is 0
])
def test_arc_matrix_edge_cases(monkeypatch, code, side):
    # the arc matrix has side n plus one per component with no under passage
    d = parse_diagram(code)
    calls = _count_dets(monkeypatch)
    for mutate in (False, True):
        with mutated_blocks() if mutate else contextlib.nullcontext():
            assert z_polynomial(d) == _z_of_m_minus_p(d)
    assert calls == [side, side]


def test_arc_matrix_needs_a_one_unit_over_row(monkeypatch):
    # the over-exit row of the positive block is (-x*y^-1, 0); anything else raises
    d = parse_diagram("component: O1+ U1+")
    under = invariants.POS_BLOCK[0]
    for over in ((LaurentPoly2.monomial(-2, 1, -1), ZERO), (-X * Y_INV, ONE), (ONE - X, ZERO),
                 (ZERO, ZERO)):
        monkeypatch.setattr(invariants, "_blocks", {1: (under, over), -1: invariants.NEG_BLOCK})
        invariants._z_memo.cache_clear()
        with pytest.raises(ValueError, match=r"over-exit row of the \+1 block is not one unit"):
            z_polynomial(d)


def _corrupt(d, rng, times):
    """d with `times` random corruptions, each of which may make the code invalid:
    drop or duplicate a passage, flip its O and U, make it an A or B passage,
    point it at an undeclared crossing, declare a crossing no passage visits,
    or move a passage to another component."""
    comps = [list(comp) for comp in d.components]
    table = dict(d.crossings)
    for _ in range(times):
        fresh = max(table, default=0) + 1
        places = [(comp, t) for comp in comps for t in range(len(comp))]
        kind = rng.randrange(7) if places else 5
        if kind == 5:
            table[fresh] = Crossing(fresh, "x", rng.choice((1, -1)))
            continue
        comp, t = rng.choice(places)
        cid, role = comp[t]
        if kind == 0:
            del comp[t]
        elif kind == 1:
            comp.insert(rng.randrange(len(comp) + 1), comp[t])
        elif kind == 2:
            comp[t] = Passage(cid, OVER if role == UNDER else UNDER)
        elif kind == 3:
            comp[t] = Passage(cid, rng.choice("AB"))
        elif kind == 4:
            comp[t] = Passage(fresh, role)
        else:
            other = rng.choice(comps)
            other.insert(rng.randrange(len(other) + 1), comp.pop(t))
    return Diagram(tuple(map(tuple, comps)), table)


@st.composite
def corrupted_codes(draw):
    d = random_diagram(GeneratorConfig(draw(st.integers(0, 6)), draw(st.integers(1, 3)), 0,
                                       seed=draw(st.integers(0, 2**32))))
    return _corrupt(d, random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 2)))


@given(corrupted_codes())
@settings(max_examples=300, deadline=None)
# an A passage where U2+ was: every slot is filled, but not by an O and a U
@example(Diagram(((Passage(1, OVER), Passage(2, OVER), Passage(1, UNDER), Passage(2, "A")),),
                 {1: Crossing(1, "x", 1), 2: Crossing(2, "x", 1)}))
# a duplicated passage: every slot is filled, by 2n + 1 passages
@example(parse_diagram("component: O1+ O2- U1+ U2- U1+"))
def test_z_rejects_exactly_the_codes_validate_rejects(d):
    problems = validate(d)
    if not d.crossings or d.has_empty_component():
        assert z_polynomial(d) == ZERO
    elif problems:
        for _ in range(2):  # a rejected code leaves nothing in the memo
            with pytest.raises(ValueError) as err:
                z_polynomial(d)
            assert str(err.value) == "invalid diagram: " + "; ".join(problems)
    else:
        assert z_polynomial(d) == _z_of_m_minus_p(d)


# ---------------------------------------------------------------------------
# singular diagrams and the vassiliev extension


def test_z_rejects_singular():
    d = parse_diagram("component: A1 B1")
    for _ in range(2):
        with pytest.raises(ValueError, match="resolve double points first"):
            z_polynomial(d)
    assert invariants._z_memo.cache_info().currsize == 0


def test_vassiliev_eval_base_cases(vtref):
    assert vassiliev_eval(vtref) == z_normalized(vtref)
    one_double = parse_diagram("component: A1 O2+ B1 U2+")
    pos = resolve_double(one_double, 1)
    expect = c1(pos) - c1(switch(pos, 1))
    assert expand_conway(vassiliev_eval(one_double)).coeff(1) == expect


def test_vassiliev_eval_zero_default():
    d = parse_diagram("component: A1 B1")
    assert eval_x1(vassiliev_eval(d)) == ZERO


def test_vassiliev_cap():
    comps = tuple(
        Passage(cid, role) for cid in range(1, 22) for role in ("A", "B")
    )
    table = {cid: Crossing(cid, "d", None) for cid in range(1, 22)}
    d = Diagram((comps,), table)
    with pytest.raises(ValueError, match="double points"):
        eval_x1(vassiliev_eval(d))


def test_extended_c0_vanishes():
    rng = random.Random(31)
    for _ in range(25):
        d = random_diagram(GeneratorConfig(rng.randint(0, 4), rng.randint(1, 2), 1,
                                           seed=rng.randrange(1 << 30)))
        assert eval_x1(vassiliev_eval(d)).is_zero()


def test_extended_c1_vanishes_on_singular_knots():
    rng = random.Random(32)
    for _ in range(20):
        d = random_diagram(GeneratorConfig(rng.randint(0, 4), 1, 2,
                                           seed=rng.randrange(1 << 30)))
        assert expand_conway(vassiliev_eval(d)).coeff(1).is_zero()


@given(st.integers(0, 5), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_vassiliev_eval_is_the_signed_sum_over_sign_patterns(crossings, components, doubles,
                                                             seed):
    # the reference lists the sign patterns outright; the sum of c1 over them
    # is the per-resolution route to the extended c1
    d = random_diagram(GeneratorConfig(crossings, components, doubles, seed=seed))
    ids = d.double_ids()
    z_sum = c1_sum = ZERO
    for eps in itertools.product((1, -1), repeat=len(ids)):
        resolved = d
        for cid in ids:
            resolved = resolve_double(resolved, cid)
        for cid, e in zip(ids, eps):
            if e == -1:
                resolved = switch(resolved, cid)
        sign = math.prod(eps)
        z_sum += z_normalized(resolved) * sign
        c1_sum += c1(resolved) * sign
    value = vassiliev_eval(d)
    assert value == z_sum
    assert expand_conway(value).coeff(1) == c1_sum


def test_order_one_defect_matches_definition():
    rng = random.Random(33)
    for _ in range(25):
        d = random_diagram(GeneratorConfig(rng.randint(2, 5), rng.randint(1, 2), 0,
                                           seed=rng.randrange(1 << 30)))
        id1, id2 = rng.sample(d.classical_ids(), 2)

        def at(s1, s2):
            return c1(set_sign(set_sign(d, id1, s1), id2, s2))

        assert order_one_defect(d, id1, id2) == at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)


def test_order_one_defect_vanishes_on_knots():
    # sign resolutions keep the component count, so every pair of a knot
    # diagram has all-knot resolutions and a vanishing defect; the
    # smoothed-c0 route of the same argument agrees term by term
    rng = random.Random(34)
    for _ in range(20):
        d = random_diagram(GeneratorConfig(rng.randint(2, 5), 1, 0,
                                           seed=rng.randrange(1 << 30)))
        id1, id2 = rng.sample(d.classical_ids(), 2)
        defect = order_one_defect(d, id1, id2)
        assert defect.is_zero()
        plus0 = c0(smooth(set_sign(set_sign(d, id1, 1), id2, 1), id2))
        minus0 = c0(smooth(set_sign(set_sign(d, id1, -1), id2, 1), id2))
        assert defect == plus0 - minus0


def test_order_one_defect_can_be_nonzero_on_links():
    rng = random.Random(35)
    for _ in range(60):
        d = random_diagram(GeneratorConfig(rng.randint(2, 5), 2, 0,
                                           seed=rng.randrange(1 << 30)))
        id1, id2 = rng.sample(d.classical_ids(), 2)
        if not order_one_defect(d, id1, id2).is_zero():
            return
    pytest.fail("no nonzero defect found on two-component links")


def test_order_one_defect_bad_ids(vtref):
    with pytest.raises(ValueError):
        order_one_defect(vtref, 1, 1)
    with pytest.raises(ValueError):
        order_one_defect(vtref, 1, 9)


def test_knot_c1_jump_is_smoothed_c0():
    for d in _sample(40, seed=34, components=1, max_crossings=5):
        for cid in d.classical_ids():
            pos, neg = set_sign(d, cid, 1), set_sign(d, cid, -1)
            assert c1(pos) - c1(neg) == c0(smooth(pos, cid))


def _ref_c1_index_form(d):
    """c1 of a classical knot code from crossing indices alone, sharing no code
    with Z: ind(c) sums sign(e) over the crossings e met once on the arc from
    c's over passage to its under passage, + at e's under passage and - at its
    over passage; then c1 = sum of sign(c) * (1 - (-y)^(-ind(c)))."""
    (comp,) = d.components
    at = {(p.crossing, p.role): i for i, p in enumerate(comp)}
    terms = {}
    for cid, rec in d.crossings.items():
        start, end = at[cid, "O"], at[cid, "U"]
        arc = [comp[i % len(comp)] for i in range(start + 1, end + (start > end) * len(comp))]
        met = [p.crossing for p in arc]
        ind = sum(d.crossings[p.crossing].sign * (1 if p.role == "U" else -1)
                  for p in arc if met.count(p.crossing) == 1)
        terms[0, 0] = terms.get((0, 0), 0) + rec.sign
        terms[0, -ind] = terms.get((0, -ind), 0) - rec.sign * (-1) ** ind
    return LaurentPoly2(terms)


def test_c1_index_form_on_every_small_knot():
    for d in enumerate_virtual_knot_codes(4):
        form = _ref_c1_index_form(d)
        assert form == c1(d), format_diagram(d)
        # reversal negates every index: the paper's inverse property
        assert _ref_c1_index_form(reverse(d)) == substitute_y_inverse(form), format_diagram(d)


def test_c1_index_form_on_random_knots():
    rng = random.Random(61)
    knots = [random_diagram(GeneratorConfig(rng.randint(0, 22), 1, 0, seed=rng.randrange(1 << 30)))
             for _ in range(300)]
    forms = [_ref_c1_index_form(d) for d in knots]
    for d, form in zip(knots, forms):
        assert form == c1(d), format_diagram(d)
        assert c1(reverse(d)) == substitute_y_inverse(form), format_diagram(d)
    # a wrong crossing block moves c1 off the index form
    with mutated_blocks():
        wrong = sum(form != c1(d) for d, form in zip(knots, forms))
    assert wrong > len(knots) // 2, wrong


# ---------------------------------------------------------------------------
# reports


def test_report_plain(vhopf):
    rep = report(vhopf)
    assert rep.z == z_polynomial(vhopf)
    assert rep.z_normalized == normalize_x(rep.z)
    assert rep.c0 == rep.conway.coeff(0)
    assert rep.c1 == rep.conway.coeff(1)
    assert rep.components == 2 and rep.classical_crossings == 1
    text = rep.to_text()
    assert "Z  " in text and "conway" in text
    payload = rep.to_json_dict()
    json.dumps(payload)
    assert payload["z"] == rep.z.render()
    assert payload["conway_coeffs"] == [c.render() for c in rep.conway.coeffs]


def test_report_singular():
    d = parse_diagram("component: A1 O2+ B1 U2+")
    rep = report(d)
    assert rep.double_points == 1
    plus = resolve_double(d, 1)
    pos, neg = conway(plus), conway(switch(plus, 1))
    for k in range(max(len(pos.coeffs), len(neg.coeffs)) + 1):
        assert rep.conway.coeff(k) == pos.coeff(k) - neg.coeff(k)
    assert rep.c0 == rep.conway.coeff(0) and rep.c1 == rep.conway.coeff(1)
    assert rep.z.is_zero()
    assert rep.conway.reconstruct() == rep.z_normalized
    text = rep.to_text()
    assert "double points" in text and "Z  " not in text
    payload = rep.to_json_dict()
    assert "z" not in payload and payload["double_points"] == 1
