import json

import pytest

from vconway.diagram import (
    Crossing,
    Diagram,
    Passage,
    disjoint_union,
    parse_diagram,
    resolve_double,
    reverse,
    set_sign,
    smooth,
    switch,
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
from vconway.laurent import ONE, X, X_INV, LaurentPoly2, eval_x1, normalize_x
from vconway.moves import GeneratorConfig, random_diagram


def _sample(count, seed, components=None, max_crossings=6):
    import random

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
    calls = []
    det = invariants.det
    monkeypatch.setattr(invariants, "det", lambda m: calls.append(m.n) or det(m))
    return calls


def test_repeated_z_computes_one_det(vtref, monkeypatch):
    calls = _count_dets(monkeypatch)
    first = z_polynomial(vtref)
    assert z_polynomial(vtref) == first
    assert c0(vtref) == eval_x1(first)
    assert c1(vtref) == conway(vtref).coeff(1)
    assert calls == [4]
    # an equal diagram built anew hits the same entry
    assert z_polynomial(parse_diagram("component: O1+ O2+ U1+ U2+")) == first
    assert calls == [4]


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
# singular diagrams and the vassiliev extension


def test_z_rejects_singular():
    d = parse_diagram("component: A1 B1")
    for _ in range(2):
        with pytest.raises(ValueError, match="resolve double points first"):
            z_polynomial(d)
    assert invariants._z_memo.cache_info().currsize == 0


def test_vassiliev_eval_base_cases(vtref):
    assert vassiliev_eval(vtref, c1) == c1(vtref)
    one_double = parse_diagram("component: A1 O2+ B1 U2+")
    pos = resolve_double(one_double, 1)
    expect = c1(pos) - c1(switch(pos, 1))
    assert vassiliev_eval(one_double, c1) == expect


def test_vassiliev_eval_zero_default():
    d = parse_diagram("component: A1 B1")
    assert vassiliev_eval(d, c0) == LaurentPoly2.zero()


def test_vassiliev_cap():
    comps = tuple(
        Passage(cid, role) for cid in range(1, 22) for role in ("A", "B")
    )
    table = {cid: Crossing(cid, "d", None) for cid in range(1, 22)}
    d = Diagram((comps,), table)
    with pytest.raises(ValueError, match="double points"):
        vassiliev_eval(d, c0)


def test_extended_c0_vanishes():
    import random

    rng = random.Random(31)
    for _ in range(25):
        d = random_diagram(GeneratorConfig(rng.randint(0, 4), rng.randint(1, 2), 1,
                                           seed=rng.randrange(1 << 30)))
        assert vassiliev_eval(d, c0).is_zero()


def test_extended_c1_vanishes_on_singular_knots():
    import random

    rng = random.Random(32)
    for _ in range(20):
        d = random_diagram(GeneratorConfig(rng.randint(0, 4), 1, 2,
                                           seed=rng.randrange(1 << 30)))
        assert vassiliev_eval(d, c1).is_zero()


def test_order_one_defect_matches_definition():
    import random

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
    import random

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
    import random

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
