import random

import pytest

from conftest import dense
from vconway.diagram import (
    OVER,
    Crossing,
    Diagram,
    Passage,
    SlotPermutation,
    build_P,
    build_TP,
    _SIDES,
    disjoint_union,
    entry_slots,
    format_diagram,
    mirror,
    parse_diagram,
    resolve_double,
    reverse,
    set_sign,
    smooth,
    switch,
    validate,
)
from vconway.invariants import InvariantReport
from vconway.laurent import ZERO, PolyMatrix
from vconway.moves import GeneratorConfig, MoveEvent, random_diagram


def _inv(perm):
    out = [0] * len(perm)
    for s, t in enumerate(perm):
        out[t] = s
    return tuple(out)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_basic(vtref):
    assert len(vtref.components) == 1
    assert vtref.n_classical() == 2
    assert vtref.writhe() == 2
    assert not vtref.has_doubles()


def test_parse_comments_and_blank_lines():
    d = parse_diagram("# a knot\n\ncomponent: O1- U1-\n# trailing\n")
    assert d.n_classical() == 1
    assert d.crossings[1].sign == -1


def test_format_round_trip_token_identical(vtref, vhopf, chain3):
    for d in (vtref, vhopf, chain3):
        text = format_diagram(d)
        assert format_diagram(parse_diagram(text)) == text


def test_format_empty_component():
    d = parse_diagram("component: O1+\ncomponent: U1+\ncomponent:")
    assert format_diagram(d).splitlines()[-1] == "component:"
    assert d.has_empty_component()


def test_parse_double_points():
    d = parse_diagram("component: A1 O2+ B1 U2+")
    assert d.double_ids() == [1]
    assert d.classical_ids() == [2]
    assert d.crossings[1].sign is None


def test_parse_errors():
    with pytest.raises(ValueError, match="malformed passage"):
        parse_diagram("component: Q1+")
    with pytest.raises(ValueError, match="redeclared inconsistently"):
        parse_diagram("component: O1+ U1-")
    with pytest.raises(ValueError, match="sign"):
        parse_diagram("component: O1 U1")
    with pytest.raises(ValueError, match="sign"):
        parse_diagram("component: A1+ B1+")
    with pytest.raises(ValueError, match="component"):
        parse_diagram("O1+ U1+")


def test_validate_catches_bad_role_pairs():
    bad = Diagram(
        ((Passage(1, "O"), Passage(1, "O")),),
        {1: Crossing(1, "x", 1)},
    )
    assert validate(bad)
    once = Diagram(((Passage(1, "O"),),), {1: Crossing(1, "x", 1)})
    assert validate(once)
    ok = parse_diagram("component: O1+ U1+")
    assert validate(ok) == []


def test_validate_messages_are_pinned():
    # each of the four problem kinds, in the order validate reports them: the
    # passages' problems in traversal order, then each crossing's, by id
    d = Diagram(
        ((Passage(3, "O"), Passage(9, "U"), Passage(1, "A"), Passage(3, "O"), Passage(4, "A")),
         (Passage(2, "B"), Passage(1, "O"), Passage(7, "U"), Passage(4, "O"), Passage(6, "U")),
         (Passage(6, "O"), Passage(6, "U"))),
        {5: Crossing(5, "x", 1), 4: Crossing(4, "d", None), 3: Crossing(3, "x", 1),
         2: Crossing(2, "d", None), 1: Crossing(1, "x", -1), 6: Crossing(6, "x", -1)},
    )
    assert validate(d) == [
        "component 0: passage through undeclared crossing 9",
        "component 0: role 'A' invalid for 'x' crossing 1",
        "component 1: passage through undeclared crossing 7",
        "component 1: role 'O' invalid for 'd' crossing 4",
        "crossing 1: roles ['A', 'O'] do not cover ['O', 'U']",
        "crossing 2: visited 1 times, expected exactly 2",
        "crossing 3: roles ['O', 'O'] do not cover ['O', 'U']",
        "crossing 4: roles ['A', 'O'] do not cover ['A', 'B']",
        "crossing 5: visited 0 times, expected exactly 2",
        "crossing 6: visited 3 times, expected exactly 2",
    ]


# ---------------------------------------------------------------------------
# slot permutations


def test_P_anchors(kink, vhopf, vtref, classical_hopf):
    assert build_P(kink).perm == (0, 1)
    assert build_P(vhopf).perm == (1, 0)
    assert build_P(classical_hopf).perm == (2, 3, 0, 1)
    assert build_P(vtref).perm == (2, 3, 1, 0)


def test_TP_anchors(kink, vhopf, vtref):
    assert build_TP(vhopf).perm == (0, 1)
    assert build_TP(kink).perm == (1, 0)
    # single component: one cycle through all four slots
    cycles = build_TP(vtref).cycles()
    assert len(cycles) == 1 and len(cycles[0]) == 4


def _reference_P_TP(d):
    """P and TP by the per-passage formulas of the slot convention: for
    consecutive passages p -> q, P takes q's entry slot to p's exit slot and
    TP takes p's exit slot to q's exit slot."""
    rank = {cid: i for i, cid in enumerate(d.classical_ids())}

    def slot(p, exiting):
        sign = d.crossings[p.crossing].sign
        entry = (0 if sign > 0 else 1) if p.role == "O" else (1 if sign > 0 else 0)
        return 2 * rank[p.crossing] + (entry ^ exiting)

    P, TP = [-1] * (2 * len(rank)), [-1] * (2 * len(rank))
    for comp in d.components:
        for t, q in enumerate(comp):
            p = comp[t - 1]
            P[slot(q, 0)] = slot(p, 1)
            TP[slot(p, 1)] = slot(q, 1)
    return tuple(P), tuple(TP)


def test_entry_slots_follow_the_slot_convention():
    rng = random.Random(27)
    lone = empty = 0
    for seed in range(200):
        d = random_diagram(GeneratorConfig(rng.randrange(9), 1 + rng.randrange(6), 0, seed=seed))
        # spread the ids out of order, so that a crossing's rank is not its id - 1
        ids = rng.sample(range(1, 100), d.n_classical())
        new_id = dict(zip(sorted(d.crossings), ids))
        d = Diagram(tuple(tuple(Passage(new_id[p.crossing], p.role) for p in comp)
                          for comp in d.components),
                    {new_id[c]: Crossing(new_id[c], "x", x.sign) for c, x in d.crossings.items()})
        lone += any(len(comp) == 1 for comp in d.components)
        empty += d.has_empty_component()
        slots = entry_slots(d)
        assert [len(s) for s in slots] == [len(comp) for comp in d.components]
        rank = {cid: i for i, cid in enumerate(d.classical_ids())}
        taken = {cid: set() for cid in rank}
        for comp, comp_slots in zip(d.components, slots):
            for p, e in zip(comp, comp_slots):
                taken[p.crossing].add(e)
                if p.role == OVER:
                    sign = d.crossings[p.crossing].sign
                    assert e % 2 == _SIDES[OVER, sign] == (0 if sign > 0 else 1)
        assert taken == {cid: {2 * i, 2 * i + 1} for cid, i in rank.items()}
        assert (build_P(d).perm, build_TP(d).perm) == _reference_P_TP(d)
    assert lone and empty


def test_TP_is_sideswap_of_inverse_P():
    for seed in range(40):
        d = random_diagram(GeneratorConfig(1 + seed % 5, 1 + seed % 3, 0, seed=seed))
        if d.has_empty_component() or d.n_classical() == 0:
            continue
        P, TP = build_P(d), build_TP(d)
        assert TP.perm == tuple(t ^ 1 for t in _inv(P.perm))
        assert len(TP.cycles()) == len(d.components)


def test_reverse_relations():
    for seed in range(40):
        d = random_diagram(GeneratorConfig(1 + seed % 5, 1 + seed % 3, 0, seed=seed + 99))
        if d.has_empty_component() or d.n_classical() == 0:
            continue
        P, TP = build_P(d), build_TP(d)
        r = reverse(d)
        # reversal inverts the walk, conjugated by the side swap for P
        assert build_P(r).perm == tuple(_inv(P.perm)[s ^ 1] ^ 1 for s in range(2 * d.n_classical()))
        assert build_TP(r).perm == _inv(TP.perm)


def test_permutation_matrix_and_transpose(vtref):
    P = build_P(vtref)
    m = P.matrix()
    slots = len(P.perm)
    cells = dense(m)
    # column s has its single 1 in row perm[s]
    for s in range(slots):
        col = [cells[r][s] for r in range(slots)]
        assert col[P.perm[s]].render() == "1"
        assert sum(1 for e in col if not e.is_zero()) == 1
    # the inverse permutation has the transposed matrix
    inverse = SlotPermutation(P.n, _inv(P.perm)).matrix()
    assert dense(inverse) == tuple(zip(*cells))


# ---------------------------------------------------------------------------
# diagram surgery


def test_switch_involution(vtref):
    s = switch(vtref, 1)
    assert s.crossings[1].sign == -1
    assert switch(s, 1) == vtref


def test_set_sign(vtref):
    assert set_sign(vtref, 1, 1) == vtref
    assert set_sign(vtref, 1, -1) == switch(vtref, 1)


def test_smooth_split_and_merge(vtref, vhopf):
    # self-crossing smoothing splits one component in two
    split = smooth(vtref, 1)
    assert len(split.components) == 2
    assert split.n_classical() == 1
    # crossing between two components merges them
    merged = smooth(vhopf, 1)
    assert len(merged.components) == 1
    assert merged.n_classical() == 0


def test_smooth_merge_preserves_arc_order():
    # the merged component must keep both arcs intact when the smoothed
    # passages sit away from position zero
    d = parse_diagram("component: O2+ O1+ U2+\ncomponent: U3+ U1+ O3+")
    m = smooth(d, 1)
    assert len(m.components) == 1
    text = format_diagram(m)
    assert text == "component: U2+ O2+ O3+ U3+"


def test_resolve_double():
    d = parse_diagram("component: A1 O2+ B1 U2+")
    pos = resolve_double(d, 1)
    assert format_diagram(pos) == "component: O1+ O2+ U1+ U2+"
    with pytest.raises(ValueError):
        resolve_double(d, 2)


def test_reverse_mirror_involutions(vtref, chain3):
    for d in (vtref, chain3):
        assert reverse(reverse(d)) == d
        assert mirror(mirror(d)) == d
    assert mirror(vtref).writhe() == -vtref.writhe()
    singular = parse_diagram("component: O1+ A2 U1+ B2")
    assert format_diagram(mirror(singular)) == "component: U1- A2 O1- B2"


def test_disjoint_union_offsets(vhopf, vtref):
    u = disjoint_union(vhopf, vtref)
    assert len(u.components) == 3
    assert sorted(u.crossings) == [1, 2, 3]
    assert u.n_classical() == 3


def test_value_types_check_copy_and_stay_fixed():
    # GeneratorConfig's checks are tested in test_moves.py
    for kind, sign in (("x", 0), ("x", None), ("d", 1), ("y", 1)):
        with pytest.raises(ValueError):
            Crossing(1, kind, sign)
    with pytest.raises(ValueError, match="not a permutation of 4 slots"):
        SlotPermutation(2, (0, 1, 1, 3))
    with pytest.raises(ValueError, match="matrix of side 2 has 1 rows"):
        PolyMatrix(2, ({},))
    table = {1: Crossing(1, "x", 1)}
    d = Diagram(((Passage(1, "O"), Passage(1, "U")),), table)
    table[2] = Crossing(2, "x", -1)
    assert list(d.crossings) == [1]
    # the hash of a value is that of its fields, so memo and set orders stay put
    assert hash(Passage(3, "O")) == hash((3, "O"))
    assert hash(table[2]) == hash((2, "x", -1))
    fields = [(Passage(3, "O"), "role"), (table[1], "sign"), (d, "crossings"),
              (SlotPermutation(1, (1, 0)), "perm"), (PolyMatrix(0, ()), "n"),
              (MoveEvent("R1_remove", (0, 0)), "site"), (GeneratorConfig(1, 1), "seed"),
              (InvariantReport(*[ZERO] * 5, 1, 0, 0), "c1")]
    for v, name in fields:
        for attr in (name, "other"):
            with pytest.raises(AttributeError):
                setattr(v, attr, None)


def test_diagram_equality_and_hash(vtref):
    again = parse_diagram("component: O1+ O2+ U1+ U2+")
    assert vtref == again
    assert hash(vtref) == hash(again)
    assert vtref != switch(vtref, 1)
    # same components, different crossing table
    assert parse_diagram("component: O1+ U1+") != parse_diagram("component: O1- U1-")
