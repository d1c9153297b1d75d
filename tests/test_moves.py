import hashlib
import random
import re

import pytest

from vconway import moves
from vconway.diagram import (
    CLASSICAL_ROLES,
    OVER,
    UNDER,
    Crossing,
    Diagram,
    Passage,
    format_diagram,
    parse_diagram,
    validate,
)
from vconway.invariants import kink_factor, z_normalized, z_polynomial
from vconway.moves import (
    GeneratorConfig,
    KINK_TYPES,
    MoveError,
    MoveEvent,
    apply,
    random_diagram,
    random_walk,
)

R3_TRIPLE = "component: O1+ O2+\ncomponent: U1+ O3+\ncomponent: U2+ U3+"
# its negative twin
NEG_R3_TRIPLE = "component: U1- U2-\ncomponent: O1- U3-\ncomponent: O2- O3-"
# three kinks on a 6-passage component (windows 0, 2 and 4), then an empty one
KINKS = "component: O1+ U1+ O2+ U2+ O3+ U3+\ncomponent:"


def _relabeled(d):
    """d with its crossings renumbered 1..n by first appearance."""
    mapping = {}
    for comp in d.components:
        for p in comp:
            mapping.setdefault(p.crossing, len(mapping) + 1)
    comps = tuple(tuple(Passage(mapping[p.crossing], p.role) for p in comp)
                  for comp in d.components)
    table = {mapping[cid]: Crossing(mapping[cid], rec.kind, rec.sign)
             for cid, rec in d.crossings.items()}
    return Diagram(comps, table)


def _sites(d, kind):
    """The removal or third-move sites of one kind, as move events."""
    r1, r2, r3 = moves._Code(d).removal_sites()
    sites = {"R1_remove": r1, "R2_remove": r2, "R3": r3}[kind]
    return [MoveEvent(kind, site) for site in sites]


def _all_moves(d):
    """Every removal and third-move site, and every addition at every gap."""
    out = [m for kind in ("R1_remove", "R2_remove", "R3") for m in _sites(d, kind)]
    gaps = [(ci, g) for ci, comp in enumerate(d.components) for g in range(max(len(comp), 1))]
    out += [MoveEvent("R1_add", (ci, g, over_first, sign))
            for ci, g in gaps for over_first, sign in KINK_TYPES]
    out += [MoveEvent("R2_add", (gaps[i], gaps[j], role1, parallel, sign))
            for i in range(len(gaps)) for j in range(i + 1, len(gaps))
            for role1 in CLASSICAL_ROLES for parallel in (True, False) for sign in (1, -1)]
    return out


# ---------------------------------------------------------------------------
# generator


def test_generator_deterministic():
    cfg = GeneratorConfig(5, 2, 1, seed=42)
    assert random_diagram(cfg) == random_diagram(cfg)
    other = random_diagram(GeneratorConfig(5, 2, 1, seed=43))
    assert other != random_diagram(cfg)


def test_generator_counts_and_validity():
    d = random_diagram(GeneratorConfig(4, 3, 2, seed=7))
    assert validate(d) == []
    assert d.n_classical() == 4
    assert len(d.double_ids()) == 2
    assert len(d.components) == 3


def test_generator_trivial_config():
    d = random_diagram(GeneratorConfig(0, 1, 0, seed=1))
    assert d.components == ((),)
    assert validate(d) == []


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(-1, 1, 0, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(1, 0, 0, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(1, 1, -2, seed=0)


# ---------------------------------------------------------------------------
# single moves


def test_r1_round_trip(vtref):
    for gap in range(4):
        for over_first, sign in KINK_TYPES:
            kinked = apply(vtref, MoveEvent("R1_add", (0, gap, over_first, sign)))
            assert kinked.n_classical() == 3
            assert validate(kinked) == []
            back = apply(kinked, MoveEvent("R1_remove", (0, gap)))
            assert _relabeled(back) == _relabeled(vtref)


def test_r1_on_empty_component():
    e = parse_diagram("component:")
    kinked = apply(e, MoveEvent("R1_add", (0, 0, True, 1)))
    assert kinked.n_classical() == 1
    # both cyclic windows of the 2-token component are removal sites
    assert apply(kinked, MoveEvent("R1_remove", (0, 0))).components == ((),)
    assert apply(kinked, MoveEvent("R1_remove", (0, 1))).components == ((),)


def test_r1_kink_multiplies_z_by_table_factor(vtref):
    base = z_polynomial(vtref)
    for over_first, sign in KINK_TYPES:
        kinked = apply(vtref, MoveEvent("R1_add", (0, 2, over_first, sign)))
        assert z_polynomial(kinked) == kink_factor(over_first, sign) * base


@pytest.mark.parametrize(
    "site",
    [
        ((0, 1), (0, 3), "O", True, 1),
        ((0, 1), (0, 3), "O", False, -1),
        ((0, 0), (1, 0), "U", True, 1),
        ((0, 2), (1, 0), "U", False, -1),
    ],
)
def test_r2_round_trip(site):
    two = parse_diagram("component: O1+ O2+ U1+ U2+\ncomponent:")
    grown = apply(two, MoveEvent("R2_add", site))
    assert grown.n_classical() == 4
    assert validate(grown) == []
    removals = _sites(grown, "R2_remove")
    assert removals
    assert any(_relabeled(apply(grown, m)) == _relabeled(two) for m in removals)


def test_r2_same_gap_rejected():
    two = parse_diagram("component: O1+ O2+ U1+ U2+\ncomponent:")
    with pytest.raises(MoveError, match="inapplicable move"):
        apply(two, MoveEvent("R2_add", ((0, 1), (0, 1), "O", True, 1)))


def test_r3_sites_and_involution():
    d = parse_diagram(R3_TRIPLE)
    sites = _sites(d, "R3")
    assert sites
    z0 = z_normalized(d)
    for m in sites:
        moved = apply(d, m)
        assert validate(moved) == []
        assert moved.n_classical() == 3
        assert z_normalized(moved) == z0
        assert apply(moved, m) == d


def test_r3_negative_variant():
    d = parse_diagram(NEG_R3_TRIPLE)
    sites = _sites(d, "R3")
    assert sites
    for m in sites:
        assert apply(apply(d, m), m) == d


def test_stale_sites_rejected(vtref):
    with pytest.raises(MoveError, match="inapplicable move"):
        apply(vtref, MoveEvent("R1_remove", (0, 0)))
    with pytest.raises(MoveError, match="inapplicable move"):
        apply(vtref, MoveEvent("R2_remove", ((0, 0), (0, 2))))
    with pytest.raises(MoveError, match="inapplicable move"):
        apply(vtref, MoveEvent("R3", ((0, 0), (0, 1), (0, 2), "L+")))
    with pytest.raises(MoveError, match="unknown kind"):
        apply(vtref, MoveEvent("R9", ()))
    with pytest.raises(MoveError):
        apply(vtref, MoveEvent("R1_add", (5, 0, True, 1)))


@pytest.mark.parametrize(
    "kind, site",
    [
        ("R1_remove", (2, 0)),  # no component 2
        ("R1_remove", (-1, 0)),
        ("R1_remove", (0, 6)),  # window t = len
        ("R1_remove", (0, 99)),
        ("R1_remove", (0, -1)),
        ("R1_remove", (0, -2)),  # -2 and -6 alias the kinks at windows 4 and 0
        ("R1_remove", (0, -6)),
        ("R1_remove", (1, 0)),  # a window on the empty component
        ("R2_remove", ((0, 9), (0, 1))),
        ("R2_remove", ((0, 0), (1, 0))),
        ("R3", ((0, 0), (0, 2), (0, 99), "L+")),
        ("R3", ((0, 0), (0, 2), (1, 0), "L+")),
        ("R1_add", (0, -1, True, 1)),  # negative gap
        ("R1_add", (1, 1, True, 1)),  # an empty component has gap 0 only
        ("R1_add", (2, 0, True, 1)),
        ("R2_add", ((0, -1), (0, 2), "O", True, 1)),
        ("R2_add", ((0, 1), (1, -1), "U", False, -1)),
        ("R2_add", ((0, 1), (0, 3), "A", True, 1)),  # not a classical role
        ("R1_add", (0, 0, True, 2)),  # a sign other than +1 or -1
        ("R2_add", ((0, 1), (0, 3), "O", True, 0)),
        ("R2_remove", ((0, 0), (0, 2))),  # windows O1 U1 and O2 U2: no bigon
        ("R3", ((0, 0), (0, 2), (0, 4), "X+")),  # unknown variant
        ("R3", ((0, 0), (0, 2), (0, 0), "L+")),  # a window twice
    ],
)
def test_malformed_sites_rejected(kind, site):
    with pytest.raises(MoveError, match="inapplicable move"):
        apply(parse_diagram(KINKS), MoveEvent(kind, site))


@pytest.mark.parametrize(
    "kind, site",
    [
        ("R2_remove", ((0, 0), (0, 4))),  # over O1 O2 but under U2 U3
        ("R3", ((0, 0), (0, 4), (0, 2), "L+")),  # U2 where the pattern needs U1
    ],
)
def test_sites_over_the_wrong_crossings_rejected(kind, site):
    # KINKS has no two over passages in a row, which these patterns start from
    with pytest.raises(MoveError, match="inapplicable move"):
        apply(parse_diagram("component: O1+ O2+ O3+ U1+ U2+ U3+"), MoveEvent(kind, site))


SINGULAR = ("component: O1+ O2+ A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
            "component: U6- A7 O6- B7")


@pytest.mark.parametrize(
    "kind, site, want",
    [
        # new crossings take the id after the largest, a double point's included
        ("R1_add", (0, 2, False, -1),
         "component: O1+ O2+ U8- O8- A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
         "component: U6- A7 O6- B7"),
        ("R1_add", (3, 1, True, 1),
         "component: O1+ O2+ A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
         "component: U6- O8+ U8+ A7 O6- B7"),
        ("R2_add", ((0, 2), (3, 2), "U", False, 1),
         "component: O1+ O2+ U8+ U9- A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
         "component: U6- A7 O9- O8+ O6- B7"),
        ("R2_add", ((3, 0), (3, 3), "O", True, -1),
         "component: O1+ O2+ A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
         "component: O8- O9+ U6- A7 O6- U8- U9+ B7"),
        ("R3", ((0, 0), (1, 0), (2, 0), "L+"),
         "component: O2+ O1+ A5\ncomponent: O3+ U1+ B5\ncomponent: U3+ U2+\n"
         "component: U6- A7 O6- B7"),
    ],
)
def test_moves_on_a_singular_code(kind, site, want):
    assert format_diagram(apply(parse_diagram(SINGULAR), MoveEvent(kind, site))) == want


def test_double_point_is_no_kink():
    with pytest.raises(MoveError, match="not a kink"):
        apply(parse_diagram("component: A1 B1 O2+ U2+"), MoveEvent("R1_remove", (0, 0)))


def test_walk_calls_no_validate(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(moves, "validate", counting)
    d0 = random_diagram(GeneratorConfig(6, 2, 0, seed=3))
    assert validate(random_walk(d0, 50, seed=7)) == []
    assert calls == []


def test_enumerated_moves_all_apply():
    import random

    rng = random.Random(4)
    for seed in range(12):
        d = random_diagram(GeneratorConfig(2 + seed % 3, 1 + seed % 2, 0, seed=seed))
        every = _all_moves(d)
        sample = rng.sample(every, min(len(every), 25))
        for m in sample:
            out = apply(d, m)
            assert validate(out) == []
            assert len(out.components) == len(d.components)


def test_walk_rejects_singular():
    d = parse_diagram("component: A1 B1")
    with pytest.raises(ValueError):
        random_walk(d, 3, seed=0)


def test_walk_rejects_no_component():
    d = parse_diagram("")
    for seed in (0, 1):
        with pytest.raises(ValueError, match="component"):
            random_walk(d, 5, seed=seed)


# ---------------------------------------------------------------------------
# walks


def test_walk_deterministic_and_valid():
    d0 = random_diagram(GeneratorConfig(3, 2, 0, seed=5))
    w1 = random_walk(d0, 40, seed=11)
    w2 = random_walk(d0, 40, seed=11)
    assert w1 == w2
    assert validate(w1) == []
    assert len(w1.components) == 2
    assert random_walk(d0, 40, seed=12) != w1


def test_walk_respects_crossing_cap():
    d0 = random_diagram(GeneratorConfig(2, 1, 0, seed=9))
    cur = d0
    import random

    rng = random.Random(0)
    for _ in range(30):
        cur = random_walk(cur, 1, seed=rng.randrange(1 << 30), max_crossings=5)
        # the escape hatch may overshoot by one kink when stuck, never more
        assert cur.n_classical() <= 6
    # O1+ O2+ U1+ U2+ has no removal site, so at its cap only a kink applies
    stuck = parse_diagram("component: O1+ O2+ U1+ U2+")
    for seed in range(4):
        assert random_walk(stuck, 1, seed=seed, max_crossings=2).n_classical() == 3


def test_walk_preserves_normalized_z():
    import random

    rng = random.Random(44)
    for _ in range(60):
        k, c = rng.randint(1, 4), rng.randint(1, 2)
        d = random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30)))
        w = random_walk(d, 20, seed=rng.randrange(1 << 30))
        assert z_normalized(w) == z_normalized(d)


def test_walk_changes_raw_z_by_positive_x_power_only():
    import random

    from vconway.laurent import lowest_x_exponent

    rng = random.Random(45)
    seen_shift = False
    for _ in range(40):
        d = random_diagram(GeneratorConfig(rng.randint(1, 4), rng.randint(1, 2), 0,
                                           seed=rng.randrange(1 << 30)))
        z0 = z_polynomial(d)
        if z0.is_zero():
            continue
        w = random_walk(d, 15, seed=rng.randrange(1 << 30))
        z1 = z_polynomial(w)
        k = lowest_x_exponent(z1) - lowest_x_exponent(z0)
        assert z1 == z0.shifted(k, 0)
        if k != 0:
            seen_shift = True
    assert seen_shift


def test_walk_endpoints_are_pinned():
    # a walk's draws make every verify result, so their order is pinned: 500
    # endpoints of walks of 0, 1, 50 and 300 steps from codes of 0-12 crossings,
    # capped at no, 1, k and k + 2 crossings
    rng = random.Random(14)
    codes = []
    for i in range(500):
        k, c = rng.randint(0, 12), rng.randint(1, 3)
        d = random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30)))
        steps = (0, 1, 50, 300)[i % 4]
        cap = (None, 1, k, k + 2)[i // 4 % 4]
        codes.append(format_diagram(
            random_walk(d, steps, seed=rng.randrange(1 << 30), max_crossings=cap)))
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest == "0ffbe21511e5393c9d9149cad026ba237de87beb47a27483cdc890132ab17a37"


def test_walk_rejects_negative_steps():
    d0 = random_diagram(GeneratorConfig(3, 1, 0, seed=2))
    with pytest.raises(ValueError, match="non-negative"):
        random_walk(d0, -1, seed=0)
    assert random_walk(d0, 0, seed=0) == d0


# ---------------------------------------------------------------------------
# removal sites against the former per-kind scanners
#
# The reference below rescans every window per kind and, for the third move,
# pairs each window with every other one.  `_Code.removal_sites` must return
# the same lists in the same order, since walks draw from them with
# rng.choice, and `apply` must take exactly the sites they list.


def _ref_classical_windows(d):
    out = []
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L < 2:
            continue
        for t in range(L):
            p, q = comp[t], comp[(t + 1) % L]
            if d.crossings[p.crossing].kind == "x" and d.crossings[q.crossing].kind == "x":
                out.append((ci, t, p, q))
    return out


def _ref_r1_remove_sites(d):
    sites = []
    for ci, t, p, q in _ref_classical_windows(d):
        if p.crossing == q.crossing and {p.role, q.role} == set(CLASSICAL_ROLES):
            sites.append((ci, t))
    return sites


def _ref_r2_remove_sites(d):
    wins = _ref_classical_windows(d)
    over, under = [], []
    for ci, t, p, q in wins:
        if p.crossing == q.crossing:
            continue
        if p.role == OVER and q.role == OVER:
            over.append((ci, t, p.crossing, q.crossing))
        elif p.role == UNDER and q.role == UNDER:
            under.append((ci, t, p.crossing, q.crossing))
    sites = []
    for ci1, t1, c, e in over:
        if d.crossings[c].sign != -d.crossings[e].sign:
            continue
        for ci2, t2, c2, e2 in under:
            if {c2, e2} == {c, e}:
                sites.append(((ci1, t1), (ci2, t2)))
    return sites


_REF_R3_PATTERNS = {
    "L+": ((("O", 0), ("O", 1)), (("U", 0), ("O", 2)), (("U", 1), ("U", 2)), 1),
    "R+": ((("O", 0), ("O", 1)), (("O", 2), ("U", 1)), (("U", 2), ("U", 0)), 1),
    "L-": ((("U", 0), ("U", 1)), (("O", 0), ("U", 2)), (("O", 1), ("O", 2)), -1),
    "R-": ((("U", 0), ("U", 1)), (("U", 2), ("O", 1)), (("O", 2), ("O", 0)), -1),
}


def _ref_r3_sites(d):
    wins = _ref_classical_windows(d)
    by_first = {}
    for w in wins:
        by_first.setdefault((w[2].role, w[2].crossing), []).append(w)
    sites = []
    for variant, (w1pat, w2pat, w3pat, sign) in _REF_R3_PATTERNS.items():
        for ci1, t1, p1, q1 in wins:
            if p1.role != w1pat[0][0] or q1.role != w1pat[1][0]:
                continue
            if p1.crossing == q1.crossing:
                continue
            if d.crossings[p1.crossing].sign != sign or d.crossings[q1.crossing].sign != sign:
                continue
            key = {w1pat[0][1]: p1.crossing, w1pat[1][1]: q1.crossing}
            for ci2, t2, p2, q2 in wins:
                if (ci2, t2) == (ci1, t1):
                    continue
                if p2.role != w2pat[0][0] or q2.role != w2pat[1][0]:
                    continue
                k2 = dict(key)
                ok = True
                for (role, kk), passage in ((w2pat[0], p2), (w2pat[1], q2)):
                    if kk in k2:
                        if k2[kk] != passage.crossing:
                            ok = False
                            break
                    else:
                        if passage.crossing in k2.values():
                            ok = False
                            break
                        if d.crossings[passage.crossing].sign != sign:
                            ok = False
                            break
                        k2[kk] = passage.crossing
                if not ok or len(k2) != 3:
                    continue
                want_p3 = (w3pat[0][0], k2[w3pat[0][1]])
                want_q3 = (w3pat[1][0], k2[w3pat[1][1]])
                for ci3, t3, p3, q3 in by_first.get(want_p3, []):
                    if (q3.role, q3.crossing) == want_q3 and (ci3, t3) not in ((ci1, t1), (ci2, t2)):
                        sites.append(((ci1, t1), (ci2, t2), (ci3, t3), variant))
    return sites


def _ref_removal_sites(d):
    return _ref_r1_remove_sites(d), _ref_r2_remove_sites(d), _ref_r3_sites(d)


def _walk_states(n_states, seed):
    """Fixed-seed states along one-step walks from codes of 0-12 crossings."""
    rng = random.Random(seed)
    states = []
    while len(states) < n_states:
        k, c = rng.randint(0, 12), rng.randint(1, 3)
        cur = random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30)))
        cap = k + rng.randint(2, 6)
        for _ in range(40):
            states.append(cur)
            cur = random_walk(cur, 1, seed=rng.randrange(1 << 30), max_crossings=cap)
    return states


def test_removal_sites_match_reference_on_walk_states():
    seen = [0, 0, 0]
    for d in _walk_states(2400, seed=8):
        assert validate(d) == [], format_diagram(d)
        got = moves._Code(d).removal_sites()
        assert got == _ref_removal_sites(d), format_diagram(d)
        for i, sites in enumerate(got):
            seen[i] += len(sites)
    # every kind of site occurs, so each lookup path is exercised
    assert all(n > 50 for n in seen), seen


def test_kept_index_matches_reference_along_one_code():
    # one code stepped 2,400 times under a cap that falls and rises, so its
    # components fill, empty and shrink to one passage; after every step the
    # index its edits kept lists what the reference rescan finds
    rng = random.Random(21)
    d = random_diagram(GeneratorConfig(8, 3, 0, seed=5))
    code = moves._Code(Diagram(((),) + d.components, d.crossings))
    seen = [0, 0, 0]
    lengths = set()
    for i in range(2400):
        moves._step(code, rng, 2 + (i // 100) % 12)
        d = code.diagram()
        got = code.removal_sites()
        assert got == _ref_removal_sites(d), format_diagram(d)
        assert code.sites == moves._Code(d).sites, format_diagram(d)
        for j, sites in enumerate(got):
            seen[j] += len(sites)
        lengths.update(map(len, d.components))
    assert all(n > 50 for n in seen), seen
    assert {0, 1} <= lengths


def _renumbered(text, by):
    return re.sub(r"\d+", lambda m: str(int(m.group()) + by), text)


def test_kept_index_matches_reference_on_r3_dense_codes():
    # codes made of same-sign triples stay dense in third-move sites under a
    # low cap, so every pattern slot goes through the neighbour test of
    # `_Code._find` on windows that hold a site and on windows that nearly do
    rng = random.Random(31)
    seen = dict.fromkeys(moves._R3_PATTERNS, 0)
    for first, second in ((R3_TRIPLE, NEG_R3_TRIPLE), (NEG_R3_TRIPLE, NEG_R3_TRIPLE),
                          (R3_TRIPLE, R3_TRIPLE)):
        code = moves._Code(parse_diagram(first + "\n" + _renumbered(second, 3)))
        for i in range(400):
            moves._step(code, rng, 6 + i // 50 % 4)
            d = code.diagram()
            got = code.removal_sites()
            assert got == _ref_removal_sites(d), format_diagram(d)
            for site in got[2]:
                seen[site[3]] += 1
    assert min(seen.values()) >= 20, seen


def test_walk_step_matches_few_third_move_windows(monkeypatch):
    # the neighbour test turns most same-sign windows away before any pattern
    # is matched, and one of another sign is not tried: about 0.24
    # `_r3_site` calls per step on walks from codes of 6-10 crossings, where
    # matching every slot made 1.7, and matching before reading the third
    # crossing's sign 0.43
    calls = [0]
    r3_site = moves._Code._r3_site

    def counting(*args):
        calls[0] += 1
        return r3_site(*args)

    monkeypatch.setattr(moves._Code, "_r3_site", counting)
    rng = random.Random(12)
    for _ in range(30):
        k, c = rng.randint(6, 10), rng.randint(1, 3)
        d = random_diagram(GeneratorConfig(k, c, 0, seed=rng.randrange(1 << 30)))
        random_walk(d, 300, seed=rng.randrange(1 << 30))
    assert calls[0] < 0.35 * 30 * 300, calls[0] / (30 * 300)


# codes whose site lists are checked against the reference
FIXED_CODES = [
    R3_TRIPLE,
    # two disjoint third-move triples of both signs, plus kinks and an R2 pair
    R3_TRIPLE + "\n"
    "component: U4- U5- O7+ U7+\ncomponent: O4- U6-\ncomponent: O5- O6-\n"
    "component: O8+ O9- U10+ O10+\ncomponent: U9- U8+",
    # two copies of one triple: sites of one variant in window order
    R3_TRIPLE + "\ncomponent: O4+ O5+\ncomponent: U4+ O6+\ncomponent: U5+ U6+",
    # both cyclic windows of the second component are under-partners
    "component: O1+ O2-\ncomponent: U1+ U2-",
    # every window touching a double point is skipped
    "component: O1+ O2+ A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
    "component: U6- A7 O6- B7",
]


@pytest.mark.parametrize("text", FIXED_CODES)
def test_removal_sites_match_reference_on_fixed_codes(text):
    d = parse_diagram(text)
    assert validate(d) == []
    assert moves._Code(d).removal_sites() == _ref_removal_sites(d)


def _site_candidates(d):
    """Every (kind, site) over every window position, with one position past
    each end of every component and of the component list."""
    windows = [(ci, t) for ci, comp in enumerate(d.components)
               for t in range(len(comp) if len(comp) > 1 else 0)]
    outside = [(-1, 0), (len(d.components), 0)]
    outside += [(ci, t) for ci, comp in enumerate(d.components) for t in (-1, len(comp))]
    positions = windows + outside
    out = [("R1_remove", pos) for pos in positions]
    out += [("R2_remove", (p, q)) for p in positions for q in positions]
    triples = [(p, q, r) for p in windows for q in windows for r in windows]
    triples += [(p, q, r) for p in windows[:2] for q in windows[:2] for r in outside]
    out += [("R3", (*w, v)) for w in triples for v in ("L+", "R+", "L-", "R-", "X+")]
    return out


def test_apply_takes_exactly_the_reference_sites():
    flip = {"L+": "R+", "R+": "L+", "L-": "R-", "R-": "L-"}
    diagrams = [parse_diagram(text) for text in FIXED_CODES] + _walk_states(80, seed=3)[::20]
    rng = random.Random(16)
    taken = [0, 0, 0]
    for d in diagrams:
        r1, r2, r3 = _ref_removal_sites(d)
        ref = {"R1_remove": set(r1), "R2_remove": set(r2), "R3": set(r3)}
        code = moves._Code(d)
        sample = []
        for kind, site in _site_candidates(d):
            want = site in ref[kind] or (
                kind == "R3" and (*site[:3], flip.get(site[3])) in ref[kind])
            try:
                name = moves._indexed_site(code, kind, site)
            except MoveError as exc:
                assert not want, (format_diagram(d), kind, site)
                assert str(exc).startswith("inapplicable move:")
            else:
                assert want, (format_diagram(d), kind, site)
                windows = [site] if kind == "R1_remove" else site[:3]
                assert [code._pos(w) for w in name[: len(windows)]] == list(windows)
                taken[moves._REMOVAL_KINDS.index(kind)] += 1
            if want or rng.random() < 0.002:
                sample.append((kind, site, want))
        for kind, site, want in sample:
            if want:
                assert validate(apply(d, MoveEvent(kind, site))) == []
            else:
                with pytest.raises(MoveError, match="inapplicable move"):
                    apply(d, MoveEvent(kind, site))
    assert all(n > 5 for n in taken), taken


def test_removal_sites_of_disjoint_triples():
    d = parse_diagram(
        R3_TRIPLE + "\n"
        "component: U4- U5- O7+ U7+\ncomponent: O4- U6-\ncomponent: O5- O6-\n"
        "component: O8+ O9- U10+ O10+\ncomponent: U9- U8+"
    )
    r1, r2, r3 = moves._Code(d).removal_sites()
    assert r1 == [(3, 2), (6, 2)]
    # a two-passage component offers both of its cyclic windows
    assert r2 == [((6, 0), (7, 0)), ((6, 0), (7, 1))]
    assert r3 == [
        ((0, 0), (1, 0), (2, 0), "L+"),
        ((0, 1), (1, 1), (2, 1), "R+"),
        ((3, 0), (4, 0), (5, 0), "L-"),
    ]


def test_removal_sites_skip_double_points():
    d = parse_diagram("component: O1+ O2+ A5\ncomponent: U1+ O3+ B5\ncomponent: U2+ U3+\n"
                      "component: U6- A7 O6- B7")
    r1, r2, r3 = moves._Code(d).removal_sites()
    assert r1 == r2 == []
    assert r3 == [((0, 0), (1, 0), (2, 0), "L+")]


def test_r2_partners_of_two_cycle_in_window_order():
    d = parse_diagram("component: O1+ O2-\ncomponent: U1+ U2-")
    r1, r2, r3 = moves._Code(d).removal_sites()
    assert r2 == [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1))]
    assert r1 == r3 == []
