import contextlib
import hashlib
import json
import random

import pytest

from conftest import a_mutant
from vconway.diagram import format_diagram, parse_diagram, reverse
from vconway import invariants, verify
from vconway.invariants import c1, mutated_blocks, vassiliev_eval
from vconway.moves import GeneratorConfig, random_diagram
from vconway.verify import (
    CheckResult,
    check_c0_orientation,
    check_c0_symmetry,
    check_disjoint_union,
    check_kink_factors,
    check_knot_vanishing,
    check_c0_permutation_form,
    check_mirror_reverse_conjecture,
    check_move_invariance,
    check_singular_orders,
    check_skein,
    check_vassiliev_orders,
    enumerate_virtual_knot_codes,
    find_c1_order_defect_link,
    find_noninvertible_knot,
    run_campaign,
    tally_diagram_checks,
)


def test_small_campaign_passes_and_is_deterministic():
    a = run_campaign(trials=25, moves=12, seed=3)
    b = run_campaign(trials=25, moves=12, seed=3)
    assert all(r.passed for r in a if not r.informational)
    assert [(r.name, r.trials, r.failures) for r in a] == [
        (r.name, r.trials, r.failures) for r in b
    ]


def test_zero_trials_is_vacuous_pass():
    results = run_campaign(trials=0, moves=0, seed=0)
    assert all(r.passed for r in results)
    assert all(r.trials == 0 for r in results)


def test_zero_move_walks_are_legal():
    results = run_campaign(trials=3, moves=0, seed=1)
    assert all(r.passed for r in results if not r.informational)
    assert next(r for r in results if r.name == "move invariance").trials == 3


def test_mutated_block_is_caught():
    with mutated_blocks():
        results = run_campaign(trials=20, moves=10, seed=3)
    failing = [r for r in results if not r.informational and not r.passed]
    assert failing
    assert any(r.examples for r in failing)
    names = {r.name for r in failing}
    assert "skein relation" in names or "kink factors" in names


@contextlib.contextmanager
def _blocks(pos, neg):
    """Z built from the blocks pos (M+) and neg (M-) inside the `with` body;
    the memo is emptied on entry and on exit, as `mutated_blocks()` does."""
    invariants._blocks = {1: pos, -1: neg}
    invariants._z_memo.cache_clear()
    try:
        yield
    finally:
        invariants._blocks = invariants.DEFAULT_BLOCKS
        invariants._z_memo.cache_clear()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_campaign_kills_both_block_mutants(seed):
    # the checks through Z's arc matrix catch either wrong block; the negated
    # M- also breaks c0, so the c0 and Vassiliev checks must catch it too
    def failing(results):
        return {r.name for r in results if not r.passed and not r.informational}

    z_checks = {"kink factors", "move invariance", "skein relation"}
    with mutated_blocks():
        assert z_checks | {"c0 permutation form", "vassiliev orders"} <= failing(
            run_campaign(20, 10, seed))
    with _blocks(*a_mutant()):
        assert z_checks <= failing(run_campaign(20, 10, seed))


# The acceptance gate calls these nine checks.  SHA-256 of the JSON of
# [[name, trials, failures, examples]] of each, with the right blocks and
# then inside `mutated_blocks()`, where five of them find counterexamples.
GATE_CHECKS = [
    (check_move_invariance, (20, 10, 1),
     "e5d5d0b85ed9d418afa31a812a4e576d705d44e1ba10ab545e7d86a2cdf553da"),
    (check_kink_factors, (10, 2), "9764975b71ff7ed6a94ced23d8461bbc66850f6b381c752e59ad75f7267c648f"),
    (check_skein, (20, 3), "0587bf7b92b10779c124a40968b81b71c4ee416cb5f0e0a6ad17c01d7b9c1969"),
    (check_disjoint_union, (10, 4),
     "0a1817a8cce358519c538fc3ea622ba31b52402d9258ecc1aaea53536a578cb1"),
    (check_c0_permutation_form, (30, 5),
     "e2ca43f40e3a047b2c5753430c2b01a6df105f5ca5d29ac0511b3d2df703c80e"),
    (check_c0_orientation, (30, 6),
     "921af802e52bfc1b3aded76284356195ee2339faa83182f5ad8ea5e17fece499"),
    (check_c0_symmetry, (30, 7), "6863765ac1c4485fb9ae6c0a5bb01bcf041fe7ddf35d449d58178bd8c88f9d10"),
    (check_knot_vanishing, (30, 8),
     "4d79e059431c42b301f586ed70c6a7cd1fe29267a8b7ad24faf59a87a8bf6911"),
    (check_vassiliev_orders, (15, 9),
     "837f34896841e26d34eb3ce57bcd222723b5f540002e30ce3f049131a658a8dc"),
]


@pytest.mark.parametrize("check, args, digest", GATE_CHECKS,
                         ids=[check.__name__ for check, _, _ in GATE_CHECKS])
def test_gate_checks_are_pinned(check, args, digest):
    results = []
    for blocks in (contextlib.nullcontext(), mutated_blocks()):
        invariants._z_memo.cache_clear()
        with blocks:
            r = check(*args)
        results.append([r.name, r.trials, r.failures, r.examples])
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == digest


def test_campaign_work_is_pinned(monkeypatch):
    # one stream: each draw is made once, and its Z computed once for every
    # check that takes it.  With one stream per check, this campaign made
    # 680 draws and 1,197 determinants.
    dets, draws = [], []
    det_terms, random_diagram = invariants.det_terms, verify.random_diagram
    monkeypatch.setattr(invariants, "det_terms", lambda rows: dets.append(1) or det_terms(rows))
    monkeypatch.setattr(verify, "random_diagram",
                        lambda cfg: draws.append(1) or random_diagram(cfg))
    run_campaign(100, 50, seed=1)
    assert (len(dets), len(draws)) == (785, 169)


def test_individual_checks_pass():
    assert check_skein(30, seed=5).passed
    assert check_kink_factors(20, seed=6).passed
    assert check_c0_permutation_form(40, seed=7).passed
    assert check_move_invariance(25, 15, seed=8).passed
    info = check_mirror_reverse_conjecture(30, seed=9)
    assert info.informational


def test_singular_orders_check():
    res = check_singular_orders(25, seed=10, classical=3, components=1, doubles=2)
    assert len(res) == 2
    assert all(r.passed for r in res)
    res1 = check_singular_orders(10, seed=11, classical=3, components=2, doubles=1)
    assert [r.name for r in res1] == ["extended c0 vanishes"]
    assert res1[0].passed


def test_singular_orders_sum_once_per_diagram(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return vassiliev_eval(d)

    monkeypatch.setattr(verify, "vassiliev_eval", counting)
    res = check_singular_orders(6, seed=10, classical=3, components=1, doubles=2)
    assert [r.trials for r in res] == [6, 6] and len(calls) == 6
    calls.clear()
    assert check_singular_orders(6, seed=10, classical=3, doubles=0) == []
    assert calls == []


def test_singular_orders_skip_draws_with_an_empty_component(monkeypatch):
    # Z of a diagram with a crossing-free component is 0 by definition, so
    # such draws are skipped like draws without a double point
    def draws(trials, seed, classical, components, doubles):
        rng = random.Random(seed)
        return [random_diagram(GeneratorConfig(classical, components, doubles,
                                               seed=rng.randrange(1 << 30)))
                for _ in range(trials)]

    calls = []
    monkeypatch.setattr(verify, "vassiliev_eval",
                        lambda d: calls.append(d) or vassiliev_eval(d))
    drawn = draws(40, 0, 6, 4, 1)
    full = [d for d in drawn if d.has_doubles() and not d.has_empty_component()]
    assert 0 < len(full) < len(drawn)
    res = check_singular_orders(40, seed=0, classical=6, components=4, doubles=1)
    assert calls == full
    assert [(r.name, r.passed) for r in res] == [("extended c0 vanishes", True)]
    # every 24-crossing draw over 32 components leaves one empty: nothing counts
    calls.clear()
    assert all(d.has_empty_component() for d in draws(32, 0, 24, 32, 2))
    assert check_singular_orders(32, seed=0, classical=24, components=32, doubles=2) == []
    assert calls == []


def test_tally_diagram_checks(vhopf):
    results = tally_diagram_checks([(vhopf, 4)], moves=20)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert names == ["move invariance", "skein relation", "c0 permutation form",
                     "c0 orientation invariance", "c0 y-inversion symmetry"]
    knot = tally_diagram_checks([(parse_diagram("component: O1+ O2+ U1+ U2+"), 0)], moves=5)
    assert [r.name for r in knot] == names + ["c0 vanishes on knots"]
    assert all(r.passed for r in knot)
    # the same names as the campaign's checks of the same properties
    assert set(names + ["c0 vanishes on knots"]) <= {
        r.name for r in run_campaign(trials=1, moves=1)}


def test_tally_checks_only_the_walk_with_a_crossing_free_component(monkeypatch):
    # Z and c0 are 0 on such a diagram, so skein and the c0 checks would hold on nothing
    loop = parse_diagram("component: O1+ O2+ U1+ U2+\ncomponent:\n")
    knot = parse_diagram("component: O1+ O2+ U1+ U2+")
    per_diagram = ("_skein", "_c0_permutation_form", "_c0_orientation", "_c0_symmetry",
                   "_knot_vanishing")
    with pytest.MonkeyPatch.context() as mp:
        for name in per_diagram:
            mp.setattr(verify, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        results = tally_diagram_checks([(loop, 0), (loop, 1)], moves=5)
    assert [(r.name, r.trials, r.passed) for r in results] == [("move invariance", 2, True)]
    # with a diagram it applies to, every check is listed in the usual order
    mixed = tally_diagram_checks([(loop, 0), (knot, 0)], moves=5)
    assert [(r.name, r.trials) for r in mixed] == [
        ("move invariance", 2), ("skein relation", 2), ("c0 permutation form", 1),
        ("c0 orientation invariance", 1), ("c0 y-inversion symmetry", 1),
        ("c0 vanishes on knots", 1)]


def test_check_result_line():
    r = CheckResult("demo", 5)
    assert "pass" in r.line()
    r.record("bad one")
    assert not r.passed and "FAIL" in r.line()
    assert r.examples == ["bad one"]


# ---------------------------------------------------------------------------
# enumeration and searches


def test_enumeration_counts():
    # frozen sizes of the rotation-reduced code tables
    sizes = {}
    for n in range(5):
        sizes[n] = sum(1 for _ in enumerate_virtual_knot_codes(n))
    assert sizes == {0: 1, 1: 3, 2: 19, 3: 195, 4: 3683}


def test_enumeration_order_is_pinned():
    # the order decides which code the search reports first
    codes = [format_diagram(d) for d in enumerate_virtual_knot_codes(4)]
    assert len(codes) == 3683
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest == "7362f8890ea6bd55053921ced363a5e2eb49f98373930cc4d7a66c9e087575a8"


def test_enumeration_yields_valid_knots():
    from vconway.diagram import validate

    seen = set()
    for d in enumerate_virtual_knot_codes(2):
        assert len(d.components) == 1
        assert validate(d) == []
        seen.add(d)
    assert len(seen) == 19


def test_find_noninvertible_knot_hit():
    hit = find_noninvertible_knot(4)
    assert hit is not None
    d, a, b, examined = hit
    assert a != b
    assert a == c1(d) and b == c1(reverse(d))
    assert d.n_classical() == 3
    assert examined == 28
    assert format_diagram(d) == "component: O1+ O2+ O3+ U1+ U3+ U2+"
    assert a.render() == "2*y^-1 + 3 - y^2"
    assert b.render() == "-y^-2 + 3 + 2*y"


def test_find_noninvertible_knot_budget():
    assert find_noninvertible_knot(4, budget=5) is None
    assert find_noninvertible_knot(1) is None


def test_find_c1_order_defect_link_hit():
    res = find_c1_order_defect_link(6, trials=200, seed=0)
    assert res is not None
    d, v, idx = res
    assert not v.is_zero()
    assert len(d.double_ids()) == 2
    assert len(d.components) == 2
