import json

import pytest

from vconway import invariants
from vconway.cli import MAX_SAMPLED_CROSSINGS, main
from vconway.diagram import format_diagram, parse_diagram, reverse, validate
from vconway.invariants import c1, vassiliev_eval
from vconway.verify import MAX_SHOWN

VHOPF = "component: O1+\ncomponent: U1+\n"
VTREF = "component: O1+ O2+ U1+ U2+\n"
TREFOIL = "component: O1+ U2+ O3+ U1+ O2+ U3+\n"
SINGULAR = "component: A1 O2+ B1 U2+\n"


@pytest.fixture
def vhopf_file(tmp_path):
    p = tmp_path / "vhopf.txt"
    p.write_text(VHOPF)
    return str(p)


@pytest.fixture
def vtref_file(tmp_path):
    p = tmp_path / "vtref.txt"
    p.write_text(VTREF)
    return str(p)


def test_compute_text(vhopf_file, capsys):
    assert main(["compute", vhopf_file]) == 0
    out = capsys.readouterr().out
    assert "Z                   1 + x*y^-1 + y + x" in out
    assert "c0                  y^-1 + 2 + y" in out
    assert "note:" in out  # link input carries the c1 caveat


def test_compute_json(vtref_file, capsys):
    assert main(["compute", vtref_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] == "1 + x*y^-1 + y - x^2*y^-1 - x*y - x^2"
    assert payload["c1"] == "y^-1 + 2 + y"
    assert payload["conway_coeffs"] == ["0", "y^-1 + 2 + y", "-y^-1 - 1"]
    assert "notes" not in payload


def test_compute_classical_all_zero(tmp_path, capsys):
    p = tmp_path / "trefoil.txt"
    p.write_text(TREFOIL)
    assert main(["compute", str(p)]) == 0
    out = capsys.readouterr().out
    assert "Z                   0" in out


def test_compute_singular(tmp_path, capsys):
    p = tmp_path / "singular.txt"
    p.write_text(SINGULAR)
    assert main(["compute", str(p)]) == 0
    out = capsys.readouterr().out
    assert "double points       1" in out
    assert "Z " not in out.splitlines()[0]


def test_compute_missing_file(capsys):
    assert main(["compute", "does-not-exist.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compute_bad_token(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("component: O1+ Q2\n")
    assert main(["compute", str(p)]) == 2
    assert "malformed passage" in capsys.readouterr().err


def test_compute_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.txt"
    p.write_bytes("# caf\u00e9\ncomponent: O1+ U1+\n".encode("latin-1"))
    assert main(["compute", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err
    assert len(err.splitlines()) == 1


def test_compute_too_many_double_points(tmp_path, capsys):
    p = tmp_path / "doubles.txt"
    p.write_text("component: " + " ".join(f"A{i} B{i}" for i in range(1, 22)) + "\n")
    assert main(["compute", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 21 double points exceed the supported maximum of 20\n"


def test_verify_random_too_many_double_points(capsys):
    assert main(["verify", "--random", "2,1,21", "--trials", "1"]) == 2
    assert "exceed the supported maximum" in capsys.readouterr().err


def test_compute_invalid_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("component: O1+ O1+\n")
    assert main(["compute", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_verify_campaign(capsys):
    assert main(["verify", "--trials", "12", "--moves", "8", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "[pass] skein relation" in out


def test_verify_trials_nonpositive(capsys):
    for trials in ("0", "-3"):
        assert main(["verify", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be a positive integer, got {trials}" in captured.err


def test_verify_moves_nonpositive(capsys):
    for moves in ("0", "-3"):
        assert main(["verify", "--trials", "2", "--moves", moves]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be a positive integer, got {moves}" in captured.err


def test_verify_mutate_fails_with_counterexample(capsys):
    assert main(["verify", "--trials", "10", "--moves", "6", "--seed", "2",
                 "--mutate"]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "counterexample:" in out


def test_verify_mutate_per_diagram_paths(vhopf_file, capsys):
    failures = []
    for argv in (["--random", "3,2,0", "--trials", "5"], [vhopf_file]):
        assert main(["verify", *argv, "--mutate", "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        for c in checks:
            assert len(c["examples"]) == min(c["failures"], MAX_SHOWN)
        failures += [c["failures"] for c in checks]
    # some check failed more often than it may show
    assert max(failures) > MAX_SHOWN


def test_verify_file(vhopf_file, capsys):
    assert main(["verify", vhopf_file, "--moves", "15", "--seed", "3"]) == 0
    assert "result: pass" in capsys.readouterr().out


def test_verify_random_shape(capsys):
    assert main(["verify", "--random", "3,2,0", "--trials", "5",
                 "--moves", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "move invariance" in out


def test_verify_random_singular(capsys):
    assert main(["verify", "--random", "2,1,2", "--trials", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "extended c0 vanishes" in out
    assert "extended c1 vanishes on singular knots" in out


def test_verify_random_singular_rejects_moves(capsys):
    assert main(["verify", "--random", "2,1,2", "--trials", "3", "--moves", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --moves") and captured.err.count("\n") == 1


def test_verify_file_rejects_random(vhopf_file, capsys):
    assert main(["verify", vhopf_file, "--random", "4,1,2", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --random") and captured.err.count("\n") == 1


def test_verify_file_without_component(tmp_path, capsys):
    empty = tmp_path / "e.gauss"
    empty.write_text("# nothing\n")
    for seed in ("0", "1"):
        assert main(["verify", str(empty), "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {empty} has no component to check\n"
    # compute still reports the empty diagram
    assert main(["compute", str(empty)]) == 0
    assert capsys.readouterr().out.startswith("components          0\n")


def test_verify_random_crossing_ceiling(capsys):
    k = MAX_SAMPLED_CROSSINGS + 1
    assert main(["verify", "--random", f"{k},1,0", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --random samples diagrams of at most "
                            f"{MAX_SAMPLED_CROSSINGS} crossings, got {k}\n")


def test_verify_mutate_leaves_right_blocks(monkeypatch, capsys):
    d = parse_diagram("component: O1-\ncomponent: U1-")
    before = invariants.z_polynomial(d)
    assert invariants._z_memo.cache_info().currsize == 1  # warm
    argv = ["verify", "--trials", "5", "--seed", "0", "--mutate", "--format", "json"]
    assert main(argv) == 1
    capsys.readouterr()
    calls = []
    det = invariants.det
    monkeypatch.setattr(invariants, "det", lambda m: calls.append(m.n) or det(m))
    # the memo was emptied on exit, so the right value is computed anew
    assert invariants.z_polynomial(d) == before
    assert calls == [2]


def test_verify_lists_no_check_without_trials(tmp_path, capsys):
    empty = tmp_path / "unknot.txt"
    empty.write_text("component:\n")
    for argv in (["--random", "0,2,0"], ["--random", "0,1,0"], ["--random", "1,3,0"],
                 [str(empty)]):
        assert main(["verify", *argv, "--trials", "5", "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks and all(c["trials"] > 0 for c in checks), argv


def test_verify_campaign_lists_no_check_without_trials(capsys):
    # at this seed the one c0 permutation-form diagram has no classical crossing
    assert main(["verify", "--trials", "1", "--seed", "2", "--moves", "5"]) == 0
    out = capsys.readouterr().out
    assert " 0 trials" not in out
    assert "c0 permutation form" not in out
    assert "[pass] c0 orientation invariance: 1 trials" in out
    assert out.endswith("result: pass\n")


def test_verify_random_report_order_is_fixed(capsys):
    names = []
    for seed in ("0", "1"):
        assert main(["verify", "--random", "1,2,0", "--trials", "6", "--seed", seed,
                     "--format", "json"]) == 0
        names.append([c["name"] for c in json.loads(capsys.readouterr().out)["checks"]])
    assert names[0] == names[1]


def test_verify_output_same_without_memo(monkeypatch, capsys):
    argv = ["verify", "--trials", "100", "--seed", "9", "--format", "json"]
    assert main(argv) == 0
    memoised = capsys.readouterr().out
    memo = invariants._z_memo

    def cleared(*args):
        memo.cache_clear()
        return memo(*args)

    monkeypatch.setattr(invariants, "_z_memo", cleared)
    assert main(argv) == 0
    assert capsys.readouterr().out == memoised


def test_verify_random_bad_spec(capsys):
    assert main(["verify", "--random", "3,2", "--trials", "2"]) == 2
    assert "bad --random spec" in capsys.readouterr().err


def test_verify_json(capsys):
    assert main(["verify", "--trials", "6", "--moves", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {"skein relation", "move invariance"}


def test_skein(vtref_file, capsys):
    assert main(["skein", vtref_file, "--crossing", "1"]) == 0
    out = capsys.readouterr().out
    assert "Z(D+)" in out and "residual 0" in out


def test_skein_json(vtref_file, capsys):
    assert main(["skein", vtref_file, "--crossing", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["residual"] == "0"


def test_skein_bad_crossing(vtref_file, capsys):
    assert main(["skein", vtref_file, "--crossing", "7"]) == 2
    assert "no classical crossing" in capsys.readouterr().err


def test_orient_table(vtref_file, capsys):
    assert main(["orient", vtref_file]) == 0
    out = capsys.readouterr().out
    for label in ("original", "reversed", "mirrored", "mirrored+reversed"):
        assert label in out
    assert "y^-1 + 2 + y" in out


def test_orient_detects_sensitivity(tmp_path, capsys):
    p = tmp_path / "sensitive.txt"
    p.write_text("component: O1+ O2+ O3+ U1+ U3+ U2+\n")
    assert main(["orient", str(p), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c1"]["original"] != payload["c1"]["reversed"]


def test_search_finds_hit(capsys):
    assert main(["search", "--max-crossings", "4"]) == 0
    out = capsys.readouterr().out
    assert "found after 28 codes" in out
    assert "component: O1+ O2+ O3+ U1+ U3+ U2+" in out


def test_search_budget_exhausted(capsys):
    assert main(["search", "--max-crossings", "2", "--budget", "5"]) == 1
    assert "no orientation-sensitive knot" in capsys.readouterr().out


def test_search_has_no_seed(capsys):
    # the enumeration is deterministic, so there is no seed to take
    assert main(["search", "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--links"]])
@pytest.mark.parametrize("bad", [["--max-crossings", "-1"], ["--budget", "0"],
                                 ["--budget", "-2"]])
def test_search_rejects_bad_bounds(mode, bad, capsys):
    assert main(["search", *mode, *bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"integer, got {bad[1]}" in captured.err


def test_search_links_finds_hit(capsys):
    assert main(["search", "--links", "--max-crossings", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "found after 1 links:"  # trial 0
    d = parse_diagram("\n".join(lines[1:-2]))
    assert validate(d) == []
    assert len(d.components) == 2 and len(d.double_ids()) == 2
    value, reversed_value = vassiliev_eval(d, c1), vassiliev_eval(reverse(d), c1)
    assert lines[-2] == f"c1           {value.render()}"
    assert lines[-1] == f"c1 reversed  {reversed_value.render()}"
    assert value.render() == "y^-2 - 2 + y^2"
    assert reversed_value.render() == "0"


def test_search_links_json(capsys):
    assert main(["search", "--links", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    d = parse_diagram(payload["code"])
    assert validate(d) == []
    assert payload == {
        "found": True,
        "examined": 4,
        "code": format_diagram(d),
        "c1": vassiliev_eval(d, c1).render(),
        "c1_reversed": vassiliev_eval(reverse(d), c1).render(),
    }


def test_search_links_budget_exhausted(capsys):
    assert main(["search", "--links", "--max-crossings", "0", "--budget", "50"]) == 1
    assert "no singular link" in capsys.readouterr().out
    assert main(["search", "--links", "--max-crossings", "0", "--budget", "50",
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"found": False}


def test_search_links_crossing_ceiling(capsys):
    assert main(["search", "--links", "--max-crossings", str(MAX_SAMPLED_CROSSINGS + 1),
                 "--budget", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --links samples links of at most "
                            f"{MAX_SAMPLED_CROSSINGS} crossings, "
                            f"got {MAX_SAMPLED_CROSSINGS + 1}\n")
    assert main(["search", "--links", "--max-crossings", str(MAX_SAMPLED_CROSSINGS),
                 "--budget", "1"]) in (0, 1)
    # the knot search keeps no such ceiling: it stops at its 3-crossing hit
    assert main(["search", "--max-crossings", "300"]) == 0


def test_random_emit_round_trip(capsys):
    assert main(["random", "--crossings", "4", "--components", "2",
                 "--seed", "9", "--emit"]) == 0
    text = capsys.readouterr().out
    assert format_diagram(parse_diagram(text)) == text.strip()


def test_random_summary(capsys):
    assert main(["random", "--crossings", "3", "--components", "1",
                 "--doubles", "1", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "double points       1" in out


def test_random_bad_config(capsys):
    assert main(["random", "--crossings", "-1", "--components", "1",
                 "--seed", "0"]) == 2


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
