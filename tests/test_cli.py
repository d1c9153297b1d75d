import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from vconway import cli, invariants
from vconway.cli import MAX_CLASSICAL_CROSSINGS, MAX_SAMPLED_CROSSINGS, main
from vconway.diagram import format_diagram, parse_diagram, reverse, validate
from vconway.invariants import MAX_DOUBLE_POINTS, vassiliev_eval
from vconway.laurent import expand_conway
from vconway.moves import GeneratorConfig, random_diagram
from vconway.verify import MAX_SHOWN, CheckResult

VHOPF = "component: O1+\ncomponent: U1+\n"
VTREF = "component: O1+ O2+ U1+ U2+\n"
TREFOIL = "component: O1+ U2+ O3+ U1+ O2+ U3+\n"
SINGULAR = "component: A1 O2+ B1 U2+\n"
REPO = Path(__file__).resolve().parent.parent


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
    assert err == f"error: 21 double points exceed the supported maximum of {MAX_DOUBLE_POINTS}\n"


def test_compute_at_crossing_ceiling(tmp_path, capsys):
    p = tmp_path / "k64.txt"
    p.write_text(format_diagram(random_diagram(GeneratorConfig(MAX_CLASSICAL_CROSSINGS, 2, 0, seed=0))))
    assert main(["compute", str(p), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classical_crossings"] == MAX_CLASSICAL_CROSSINGS


def test_crossing_ceiling_rejects_before_z(tmp_path, capsys, monkeypatch):
    k = MAX_CLASSICAL_CROSSINGS + 1
    p = tmp_path / "k65.txt"
    p.write_text(format_diagram(random_diagram(GeneratorConfig(k, 1, 0, seed=0))))
    monkeypatch.setattr(invariants, "_z_memo",
                        lambda d: pytest.fail("Z computed above the crossing ceiling"))
    for argv in (["compute"], ["verify"], ["orient"], ["skein", "--crossing", "1"]):
        assert main(argv[:1] + [str(p)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {k} crossings exceed the supported maximum of {MAX_CLASSICAL_CROSSINGS}\n"


def test_component_ceiling_rejects_before_z(tmp_path, capsys, monkeypatch):
    # a component adds to every move scan, so a file of many empty components
    # would make `verify` walk for long with a Z that is 0 at once
    at_limit, over = tmp_path / "c64.txt", tmp_path / "c65.txt"
    at_limit.write_text(TREFOIL + "component:\n" * (MAX_CLASSICAL_CROSSINGS - 1))
    over.write_text(TREFOIL + "component:\n" * MAX_CLASSICAL_CROSSINGS)
    assert main(["compute", str(at_limit)]) == 0
    assert capsys.readouterr().out.startswith(f"components          {MAX_CLASSICAL_CROSSINGS}\n")
    monkeypatch.setattr(invariants, "_z_memo", lambda d: pytest.fail("Z computed"))
    for command in ("compute", "verify"):
        assert main([command, str(over)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {MAX_CLASSICAL_CROSSINGS + 1} components exceed the "
                                f"supported maximum of {MAX_CLASSICAL_CROSSINGS}\n")


def test_verify_random_too_many_double_points(capsys):
    assert main(["verify", "--random", "2,1,21", "--trials", "1"]) == 2
    assert "exceed the supported maximum" in capsys.readouterr().err


def test_compute_invalid_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("component: O1+ O1+\n")
    assert main(["compute", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_compute_invalid_code_message_is_pinned(tmp_path, capsys):
    # validate's problems, crossing by id, joined on one error line
    p = tmp_path / "bad.txt"
    p.write_text("component: O3- O3- U1+ O2+ U2+ U2+\n")
    assert main(["compute", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: crossing 1: visited 1 times, expected exactly 2; "
                            "crossing 2: visited 3 times, expected exactly 2; "
                            "crossing 3: roles ['O', 'O'] do not cover ['O', 'U']\n")


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


def test_verify_random_checks_only_walks_with_an_empty_component(capsys):
    # every 24-crossing draw over 32 components leaves a component without a
    # crossing, where Z = 0: skein and the c0 checks would pass on nothing
    assert main(["verify", "--random", "24,32,0", "--trials", "8", "--seed", "0"]) == 0
    assert capsys.readouterr().out == ("[pass] move invariance: 8 trials, 0 failures\n"
                                       "result: pass\n")


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


@pytest.mark.parametrize("m", range(MAX_DOUBLE_POINTS + 1))
def test_verify_random_resolution_budget(m, capsys, monkeypatch):
    # trials x 2^M at the budget runs the checks, the singular ones for M > 0
    # and the diagram checks on each drawn code at M = 0; one trial more is
    # refused before any of them.  The budget at C components is
    # MAX_RESOLUTIONS // ceil(C^2 / 16): 8,192 at one component, 630 at 14
    assert cli.MAX_RESOLUTIONS == 8192
    checks = "check_singular_orders" if m else "tally_diagram_checks"
    for c, limit in ((1, 8192), (14, 630)):
        trials = limit >> m
        assert trials << m <= limit < (trials + 1) << m and trials <= cli.MAX_TRIALS
        runs = []
        # the trial count, read off the drawn cases at M = 0, and the seed or
        # the moves per walk
        monkeypatch.setattr(cli, checks, lambda *args, **kwargs: runs.append(
            (args[0] if m else sum(1 for _ in args[0]), args[1]))
            or [CheckResult("extended c0 vanishes", trials)])
        assert main(["verify", "--random", f"4,{c},{m}", "--trials", str(trials)]) == 0
        assert runs == [(trials, 0 if m else cli.DEFAULT_MOVES)]
        capsys.readouterr()
        monkeypatch.setattr(cli, checks, lambda *args, **kwargs: pytest.fail(
            "checks ran above the budget"))
        assert main(["verify", "--random", f"4,{c},{m}", "--trials", str(trials + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {(trials + 1) << m} resolutions (trials x 2^M) for "
                                f"C = {c} exceed the supported maximum of {limit}\n")


def test_input_ceilings_table_lists_every_max_constant():
    # every MAX_* constant of cli and invariants has a row of README's "Input
    # ceilings" table that names it and starts its Value cell with the
    # constant's value, written as the table writes it (10,000); cli's copy
    # of an invariants constant is named under invariants
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Input ceilings\n", 1)[1].split("\n#", 1)[0]
    values = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4:
            for name in re.findall(r"`((?:cli|invariants)\.MAX_\w+)`", cells[1]):
                values[name] = cells[2].split()[0]
    constants = {f"invariants.{n}": v for n, v in vars(invariants).items() if n.startswith("MAX_")}
    constants.update({f"cli.{n}": v for n, v in vars(cli).items()
                      if n.startswith("MAX_") and n not in vars(invariants)})
    assert values == {name: f"{v:,}" for name, v in constants.items()}


def test_verify_file_rejects_random(vhopf_file, capsys):
    assert main(["verify", vhopf_file, "--random", "4,1,2", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --random") and captured.err.count("\n") == 1


def test_verify_file_rejects_trials(vhopf_file, capsys, monkeypatch):
    # a file is checked along one walk, so a trial count would be ignored
    monkeypatch.setattr(cli, "tally_diagram_checks", lambda *args: pytest.fail("checks ran"))
    assert main(["verify", vhopf_file, "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --trials") and captured.err.count("\n") == 1


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
    assert captured.err == (f"error: {k} crossings for --random exceed the supported "
                            f"maximum of {MAX_SAMPLED_CROSSINGS}\n")


def test_verify_mutate_leaves_right_blocks(monkeypatch, capsys):
    d = parse_diagram("component: O1-\ncomponent: U1-")
    before = invariants.z_polynomial(d)
    assert invariants._z_memo.cache_info().currsize == 1  # warm
    argv = ["verify", "--trials", "5", "--seed", "0", "--mutate", "--format", "json"]
    assert main(argv) == 1
    capsys.readouterr()
    calls = []
    det_terms = invariants.det_terms
    monkeypatch.setattr(invariants, "det_terms",
                        lambda rows: calls.append(len(rows)) or det_terms(rows))
    # the memo was emptied on exit, so the right value is computed anew
    assert invariants.z_polynomial(d) == before
    assert calls == [2]


def test_verify_lists_no_check_without_trials(tmp_path, capsys):
    empty = tmp_path / "unknot.txt"
    empty.write_text("component:\n")
    # a diagram file takes no --trials: it is checked along one walk
    for argv in (["--random", "0,2,0", "--trials", "5"], ["--random", "0,1,0", "--trials", "5"],
                 ["--random", "1,3,0", "--trials", "5"], [str(empty)]):
        assert main(["verify", *argv, "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks and all(c["trials"] > 0 for c in checks), argv


@pytest.mark.parametrize("argv", [["--random", "0,3,1", "--trials", "5"],
                                  ["--random", "24,32,2", "--trials", "4", "--seed", "0"]])
def test_verify_with_no_trial_run_fails(argv, capsys):
    # one double point on three components, or 24 crossings on 32, always
    # leaves a component empty, so every draw is skipped and nothing is verified
    assert main(["verify", *argv]) == 1
    assert capsys.readouterr().out == "no check ran a trial\nresult: FAIL\n"
    assert main(["verify", *argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"passed": False, "checks": []}


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


PINNED_FILES = {
    "vhopf": VHOPF,
    "vtref": VTREF,
    "small": TREFOIL,
    "singular": SINGULAR,
    "sensitive": "component: O1+ O2+ O3+ U1+ U3+ U2+\n",
    "components65": TREFOIL + "component:\n" * 64,
    **{name: format_diagram(random_diagram(GeneratorConfig(k, c, 0, seed=seed))) + "\n"
       for name, k, c, seed in [("random24", 24, 2, 5), ("random32", 32, 1, 5),
                                ("random48", 48, 2, 5), ("random24x8", 24, 8, 1)]},
}

# Every pinned command line: its words (a PINNED_FILES name stands for a file
# holding that code), its exit code and the SHA-256 of f"{code}\n{stdout}".
# CI's console step runs only rows of this table.
COMMANDS = [
    # argparse wraps the help text to the terminal width, so it has no digest
    ("--help", 0, None),
    ("frobnicate", 2, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("compute small", 0, "d3fbaa3ab4a034437bcc93b6dbbf9c2c7a00fd514e182320275a870236d6885c"),
    ("compute small --format json", 0,
     "9420034be7db11c846f0ef8a643987426c82f1e43114ca13728278f32440aeff"),
    ("compute vhopf", 0, "07793b24835f134bd9c71509de6fd1032f2a4c412229bf4bae21eccaef670519"),
    ("compute vhopf --format json", 0,
     "7fe1a818cfdbbda6341f522f9bf0fb08784c75788822525eaf5ef8b6a9c2682f"),
    ("compute vtref", 0, "7ffb03cbc06a953517fc3ab2c68039d1b47b0aec1093206642253bc0b597385f"),
    ("compute vtref --format json", 0,
     "cb2531df8ffbfbfd4a2edff112a2d1a9b019ba334d44592e87eed4c241571a92"),
    ("compute singular", 0, "6a49a6b65ee4a38fda8693aa95cd7f66cc7b0f47ae2e7c90e75a2c2056618e59"),
    ("compute singular --format json", 0,
     "9491b8dad58564ccfd69bfbbb9712339ca32adbde02e7eef5c3d721b8a5359e7"),
    # each `random --emit` writes the PINNED_FILES code that the compute row after it reads
    ("random --crossings 24 --components 2 --seed 5 --emit", 0,
     "7b2069989b6af785b0c9d628497a3c30a2170010052e2ab5a3c4c3fff69337d6"),
    ("compute random24", 0, "8555c0545ae9cfbe6e8291786f4e901a0109125e0ee0caadcfc99cbb6a473af9"),
    ("compute random24 --format json", 0,
     "bdb0e816e8d0bfa41e8115335bc32d001c8cd27ea615ae76f5f66745193434b3"),
    ("random --crossings 32 --components 1 --seed 5 --emit", 0,
     "f76ef139bf5cccda50cea2c39a938abc4d9f08cc2522e6c7ee14c8ceb8329be0"),
    ("compute random32", 0, "0a6af76bfc400c4f52a35d56fb664a1f9e2c9a12e99a6684622eff587eeacaa2"),
    ("random --crossings 48 --components 2 --seed 5 --emit", 0,
     "2b15fe509a48c3d17fef0503ee9e4ddbe7087573edd13926c8212c5de9c8a4fd"),
    ("compute random48", 0, "33ecee84ae972b2a0ed7492b75b32eed00eb0943f879f503b53f870698f9e195"),
    # Z of this 8-component code leaves a side-8 residual, so Bareiss runs on term-dict rows
    ("random --crossings 24 --components 8 --seed 1 --emit", 0,
     "4f780d4c4d1cbeec551a02dde85425cfe63c2f72cb3dcb11dcb32869c2654999"),
    ("compute random24x8", 0, "ff4ce2f88b006a09262bb33afaec63ac2b262cdbea2645087ffc56c33af67efd"),
    ("skein small --crossing 2", 0,
     "cad20c90f2237411d90a855ea4c963c4a9a3fbe01c847b4ff55fcf18c25ffeb0"),
    ("skein vtref --crossing 1", 0,
     "80716c942c0e0deb410e701d926fb1863486157ad215ea49151117b7ed6a0cae"),
    ("skein vtref --crossing 1 --format json", 0,
     "60ff24abe961305ee8115a69effa1cf1f857ba5e3117b9424f58fb77a02e5602"),
    # a crossing the code does not have is bad input: exit 2
    ("skein small --crossing 9", 2,
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    # more components than the ceiling is bad input too, refused before any Z
    ("verify components65", 2,
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("orient small", 0, "ab2ac93216ea0bba77fd1492f25221c07040bddc714e29cb912faafb9215e0be"),
    ("orient sensitive", 0, "32d0cfa9e07d5e22ef9c5c171b2c8f985e1ac2c90557ce28cb9b41d8a2d2763e"),
    ("orient sensitive --format json", 0,
     "6854e0b804034d35c00e001fcc1f622a061248e22009641edf3e04311d664bba"),
    ("search --max-crossings 4", 0,
     "0d19a99ad48361cea85e9d9f8724d74b57ff3a44ce0c26572368072af724b0a2"),
    ("search --max-crossings 4 --format json", 0,
     "02f42299237dc33d21449f81e34600b9ca666e23b2d86be7dcea36bbb6102191"),
    ("search --links --max-crossings 6", 0,
     "710fd041ed6a5643481475f759c5c31305dbcf25944d05769c26729c0b3fc023"),
    ("search --links --max-crossings 6 --format json", 0,
     "cd0b6412882d430aa350d51399c415ad2b5eed9f55c8ab06f43b86eaec0b1053"),
    ("search --links --budget 200", 0,
     "0a49bbca463624bacc0fa9194d0ef55f55d420ef9d3622146e04a3437b1caba1"),
    ("verify small", 0, "11e05bc0cbda9723d1f98cb2ecd3dea5dd3eac809cfda7f0b146ef2d84d412fc"),
    ("verify vhopf", 0, "a4c65ed21bdd96a136400ccdd07a5c804c654493afe76b53deb8ff20d302f3c2"),
    ("verify vhopf --format json", 0,
     "9ea60c3a67e23476ffb137a0c31270165250c88193602361da8ef491b90d1b32"),
    # the default campaign, 500 trials: the first run a user makes
    ("verify", 0, "8b75c4810a94807429fa43cd3e7a2ec7a568ababa78e2d15e921aad59f4987ce"),
    ("verify --trials 5", 0, "056e72b25a30e8bc0f075b849ddf34a7cfe24fbd900308d2daffd58f1318d90c"),
    ("verify --trials 5 --seed 3", 0,
     "5cdeb094688cd057b380a7dea4824849e1f052c6a5059ce8d9d979fc3ed42ee6"),
    ("verify --trials 5 --seed 3 --format json", 0,
     "194040ca68c3c9fd9f70b270d12abebffb424305ae87b81ee9e111047485caff"),
    # every walk, check and counterexample of a 100-trial campaign
    ("verify --trials 100 --seed 9 --format json", 0,
     "515cbb69f17c763afa42ebf7aef4ad8d951f78c38b1d7921be18de0625356982"),
    # the benchmark campaign's two commands at full size
    ("verify --trials 100 --seed 1 --format json", 0,
     "efd15bad03064f7275a47aefabc3f10248b02514d822eb3b209bbb68d7df5de1"),
    ("verify --random 4,1,2 --trials 50 --seed 1", 0,
     "f5bdc81e5ce208cade8b1e542941686d466ff729d97a50f1fc74fac67d7b9191"),
    ("verify --random 4,1,2 --trials 50 --seed 1 --format json", 0,
     "969bb1ed1626a67409d5527944215b73f9a167a43c08ed3f9e0e5b0c188a77d7"),
    ("verify --random 4,1,2 --trials 5", 0,
     "3e75f77b233859a27c0015e7cfd8e3939063f431605f08de7d65b3de1b735521"),
    ("verify --random 4,1,2 --trials 5 --format json", 0,
     "7659417b8109e9da69d5348a53ae9effd560d264a409c20e68b0c34908494197"),
    ("verify --random 6,2,0 --trials 3", 0,
     "cd1d4eede413a58095afecf91dfff2602dccc74d7699e1392a5a39b747ea652e"),
    ("verify --random 6,2,0 --trials 3 --format json", 0,
     "447b186a2df444adbff3737880d106ee273098924bdbfdc5e45d520e24cad461"),
    ("verify --random 6,2,0 --trials 20", 0,
     "a7ee31dd534c18030813c59aa7c5cef62df5dc81ab748c6bec54bd61f7e1b4d5"),
    # every draw leaves a component empty, so no check runs a trial: exit 1
    ("verify --random 0,3,1 --trials 5", 1,
     "b62eb690f4959fdc838b9550bbf93edf669fe645ad84568a84b768b400605683"),
    ("verify --trials 5 --mutate", 1,
     "92a212ad6afea43d33d43d3db70faba8dc313ac5eda60d59aa0781908815da18"),
    ("verify --trials 5 --mutate --format json", 1,
     "b70540966792eedd5b28218eb087d27674e6331fbe60f7f718fd124dc63f50cf"),
    # the wrong block must be caught through Z's arc matrix: exit 1, not 2 or a crash
    ("verify --mutate --trials 20", 1,
     "8caf3f05314b85eb87c7a9bf15ad0b9d297ce2f46fe5f76701193957e0e68508"),
    # the benchmark campaign's second command with the wrong block, through the
    # closed-form residuals: the singular checks must catch it
    ("verify --random 4,1,2 --trials 20 --mutate", 1,
     "bf896e9898a6969564a70ac7acc381c1a1f92d41ab3cf27cc28e633bfca74ae6"),
    # and on the per-diagram path through the arc matrix, not only the campaign
    ("verify --random 6,2,0 --trials 20 --mutate", 1,
     "0e76c111d72b7be11dd0fe81722197c6cfdbc588d126ddc1fdb028dca21acd98"),
]
ROWS = {argv: (code, digest) for argv, code, digest in COMMANDS}


def pinned_argv(argv, tmp_path):
    words = argv.split()
    for i, word in enumerate(words):
        if word in PINNED_FILES:
            words[i] = str(tmp_path / word)
            (tmp_path / word).write_text(PINNED_FILES[word])
    return words


def output_digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def row_id(argv):
    # "compute vhopf --format json" is "compute vhopf-json"
    command = argv.removesuffix(" --format json")
    return f"{command}-{'text' if command == argv else 'json'}"


@pytest.mark.parametrize("argv, code, digest", COMMANDS, ids=[row_id(row[0]) for row in COMMANDS])
def test_cli_outputs_are_pinned(argv, code, digest, tmp_path, capsys):
    assert main(pinned_argv(argv, tmp_path)) == code
    if digest is not None:
        assert output_digest(code, capsys.readouterr().out) == digest


def test_verify_random_bad_spec(capsys):
    assert main(["verify", "--random", "3,2", "--trials", "2"]) == 2
    assert "bad --random spec" in capsys.readouterr().err


@pytest.mark.parametrize("spec, reason", [("1,0,0", "need at least one component"),
                                          ("1,1,-1", "crossing counts must be non-negative")])
def test_verify_random_bad_config_says_why(spec, reason, capsys):
    assert main(["verify", "--random", spec]) == 2
    assert capsys.readouterr().err == (f"error: bad --random spec {spec!r}: "
                                       f"expected crossings,components,doubles; {reason}\n")


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


@pytest.mark.parametrize("budget, bound", [([], "no budget"), (["--budget", "5"], "budget 5")])
def test_search_miss_names_its_budget(budget, bound, capsys):
    assert main(["search", "--max-crossings", "0", *budget]) == 1
    assert capsys.readouterr().out == (
        f"no orientation-sensitive knot found (max crossings 0, {bound})\n")


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
    value, reversed_value = (expand_conway(vassiliev_eval(v)).coeff(1) for v in (d, reverse(d)))
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
        "c1": expand_conway(vassiliev_eval(d)).coeff(1).render(),
        "c1_reversed": expand_conway(vassiliev_eval(reverse(d))).coeff(1).render(),
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
    assert captured.err == (f"error: {MAX_SAMPLED_CROSSINGS + 1} crossings for --links "
                            f"exceed the supported maximum of {MAX_SAMPLED_CROSSINGS}\n")
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


BIG = 10**9
SUM = "crossings and double points exceed the supported maximum of"


@pytest.mark.parametrize("crossings, components, doubles, err", [
    (BIG, 1, 0, f"{BIG} {SUM} {MAX_CLASSICAL_CROSSINGS}"),
    (MAX_CLASSICAL_CROSSINGS + 1, 1, 0, f"{MAX_CLASSICAL_CROSSINGS + 1} {SUM} {MAX_CLASSICAL_CROSSINGS}"),
    (MAX_CLASSICAL_CROSSINGS, 1, 1, f"{MAX_CLASSICAL_CROSSINGS + 1} {SUM} {MAX_CLASSICAL_CROSSINGS}"),
    (0, 1, BIG, f"{BIG} {SUM} {MAX_CLASSICAL_CROSSINGS}"),
    (0, 1, MAX_DOUBLE_POINTS + 1,
     f"{MAX_DOUBLE_POINTS + 1} double points exceed the supported maximum of {MAX_DOUBLE_POINTS}"),
    (0, BIG, 0, f"{BIG} components exceed the supported maximum of {MAX_CLASSICAL_CROSSINGS}"),
    (0, MAX_CLASSICAL_CROSSINGS + 1, 0,
     f"{MAX_CLASSICAL_CROSSINGS + 1} components exceed the supported maximum of {MAX_CLASSICAL_CROSSINGS}"),
], ids=["crossings-big", "crossings-over", "sum-over", "doubles-big", "doubles-over",
        "components-big", "components-over"])
def test_random_ceilings_reject_before_generating(crossings, components, doubles, err,
                                                  capsys, monkeypatch):
    def no_diagram(cfg):
        raise AssertionError("diagram generated above a ceiling")

    monkeypatch.setattr(cli, "random_diagram", no_diagram)
    assert main(["random", "--crossings", str(crossings), "--components", str(components),
                 "--doubles", str(doubles), "--seed", "0"]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("crossings, components, doubles", [
    (MAX_CLASSICAL_CROSSINGS, MAX_CLASSICAL_CROSSINGS, 0),
    (MAX_CLASSICAL_CROSSINGS - MAX_DOUBLE_POINTS, 1, MAX_DOUBLE_POINTS),
])
def test_random_at_ceilings_emits_a_compute_input(crossings, components, doubles,
                                                  tmp_path, capsys):
    assert main(["random", "--crossings", str(crossings), "--components", str(components),
                 "--doubles", str(doubles), "--seed", "0", "--emit"]) == 0
    p = tmp_path / "d.txt"
    p.write_text(capsys.readouterr().out)
    d = cli._load(str(p))  # the checks `compute` makes before it computes Z
    assert (d.n_classical(), len(d.components), len(d.double_ids())) == (
        crossings, components, doubles)


# each count ceiling, with the other counts of its command kept small
COUNT_CEILINGS = [
    (["verify", "--moves", "3", "--trials"], "MAX_TRIALS", "trials"),
    (["verify", "--trials", "2", "--moves"], "MAX_MOVES", "moves per walk"),
    (["search", "--links", "--max-crossings", "0", "--budget"], "MAX_LINK_SEARCH_BUDGET",
     "links for --budget"),
]
COUNT_IDS = ["trials", "moves", "links-budget"]


@pytest.mark.parametrize("argv, name, what", COUNT_CEILINGS, ids=COUNT_IDS)
@pytest.mark.parametrize("over", ["big", "over"])
def test_count_ceilings_reject_before_any_work(argv, name, what, over, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started above a ceiling")

    for fn in ("run_campaign", "tally_diagram_checks", "check_singular_orders",
               "find_c1_order_defect_link", "random_diagram"):
        monkeypatch.setattr(cli, fn, no_work)
    limit = getattr(cli, name)
    n = BIG if over == "big" else limit + 1
    assert main([*argv, str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {n} {what} exceed the supported maximum of {limit}\n"


@pytest.mark.parametrize("argv, name, what", COUNT_CEILINGS, ids=COUNT_IDS)
def test_count_ceilings_admit_the_limit(argv, name, what, capsys, monkeypatch):
    monkeypatch.setattr(cli, name, 2)
    # the link search at 0 crossings finds nothing and exits 1
    assert main([*argv, "2"]) == (1 if argv[0] == "search" else 0)
    assert main([*argv, "3"]) == 2
    assert capsys.readouterr().err == f"error: 3 {what} exceed the supported maximum of 2\n"


def test_verify_random_component_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_diagram", lambda cfg: pytest.fail("diagram sampled"))
    for c in (BIG, MAX_CLASSICAL_CROSSINGS + 1):
        assert main(["verify", "--random", f"2,{c},0", "--trials", "1"]) == 2
        assert capsys.readouterr().err == (f"error: {c} components for --random exceed the "
                                           f"supported maximum of {MAX_CLASSICAL_CROSSINGS}\n")


def test_classical_commands_refuse_double_points(tmp_path, capsys):
    p = tmp_path / "singular.txt"
    p.write_text(SINGULAR)
    for argv in (["verify"], ["orient"], ["skein", "--crossing", "2"]):
        assert main(argv[:1] + [str(p)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p} has double points; resolve them first\n"


@pytest.mark.parametrize("argv, code", [
    (["search", "--max-crossings", "2", "--budget", "5"], 1),
    (["verify", "--trials", str(BIG)], 2),
    (["--help"], 0),
])
def test_entry_exits_with_the_code_of_main(argv, code, monkeypatch, capsys):
    # the console script `vconway` calls entry()
    monkeypatch.setattr(sys, "argv", ["vconway", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


# the source tree, importable without an install
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def test_importing_the_cli_leaves_out_dataclasses():
    # start-up: the value types are named tuples, built without the
    # dataclasses machinery (and the inspect module it imports)
    code = "import sys, vconway.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=SRC_ENV).stdout
    assert out == "False\n"


@pytest.mark.parametrize("argv", ["compute small", "verify --random 0,3,1 --trials 5",
                                  "skein small --crossing 9"])
def test_exit_codes_cross_the_process_boundary(argv, tmp_path):
    # a cheap row of each exit code, run as a process in development mode
    # with warnings as errors; only bad input may write to stderr
    code, digest = ROWS[argv]
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "vconway",
                          *pinned_argv(argv, tmp_path)], capture_output=True, text=True,
                         env=SRC_ENV)
    assert run.returncode == code
    assert output_digest(code, run.stdout) == digest
    assert code == 2 or run.stderr == ""


def test_ci_console_step_runs_table_rows():
    # the step smoke-tests the installed script; the suite runs every row
    text = (REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    lines = text.splitlines()
    commands = [line.strip().removeprefix("vconway ") for line in lines
                if line.strip().startswith("vconway ")]
    assert commands and set(commands) <= set(ROWS)
    assert f"printf '{PINNED_FILES['small'].strip()}\\n' > small" in text
    run = next(i for i, line in enumerate(lines) if "Run its console script" in line)
    run = next(i for i in range(run, len(lines)) if lines[i].strip() == "run: |")
    depth = len(lines[run]) - len(lines[run].lstrip())
    block = list(takewhile(lambda line: line[:depth + 1].isspace() or not line.strip(),
                           lines[run + 1:]))
    assert 0 < len(block) <= 10
