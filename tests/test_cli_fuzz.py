"""The CLI contract under fuzzed input: every short text in the diagram file
format, valid or not, every short byte string, and every command line with
small or out-of-range counts ends in exit 0, 1 or 2, never in a traceback,
and within seconds."""

import contextlib
import io
import os
import tempfile
import time

from hypothesis import given, settings, strategies as st

from vconway import cli
from vconway.cli import main
from vconway.invariants import MAX_DOUBLE_POINTS

# roles O, U (classical), A, B (double point) and X (unknown); ids up to 4,
# so a text holds at most 4 double points and stays fast to evaluate
TOKENS = st.builds("{}{}{}".format, st.sampled_from("OUABX"), st.integers(0, 4),
                   st.sampled_from(["+", "-", ""]))
PASSAGES = st.lists(TOKENS, max_size=8).map(" ".join)
LINES = st.one_of(PASSAGES.map("component: {}".format), PASSAGES,
                  st.sampled_from(["", "# a comment", "component:"]))
TEXTS = st.lists(LINES, max_size=3).map("\n".join)

# raw bytes, or chunks of the format mixed with non-UTF-8 and control bytes
# and an id too large for any table
CHUNKS = st.sampled_from([b"component:", b"O", b"U", b"A", b"1", b"+", b" ", b"\n",
                          b"\xff", b"\x00", b"\x0c", b"\xc2\x85", b"9" * 20])
BYTES = st.one_of(st.binary(max_size=40), st.lists(CHUNKS, max_size=12).map(b"".join))

COMMANDS = (["compute"], ["verify", "--moves", "3"], ["orient"], ["skein", "--crossing", "1"])


def _exit_codes(data: bytes) -> list[tuple[str, int]]:
    """Run each command on a diagram file holding `data`."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.gauss")
        with open(path, "wb") as fh:
            fh.write(data)
        for command, *options in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append((command, main([command, path, *options])))
    return codes


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_cli_exit_codes_on_any_text(text):
    for command, code in _exit_codes(text.encode("utf-8")):
        assert code in (0, 1, 2), (command, text)


@settings(max_examples=300, deadline=None)
@given(BYTES)
def test_cli_exit_codes_on_any_bytes(data):
    for command, code in _exit_codes(data):
        assert code in (0, 1, 2), (command, data)


# Integer option values: small ones, and for an option with a ceiling one past
# it and 10^9.  Never a large in-range value, which may run for a minute.
SMALL = [-1, 0, 1, 2, 3]


def counts(limit: int | None = None):
    return st.sampled_from(SMALL + ([limit + 1] if limit is not None else []) + [10**9])


def option(name: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


VERIFY = st.builds(
    lambda trials, moves, seed, spec: ["verify", "--trials", str(trials), *moves, *seed, *spec],
    counts(cli.MAX_TRIALS), option("--moves", counts(cli.MAX_MOVES)), option("--seed", counts()),
    option("--random", st.builds("{},{},{}".format, counts(cli.MAX_SAMPLED_CROSSINGS),
                                 counts(cli.MAX_CLASSICAL_CROSSINGS), counts(MAX_DOUBLE_POINTS))))
# the budget is always given: the default 10,000 links take 5 s where none is a hit
SEARCH = st.builds(
    lambda links, k, budget: ["search", *links, "--max-crossings", str(k), "--budget", str(budget)],
    st.sampled_from([[], ["--links"]]), counts(cli.MAX_SAMPLED_CROSSINGS),
    counts(cli.MAX_LINK_SEARCH_BUDGET))
RANDOM = st.builds(
    lambda k, c, m, seed, emit: ["random", "--crossings", str(k), "--components", str(c),
                                 *m, "--seed", str(seed), *emit],
    counts(cli.MAX_CLASSICAL_CROSSINGS), counts(cli.MAX_CLASSICAL_CROSSINGS),
    option("--doubles", counts(MAX_DOUBLE_POINTS)), counts(), st.sampled_from([[], ["--emit"]]))
SKEIN = counts().map(lambda cid: ["skein", "--crossing", str(cid)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(VERIFY, SEARCH, RANDOM, SKEIN))
def test_cli_exit_codes_on_any_counts(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "skein":
            path = os.path.join(tmp, "vtref.gauss")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("component: O1+ O2+ U1+ U2+\n")
            argv = ["skein", path, *argv[1:]]
        err = io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.monotonic() - start
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < 10, (argv, elapsed)
