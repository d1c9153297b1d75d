"""The CLI contract under fuzzed input: every short text in the diagram file
format, valid or not, and every short byte string, ends in exit 0, 1 or 2
and never in a traceback."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from vconway.cli import main

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
