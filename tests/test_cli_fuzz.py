"""The CLI contract under fuzzed input: every short text in the diagram file
format, valid or not, ends in exit 0, 1 or 2 and never in a traceback."""

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

COMMANDS = (["compute"], ["verify", "--moves", "3"], ["orient"], ["skein", "--crossing", "1"])


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_cli_exit_codes_on_any_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.gauss")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command, *options in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, path, *options])
            assert code in (0, 1, 2), (command, text)
