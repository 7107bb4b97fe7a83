"""CLI transcripts: every subcommand's stdout and exit status are pinned.

Each file under ``tests/goldens/cli/`` is one seeded invocation::

    $ repro <argv...>
    exit <status>
    <stdout, verbatim>

The test replays the argv through :func:`repro.cli.main` and compares
stdout byte for byte, plus the exit status.  Every run is deterministic
and takes well under a second.  If an output change is intentional,
regenerate the file from the invocation on its first line and say so in
the commit.
"""

import argparse
import io
import pathlib
import shlex
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens" / "cli"
TRANSCRIPTS = sorted(GOLDEN_DIR.glob("*.txt"))


def _parse(path: pathlib.Path):
    command, status, stdout = path.read_text().split("\n", 2)
    assert command.startswith("$ repro "), path
    assert status.startswith("exit "), path
    return shlex.split(command[len("$ repro "):]), int(status[len("exit "):]), stdout


def test_every_subcommand_is_pinned():
    pinned = {_parse(path)[0][0] for path in TRANSCRIPTS}
    (subcommands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert pinned == set(subcommands.choices)


@pytest.mark.parametrize("path", TRANSCRIPTS, ids=lambda path: path.stem)
def test_transcript_replays_byte_for_byte(path):
    argv, status, expected = _parse(path)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        got = main(argv)
    assert buffer.getvalue() == expected
    assert got == status
