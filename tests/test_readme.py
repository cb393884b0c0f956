"""The shell sessions of README.md, run through ``cli.main``.

Each ``$ cuntzlab ...`` line of a ``sh`` block is split as a shell would
split it, its spec files read from ``bench/fixtures/``, and its stdout
compared with the lines printed under it, up to the next blank line or
command.  The ``eval`` example elides its expression with ``...``, so it
is not run.
"""

import shlex
from pathlib import Path

import pytest

from cuntzlab import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "bench" / "fixtures"


def sessions():
    """(command line, expected stdout) for each command of README's sh
    blocks."""
    out, block, command = [], False, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = line == "```sh"
            command = None
        elif not block:
            continue
        elif line.startswith("$ cuntzlab "):
            command = [line[2:], ""]
            out.append(command)
        elif not line:
            command = None
        elif command is not None:
            command[1] += line + "\n"
    return [tuple(c) for c in out if "..." not in c[0]]


SESSIONS = sessions()
COMMANDS = [line.split()[1] for line, _ in SESSIONS]


def test_sessions_are_found():
    assert COMMANDS == ["equals", "classify", "normalize", "kill", "kill", "witness"]


@pytest.mark.parametrize(
    "line, expected", SESSIONS, ids=[f"{i}-{c}" for i, c in enumerate(COMMANDS)]
)
def test_readme_session(line, expected, capsys):
    argv = shlex.split(line)[1:]
    argv = [str(FIXTURES / a) if a in ("e23.spec", "e24.spec") else a for a in argv]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")
    assert code == 0
