"""Every preset, the README and CI surfaces and both verify levels write the
bytes pinned in ``tests/data/outputs.sha256``.

Each manifest line holds the sha256 of a command's stdout, the sha256 of its
stderr, its exit code and the command; the test runs the command in process
through ``cli.main``.  Re-pin a line only for a deliberate output change:

    PYTHONPATH=src python tests/test_outputs.py

rewrites the digests and exit codes of the manifest's commands in place.
"""
import contextlib
import hashlib
import io
import shlex
import warnings
from pathlib import Path

import numpy  # noqa: F401 - loaded here, so a notice numpy gives at import is no command's stderr
import pytest

from isingcontrol.cli import main

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"
LINES = MANIFEST.read_text().splitlines()


def command(line: str) -> str:
    return line.split(None, 3)[3]


def digests(cmd: str) -> str:
    """The manifest line of ``cmd``: its stdout and stderr digests and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")      # a warning would bypass the captured stderr
        code = main(shlex.split(cmd))
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{sha[0]} {sha[1]} {code} {cmd}"


@pytest.mark.parametrize("line", LINES, ids=command)
def test_output_matches_manifest(line):
    assert digests(command(line)) == line


if __name__ == "__main__":
    MANIFEST.write_text("".join(digests(command(line)) + "\n" for line in LINES))
