#!/usr/bin/env python3
"""Export a git repository's history in the line-oriented log format.

Produces records of the form consumed by the library / CLI:

    commit: <hash>
    author: <identity>
    date: <RFC3339>
    parent: <hash>          (one line per parent)
    trailer: <Key>: <value> (one line per commit-message trailer)
    ---

Usage:
    python3 tools/export_commit_log.py REPO_DIR [REVISION_RANGE] [--author-field email|name]

The revision range is passed straight to `git log` (e.g. `v1.0.0..HEAD`).
Output goes to stdout, one record at a time as `git log` produces it; redirect it
into your evidence file. If `git log` fails, its message is on stderr and the exit code is 2.
"""

import argparse
import subprocess
import sys
from typing import Iterable, Iterator, TextIO

RECORD_SEP = "\x1e"
FIELD_SEP = "\x1f"
READ_SIZE = 1 << 16  # characters of git's output read at a time


def split_records(chunks: Iterable[str]) -> Iterator[str]:
    """The text between record separators in ``chunks``, one record at a time as each is complete."""
    pending = ""
    for chunk in chunks:
        *complete, pending = (pending + chunk).split(RECORD_SEP)
        yield from complete
    yield pending


def render(record: str) -> str:
    """One record of git's output in the log format; "" for the empty text before the first separator."""
    if not record.strip():
        return ""
    commit, author, date, parents, trailers = record.split(FIELD_SEP)
    lines = [f"commit: {commit.strip()}", f"author: {author.strip()}", f"date: {date.strip()}"]
    lines.extend(f"parent: {parent}" for parent in parents.split())
    lines.extend(f"trailer: {trailer}" for trailer in map(str.strip, trailers.splitlines()) if trailer)
    lines.append("---")
    return "\n".join(lines) + "\n"


def export(repo: str, revision_range: str | None, author_field: str, out: TextIO) -> None:
    """Write the history to ``out`` one record at a time, as ``git log`` produces it.

    Git's own error messages go to this process's stderr; a failed ``git log`` raises
    :class:`subprocess.CalledProcessError`.
    """
    ident = "%ae" if author_field == "email" else "%an"
    pretty = RECORD_SEP + FIELD_SEP.join(["%H", ident, "%aI", "%P", "%(trailers:only,unfold)"])
    cmd = ["git", "-C", repo, "log", "--reverse", f"--pretty=format:{pretty}"]
    if revision_range:
        cmd.append(revision_range)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as git:
        for record in split_records(iter(lambda: git.stdout.read(READ_SIZE), "")):
            out.write(render(record))
    if git.returncode:
        raise subprocess.CalledProcessError(git.returncode, cmd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("repo", help="path to the git working directory")
    parser.add_argument("range", nargs="?", default=None, help="revision range for git log")
    parser.add_argument("--author-field", choices=("email", "name"), default="email")
    args = parser.parse_args(argv)
    try:
        export(args.repo, args.range, args.author_field, sys.stdout)
    except subprocess.CalledProcessError:
        return 2  # git has said why on stderr
    return 0


if __name__ == "__main__":
    sys.exit(main())
