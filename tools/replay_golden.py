#!/usr/bin/env python3
"""Replay the golden command-line transcripts, each command in a fresh process.

``tests/test_golden.py`` runs every command of a fixture config through
``riskshare.cli.main`` in one process. This tool replays the same transcripts
with the same protocol (a fresh copy of ``fixtures/`` per config, commands run
from its root in the same order, relative paths), but runs each command as its
own ``<python> -W error -m riskshare.cli`` process, under every interpreter
given; both take the runs and the transcript format from :func:`transcripts`.
A state that leaks from one call to the next in-process cannot pass here, and
the transcripts are checked on interpreters that the test suite does not run
on. Every Python warning is an error in the child, so a run whose output
depends on the interpreter's warning filters fails here with its traceback.

Usage (from anywhere; stdlib only)::

    python3 tools/replay_golden.py PYTHON [PYTHON ...]

It prints one line per transcript and interpreter, and stops at the first
transcript that differs, printing a unified diff and exiting 1. Without an
interpreter it replays nothing, claims no pass and exits 2.
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
#: ``(name, argv after --config <config>)`` of a config's transcripts in run order; the report runs read payout.json.
RUNS = [
    ("validate", ["validate"]),
    ("game", ["game"]),
    ("shapley", ["shapley"]),
    ("shapley-json", ["shapley", "--format", "json"]),
    ("payout", ["payout"]),
    ("payout-out", ["payout", "--out", "payout.json"]),
    ("plan", ["plan-cherry-pick", "--subset", "alice,carol"]),
    ("plan-out", ["plan-cherry-pick", "--subset", "alice,carol", "--out", "plan.json"]),
]
REPORT_RUNS = [
    ("report-markdown", ["report", "payout.json", "--format", "markdown"]),
    ("report-csv", ["report", "payout.json", "--format", "csv", "--out", "report.csv"]),
]


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def transcript(argv, code, out, err, written) -> str:
    """One run rendered as its golden file holds it: its command, exit code, output and the files it wrote."""
    parts = [f"$ riskshare {' '.join(argv)}", f"exit {code}", "--- stdout", out, "--- stderr", err]
    for name, data in written.items():
        parts += [f"--- file {name}", data.decode("utf-8")]
    return "\n".join(parts)


def transcripts(config: str, golden: Path, work: Path, run) -> Iterator[tuple[str, str, str]]:
    """Each transcript of ``config`` (a path under ``fixtures/``) in run order: its name, its golden text and the
    text its command gives now.

    ``run(argv)`` runs one command from ``work``, a fresh copy of ``fixtures/``, and returns its exit code, stdout
    and stderr; the golden files are ``golden/<config without .json>/<name>.txt``.
    """
    runs = [(name, [argv[0], "--config", config, *argv[1:]]) for name, argv in RUNS] + REPORT_RUNS
    for name, argv in runs:
        before = snapshot(work)
        code, out, err = run(argv)
        after = snapshot(work)
        written = {k: v for k, v in after.items() if before.get(k) != v}
        expected = (golden / Path(config).with_suffix("") / f"{name}.txt").read_text(encoding="utf-8")
        yield name, expected, transcript(argv, code, out, err, written)


def replay(python: str, version: str, golden: Path) -> bool:
    """Replay every config's transcripts under ``python``; False at the first difference, after printing its diff."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}

    def run(argv):  # from ``work``, the copy of the config being replayed
        done = subprocess.run([python, "-W", "error", "-m", "riskshare.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")

    for config in sorted(p.relative_to(golden).as_posix() for p in golden.glob("*/*") if p.is_dir()):
        with tempfile.TemporaryDirectory() as work:
            shutil.copytree(FIXTURES, work, dirs_exist_ok=True)
            for name, expected, got in transcripts(f"{config}.json", golden, Path(work), run):
                shown = f"{config}/{name}.txt"
                if got != expected:
                    print(f"DIFFERS {version} {shown}")
                    sys.stdout.writelines(difflib.unified_diff(
                        expected.splitlines(keepends=True), got.splitlines(keepends=True),
                        f"golden/{shown}", f"replayed under {python}",
                    ))
                    return False
                print(f"ok {version} {shown}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON", help="interpreters to replay under")
    args = parser.parse_args(argv)
    if not args.pythons:
        print("no interpreter given: nothing replayed, nothing passed", file=sys.stderr)
        return 2
    versions = []
    for python in args.pythons:
        version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        print(f"# replaying under {python} (CPython {version})")
        if not replay(python, version, GOLDEN):
            return 1
        versions.append(version)
    count = sum(1 for _ in GOLDEN.glob("*/*/*.txt"))
    print(f"# all {count} transcripts match under {', '.join(versions)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
