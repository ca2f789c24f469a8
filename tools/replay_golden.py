#!/usr/bin/env python3
"""Replay the golden command-line transcripts, each command in a fresh process.

``tests/test_golden.py`` runs every command of a fixture config through
``riskshare.cli.main`` in one process. This tool replays the same transcripts
with the same protocol (a fresh copy of ``fixtures/`` per config, commands run
from its root in the same order, relative paths), but runs each command as its
own ``<python> -m riskshare.cli`` process, under every interpreter given. A state
that leaks from one call to the next in-process cannot pass here, and the
transcripts are checked on interpreters that the test suite does not run on.

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

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
#: The transcripts of one config, in the order ``tests/test_golden.py`` runs them; the report runs read payout.json.
RUN_ORDER = [
    "validate", "game", "shapley", "shapley-json", "payout", "payout-out", "plan", "plan-out",
    "report-markdown", "report-csv",
]


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def transcript(argv, code, out, err, written) -> str:
    """As ``tests/test_golden.py`` renders one run: its command, exit code, output and the files it wrote."""
    parts = [f"$ riskshare {' '.join(argv)}", f"exit {code}", "--- stdout", out, "--- stderr", err]
    for name, data in written.items():
        parts += [f"--- file {name}", data.decode("utf-8")]
    return "\n".join(parts)


def replay(python: str, version: str, golden: Path) -> bool:
    """Replay every config's transcripts under ``python``; False at the first difference, after printing its diff."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    for config in sorted(p for p in golden.glob("*/*") if p.is_dir()):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            shutil.copytree(FIXTURES, work, dirs_exist_ok=True)
            for name in RUN_ORDER:
                path = config / f"{name}.txt"
                expected = path.read_text(encoding="utf-8")
                argv = expected.split("\n", 1)[0].removeprefix("$ riskshare ").split(" ")
                before = snapshot(work)
                done = subprocess.run([python, "-m", "riskshare.cli", *argv], cwd=work, env=env, capture_output=True)
                after = snapshot(work)
                written = {k: v for k, v in after.items() if before.get(k) != v}
                got = transcript(argv, done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8"), written)
                shown = path.relative_to(golden)
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
