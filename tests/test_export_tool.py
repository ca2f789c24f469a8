import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from riskshare import Cycle, cherry_pick_plan, parse_report
from riskshare.cli import main

from conftest import commits_in_cycle, parse_records

TOOL = Path(__file__).resolve().parent.parent / "tools" / "export_commit_log.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")


def git(repo: Path, *args, **env):
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        text=True,
        env={
            "GIT_AUTHOR_NAME": "Alice L",
            "GIT_AUTHOR_EMAIL": "alice@example.org",
            "GIT_COMMITTER_NAME": "Alice L",
            "GIT_COMMITTER_EMAIL": "alice@example.org",
            "GIT_AUTHOR_DATE": "2023-03-04T05:06:07+00:00",
            "GIT_COMMITTER_DATE": "2023-03-04T05:06:07+00:00",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            **env,
        },
    )


def test_export_round_trips_through_parser(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "f.txt").write_text("one\n")
    git(repo, "add", "f.txt")
    git(repo, "commit", "-q", "-m", "initial build scaffolding")
    (repo / "f.txt").write_text("two\n")
    git(repo, "add", "f.txt")
    git(repo, "commit", "-q", "-m", "reject forged user names\n\nSatisfies: U-46365-1")

    out = subprocess.run(
        [sys.executable, str(TOOL), str(repo)], check=True, capture_output=True, text=True
    ).stdout
    records = parse_records(out)
    assert len(records) == 2
    assert records[0].parents == ()
    assert records[1].parents == (records[0].commit_id,)
    assert records[1].author == "alice@example.org"
    assert records[1].trailers == (("Satisfies", "U-46365-1"),)


def test_commit_window_matches_git_across_a_merge(tmp_path):
    """A branch forked before the cycle start and merged after it is inside the window."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    minutes = iter(range(60))

    def commit(name):
        stamp = f"2023-03-04T05:{next(minutes):02d}:00+00:00"
        (repo / f"{name}.txt").write_text(name)
        git(repo, "add", f"{name}.txt")
        git(repo, "commit", "-q", "-m", name, GIT_AUTHOR_DATE=stamp, GIT_COMMITTER_DATE=stamp)
        return git(repo, "rev-parse", "HEAD").stdout.strip()

    commit("root")
    fork = commit("fork")
    main = git(repo, "symbolic-ref", "--short", "HEAD").stdout.strip()
    git(repo, "checkout", "-q", "-b", "feature")
    commit("feature-1")
    git(repo, "checkout", "-q", main)
    start = commit("start")
    commit("after-start")
    git(repo, "checkout", "-q", "feature")
    commit("feature-2")
    git(repo, "checkout", "-q", main)
    stamp = "2023-03-04T06:00:00+00:00"
    git(repo, "merge", "-q", "--no-ff", "-m", "merge", "feature", GIT_AUTHOR_DATE=stamp, GIT_COMMITTER_DATE=stamp)
    end = git(repo, "rev-parse", "HEAD").stdout.strip()

    def rev_list(revisions):
        return set(git(repo, "rev-list", revisions).stdout.split())

    for export_range in (None, f"{fork}..HEAD"):  # the whole history, and one without its root
        argv = [sys.executable, str(TOOL), str(repo)] + ([export_range] if export_range else [])
        records = parse_records(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)
        order = [r.commit_id for r in records]
        for cycle, revisions in [
            (Cycle(from_commit=start, to_commit=end), f"{start}..{end}"),
            (Cycle(from_commit=start), f"{start}..HEAD"),
            (Cycle(to_commit=start), start),
        ]:
            reached = rev_list(revisions)
            expected = [c for c in order if c in reached]
            assert commits_in_cycle(records, cycle) == expected
            if cycle.from_commit is not None:  # one author made every commit, so a plan of that author picks the window
                plan = cherry_pick_plan(records, start, {"alice@example.org"}, to_commit=cycle.to_commit)
                assert list(plan.picks) == expected
        assert len(commits_in_cycle(records, Cycle(from_commit=start))) == 4  # feature-1, after-start, feature-2, merge


def test_exported_file_pays_as_the_fixture_log_does(tmp_path, fixtures_dir, capsys):
    """The worked example's history, committed to git, exported to a file and paid through the command line's
    piece-at-a-time reader, pays exactly what the bundled ``commits.log`` pays."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    history = [
        ("alice", "2023-01-09T08:45:00+00:00", "Release-Tag: v1.0.0"),
        ("alice", "2023-01-10T09:12:00+00:00", "Satisfies: U-46365-1"),
        ("bob", "2023-01-11T14:03:00+00:00", "Satisfies: U-45802-1"),
        ("carol", "2023-01-12T10:41:00+00:00", "Satisfies: U-45802-1"),
        ("alice", "2023-01-13T16:20:00+00:00", "Satisfies: U-45801-1"),
        ("carol", "2023-01-16T11:55:00+00:00", "Satisfies: U-45801-1"),
    ]
    for k, (author, stamp, trailer) in enumerate(history):
        (repo / "f.txt").write_text(f"{k}\n")
        git(repo, "add", "f.txt")
        git(repo, "commit", "-q", "-m", f"change {k}\n\n{trailer}",
            GIT_AUTHOR_NAME=author, GIT_AUTHOR_DATE=stamp, GIT_COMMITTER_DATE=stamp)

    work = tmp_path / "worked_example"
    shutil.copytree(fixtures_dir / "worked_example", work)
    with open(work / "exported.log", "w", encoding="utf-8") as out:
        subprocess.run([sys.executable, str(TOOL), str(repo), "--author-field", "name"], check=True, stdout=out)

    reports = []
    for log in ("commits.log", "exported.log"):
        doc = json.loads((work / "mining_config.json").read_text())
        doc["source"] = {"type": "commit_log", "path": log}  # no cycle: the first commit claims no leaf
        (work / "config.json").write_text(json.dumps(doc))
        assert main(["payout", "--config", str(work / "config.json")]) == 0
        reports.append(parse_report(capsys.readouterr().out))
    assert reports[1] == reports[0]
    assert [(row.player, row.payment.amount_minor) for row in reports[1].payouts] == [
        ("alice", 1062950), ("bob", 354317), ("carol", 708633)
    ]
