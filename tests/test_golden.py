"""Pinned command-line output on every fixture config.

Each run's exit code, stdout, stderr and the files it writes are rendered as
one text (see :func:`transcript`) and compared byte for byte with the file of
the same name under ``tests/golden/<fixture>/<config>/``. The runs use a copy
of the fixtures and relative paths, so the transcripts name no machine path.
A golden file changes only by hand, together with the output change it records.
"""

import shutil
from pathlib import Path

import pytest

from riskshare.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIGS = sorted(str(p.relative_to(FIXTURES)) for p in FIXTURES.glob("*/*config*.json"))

#: ``(name, argv after --config <config>)`` in run order; the report runs read ``payout.json``.
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
    parts = [f"$ riskshare {' '.join(argv)}", f"exit {code}", "--- stdout", out, "--- stderr", err]
    for name, data in written.items():
        parts += [f"--- file {name}", data.decode("utf-8")]
    return "\n".join(parts)


@pytest.mark.parametrize("config", CONFIGS)
def test_fixture_config_output_is_pinned(config, tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    golden = GOLDEN / Path(config).with_suffix("")
    runs = [(name, [argv[0], "--config", config, *argv[1:]]) for name, argv in RUNS] + REPORT_RUNS
    for name, argv in runs:
        before = snapshot(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        after = snapshot(tmp_path)
        written = {k: v for k, v in after.items() if before.get(k) != v}
        got = transcript(argv, code, captured.out, captured.err, written)
        assert got == (golden / f"{name}.txt").read_text(encoding="utf-8"), name


def test_alias_map_pays_as_the_log_under_canonical_ids(tmp_path, monkeypatch, capsys):
    """The worked example's commits under e-mail identities, mapped back by ``aliases.json``, give the same report."""
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    reports = []
    for config in ("worked_example/mining_config.json", "worked_example/alias_mining_config.json"):
        assert main(["payout", "--config", config]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
