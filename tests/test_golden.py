"""Pinned command-line output on every fixture config.

Each run's exit code, stdout, stderr and the files it writes are rendered as
one text and compared byte for byte with the file of the same name under
``tests/golden/<fixture>/<config>/``. The runs and the format are those of
``tools/replay_golden.py``, which replays them one process per command. The
runs use a copy of the fixtures and relative paths, so the transcripts name no
machine path.
A golden file changes only by hand, together with the output change it records.
"""

import importlib.util
import shutil
import warnings
from pathlib import Path

import pytest

from riskshare import parse_report, render_report
from riskshare.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_golden.py"


def _load_replay_golden():
    """``tools/replay_golden.py``, the stdlib-only tool that defines the runs and the transcript format."""
    spec = importlib.util.spec_from_file_location("replay_golden", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


replay_golden = _load_replay_golden()
GOLDEN, FIXTURES = replay_golden.GOLDEN, replay_golden.FIXTURES
CONFIGS = sorted(str(p.relative_to(FIXTURES)) for p in FIXTURES.glob("*/*config*.json"))


@pytest.mark.parametrize("config", CONFIGS)
def test_fixture_config_output_is_pinned(config, tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for name, expected, got in replay_golden.transcripts(config, GOLDEN, tmp_path, run):
        assert got == expected, name


#: Golden runs whose stderr carries a warning finding of the commit-log reader or of the risk delta.
WARNING_RUNS = [
    "mixed_mitigation/payout_config/payout",
    "worked_example/mining_config/validate",
    "worked_example/mining_config/payout",
    "worked_example/mining_config/plan",
]


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("run", WARNING_RUNS)
def test_warning_filters_change_no_output(run, action, tmp_path, monkeypatch, capsys):
    """A run prints its findings itself, so a Python warning filter that turns every warning into an error, or
    drops every warning, leaves its exit code, stdout and stderr as the golden transcript holds them."""
    expected = (GOLDEN / f"{run}.txt").read_text(encoding="utf-8")
    argv = expected.splitlines()[0].split()[2:]  # after "$ riskshare"
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        code = main(argv)
    captured = capsys.readouterr()
    assert replay_golden.transcript(argv, code, captured.out, captured.err, {}) == expected


def test_alias_map_pays_as_the_log_under_canonical_ids(tmp_path, monkeypatch, capsys):
    """The worked example's commits under e-mail identities, mapped back by ``aliases.json``, give the same report."""
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    reports = []
    for config in ("worked_example/mining_config.json", "worked_example/alias_mining_config.json"):
        assert main(["payout", "--config", config]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_every_golden_payout_report_round_trips():
    """Each ``payout.json`` a golden ``payout --out`` wrote reads back and renders to the same bytes."""
    reports = 0
    for path in sorted(GOLDEN.glob("*/*/payout-out.txt")):
        head, written, body = path.read_text(encoding="utf-8").partition("\n--- file payout.json\n")
        assert bool(written) == (head.splitlines()[1] == "exit 0"), path
        if written:
            assert '"linearity": null' in body, path
            assert render_report(parse_report(body), "json") == body, path
            reports += 1
    assert reports > 0
