import argparse
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from riskshare import mining, parse_report
from riskshare.cli import build_parser, main
from riskshare.config import load_run_config

from conftest import audit_passes

WE = "worked_example"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, fixtures_dir) -> Path:
    shutil.copytree(fixtures_dir / WE, tmp_path / WE)
    shutil.copytree(fixtures_dir / "small_team", tmp_path / "small_team")
    return tmp_path


#: Content errors of the config and of the commit log, as ``(file, config, old text, new text, message)``.
CONTENT_ERRORS = [
    ("mining_config.json", "mining_config.json", '"cycle": {', '"cycle": {"from_time": 0, ',
     "config.source.cycle: a cycle is bounded by commits or by times, not both"),
    ("mining_config.json", "mining_config.json", '"cycle": {"from_commit": "0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091"}',
     '"cycle": {"from_time": 2000000000, "to_time": 1000000000}',
     "config.source.cycle: cycle end time 1000000000 precedes its start time 2000000000"),
    ("payout_config.json", "payout_config.json", '"mode": "sum"', '"mode": ["sum"]',
     "config.mode: expected a string, got array ['sum']"),
    ("commits.log", "mining_config.json", "author: alice\n", "bogus line\n",
     "line 2: malformed line 'bogus line' (expected 'field: value')"),
    ("commits.log", "mining_config.json", "author: bob\n", "author:\n", "line 13: empty 'author' field"),
    ("commits.log", "mining_config.json", "commit: 2c5d8f3b0e4a6172839405b6c7d8e9f0a1b2c3d4\n", "commit:   \n",
     "line 12: empty 'commit' field"),
    ("commits.log", "mining_config.json", "parent: 0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091\n", "parent:\n",
     "line 9: empty 'parent' field"),
    ("commits.log", "mining_config.json", "trailer: Satisfies: U-46365-1\n", "trailer: Satisfies:\n",
     "line 10: trailer 'Satisfies:' has an empty value"),
]

#: Semantic errors of the source evidence, as ``(source section, old text, new text, exit code, error line)``;
#: the edit is made in the source's file, and ``{path}`` stands for that file's path.
SOURCE_ERRORS = [
    ({"type": "commit_log", "path": "commits.log", "cycle": {"from_commit": "0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091"}},
     "Satisfies: U-46365-1", "Satisfies: U-99999-9", 1,
     "validation error: {path}: trailers reference unknown leaf ids: 1b4c7e2a9d3f5061728394a5b6c7d8e9f0a1b2c3->U-99999-9"),
    ({"type": "commit_log", "path": "commits.log", "cycle": {"from_commit": "0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091"}},
     "commit: 0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091", "commit: 0f3a6d1c", 1,
     "validation error: {path}: cycle boundary commit '0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091' not found in the log"),
    ({"type": "subset_results", "path": "subset_results.json"}, '"U-46365-1"', '"U-99999-9"', 1,
     "validation error: {path}: subset result references unknown leaf ids: ['U-99999-9']"),
    ({"type": "coalition_table", "path": "coalition_table.json"},
     '"players": ["A", "B", "C"]', '"players": [%s]' % ", ".join(f'"p{k}"' for k in range(25)), 3,
     "capacity error: {path}: coalition-table:coalition_table.json for 25 players needs 2^25 values (cap 24 players)"),
]


class TestValidate:
    def test_clean_fixture_passes(self, capsys, workdir):
        code, out, _ = run(capsys, "validate", "--config", str(workdir / WE / "payout_config.json"))
        assert code == 0
        assert "0 error(s)" in out

    def test_scale_gap_fails_with_exit_1(self, capsys, workdir):
        model_path = workdir / WE / "risk_model.json"
        doc = json.loads(model_path.read_text())
        doc["scales"]["likelihood"]["categories"][1]["hi"] = "0.3"  # gap before 0.5
        model_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--config", str(workdir / WE / "payout_config.json"))
        assert code == 1
        assert "non-contiguous" in out

    def test_missing_file_reported(self, capsys, workdir):
        table = workdir / WE / "coalition_table.json"
        table.unlink()
        code, out, err = run(capsys, "validate", "--config", str(workdir / WE / "payout_config.json"))
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot read {table}: ")

    @pytest.mark.parametrize("command", ["validate", "shapley", "payout"])
    @pytest.mark.parametrize("name, config, old, new, message", CONTENT_ERRORS,
                             ids=["config-cycle", "config-time-window", "config-mode", "commit-log-line",
                                  "empty-author", "empty-commit", "empty-parent", "empty-trailer-value"])
    def test_content_error_exits_2_naming_its_file(self, capsys, workdir, command, name, config, old, new, message):
        path = workdir / WE / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, command, "--config", str(workdir / WE / config))
        assert (code, out, err) == (2, "", f"input error: {path}: {message}\n")

    @pytest.mark.parametrize("command", ["validate", "shapley", "payout"])
    @pytest.mark.parametrize("source, old, new, exit_code, line", SOURCE_ERRORS,
                             ids=["trailer-leaf", "cycle-boundary", "subset-leaf", "table-capacity"])
    def test_source_error_names_its_file(self, capsys, workdir, command, source, old, new, exit_code, line):
        path = workdir / WE / source["path"]
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["source"] = source
        config = workdir / WE / "source_config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (exit_code, "")
        assert err.splitlines()[-1] == line.format(path=path)  # after any commit-log warning


class TestRiskDiagnostics:
    """A worsening mitigation is one validation warning, and its clamped difference one ClampWarning."""

    WORSENS = "warning: assessments[0]: mitigation worsens both likelihood (1/2 -> 1) and impact (35730 -> 15622700)"
    CLAMP = "warning: ClampWarning: threat 'T1': risk difference [-15622700, -2108035] clamped to [0, 0]"

    @pytest.fixture
    def config(self, workdir) -> str:
        model_path = workdir / WE / "risk_model.json"
        doc = json.loads(model_path.read_text())
        doc["assessments"][0].update(likelihood_before="low", impact_before="low")
        doc["assessments"][0].update(likelihood_after="high", impact_after="critical")
        model_path.write_text(json.dumps(doc))
        return str(workdir / WE / "payout_config.json")

    def test_validate_lists_it_on_stdout_only(self, capsys, config):
        code, out, err = run(capsys, "validate", "--config", config)
        assert (code, out, err) == (0, f"{self.WORSENS}\n0 error(s), 1 warning(s)\n", "")

    @pytest.mark.parametrize("command", ["game", "shapley"])
    def test_other_commands_print_it_once_on_stderr(self, capsys, config, command):
        code, out, err = run(capsys, command, "--config", config)
        assert (code, err) == (0, f"{self.WORSENS}\n")
        assert "worsens" not in out

    def test_payout_also_names_the_clamped_threat(self, capsys, config):
        code, out, err = run(capsys, "payout", "--config", config)
        assert (code, err) == (0, f"{self.WORSENS}\n{self.CLAMP}\n")
        assert json.loads(out)["budget"]["amount_minor"] == 0


class TestShapley:
    def test_joint_feature_phi_line(self, capsys, workdir):
        code, out, _ = run(capsys, "shapley", "--config", str(workdir / "small_team" / "shapley_config.json"))
        assert code == 0
        assert "phi: 1/2 1/2 1" in out
        assert "efficiency=pass" in out
        assert "symmetry=pass" in out
        assert "null-player=pass" in out

    def test_json_format(self, capsys, workdir):
        code, out, _ = run(
            capsys,
            "shapley",
            "--config",
            str(workdir / "small_team" / "shapley_config.json"),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == {"1": "1/2", "2": "1/2", "3": "1"}
        assert doc["grand_value"] == "2"


class TestGame:
    def test_commit_log_source_prints_fix_count_table(self, capsys, workdir):
        code, out, _ = run(capsys, "game", "--config", str(workdir / WE / "mining_config.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["players"] == ["alice", "bob", "carol"]
        values = {tuple(e["coalition"]): e["value"] for e in doc["entries"]}
        assert values[("alice", "carol")] == "2"
        assert values[("alice", "bob", "carol")] == "3"

    def test_subset_results_source_agrees(self, capsys, workdir):
        config = workdir / WE / "subset_config.json"
        config.write_text(
            json.dumps(
                {
                    "risk_model": "risk_model.json",
                    "source": {"type": "subset_results", "path": "subset_results.json"},
                }
            )
        )
        _, out_subset, _ = run(capsys, "game", "--config", str(config))
        _, out_log, _ = run(capsys, "game", "--config", str(workdir / WE / "mining_config.json"))
        assert json.loads(out_subset) == json.loads(out_log)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


#: Risk-model errors, as ``(edit of the worked example's model, the issue validate lists for it)``.
MODEL_MISTAKES = [
    ((("assessments", 0, "impact_before"), "apocalyptic"),
     "assessments[0]: label 'apocalyptic' does not resolve in scale 'customer-data-loss'"),
    ((("threats", 0, "controls", 1, "id"), "C-46365"),
     "tree: control 'C-46365': duplicate id 'C-46365' (also used at control 'C-46365')"),
    ((("scales", "likelihood", "categories", 1, "hi"), "0.3"),
     "scale 'exploit-likelihood': categories[2]: non-contiguous at index 2: lo 1/2 != previous hi 3/10"),
]


def write_model_mistakes(workdir, mistakes) -> Path:
    model_path = workdir / WE / "risk_model.json"
    doc = json.loads(model_path.read_text())
    for (path, value), _ in mistakes:
        _set(doc, path, value)
    model_path.write_text(json.dumps(doc))
    return model_path


class TestPayout:
    def test_worked_example_payments(self, capsys, workdir):
        out_file = workdir / "report.json"
        code, _, err = run(
            capsys,
            "payout",
            "--config",
            str(workdir / WE / "payout_config.json"),
            "--out",
            str(out_file),
        )
        assert code == 0
        report = parse_report(out_file.read_text())
        assert report.budget.amount_minor == 2125900
        payments = {row.player: row.payment.amount_minor for row in report.payouts}
        assert payments == {"A": 1240108, "B": 177158, "C": 708633}
        assert report.provenance.delta is not None
        assert report.provenance.delta.lo == 2125900
        assert report.axioms is not None
        assert report.axioms.efficiency_ok

    def test_output_is_byte_identical_across_runs(self, capsys, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(a))
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_commit_log_pipeline_end_to_end(self, capsys, workdir):
        out_file = workdir / "mined.json"
        code, _, _ = run(
            capsys,
            "payout",
            "--config",
            str(workdir / WE / "mining_config.json"),
            "--out",
            str(out_file),
        )
        assert code == 0
        report = parse_report(out_file.read_text())
        payments = {row.player: row.payment.amount_minor for row in report.payouts}
        # count-based game (v(N)=3): shares (1/2, 1/6, 1/3) of $21,259.00
        assert payments == {"alice": 1062950, "bob": 354317, "carol": 708633}
        assert sum(payments.values()) - 2125900 == report.residual_minor

    @pytest.mark.parametrize(
        "player, got",
        [(None, "null"), (7, "integer 7"), (["alice"], "array ['alice']"), ({"id": "bob"}, "object")],
    )
    def test_alias_that_is_not_a_string_is_input_error(self, capsys, workdir, player, got):
        (workdir / WE / "aliases.json").write_text(json.dumps({"alice@x": "alice", "bob@x": player}))
        doc = json.loads((workdir / WE / "mining_config.json").read_text())
        doc["source"]["aliases"] = "aliases.json"
        config = workdir / WE / "alias_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 2
        assert f"input error: {workdir / WE / 'aliases.json'}: aliases['bob@x']: expected a string, got {got}" in err

    @pytest.mark.parametrize("command", ["game", "shapley", "payout"])
    # the two errors in the order validate lists them: scales, tree, assessments
    @pytest.mark.parametrize("mistakes", [[m] for m in MODEL_MISTAKES] + [[MODEL_MISTAKES[2], MODEL_MISTAKES[0]]],
                             ids=["unknown-label", "duplicate-id", "non-contiguous", "two-errors"])
    def test_invalid_model_fails_validation(self, capsys, workdir, command, mistakes):
        model_path = write_model_mistakes(workdir, mistakes)
        code, out, err = run(capsys, command, "--config", str(workdir / WE / "payout_config.json"))
        assert (code, out) == (1, "")
        assert err == f"validation error: {model_path}: {'; '.join(issue for _, issue in mistakes)}\n"

    def test_invalid_model_writes_no_report(self, capsys, workdir):
        write_model_mistakes(workdir, MODEL_MISTAKES[:1])
        out_file = workdir / "report.json"
        code, out, _ = run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(out_file))
        assert (code, out) == (1, "")
        assert not out_file.exists()

    @pytest.mark.parametrize("mistake", MODEL_MISTAKES, ids=["unknown-label", "duplicate-id", "non-contiguous"])
    def test_validate_still_lists_an_invalid_model_on_stdout(self, capsys, workdir, mistake):
        write_model_mistakes(workdir, [mistake])
        code, out, err = run(capsys, "validate", "--config", str(workdir / WE / "payout_config.json"))
        assert (code, out, err) == (1, f"error: {mistake[1]}\n1 error(s), 0 warning(s)\n", "")

    def test_unparseable_config_is_input_error(self, capsys, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "payout", "--config", str(bad))
        assert code == 2


class TestSolverSettings:
    @staticmethod
    def write_config(workdir, solver, **extra) -> Path:
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc.update(solver=solver, **extra)
        config = workdir / WE / "solver_config.json"
        config.write_text(json.dumps(doc))
        return config

    @pytest.mark.parametrize("command", ["payout", "shapley"])
    def test_zero_samples_exits_1_naming_the_key(self, capsys, workdir, command):
        config = self.write_config(workdir, {"method": "monte-carlo", "samples": 0, "seed": 1})
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 1
        assert "solver.samples" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("samples", 2.7),
            ("samples", 3.0),
            ("samples", "10"),
            ("samples", True),
            ("seed", 1.5),
            ("seed", "1"),
            ("workers", False),
            ("workers", 2.0),
            ("workers", 4),
            ("normalized", "false"),
            ("normalized", 0),
            ("normalized", None),
            ("source.players", 5),
            ("source.players", "ABC"),
            ("source.players[1]", ["A", 2, "C"]),
            ("source.type", ["coalition_table"]),
            ("source.path", 7),
            ("source.aliases", {"alice": "A"}),
            ("mode", ["sum"]),
            ("mode", None),
            ("rounding", ["per-recipient"]),
            ("currency", 840),
            ("solver.method", True),
            ("budget.anchor", 0),
            ("output.format", ["json"]),
            ("output.path", 1),
            ("risk_model", ["risk_model.json"]),
            ("source.cycle.from_time", "2020"),
            ("source.cycle.to_time", 1.5),
            ("source.cycle.from_time", True),
            ("source.cycle.from_commit", 7),
            ("source.cycle.to_commit", ["abc"]),
            ("risk_model", None),
            ("source.aliases", None),
            ("source.players", None),
            ("source.cycle.from_commit", None),
            ("source.cycle.to_commit", None),
            ("source.cycle.from_time", None),
            ("source.cycle.to_time", None),
            ("budget.value", None),
            ("samples", None),
            ("seed", None),
        ],
    )
    def test_mistyped_setting_is_input_error(self, capsys, workdir, key, value):
        solver = {"method": "monte-carlo", "samples": 10, "seed": 1}
        path = f"solver.{key}" if key in ("samples", "seed", "workers") else key
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["solver"] = solver
        *parents, name = path.split("[")[0].split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        node[name] = value
        config = workdir / WE / "solver_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 2
        assert f"config.{path}: " in err


#: Mistakes visible from the config alone, as ``(key, value, location)`` edits of the
#: worked example's commit-log config; a value of None deletes the key.
SOURCE_MISTAKES = [
    ("source", {"type": "commit-log", "path": "commits.log"}, "source.type"),
    ("risk_model", None, "risk_model"),
    ("source", {"type": "coalition_table", "path": "coalition_table.json", "players": ["A", "B"]}, "source.players"),
    ("source", {"type": "attribution", "path": "attribution.json", "cycle": {"from_time": 0}}, "source.cycle"),
    ("source", {"type": "subset_results", "path": "subset_results.json", "aliases": "a.json"}, "source.aliases"),
    ("source", {"type": "attribution", "path": "no_such_attribution.json", "players": ["alice"]}, "source.players"),
    ("source", {"type": "subset_results", "path": "no_such_results.json", "players": ["alice"]}, "source.players"),
    ("source", {"type": "commit_log", "path": "commits.log", "players": []}, "source.players"),
    ("source", {"type": "commit_log", "path": "commits.log", "players": ["alice", "bob", "alice"]}, "source.players"),
    ("source", {"type": "commit_log", "path": "commits.log", "players": ["alice", ""]}, "source.players"),
]


def write_static_config(workdir, key, value) -> Path:
    doc = json.loads((workdir / WE / "mining_config.json").read_text())
    doc["risk_model"] = "no_such_model.json"  # never read: the checks come first
    doc[key] = value
    if value is None:
        del doc[key]
    config = workdir / WE / "static_config.json"
    config.write_text(json.dumps(doc))
    return config


class TestStaticChecks:
    @pytest.mark.parametrize("command", ["payout", "shapley", "game", "plan-cherry-pick"])
    @pytest.mark.parametrize(
        "key, value, location",
        [
            ("mode", "summ", "mode"),
            ("rounding", "per-person", "rounding"),
            ("solver", {"method": "exactly"}, "solver.method"),
            ("solver", {"method": "monte-carlo", "samples": 10}, "solver.seed"),
            ("budget", {"fraction": "1/100", "anchor": "upper-ish"}, "budget.anchor"),
            ("output", {"format": "yaml"}, "output.format"),
            ("budget", {"fraction": "1/100", "anchor": "lower", "value": "5"}, "budget.value"),
            ("solver", {"method": "exact", "samples": 10}, "solver.samples"),
            ("solver", {"method": "exact", "seed": 1}, "solver.seed"),
            ("budget", {"fraction": "3/2", "anchor": "lower"}, "budget.fraction"),
            ("budget", {"fraction": "-1/100", "anchor": "lower"}, "budget.fraction"),
            ("budget", {"fraction": "1/100", "anchor": "explicit"}, "budget.value"),
            *SOURCE_MISTAKES,
        ],
    )
    def test_bad_setting_exits_1_before_any_work(self, capsys, workdir, command, key, value, location):
        config = write_static_config(workdir, key, value)
        (issue,) = load_run_config(config).issues()
        assert issue.location == location
        extra = ["--subset", "alice,carol"] if command == "plan-cherry-pick" else []
        code, out, err = run(capsys, command, "--config", str(config), *extra)
        assert (code, out) == (1, "")
        assert err == f"validation error: {location}: {issue.message}\n"

    @pytest.mark.parametrize(
        "key, value, location, message",
        [
            (*SOURCE_MISTAKES[0], "unknown source type 'commit-log'"),
            (*SOURCE_MISTAKES[1], "source type 'commit_log' needs a risk_model for its threat tree"),
            (*SOURCE_MISTAKES[2], "a document source names its own players"),
            (*SOURCE_MISTAKES[3], "only a commit_log source has a cycle"),
            (*SOURCE_MISTAKES[4], "only a commit_log source reads aliases"),
            (*SOURCE_MISTAKES[5], "a document source names its own players"),
            (*SOURCE_MISTAKES[6], "a document source names its own players"),
            (*SOURCE_MISTAKES[7], "the roster must not be empty"),
            (*SOURCE_MISTAKES[8], "duplicate player id(s) 'alice'"),
            (*SOURCE_MISTAKES[9], "a player id must not be empty"),
        ],
    )
    def test_validate_lists_source_mistakes(self, capsys, workdir, key, value, location, message):
        code, out, err = run(capsys, "validate", "--config", str(write_static_config(workdir, key, value)))
        assert (code, out, err) == (1, f"error: {location}: {message}\n1 error(s), 0 warning(s)\n", "")

    @pytest.mark.parametrize("command", ["validate", "payout", "shapley", "game"])
    def test_normalized_coalition_table_exits_1(self, capsys, workdir, command):
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["normalized"] = True
        config = workdir / WE / "static_config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(config))
        issue = "normalized: a coalition table states its own values"
        if command == "validate":
            assert (code, out, err) == (1, f"error: {issue}\n1 error(s), 0 warning(s)\n", "")
        else:
            assert (code, out, err) == (1, "", f"validation error: {issue}\n")

    @pytest.mark.parametrize("command", ["payout", "shapley"])
    def test_oracle_is_not_a_solver_setting(self, capsys, workdir, command):
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["solver"] = {"method": "oracle"}
        config = workdir / WE / "static_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 1
        assert "validation error: solver.method: unknown solver 'oracle'" in err

    @pytest.mark.parametrize("command", ["payout", "shapley"])
    def test_missing_input_file_stays_input_error(self, capsys, workdir, command):
        (workdir / WE / "coalition_table.json").unlink()
        code, _, err = run(capsys, command, "--config", str(workdir / WE / "payout_config.json"))
        assert code == 2
        assert "coalition_table.json" in err


class TestCommandNeeds:
    """A setting one command needs is checked after the static checks and before any input is read."""

    @pytest.mark.parametrize(
        "command, config, key, value, message",
        [
            ("payout", "payout_config.json", "budget", None, "budget: payout needs a budget section (fraction and anchor)"),
            ("payout", "payout_config.json", "risk_model", None, "risk_model: payout needs a risk_model document"),
            ("plan-cherry-pick", "payout_config.json", None, None, "source.type: plan-cherry-pick needs a commit_log source"),
            (
                "plan-cherry-pick",
                "mining_config.json",
                "source",
                {"type": "commit_log", "path": "commits.log", "cycle": {"from_time": 0, "to_time": 2000000000}},
                "source.cycle.from_commit: plan-cherry-pick needs the base commit",
            ),
        ],
        ids=["payout-budget", "payout-risk-model", "plan-source-type", "plan-base-commit"],
    )
    def test_missing_need_exits_1_before_any_input_is_read(self, capsys, workdir, command, config, key, value, message):
        doc = json.loads((workdir / WE / config).read_text())
        if key is not None:
            doc[key] = value
            if value is None:
                del doc[key]
        for path in (workdir / WE).iterdir():
            path.unlink()
        config = workdir / "needs_config.json"
        config.write_text(json.dumps(doc))
        extra = ["--subset", "alice,carol"] if command == "plan-cherry-pick" else []
        code, out, err = run(capsys, command, "--config", str(config), *extra)
        assert (code, out, err) == (1, "", f"validation error: {message}\n")


#: The worked example's leaf -> authors evidence, as its commit log attributes it.
WORKED_ATTRIBUTION = [
    {"leaf": "U-46365-1", "authors": ["alice"]},
    {"leaf": "U-45802-1", "authors": ["bob", "carol"]},
    {"leaf": "U-45801-1", "authors": ["alice", "carol"]},
]


class TestRoster:
    """A document names its roster in its ``players`` key, a commit log in ``source.players``; neither is dropped."""

    @staticmethod
    def write_source(workdir, kind, roster=None, **source) -> Path:
        """The commit-log config with a ``kind`` source.

        A document gets the worked example's rows and ``roster``. Subset results with a roster also get
        the coalitions with dave, each passing what it passes without him.
        """
        doc = json.loads((workdir / WE / "mining_config.json").read_text())
        if kind == "commit_log":
            doc["source"].update(source)
        else:
            if kind == "attribution":
                rows = {"attribution": WORKED_ATTRIBUTION}
            else:
                results = json.loads((workdir / WE / "subset_results.json").read_text())["results"]
                with_dave = [{**r, "subset": r["subset"] + ["dave"]} for r in results]
                rows = {"results": results if roster is None else results + with_dave}
            players = {} if roster is None else {"players": roster}
            (workdir / WE / f"{kind}.json").write_text(json.dumps({**players, **rows}))
            doc["source"] = {"type": kind, "path": f"{kind}.json", **source}
        config = workdir / WE / "roster_config.json"
        config.write_text(json.dumps(doc))
        return config

    @pytest.mark.parametrize("kind", ["attribution", "subset_results", "commit_log"])
    def test_roster_only_player_is_paid_nothing(self, capsys, workdir, kind):
        roster = ["alice", "bob", "carol", "dave"]
        if kind == "commit_log":
            config = self.write_source(workdir, kind, players=roster)
        else:
            config = self.write_source(workdir, kind, roster)
        code, out, _ = run(capsys, "payout", "--config", str(config))
        assert code == 0
        report = parse_report(out)
        assert [row.player for row in report.payouts] == roster
        dave = report.payouts[3]
        assert (dave.phi, dave.payment.amount_minor) == (0, 0)
        assert [row.phi for row in report.payouts[:3]] == [Fraction(3, 2), Fraction(1, 2), Fraction(1)]
        assert report.axioms.null_player_violations == () and audit_passes(report.axioms)

    @pytest.mark.parametrize("kind", ["attribution", "subset_results"])
    @pytest.mark.parametrize("command", ["validate", "shapley", "payout"])
    def test_config_roster_beside_a_document_roster_exits_1(self, capsys, workdir, kind, command):
        config = self.write_source(workdir, kind, ["alice", "bob", "carol", "dave"], players=["alice", "bob", "carol"])
        code, out, err = run(capsys, command, "--config", str(config))
        issue = "source.players: a document source names its own players"
        if command == "validate":
            assert (code, out, err) == (1, f"error: {issue}\n1 error(s), 0 warning(s)\n", "")
        else:
            assert (code, out, err) == (1, "", f"validation error: {issue}\n")

    @pytest.mark.parametrize("kind", ["attribution", "subset_results"])
    def test_document_roster_is_inferred_from_its_rows(self, capsys, workdir, kind):
        code, out, _ = run(capsys, "shapley", "--config", str(self.write_source(workdir, kind)))
        assert code == 0
        assert out.splitlines()[:2] == ["players: alice bob carol", "method: exact-subset"]

    def test_source_naming_no_player_exits_1(self, capsys, workdir):
        path = workdir / WE / "attribution.json"
        config = self.write_source(workdir, "attribution")
        path.write_text(json.dumps({"attribution": [{"leaf": "U-46365-1", "authors": []}]}))
        code, out, err = run(capsys, "shapley", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"validation error: {path}: no players named by the source and none declared\n"

    @pytest.mark.parametrize("case", ["table-roster", "attribution-roster", "attribution-authors"])
    @pytest.mark.parametrize("command", ["validate", "shapley", "payout"])
    def test_empty_player_id_exits_1_naming_the_source(self, capsys, workdir, case, command):
        if case == "table-roster":
            config, source = workdir / WE / "payout_config.json", workdir / WE / "coalition_table.json"
            source.write_text(source.read_text().replace('"players": ["A", "B", "C"]', '"players": ["A", "B", ""]'))
        elif case == "attribution-roster":
            config, source = self.write_source(workdir, "attribution", ["alice", "", "carol"]), workdir / WE / "attribution.json"
        else:
            config, source = self.write_source(workdir, "attribution"), workdir / WE / "attribution.json"
            source.write_text(source.read_text().replace('["bob", "carol"]', '["", "carol"]'))
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"validation error: {source}: a player id must not be empty"

    @pytest.mark.parametrize("command", ["validate", "shapley", "payout"])
    def test_empty_alias_value_exits_2_naming_the_alias_file(self, capsys, workdir, command):
        aliases = workdir / WE / "aliases.json"
        aliases.write_text(json.dumps({"bob": ""}))
        config = self.write_source(workdir, "commit_log", aliases="aliases.json")
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"input error: {aliases}: aliases['bob']: a player id must not be empty"

    @pytest.mark.parametrize("kind", ["coalition_table", "attribution", "subset_results"])
    @pytest.mark.parametrize("command", ["validate", "shapley"])
    def test_bare_list_document_exits_2_naming_its_file(self, capsys, workdir, kind, command):
        config = workdir / WE / "payout_config.json" if kind == "coalition_table" else self.write_source(workdir, kind)
        path = workdir / WE / f"{kind}.json"
        doc = json.loads(path.read_text())
        (rows,) = (value for key, value in doc.items() if key != "players")
        path.write_text(json.dumps(rows))
        code, out, err = run(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        prefix = f"input error: {path}: document: expected an object, got array "
        assert err.startswith(prefix + "[{") and err.endswith("…\n")
        assert len(err) == len(prefix) + 62

    def test_unknown_ids_are_named_alike_under_any_hash_seed(self, workdir):
        config = self.write_source(workdir, "commit_log", players=["alice"])
        errors = []
        for hash_seed in ("0", "3"):
            env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                   "PYTHONHASHSEED": hash_seed}
            done = subprocess.run([sys.executable, "-m", "riskshare.cli", "shapley", "--config", str(config)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stdout) == (1, "")
            errors.append(done.stderr)
        assert errors[0] == errors[1]
        log = workdir / WE / "commits.log"
        assert errors[0].splitlines()[-1] == f"validation error: {log}: unknown players 'bob', 'carol'"


#: Each input file a run reads, with the config that reads it; ``report`` reads the stored report ``r.json``.
INPUTS = [
    ("payout_config.json", "payout_config.json"),
    ("risk_model.json", "payout_config.json"),
    ("coalition_table.json", "payout_config.json"),
    ("commits.log", "mining_config.json"),
    ("aliases.json", "alias_config.json"),
    ("r.json", None),
]


class TestUnreadableInput:
    @pytest.mark.parametrize("name, config", INPUTS, ids=[name for name, _ in INPUTS])
    def test_input_that_is_not_utf8_exits_2_naming_it(self, capsys, workdir, name, config):
        doc = json.loads((workdir / WE / "mining_config.json").read_text())
        doc["source"]["aliases"] = "aliases.json"
        (workdir / WE / "alias_config.json").write_text(json.dumps(doc))
        (workdir / WE / "aliases.json").write_text("{}")
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(workdir / WE / "r.json"))
        path = workdir / WE / name
        path.write_bytes(b'{"caf\xe9": 1}')
        argv = ["report", str(path)] if config is None else ["payout", "--config", str(workdir / WE / config)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        last = err.splitlines()[-1]  # after any warning the commit log raised
        assert last.startswith(f"input error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


#: Every command that reads the commit log of ``mining_config.json``, with the arguments it needs.
LOG_COMMANDS = [["validate"], ["game"], ["shapley"], ["payout"], ["plan-cherry-pick", "--subset", "alice"]]


class TestStreamedCommitLog:
    """The commit log is read a piece at a time; its faults still exit 2 with a located message."""

    def run_log(self, capsys, workdir, command, data: bytes):
        log = workdir / WE / "commits.log"
        log.write_bytes(data)
        code, out, err = run(capsys, command[0], "--config", str(workdir / WE / "mining_config.json"), *command[1:])
        assert (code, out) == (2, "")
        return log, err.splitlines()[-1]

    @pytest.mark.parametrize("command", LOG_COMMANDS, ids=lambda command: command[0])
    def test_undecodable_bytes_beyond_the_first_piece_quote_their_file_offset(self, capsys, workdir, command):
        data = (workdir / WE / "commits.log").read_bytes() + b"\n" * (2 * mining._PIECE_SIZE) + b"caf\xe9\n"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        log, last = self.run_log(capsys, workdir, command, data)
        assert last == f"input error: cannot read {log}: {whole.value}"
        assert f"decode byte 0xe9 in position {len(data) - 2}: " in last

    @pytest.mark.parametrize("command", LOG_COMMANDS, ids=lambda command: command[0])
    def test_content_error_is_reported_before_later_undecodable_bytes(self, capsys, workdir, command):
        data = b"commit: a\nbogus\n" + b"\n" * (2 * mining._PIECE_SIZE) + b"\xff\n"
        log, last = self.run_log(capsys, workdir, command, data)
        assert last == f"input error: {log}: line 2: malformed line 'bogus' (expected 'field: value')"

    @pytest.mark.parametrize("command", LOG_COMMANDS, ids=lambda command: command[0])
    def test_log_that_is_a_directory_exits_2_naming_it(self, capsys, workdir, command):
        log = workdir / WE / "commits.log"
        log.unlink()
        log.mkdir()
        code, out, err = run(capsys, command[0], "--config", str(workdir / WE / "mining_config.json"), *command[1:])
        assert (code, out, err) == (2, "", f"input error: cannot read {log}: [Errno 21] Is a directory: '{log}'\n")


class TestCoalitionTableShape:
    @pytest.mark.parametrize(
        "edit, location",
        [
            (lambda doc: doc.update(default_zero="false"), "default_zero: "),
            (lambda doc: doc.update(entries={"coalition": []}), "entries: "),
            (lambda doc: doc["entries"].__setitem__(3, 5), "entries[3]: "),
            (lambda doc: doc["entries"][5].update(coalition="AC"), "entries[5].coalition: "),
            (lambda doc: doc["entries"][2].update(coalition=None), "entries[2].coalition: "),
            (lambda doc: doc.update(players="ABC"), "players: "),
        ],
        ids=["default_zero", "entries", "row", "coalition-string", "coalition-null", "players"],
    )
    def test_malformed_table_is_input_error(self, capsys, workdir, edit, location):
        table = workdir / WE / "coalition_table.json"
        doc = json.loads(table.read_text())
        edit(doc)
        table.write_text(json.dumps(doc))
        code, _, err = run(capsys, "game", "--config", str(workdir / WE / "payout_config.json"))
        assert code == 2
        assert location in err


RISK_ROW = "threat, likelihood_before, impact_before, likelihood_after, impact_after"
#: ``(input file, path of the object that gains the key, the key's location, the keys the message expects)``;
#: the key is ``extra``, or the top-level ``assessments`` misspelt.
UNKNOWN_KEYS = [
    ("risk_model.json", (), "assesments", "scales, threats, assessments"),
    ("risk_model.json", ("scales",), "scales.extra", "likelihood, impact"),
    ("risk_model.json", ("scales", "likelihood"), "scales.likelihood.extra", "name, kind, categories"),
    ("risk_model.json", ("scales", "impact", "categories", 1), "scales.impact.categories[1].extra", "label, lo, hi"),
    ("risk_model.json", ("threats", 0), "threats[0].extra", "id, label, controls"),
    ("risk_model.json", ("threats", 0, "controls", 2), "threats[0].controls[2].extra", "id, label, leaves"),
    ("risk_model.json", ("threats", 0, "controls", 0, "leaves", 0), "threats[0].controls[0].leaves[0].extra",
     "id, label"),
    ("risk_model.json", ("assessments", 0), "assessments[0].extra", RISK_ROW),
    ("coalition_table.json", (), "extra", "players, entries, default_zero"),
    ("coalition_table.json", ("entries", 3), "entries[3].extra", "coalition, value"),
    ("subset_results.json", (), "extra", "players, results"),
    ("subset_results.json", ("results", 2), "results[2].extra", "subset, passing"),
    ("attribution.json", (), "extra", "players, attribution"),
    ("attribution.json", ("attribution", 0), "attribution[0].extra", "leaf, authors"),
]


class TestUnknownInputKey:
    """Every object of every input document holds only its documented keys, as config and reports do."""

    @pytest.mark.parametrize("name, path, location, keys", UNKNOWN_KEYS,
                             ids=[f"{case[0][:-5]}:{case[2]}" for case in UNKNOWN_KEYS])
    def test_unknown_key_exits_2_naming_it(self, capsys, workdir, name, path, location, keys):
        attribution = [{"leaf": leaf, "authors": ["alice"]} for leaf in ("U-46365-1", "U-45802-1", "U-45801-1")]
        (workdir / WE / "attribution.json").write_text(json.dumps({"players": ["alice"], "attribution": attribution}))
        source = name if name != "risk_model.json" else "coalition_table.json"
        config = {"risk_model": "risk_model.json", "source": {"type": source[:-5], "path": source}}
        (workdir / WE / "key_config.json").write_text(json.dumps(config))
        assert run(capsys, "game", "--config", str(workdir / WE / "key_config.json"))[0] == 0
        doc = json.loads((workdir / WE / name).read_text())
        node = doc
        for step in path:
            node = node[step]
        if location == "assesments":
            node["assesments"] = node.pop("assessments")
        else:
            node["extra"] = 1
        (workdir / WE / name).write_text(json.dumps(doc))
        code, out, err = run(capsys, "game", "--config", str(workdir / WE / "key_config.json"))
        expected = f"input error: {workdir / WE / name}: {location}: unknown key (expected one of {keys})\n"
        assert (code, out, err) == (2, "", expected)


class TestConfigShape:
    @staticmethod
    def write_config(workdir, path, value) -> Path:
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        *parents, key = path.split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
        config = workdir / WE / "shape_config.json"
        config.write_text(json.dumps(doc))
        return config

    @pytest.mark.parametrize(
        "path, value",
        [
            ("source", "coalition_table.json"),
            ("source.cycle", []),
            ("solver", "exact"),
            ("budget", [1]),
            ("output", "json"),
            ("output", None),
        ],
    )
    def test_section_that_is_not_an_object_is_input_error(self, capsys, workdir, path, value):
        config = self.write_config(workdir, path, value)
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 2
        assert f"config.{path}: expected an object" in err

    @pytest.mark.parametrize(
        "path",
        [
            "rounding_mode",
            "source.alias",
            "source.cycle.from",
            "solver.workers",
            "budget.anchors",
            "output.fmt",
            "output.path",
        ],
    )
    def test_unknown_key_is_input_error(self, capsys, workdir, path):
        config = self.write_config(workdir, path, "x")
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 2
        assert f"config.{path}: unknown key" in err


class TestCapacity:
    LEAVES = ("U-46365-1", "U-45802-1", "U-45801-1")

    def test_game_over_cap_exits_3(self, capsys, workdir):
        attribution = workdir / WE / "attribution.json"
        players = [f"dev{k:02d}" for k in range(26)]
        attribution.write_text(
            json.dumps(
                {
                    "players": players,
                    "attribution": [{"leaf": "U-46365-1", "authors": players[:2]}],
                }
            )
        )
        config = workdir / WE / "big_config.json"
        config.write_text(
            json.dumps(
                {
                    "risk_model": "risk_model.json",
                    "source": {"type": "attribution", "path": "attribution.json"},
                    "solver": {"method": "exact"},
                }
            )
        )
        code, out, _ = run(capsys, "shapley", "--config", str(config))
        assert code == 0
        assert "symmetry=pass null-player=pass" in out
        code, _, err = run(capsys, "game", "--config", str(config))
        assert code == 3
        assert "capacity" in err

    @pytest.mark.parametrize(
        "kind, rows",
        [
            ("coalition_table", {"entries": [{"coalition": [], "value": 0}]}),
            ("subset_results", {"results": [{"subset": [], "passing": []}]}),
        ],
    )
    def test_40_player_table_input_exits_3(self, capsys, workdir, kind, rows):
        (workdir / WE / "big.json").write_text(json.dumps({"players": [f"dev{k:02d}" for k in range(40)], **rows}))
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["source"] = {"type": kind, "path": "big.json"}
        config = workdir / WE / "big_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 3
        assert "for 40 players needs 2^40 values (cap 24 players)" in err

    def test_sampled_standard_error_beyond_float_range_exits_3(self, capsys, workdir):
        table = {"players": ["a", "b"], "entries": [
            {"coalition": [], "value": "0"}, {"coalition": ["a"], "value": "1e400"},
            {"coalition": ["b"], "value": "0"}, {"coalition": ["a", "b"], "value": "1"},
        ]}
        (workdir / WE / "huge.json").write_text(json.dumps(table))
        config = workdir / WE / "huge_config.json"
        doc = {"source": {"type": "coalition_table", "path": "huge.json"}, "solver": {"method": "exact"}}
        config.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "shapley", "--config", str(config))
        assert code == 0
        doc["solver"] = {"method": "monte-carlo", "samples": 10, "seed": 1}
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, "shapley", "--config", str(config))
        assert (code, out) == (3, "")
        assert err == "capacity error: standard error of 'a' is beyond float range; use solver method 'exact'\n"

    def test_40_player_subset_results_are_checked_before_the_cap(self, capsys, workdir):
        rows = {"results": [{"subset": [], "passing": []}, {"subset": ["dev00"], "passing": ["zzz"]}]}
        (workdir / WE / "big.json").write_text(json.dumps({"players": [f"dev{k:02d}" for k in range(40)], **rows}))
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["source"] = {"type": "subset_results", "path": "big.json"}
        config = workdir / WE / "big_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 1
        assert err == f"validation error: {workdir / WE / 'big.json'}: subset result references unknown leaf ids: ['zzz']\n"

    def test_exact_payout_for_40_committers_is_audited(self, capsys, workdir):
        log = "".join(
            f"commit: {k:040x}\nauthor: dev{k:02d}\ndate: 2023-02-01T00:00:00+00:00\n"
            f"trailer: Satisfies: {self.LEAVES[k % 3]}\n---\n"
            for k in range(40)
        )
        (workdir / WE / "team.log").write_text(log)
        doc = json.loads((workdir / WE / "mining_config.json").read_text())
        doc["source"] = {"type": "commit_log", "path": "team.log"}
        config = workdir / WE / "team_config.json"
        config.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "payout", "--config", str(config))
        assert code == 0
        report = parse_report(out)
        # each leaf's unit value is split equally among its 14, 13 and 13 authors
        assert [row.phi for row in report.payouts[:3]] == [Fraction(1, 14), Fraction(1, 13), Fraction(1, 13)]
        assert len(report.payouts) == 40
        assert report.provenance.solver == "exact-subset"
        assert audit_passes(report.axioms)
        assert report.axioms.symmetry_violations == () and report.axioms.null_player_violations == ()


class TestPlanCherryPick:
    def test_plan_for_subset(self, capsys, workdir):
        out_file = workdir / "plan.json"
        code, _, _ = run(
            capsys,
            "plan-cherry-pick",
            "--config",
            str(workdir / WE / "mining_config.json"),
            "--subset",
            "alice,carol",
            "--out",
            str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        picks = doc["steps"][3]["commits"]
        assert len(picks) == 4
        assert doc["base_commit"].startswith("0f3a6d1c")

    def test_requires_commit_log_source(self, capsys, workdir):
        code, _, err = run(
            capsys,
            "plan-cherry-pick",
            "--config",
            str(workdir / WE / "payout_config.json"),
            "--subset",
            "A",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "cycle, message",
        [
            ({"from_commit": "nope"}, "cycle boundary commit 'nope' not found in the log"),
            ({"from_commit": "0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091", "to_commit": "nope"},
             "cycle boundary commit 'nope' not found in the log"),
            ({"from_commit": "2c5d8f3b0e4a6172839405b6c7d8e9f0a1b2c3d4",
              "to_commit": "1b4c7e2a9d3f5061728394a5b6c7d8e9f0a1b2c3"},
             "cycle end '1b4c7e2a9d3f5061728394a5b6c7d8e9f0a1b2c3' precedes its start "
             "'2c5d8f3b0e4a6172839405b6c7d8e9f0a1b2c3d4'"),
        ],
        ids=["from-commit", "to-commit", "end-before-start"],
    )
    def test_source_error_names_the_log_as_validate_does(self, capsys, workdir, cycle, message):
        config = workdir / WE / "mining_config.json"
        doc = json.loads(config.read_text())
        doc["source"]["cycle"] = cycle
        config.write_text(json.dumps(doc))
        validated = run(capsys, "validate", "--config", str(config))
        planned = run(capsys, "plan-cherry-pick", "--config", str(config), "--subset", "alice,carol")
        assert planned == validated
        code, out, err = planned
        assert (code, out) == (1, "")
        # after any commit-log warning
        assert err.splitlines()[-1] == f"validation error: {workdir / WE / 'commits.log'}: {message}"


    @staticmethod
    def write_source(workdir, source) -> Path:
        """The commit-log config with ``source`` merged into its source section; an alias map renames alice."""
        (workdir / WE / "aliases.json").write_text(json.dumps({"alice": "alicia"}))
        config = workdir / WE / "mining_config.json"
        doc = json.loads(config.read_text())
        doc["source"].update(source)
        config.write_text(json.dumps(doc))
        return config

    @pytest.mark.parametrize(
        "source, subset, unknown",
        [
            ({}, "alise", "'alise'"),
            ({}, "zed,alice,alise", "'alise', 'zed'"),
            ({"players": ["alice", "carol", "dave"]}, "bob,dave", "'bob'"),
            ({"aliases": "aliases.json"}, "alice", "'alice'"),
        ],
        ids=["misspelt", "two-unknown", "not-in-players", "aliased-away"],
    )
    def test_unknown_subset_id_exits_1_naming_it(self, capsys, workdir, source, subset, unknown):
        config = self.write_source(workdir, source)
        out_file = workdir / "plan.json"
        code, out, err = run(capsys, "plan-cherry-pick", "--config", str(config), "--subset", subset, "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"validation error: --subset: unknown player id(s) {unknown}"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "source, subset",
        [({"players": ["alice", "carol", "dave"]}, "dave"), ({"aliases": "aliases.json"}, "alicia,bob")],
        ids=["roster-only-player", "alias-target"],
    )
    def test_subset_id_from_the_roster_or_the_resolved_log_is_known(self, capsys, workdir, source, subset):
        config = self.write_source(workdir, source)
        code, out, _ = run(capsys, "plan-cherry-pick", "--config", str(config), "--subset", subset)
        assert code == 0
        assert json.loads(out)["subset"] == sorted(subset.split(","))


class TestReport:
    def test_round_trip_and_re_render(self, capsys, workdir):
        report_path = workdir / "r.json"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        code, out, _ = run(capsys, "report", str(report_path), "--format", "markdown")
        assert code == 0
        assert "12401.08" in out
        code, out, _ = run(capsys, "report", str(report_path), "--format", "json")
        assert parse_report(out) == parse_report(report_path.read_text())

    def test_payout_out_into_missing_directory_is_io_error(self, capsys, workdir):
        out_file = workdir / "no_such_dir" / "r.json"
        code, out, err = run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("io error: [Errno 2] No such file or directory: ") and str(out_file) in err
        assert not out_file.parent.exists()

    def test_report_that_is_not_json_is_input_error_naming_the_file(self, capsys, workdir):
        report_path = workdir / "r.json"
        report_path.write_text('{"budget": ')
        code, out, err = run(capsys, "report", str(report_path))
        assert (code, out) == (2, "")
        assert err == f"input error: {report_path}: invalid JSON: Expecting value: line 1 column 12 (char 11)\n"

    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_deeply_nested_json_is_input_error_naming_the_file(self, capsys, workdir, command):
        path = workdir / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["report", str(path)] if command == "report" else ["validate", "--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"input error: {path}: invalid JSON: nested too deeply\n")

    def test_malformed_report_is_input_error_naming_the_field(self, capsys, workdir):
        report_path = workdir / "r.json"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        doc["payouts"][0]["phi"] = 0.1
        report_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", str(report_path))
        assert (code, out) == (2, "")
        assert err == f"input error: {report_path}: payouts[0].phi: expected a string, got float 0.1\n"

    @pytest.mark.parametrize("linearity", ["pass", "fail"])
    def test_report_with_a_linearity_verdict_exits_2(self, capsys, workdir, linearity):
        """The audit checks one game, so a report states no linearity verdict; a stored one is an input error."""
        report_path = workdir / "r.json"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        assert doc["axioms"]["linearity"] is None
        doc["axioms"]["linearity"] = linearity
        report_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", str(report_path))
        assert (code, out) == (2, "")
        assert err == f"input error: {report_path}: axioms.linearity: expected null, got {linearity!r}\n"

    def test_a_line_break_in_the_configured_currency_starts_no_heading(self, capsys, workdir):
        config = workdir / WE / "payout_config.json"
        doc = json.loads(config.read_text())
        doc["currency"] = "USD\n# all payments void"
        config.write_text(json.dumps(doc))
        report_path = workdir / "r.json"
        assert run(capsys, "payout", "--config", str(config), "--out", str(report_path))[0] == 0
        code, out, _ = run(capsys, "report", str(report_path), "--format", "markdown")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("#")] == ["# Security bonus report",
                                                                              "## Fairness audit"]
        assert "- budget: **USD<br># all payments void 21259.00**" in out


class TestParserReuse:
    """``main`` reuses one parser across calls; no option of one call reaches the next.

    ``test_golden`` also runs its commands one after another in one process, so its
    transcripts check the same carry-over incidentally; the two tests below check it
    directly, whatever order the golden cases run in.
    """

    def test_out_of_one_call_is_not_the_next_calls(self, capsys, workdir):
        report_path, out_file = workdir / "r.json", workdir / "x.md"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        assert run(capsys, "report", str(report_path), "--out", str(out_file))[0] == 0
        written = out_file.read_bytes()
        code, out, _ = run(capsys, "report", str(report_path))
        assert code == 0
        assert out == written.decode("utf-8")
        assert out_file.read_bytes() == written

    def test_format_of_one_call_is_not_the_next_calls(self, capsys, workdir):
        config = str(workdir / WE / "payout_config.json")
        code, out, _ = run(capsys, "shapley", "--config", config, "--format", "json")
        assert code == 0 and json.loads(out)["method"] == "exact-subset"
        code, out, _ = run(capsys, "shapley", "--config", config)
        assert code == 0 and out.startswith("players: ")

    def test_usage_error_leaves_the_next_call_intact(self, capsys, workdir, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["payout"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert err.startswith("usage: riskshare payout ")
        assert err.endswith("error: the following arguments are required: --config\n")
        monkeypatch.chdir(workdir)
        code, out, err = run(capsys, "payout", "--config", f"{WE}/payout_config.json")
        golden = (Path(__file__).parent / "golden" / WE / "payout_config" / "payout.txt").read_text(encoding="utf-8")
        assert (code, out, err) == (0, golden.split("--- stdout\n", 1)[1].split("\n--- stderr\n", 1)[0], "")

    def test_parser_is_built_once(self, capsys, workdir, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        report_path = workdir / "r.json"
        code, _, _ = run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        assert code == 0
        assert built[0] == "riskshare"
        built.clear()
        assert run(capsys, "report", str(report_path))[0] == 0
        assert built == []

    def test_import_builds_no_parser(self):
        code = "import riskshare.cli as cli; print(cli.build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
