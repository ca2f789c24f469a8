import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from riskshare import parse_report
from riskshare.cli import main

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
        (workdir / WE / "coalition_table.json").unlink()
        code, out, _ = run(capsys, "validate", "--config", str(workdir / WE / "payout_config.json"))
        assert code == 1
        assert "not found" in out


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

    def test_monte_carlo_seed_override_changes_estimate(self, capsys, workdir):
        config = workdir / "small_team" / "mc_config.json"
        config.write_text(
            json.dumps(
                {
                    "source": {"type": "coalition_table", "path": "coalition_table.json"},
                    "solver": {"method": "monte-carlo", "samples": 51, "seed": 1},
                }
            )
        )
        _, out1, _ = run(capsys, "shapley", "--config", str(config), "--format", "json")
        _, out2, _ = run(capsys, "shapley", "--config", str(config), "--format", "json", "--seed", "2")
        _, out3, _ = run(capsys, "shapley", "--config", str(config), "--format", "json")
        assert out1 == out3  # same config, same bytes
        assert json.loads(out1)["seed"] == 1
        assert json.loads(out2)["seed"] == 2


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
        assert f"input error: aliases['bob@x']: expected a string, got {got}" in err

    def test_missing_budget_is_input_error(self, capsys, workdir):
        config = workdir / WE / "nobudget.json"
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        del doc["budget"]
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 2
        assert "budget" in err

    def test_invalid_model_fails_validation(self, capsys, workdir):
        model_path = workdir / WE / "risk_model.json"
        doc = json.loads(model_path.read_text())
        doc["assessments"][0]["impact_before"] = "apocalyptic"
        model_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"))
        assert code == 1
        assert "apocalyptic" in out

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


class TestStaticChecks:
    @pytest.mark.parametrize("command", ["payout", "shapley"])
    @pytest.mark.parametrize(
        "key, value, location",
        [
            ("mode", "summ", "mode"),
            ("rounding", "per-person", "rounding"),
            ("solver", {"method": "exactly"}, "solver.method"),
            ("solver", {"method": "monte-carlo", "samples": 10}, "solver.seed"),
            ("budget", {"fraction": "1/100", "anchor": "upper-ish"}, "budget.anchor"),
            ("output", {"format": "yaml"}, "output.format"),
        ],
    )
    def test_bad_setting_exits_1_before_any_work(self, capsys, workdir, command, key, value, location):
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc[key] = value
        doc["risk_model"] = "no_such_model.json"  # never read: the checks come first
        config = workdir / WE / "static_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 1
        assert f"validation error: {location}: " in err

    @pytest.mark.parametrize("command", ["payout", "shapley"])
    def test_oracle_is_not_a_solver_setting(self, capsys, workdir, command):
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["solver"] = {"method": "oracle"}
        config = workdir / WE / "static_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 1
        assert "validation error: solver.method: unknown solver 'oracle'" in err

    def test_seed_override_satisfies_the_seed_check(self, capsys, workdir):
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["solver"] = {"method": "monte-carlo", "samples": 10}
        config = workdir / WE / "static_config.json"
        config.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "payout", "--config", str(config), "--seed", "3")
        assert code == 0
        assert parse_report(out).provenance.seed == 3

    @pytest.mark.parametrize("command", ["payout", "shapley"])
    def test_missing_input_file_stays_input_error(self, capsys, workdir, command):
        (workdir / WE / "coalition_table.json").unlink()
        code, _, err = run(capsys, command, "--config", str(workdir / WE / "payout_config.json"))
        assert code == 2
        assert "coalition_table.json" in err


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

    def test_40_player_subset_results_are_checked_before_the_cap(self, capsys, workdir):
        rows = {"results": [{"subset": [], "passing": []}, {"subset": ["dev00"], "passing": ["zzz"]}]}
        (workdir / WE / "big.json").write_text(json.dumps({"players": [f"dev{k:02d}" for k in range(40)], **rows}))
        doc = json.loads((workdir / WE / "payout_config.json").read_text())
        doc["source"] = {"type": "subset_results", "path": "big.json"}
        config = workdir / WE / "big_config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "payout", "--config", str(config))
        assert code == 1
        assert err == "validation error: subset result references unknown leaf ids: ['zzz']\n"

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
        assert report.axioms.all_ok
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


class TestReport:
    def test_round_trip_and_re_render(self, capsys, workdir):
        report_path = workdir / "r.json"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        code, out, _ = run(capsys, "report", str(report_path), "--format", "markdown")
        assert code == 0
        assert "12401.08" in out
        code, out, _ = run(capsys, "report", str(report_path), "--format", "json")
        assert parse_report(out) == parse_report(report_path.read_text())

    def test_malformed_report_is_input_error_naming_the_field(self, capsys, workdir):
        report_path = workdir / "r.json"
        run(capsys, "payout", "--config", str(workdir / WE / "payout_config.json"), "--out", str(report_path))
        doc = json.loads(report_path.read_text())
        doc["payouts"][0]["phi"] = 0.1
        report_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", str(report_path))
        assert (code, out) == (2, "")
        assert err == "input error: payouts[0].phi: expected a string, got float 0.1\n"
