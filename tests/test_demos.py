"""Every demo script runs to completion against the library in ``src``, and its output does not depend on
the string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    outputs = []
    for hash_seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": hash_seed,
        }
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1], f"{demo.name} prints differently under PYTHONHASHSEED=1 and =2"


def test_readme_library_example_attaches_its_audit(capsys):
    """The README's library example runs as printed, and its report carries the audit and the delta it computes."""
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, "README.md#library", "exec"), names)
    report, audit = names["report"], names["audit"]
    assert report.axioms is audit and audit.efficiency_ok
    assert report.provenance.delta == names["delta"]
    assert [(row.player, row.payment.amount_minor) for row in report.payouts] == [("ana", 750000), ("ben", 250000)]
    printed = capsys.readouterr().out
    assert "- avoided-loss range: **[40000, 90000]**" in printed and printed.endswith(
        "## Fairness audit\n\n"
        "- efficiency: pass (residual 0)\n"
        "- symmetry: pass (equal contributors are paid equally)\n"
        "- null player: pass (only actual contributions are paid)\n\n"
    )
