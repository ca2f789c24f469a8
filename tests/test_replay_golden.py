"""``tools/replay_golden.py`` replays every golden transcript, one fresh process per command."""

import shutil
import subprocess
import sys

from test_golden import GOLDEN, TOOL, replay_golden


def replay(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_every_transcript_replays_under_this_interpreter():
    done = replay(sys.executable)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout
    replayed = sorted(line.split()[-1] for line in done.stdout.splitlines() if line.startswith("ok "))
    assert replayed == sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.glob("*/*/*.txt"))
    assert done.stdout.endswith(f" transcripts match under {sys.version.split()[0]}\n")


def test_a_difference_stops_the_replay_with_its_diff(tmp_path, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN / "small_team", golden / "small_team")
    path = golden / "small_team" / "shapley_config" / "game.txt"
    path.write_text(path.read_text(encoding="utf-8").replace("exit 0", "exit 9"), encoding="utf-8")
    assert replay_golden.replay(sys.executable, "this", golden) is False
    out = capsys.readouterr().out
    assert "DIFFERS this small_team/shapley_config/game.txt" in out and "\n-exit 9\n+exit 0\n" in out


def test_no_interpreter_claims_no_pass():
    done = replay()
    assert (done.returncode, done.stdout) == (2, "")
    assert "nothing replayed" in done.stderr
