"""Every command, run in-process on a fixture with one node or one input file replaced, ends in an exit code.

The fuzz starts from one of three worked-example configs (coalition table,
commit log with an alias map, subset results). It either edits one node of one
JSON input file (the config, the risk model, the coalition table, the subset
results, the alias map or a stored report): it replaces the node with
arbitrary JSON, or inserts a key (a documented one or an unknown one) or an
item into it. Or it replaces the whole content of one input file, the commit
log included, with arbitrary JSON or arbitrary bytes, which need not be UTF-8.
Then it runs all six commands. Each must return 0, 1, 2 or 3, and no
exception may escape ``main``. JSON is kept small: integers within ±50 and
lists of at most six items, so no roster exceeds six players and no sampler
draws more than 50 samples.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "worked_example"


def _fixture_files() -> dict[str, bytes]:
    """The worked example's files, plus an alias map, a subset-results config and a stored report."""
    files = {p.name: p.read_bytes() for p in FIXTURE.iterdir()}
    mining = json.loads(files["mining_config.json"])
    mining["source"]["aliases"] = "aliases.json"
    files["mining_config.json"] = json.dumps(mining).encode()
    files["aliases.json"] = json.dumps({"alice": "alice", "bob": "bob", "carol": "carol"}).encode()
    subset = dict(mining, source={"type": "subset_results", "path": "subset_results.json"})
    files["subset_config.json"] = json.dumps(subset).encode()
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            (Path(directory) / name).write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["payout", "--config", str(Path(directory) / "payout_config.json"), "--out", f"{directory}/r.json"])
        assert code == 0
        files["r.json"] = (Path(directory) / "r.json").read_bytes()
    return files


FILES = _fixture_files()
CONFIGS = ("payout_config.json", "mining_config.json", "subset_config.json")
JSON_INPUTS = ("risk_model.json", "coalition_table.json", "subset_results.json", "aliases.json", "r.json")

#: Strings the fixtures use as ids, numbers, settings and paths, so a replaced node can still mean something.
WORDS = (
    "", "a", "alice", "bob", "carol", "T1", "C-45801", "U-45801-1", "low", "high", "0", "0.5", "1/100", "-3",
    "lower", "explicit", "exact", "monte-carlo", "sum", "max", "csv", "markdown", "largest-remainder",
    "coalition_table", "commit_log", "subset_results", "attribution", "risk_model.json", "commits.log",
    "coalition_table.json", "subset_results.json", "aliases.json", "0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091",
)
KEYS = (
    "risk_model source type path cycle from_commit to_commit from_time to_time aliases players mode "
    "normalized solver method samples seed budget fraction anchor value rounding currency output format "
    "scales likelihood impact name kind categories label lo hi threats id controls leaves assessments threat "
    "results subset passing entries coalition default_zero"
).split() + ["extra", "assesments", "Players"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats(-50, 50) | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=6),
    max_leaves=12,
)
contents = json_values.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=40)


def node_paths(node, path=()):
    """The key path of ``node`` and of every node below it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


@st.composite
def edited(draw, doc):
    """``doc`` with one node replaced, or one key or item inserted into an object or array."""
    path = draw(st.sampled_from(list(node_paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    value = draw(json_values)
    if isinstance(node, dict) and draw(st.booleans()):
        node[draw(st.sampled_from(KEYS))] = value
    elif isinstance(node, list) and draw(st.booleans()):
        node.insert(draw(st.integers(0, len(node))), value)
    elif parent is None:
        return value
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def cases(draw) -> tuple[str, dict[str, bytes]]:
    """A config name and the files of a run, one node of a JSON input or one whole input file changed."""
    config = draw(st.sampled_from(CONFIGS))
    files = dict(FILES)
    if draw(st.booleans()):
        name = draw(st.sampled_from((config, *JSON_INPUTS)))
        files[name] = json.dumps(draw(edited(json.loads(files[name])))).encode()
    else:
        name = draw(st.sampled_from((config, *JSON_INPUTS, "commits.log")))
        files[name] = draw(contents)
    return config, files


@settings(max_examples=80, deadline=None)
@given(case=cases(), format=st.sampled_from(("json", "csv", "markdown")))
def test_every_command_ends_in_an_exit_code(case, format):
    config, files = case
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for name, data in files.items():
            (root / name).write_bytes(data)
        at = ["--config", str(root / config)]
        runs = [
            ["validate", *at],
            ["game", *at],
            ["shapley", *at],
            ["payout", *at, "--out", str(root / "out.json")],
            ["plan-cherry-pick", *at, "--subset", "alice,carol"],
            ["report", str(root / "r.json"), "--format", format],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
