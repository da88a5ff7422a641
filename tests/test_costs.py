"""``tests/costs.py`` runs the ``small-systems`` workload's own period, and exits 1 unless both trees pass and agree."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tsvlab

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import SmallSystems  # noqa: E402

#: the tree under test: the src directory holding the imported tsvlab
SRC = Path(tsvlab.__file__).resolve().parents[1]
TINY = ["--seed", "1", "--rounds", "2", "--passes", "1", "--repeat", "1", "--number", "1"]

# appended to a copy of tsv.py: the first probability of every ABL result one ulp up
ONE_ULP = """
_abl_probabilities = abl_probabilities


def abl_probabilities(selection, obs):
    (outcome, p), *rest = _abl_probabilities(selection, obs).entries
    return Distribution(((outcome, math.nextafter(p, 2.0)), *rest))
"""
# the same, with the probabilities in reverse order: no longer the ABL rule
REVERSED = """
_abl_probabilities = abl_probabilities


def abl_probabilities(selection, obs):
    entries = _abl_probabilities(selection, obs).entries
    return Distribution(tuple(zip((o for o, _ in entries), reversed([p for _, p in entries]))))
"""


def costs(*args):
    return subprocess.run([sys.executable, str(ROOT / "tests" / "costs.py"), *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)


def test_a_tiny_a_a_run_times_the_workloads_first_period(tmp_path):
    done = costs("--against", str(SRC), *TINY, "--json", str(tmp_path / "costs.json"))
    assert done.returncode == 0, done.stderr
    workload = SmallSystems(tsvlab, 1, tmp_path)
    period = [op.label for op in itertools.islice(workload.ops(), workload.period)]
    stream = json.loads((tmp_path / "costs.json").read_text())["stream"]
    assert stream["labels"] == period
    assert stream["scenario_ops"] == 5


@pytest.mark.parametrize("patch, message", [(ONE_ULP, "trees differ"), (REVERSED, "other tree, op 'abl d=")],
                         ids=["one-ulp", "reversed"])
def test_a_tree_that_differs_or_fails_a_check_exits_1(tmp_path, patch, message):
    other = tmp_path / "src" / "tsvlab"
    shutil.copytree(SRC / "tsvlab", other, ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "tsv.py", "a", encoding="utf-8") as handle:
        handle.write(patch)
    done = costs("--against", str(tmp_path / "src"), *TINY)
    assert done.returncode == 1
    assert message in done.stderr
    assert done.stdout == ""  # it stopped before any timing
