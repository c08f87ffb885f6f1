"""tools/ab.py: alternating A/B pairs of bench/run.py on two git archive trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("wall_s", "steps_per_s", "cpu_s", "setup_s", "peak_rss_mb")

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None or subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", "HEAD^{commit}"], cwd=ROOT,
        capture_output=True).returncode != 0,
    reason="needs a git checkout with a commit")


def _ab(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_two_copies_of_one_tree_show_no_gain(tmp_path):
    out = tmp_path / "ab.json"
    done = _ab("HEAD", "HEAD", "--workload", "si_sweep", "--pairs", "1", "--seconds", "1",
               "--work", str(tmp_path / "trees"), "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(done.stdout) == doc
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    assert doc["revisions"] == {"parent": head, "change": head}
    assert {"description", "environment", "protocol"} <= set(doc)
    entry = doc["workloads"]["si_sweep"]["seed 2023"]
    assert entry["pairs"] == 1 and entry["seconds"] == 1.0
    assert entry["gate_failed"] == {"parent": [0], "change": [0]}
    assert set(entry["metrics"]) == set(END_TO_END)
    for name, m in entry["metrics"].items():
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 1, name
        assert m["parent_median"] == m["parent_runs"][0] > 0.0
        assert m["parent_iqr"] == [m["parent_median"]] * 2
        assert m["change_wins"] in ("0/1", "1/1")
        assert m["gain"] is False, name  # one pair never claims a gain
        assert isinstance(m["worse"], bool), name
    # both trees are archives run without bytecode
    for side in ("parent", "change"):
        tree = tmp_path / "trees" / side
        assert (tree / "bench" / "run.py").is_file()
        assert not list(tree.rglob("__pycache__"))


def test_an_unknown_revision_or_workload_is_an_error(tmp_path):
    done = _ab("no-such-revision", "HEAD", "--workload", "si_sweep", "--pairs", "1",
               "--work", str(tmp_path))
    assert done.returncode == 2 and done.stderr == "error: unknown revision 'no-such-revision'\n"
    done = _ab("HEAD", "HEAD", "--workload", "nothing", "--pairs", "1", "--work", str(tmp_path))
    assert done.returncode == 2 and done.stderr.startswith("error: --workload must be one of")


def _summarize():
    import importlib.util
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def _runs(walls):
    return [{"failed": 0, "metrics": {"wall_s": {"value": w}}} for w in walls]


# end-to-end metrics as BENCHMARK.json declares them
WALL_S = {"better": "lower", "bound": 0.15}
STEPS_PER_S = {"better": "higher", "bound": 0.15}


@pytest.mark.parametrize("change, gain", [
    ([0.9] * 10, True),                       # 10/10 wins, far past the parent's spread
    ([0.9] * 8 + [1.2] * 2, False),           # 8/10 wins
    ([0.9] * 9, False),                       # 9/9, but fewer than 10 pairs
    ([0.995] * 10, False),                    # 10/10, within the parent's interquartile width
    ([1.1] * 10, False),                      # worse
])
def test_a_gain_needs_ten_pairs_nine_in_ten_wins_and_a_shift_past_the_parent_spread(change,
                                                                                     gain):
    parent = [1.0, 0.99, 1.01, 1.0, 0.98, 1.02, 1.0, 0.99, 1.01, 1.0][:len(change)]
    entry = _summarize()(_runs(parent), _runs(change), {"wall_s": WALL_S})
    assert entry["metrics"]["wall_s"]["gain"] is gain


@pytest.mark.parametrize("metric, change, worse", [
    (WALL_S, [1.2] * 10, True),               # median 20% slower, past the 15% bound
    (WALL_S, [1.14] * 10, False),             # 14% slower, within the bound
    (WALL_S, [1.2] * 4 + [1.0] * 6, False),   # the median, not the worst runs, decides
    (WALL_S, [1.2] * 3, True),                # no pair count needed to be worse
    (WALL_S, [0.5] * 10, False),              # better
    (STEPS_PER_S, [0.8] * 10, True),          # 20% fewer steps per second
    (STEPS_PER_S, [0.86] * 10, False),
    (STEPS_PER_S, [1.5] * 10, False),
])
def test_worse_means_the_change_median_past_the_metric_bound(metric, change, worse):
    parent = [1.0, 0.99, 1.01, 1.0, 0.98, 1.02, 1.0, 0.99, 1.01, 1.0][:len(change)]
    entry = _summarize()(_runs(parent), _runs(change), {"wall_s": metric})
    assert entry["metrics"]["wall_s"]["worse"] is worse
