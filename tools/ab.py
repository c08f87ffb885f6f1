#!/usr/bin/env python3
"""A/B runs of the benchmark: two revisions in alternating pairs, one JSON summary.

Usage, from the root of a git checkout:

    python3 tools/ab.py REV_A REV_B --workload W --pairs N [--seed S] [--seconds T]
                        [--out FILE] [--work DIR]

REV_A is the parent and REV_B the change. Each is written with ``git archive``
into its own directory under ``--work`` (default ``.bench_run/ab``), so both
trees are free of ``__pycache__``, and the unchanged ``bench/run.py`` of each
tree runs there with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH``: both
sides import from source. Pair i runs REV_A first when i is odd and REV_B first
when i is even, because the order within a pair biases host-scaled times.

The summary has the layout of the committed ``BENCH_*.json`` files: under
``workloads``, ``W``, ``seed S``, the gate's failed-check count of every run
and, per end-to-end metric, the parent and change medians, their quartiles
(linear interpolation), the change's wins (pairs where it is better, ties for
neither), the raw runs, and ``gain``: true only for at least 10 pairs of
which the change wins 9 in 10, with medians apart by more than the parent's
interquartile width, and ``worse``: true when the change median is worse
than the parent's by more than the metric's relative ``bound`` in
``BENCHMARK.json``. It is printed, and with ``--out`` merged into FILE, so
one file collects several workloads and seeds of the same two revisions.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
MIN_GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


class ABError(Exception):
    """A revision, tree or benchmark run that cannot give a result."""


def _git(*args: str) -> bytes:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=False)
    if done.returncode:
        raise ABError(f"git {' '.join(args)}: {done.stderr.decode(errors='replace').strip()}")
    return done.stdout


def resolve(rev: str) -> str:
    try:
        return _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").decode().strip()
    except ABError:
        raise ABError(f"unknown revision {rev!r}") from None


def archive(commit: str, tree: Path) -> None:
    """``git archive`` of ``commit`` into an empty ``tree``."""
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(tree, filter="data")
    if not (tree / "bench" / "run.py").is_file():
        raise ABError(f"{commit[:12]} has no bench/run.py")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its last output line, a JSON object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise ABError(f"bench/run.py in {tree} exited {done.returncode} without a JSON last line: "
                  f"{done.stderr.strip()[-2000:]}")


def summarize(parent: list[dict], change: list[dict], end_to_end: dict) -> dict:
    """Per metric of ``end_to_end`` (name to its ``BENCHMARK.json`` entry, with
    ``better`` and ``bound``): medians, quartiles, wins, raw runs and the gain
    and worse verdicts."""
    pairs = len(parent)
    metrics = {}
    for name, spec in end_to_end.items():
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        sign = -1 if spec["better"] == "lower" else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        pa, pb = float(np.median(a)), float(np.median(b))
        iqr_a = np.percentile(a, [25, 75]).tolist()
        gain = (pairs >= MIN_GAIN_PAIRS and wins >= math.ceil(GAIN_WIN_SHARE * pairs)
                and sign * (pb - pa) > iqr_a[1] - iqr_a[0])
        metrics[name] = {
            "parent_median": pa, "change_median": pb,
            "change_pct": 100.0 * (pb / pa - 1.0) if pa else None,
            "change_wins": f"{wins}/{pairs}", "gain": bool(gain),
            "worse": bool(sign * (pb - pa) < -spec["bound"] * abs(pa)),
            "parent_runs": a, "change_runs": b,
            "parent_iqr": iqr_a, "change_iqr": np.percentile(b, [25, 75]).tolist(),
        }
    return {"pairs": pairs,
            "gate_failed": {"parent": [run["failed"] for run in parent],
                            "change": [run["failed"] for run in change]},
            "metrics": metrics}


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": f"{os.cpu_count()}-core {cpu}", "python": platform.python_version(),
            "numpy": np.__version__,
            "pyyaml": f"{yaml.__version__} {'with' if yaml.__with_libyaml__ else 'without'} "
                      "libyaml",
            "os": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", metavar="REV_A", help="parent revision")
    parser.add_argument("rev_b", metavar="REV_B", help="change revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--out", type=Path, help="JSON file to merge the summary into")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_run" / "ab")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not 0.0 < args.seconds < math.inf:
        print("error: --pairs must be at least 1 and --seconds finite and positive",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        workloads = {w["name"] for w in spec["workloads"]}
        if args.workload not in workloads:
            raise ABError(f"--workload must be one of {sorted(workloads)}")
        commits = {"parent": resolve(args.rev_a), "change": resolve(args.rev_b)}
        doc = {}
        if args.out is not None and args.out.exists():
            doc = json.loads(args.out.read_text(encoding="utf-8"))
            if doc.get("revisions", commits) != commits:
                raise ABError(f"{args.out} holds runs of other revisions: {doc['revisions']}")
        trees = {side: args.work / side for side in commits}
        for side, commit in commits.items():
            archive(commit, trees[side])
        runs = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(trees[side], args.workload, args.seed,
                                            args.seconds))
                print(f"pair {i}/{args.pairs} {side}: wall_s "
                      f"{runs[side][-1]['metrics']['wall_s']['value']:.6g}", file=sys.stderr)
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc.setdefault("description", f"bench/run.py at {commits['parent'][:12]} (parent) and "
                                  f"{commits['change'][:12]} (change)")
    doc["revisions"] = commits
    doc["environment"] = _environment()
    doc["protocol"] = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T (--trace 0)",
        "tool": "python3 tools/ab.py REV_A REV_B --workload W --pairs N --seed S --seconds T",
        "order": "pair i runs the parent first when i is odd, the change first when i is even",
        "checkouts": "each revision as `git archive` in its own directory, no __pycache__, "
                     "run with PYTHONDONTWRITEBYTECODE=1 and no PYTHONPATH",
        "statistic": "median over runs of each run's reported (host-scaled) metric; quartiles "
                     "by linear interpolation; wins count pairs where the change is better, "
                     "ties for neither",
        "gain": f"at least {MIN_GAIN_PAIRS} pairs, the change better in at least "
                f"{GAIN_WIN_SHARE:.0%} of them, and the medians apart by more than the "
                "parent's interquartile width",
        "worse": "the change median worse than the parent's by more than the metric's "
                 "relative bound in BENCHMARK.json",
    }
    entry = summarize(runs["parent"], runs["change"], end_to_end)
    entry["seconds"] = args.seconds
    doc.setdefault("workloads", {}).setdefault(args.workload, {})[f"seed {args.seed}"] = entry
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
