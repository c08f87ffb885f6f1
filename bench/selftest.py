#!/usr/bin/env python3
"""Self-test of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:  python3 bench/selftest.py

Checks that
* BENCHMARK.json names exactly the workloads and metrics the runner reports;
* an unchanged short run passes the output gate;
* lowering ``samples_per_period`` (a coarser step policy) fails the
  step-count gate, so ``error_rate`` > 0;
* a traced run reports every per-layer metric, with the exact work ratios;
* in a directory holding only BENCHMARK.json and bench/, the runner exits
  non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, Path]:
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, cwd


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from workloads import WORKLOADS

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the runner's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match the runner")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per-layer metrics match the runner")

    base = ("--workload", "si_sweep", "--seed", "2023", "--seconds", "2")
    code, result, _ = bench(*base, "--trace", "0")
    expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0
           and set(result["metrics"]) == set(run.END_TO_END),
           "unchanged si_sweep passes the gate and reports every end-to-end metric")

    code, result, _ = bench(*base, "--trace", "0", "--samples-per-period", "20")
    record = json.loads((ROOT / ".bench_run/results/si_sweep-seed2023-trace0.json")
                        .read_text(encoding="utf-8"))
    expect(code == 0 and result is not None and result["failed"] > 0
           and not result["correct"] and record["error_rate"] > 0
           and any(name.startswith("steps[") for name in record["failed_checks"]),
           "samples_per_period 20 fails the step-count gate (error_rate > 0)")

    code, result, _ = bench(*base, "--trace", "1")
    metrics = result["metrics"] if result else {}
    expect(code == 0 and set(metrics) == set(run.PER_LAYER)
           and metrics["sim.integrate.rhs_per_step"]["value"] == 4
           and metrics["seekers.agent_map.per_rhs"]["value"] == 9
           and metrics["sim.integrate.cells_per_call"]["value"] == 1,
           "traced si_sweep reports every per-layer metric with exact work ratios")

    bare = ROOT / ".bench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench(*base, "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None,
           "without the package sources the runner fails without a result")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
