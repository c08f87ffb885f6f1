#!/usr/bin/env python3
"""ditherseek benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload si_sweep --seed 2023 --seconds 27 --trace 0

The benchmark imports the package from ``src/`` of the checkout, turns the
seed into the workload's inputs, runs one untimed warm-up job, then repeats
the job serially in this process for ``--seconds`` seconds. Every job's
outputs pass through the gate in ``gate.py``.

``--trace 0`` reports the end-to-end metrics: the median job wall time,
steps per second and CPU time, the median of repeated set-ups in fresh
interpreters, and the peak RSS. Times are reported at a reference host speed
(see ``host_probe``); the raw medians are on the summary lines and in the
record. ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones, plus the tracing overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (gate checks) and ``metrics``; a full
record with provenance goes to ``.bench_run/results/``.

``--record-references`` runs each workload once for the default and the
held-out seed and rewrites ``references.json``. ``--samples-per-period``
passes a step-policy override to every job; it exists for ``selftest.py``,
which shows that a coarser step policy fails the gate.
"""

import os

# Workloads run serially in one process: cap native thread pools before numpy
# loads, here and in the set-up subprocesses that inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
from tracer import (CALLS, FROM_INTEGRATE, IN_RHS, INTEGRATE, RHS, SELF_S,  # noqa: E402
                    TOTAL_S, Patches, StepCounter, Tracer, instrument)
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 7
# host-probe time that defines the reference host speed (see host_probe)
HOST_PROBE_REF_S = 0.01

END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "dynamics.rhs.calls": "count",
    "dynamics.rhs.us_per_call": "us",
    "dynamics.rhs.self_us": "us",
    "signals.eval.calls": "count",
    "signals.eval.us_per_call": "us",
    "seekers.agent_map.calls": "count",
    "seekers.agent_map.per_rhs": "calls/rhs",
    "seekers.channel.us_per_call": "us",
    "seekers.channel_jac.us_per_call": "us",
    "seekers.drift.us_per_call": "us",
    "seekers.closed_form.us_per_call": "us",
    "liebracket.generic.us_per_call": "us",
    "liebracket.generic.self_us": "us",
    "liebracket.nu_quadrature.calls": "count",
    "sim.integrate.steps": "count",
    "sim.integrate.rhs_per_step": "calls/step",
    "sim.integrate.self_us_per_step": "us/step",
    "sim.integrate.cells_per_call": "cells/call",
    "sim.sup_distance.s": "s",
    "sim.csv.s": "s",
    "sim.csv.bytes": "bytes",
    "scenarios.load.s": "s",
    "trace.overhead_pct": "%",
}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".yaml") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, loadavg_start: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
    }


def _probe_step(i: int) -> float:
    return math.sin(i * 1e-3) * (i % 7)


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python kernel: the host's current speed.

    On a shared host, CPU speed can drift by up to half in phases of a minute
    or more, and CPU time drifts along with wall time. So the probe runs right
    before each timed job or set-up, and each time is reported at the
    reference speed, scaled by ``HOST_PROBE_REF_S / probe``. The kernel does
    not use the package, so a change to the program moves the reported times
    by the same ratio as the raw ones.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(50_000):
        acc += _probe_step(i)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe: float) -> float:
    return seconds * HOST_PROBE_REF_S / probe


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Job:
    """Runs one workload's job repeatedly and gates every run."""

    def __init__(self, workload, seed: int, samples_per_period: int | None, work: Path):
        self.workload = workload
        self.seed = seed
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.out = work / "out"
        self.inputs = workload.prepare(seed, work, samples_per_period)
        self.counter = StepCounter()
        self.attempted = 0
        self.failures: list[str] = []
        self.baseline: dict[str, str] | None = None

    def execute(self, tracer=None):
        """One job; returns (result, wall seconds, CPU seconds, integrations)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.counter.integrations = []
        with Patches() as patches:
            instrument(patches, self.counter, tracer)
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                result = self.workload.run(self.inputs, self.out)
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        return result, wall, cpu, self.counter.integrations

    def observe(self, result, integrations):
        return self.workload.observe(self.inputs, self.out, result, integrations)

    def record(self, checks: list[tuple[str, bool]]) -> None:
        self.attempted += len(checks)
        self.failures += [name for name, ok in checks if not ok]

    def gate_outputs(self, result, integrations, ref: dict) -> None:
        self.record(gate.check(self.observe(result, integrations), ref, self.seed))
        hashes = gate.artefact_hashes(self.out, self.workload.deterministic)
        if self.baseline is None:
            self.baseline = hashes
        else:
            self.record(gate.determinism(self.baseline, hashes))


def measure_setup(job: Job) -> list[tuple[float, float]]:
    """(set-up seconds, host probe seconds) of each repeat."""
    spec = json.dumps(job.workload.setup(job.inputs))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = host_probe()
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), spec],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append((json.loads(done.stdout.strip().splitlines()[-1])["setup_s"], probe))
    return times


def per_layer_metrics(tracer: Tracer, traced: list[dict], overhead_pct: float) -> dict:
    n = len(traced)
    steps = sum(s for job in traced for s, _, _ in job["integrations"])
    cells = sum(c for job in traced for _, _, c in job["integrations"])

    def per_job(name, slot=CALLS):
        return tracer.layer(name)[slot] / n

    def per_call_us(name, slot=TOTAL_S):
        st = tracer.layer(name)
        return st[slot] / st[CALLS] * 1e6 if st[CALLS] else 0.0

    rhs_calls = tracer.layer(RHS)[CALLS]
    integrate = tracer.layer(INTEGRATE)
    from_integrate = sum(st[FROM_INTEGRATE] for st in tracer.stats)
    return {
        "dynamics.rhs.calls": per_job(RHS),
        "dynamics.rhs.us_per_call": per_call_us(RHS),
        "dynamics.rhs.self_us": per_call_us(RHS, SELF_S),
        "signals.eval.calls": per_job("signals.eval"),
        "signals.eval.us_per_call": per_call_us("signals.eval"),
        "seekers.agent_map.calls": per_job("seekers.agent_map"),
        "seekers.agent_map.per_rhs": (tracer.layer("seekers.agent_map")[IN_RHS] / rhs_calls
                                      if rhs_calls else 0.0),
        "seekers.channel.us_per_call": per_call_us("seekers.channel"),
        "seekers.channel_jac.us_per_call": per_call_us("seekers.channel_jac"),
        "seekers.drift.us_per_call": per_call_us("seekers.drift"),
        "seekers.closed_form.us_per_call": per_call_us("seekers.closed_form"),
        "liebracket.generic.us_per_call": per_call_us("liebracket.generic"),
        "liebracket.generic.self_us": per_call_us("liebracket.generic", SELF_S),
        "liebracket.nu_quadrature.calls": per_job("liebracket.nu_quadrature"),
        "sim.integrate.steps": steps / n,
        "sim.integrate.rhs_per_step": from_integrate / steps if steps else 0.0,
        "sim.integrate.self_us_per_step": integrate[SELF_S] / steps * 1e6 if steps else 0.0,
        "sim.integrate.cells_per_call": cells / integrate[CALLS] if integrate[CALLS] else 0.0,
        "sim.sup_distance.s": per_job("sim.sup_distance", TOTAL_S),
        "sim.csv.s": per_job("sim.csv", TOTAL_S),
        "sim.csv.bytes": tracer.csv_bytes / n,
        "scenarios.load.s": per_job("scenarios.load", TOTAL_S),
        "trace.overhead_pct": overhead_pct,
    }


def run(workload, seed: int, seconds: float, trace: bool,
        samples_per_period: int | None) -> int:
    loadavg_start = _loadavg()
    job = Job(workload, seed, samples_per_period, WORK / workload.name / f"seed{seed}")
    ref = gate.load_references(workload.name)
    tracer = Tracer() if trace else None

    plain: list[dict] = []
    traced: list[dict] = []
    first_counts = None
    error = None
    try:
        result, _, _, integrations = job.execute()  # warm-up: lazy imports, caches
        job.gate_outputs(result, integrations, ref)
        start = time.perf_counter()
        while True:
            use_tracer = trace and len(traced) < len(plain)
            kind = traced if use_tracer else plain
            if plain:
                expected = statistics.median(j["wall"] for j in (kind or plain))
                if time.perf_counter() - start + expected > seconds:
                    break
            before = tracer.call_counts() if use_tracer else None
            probe = host_probe()
            result, wall, cpu, integrations = job.execute(tracer if use_tracer else None)
            job.gate_outputs(result, integrations, ref)
            kind.append({"wall": wall, "cpu": cpu, "probe": probe, "integrations": integrations,
                         "steps": sum(s for s, _, _ in integrations)})
            if use_tracer:
                after = tracer.call_counts()
                counts = {k: v - before.get(k, 0) for k, v in after.items()}
                if first_counts is None:
                    first_counts = counts
                job.record([("layer_counts_repeat", counts == first_counts)])
    except Exception:  # a job that raises is a failed check, and ends the run
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        job.record([("job_completed", False)])
    measured = traced if trace else plain
    if not measured:
        print("error: no job completed", file=sys.stderr)
        return 1

    def median_wall(jobs):
        return statistics.median(at_reference_speed(j["wall"], j["probe"]) for j in jobs)

    summary: dict = {}
    if trace:
        overhead = 100.0 * (median_wall(traced) / median_wall(plain) - 1.0)
        values = per_layer_metrics(tracer, traced, overhead)
        units = PER_LAYER
    else:
        peak = _peak_rss_mb()  # before the set-up subprocesses become children
        setups = measure_setup(job)
        raw = {"wall_s": [j["wall"] for j in plain], "steps_per_s": [j["steps"] / j["wall"] for j in plain],
               "cpu_s": [j["cpu"] for j in plain], "setup_s": [s for s, _ in setups]}
        samples = {
            "wall_s": [at_reference_speed(j["wall"], j["probe"]) for j in plain],
            "steps_per_s": [j["steps"] / at_reference_speed(j["wall"], j["probe"])
                            for j in plain],
            "cpu_s": [at_reference_speed(j["cpu"], j["probe"]) for j in plain],
            "setup_s": [at_reference_speed(s, probe) for s, probe in setups],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = peak
        units = END_TO_END
        for name, v in samples.items():
            p, at = tail(v)
            summary[name] = {"median": values[name], "tail_percentile": p, "tail": at,
                             "samples": len(v), "raw_median": statistics.median(raw[name]),
                             "raw": raw[name]}
        summary["host_probe_s"] = [j["probe"] for j in plain] + [p for _, p in setups]

    failed = len(job.failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name, "trace": int(trace), "seconds": seconds,
        "jobs": {"plain": len(plain), "traced": len(traced)},
        "metrics": metrics, "distribution": summary,
        "error_rate": failed / job.attempted if job.attempted else 1.0,
        "failed_checks": sorted(set(job.failures)), "error": error,
        "provenance": provenance(seed, loadavg_start),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if trace:
        record["spans_written"] = tracer.write_spans(results / f"{stem}-spans.csv")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print(f"workload {workload.name}: seed {seed}, trace {int(trace)}, "
          f"{len(plain)} untraced and {len(traced)} traced jobs")
    for name, m in metrics.items():
        line = f"  {name:34s} {m['value']:.6g} {m['unit']}"
        dist = summary.get(name)
        if dist and dist["tail"] is not None:
            line += (f"  (median; p{dist['tail_percentile']:.0f} {dist['tail']:.6g};"
                     f" n={dist['samples']}; raw median {dist['raw_median']:.6g})")
        elif dist:
            line += f"  (median; n={dist['samples']}; raw median {dist['raw_median']:.6g})"
        print(line)
    print(f"  {'error_rate':34s} {record['error_rate']:.6g}  "
          f"({failed} of {job.attempted} checks failed)")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({"correct": failed == 0, "attempted": job.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_references() -> int:
    refs = {}
    for workload in WORKLOADS.values():
        entry = None
        for seed in (gate.DEFAULT_SEED, gate.HELD_OUT_SEED):
            job = Job(workload, seed, None, WORK / "references" / workload.name / f"seed{seed}")
            result, _, _, integrations = job.execute()
            obs = job.observe(result, integrations)
            if entry is None:
                entry = {**gate.reference_entry(obs), "seeds": {}}
            elif gate.reference_entry(obs) != {k: entry[k] for k in ("steps", "diverged",
                                                                     "verdicts")}:
                print(f"error: {workload.name}: seed-independent outputs differ "
                      f"between seeds {gate.DEFAULT_SEED} and {seed}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = obs.values
        refs[workload.name] = entry
    doc = {"source_sha256": _source_sha256(), "workloads": refs}
    gate.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {gate.REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples-per-period", type=int, default=None)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    package = SRC / "ditherseek"
    if not (package / "__init__.py").is_file():
        print(f"error: no ditherseek package under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ditherseek

    if Path(ditherseek.__file__).resolve().parent != package.resolve():
        print(f"error: imported ditherseek from {ditherseek.__file__}, not from {package}",
              file=sys.stderr)
        return 2
    if args.record_references:
        return record_references()
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
               args.samples_per_period)


if __name__ == "__main__":
    sys.exit(main())
