"""One job of every benchmark workload passes the benchmark's output gate.

The gate (``bench/gate.py`` with ``bench/references.json``) checks exact
step counts, divergence flags, verdicts and values to 1e-9 at the default
seed. Running one job per workload here makes a change in any of them fail
the test suite, not only a benchmark run. The benchmark files are only read.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 2023


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("workloads", "gate", "tracer")}
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["si_sweep", "uni_probe", "scalar_compare", "crosscheck"])
def test_one_job_per_workload_passes_the_gate(bench, name, tmp_path):
    workloads, gate, tracer = bench["workloads"], bench["gate"], bench["tracer"]
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(SEED, tmp_path, None)
    out = tmp_path / "out"
    counter = tracer.StepCounter()
    with tracer.Patches() as patches:
        tracer.instrument(patches, counter, None)
        with contextlib.redirect_stdout(io.StringIO()):
            result = workload.run(inputs, out)
    observed = workload.observe(inputs, out, result, counter.integrations)
    checks = gate.check(observed, gate.load_references(name), SEED)
    assert any(key.startswith("value:") for key, _ in checks)
    assert [key for key, ok in checks if not ok] == []


def test_a_traced_crosscheck_job_passes_the_gate(bench, tmp_path):
    # the tracer wraps the generic bracket's fn and keeps its stage table, so
    # the traced bracket is integrated on its rows as an untraced one is
    workloads, gate, tracer = bench["workloads"], bench["gate"], bench["tracer"]
    workload = workloads.WORKLOADS["crosscheck"]
    inputs = workload.prepare(SEED, tmp_path, None)
    counter, spans = tracer.StepCounter(), tracer.Tracer()
    with tracer.Patches() as patches:
        tracer.instrument(patches, counter, spans)
        with contextlib.redirect_stdout(io.StringIO()):
            result = workload.run(inputs, tmp_path / "out")
    observed = workload.observe(inputs, tmp_path / "out", result, counter.integrations)
    checks = gate.check(observed, gate.load_references("crosscheck"), SEED)
    assert [key for key, ok in checks if not ok] == []
    assert spans.call_counts()["liebracket.generic"] > 0
