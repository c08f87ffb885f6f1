"""The benchmark's instrumentation finds every name it patches and restores it.

``bench/tracer.py`` wraps package callables by name from outside the
package; renaming one of them must fail here, not only in traced benchmark
runs.
"""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from ditherseek import dynamics, scenarios, signals, sim

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("ditherseek_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level binding of the loaded ditherseek modules, plus the
    one class attribute the tracer patches."""
    out = {("DitherSignal", "eval"): signals.DitherSignal.eval}
    for name, module in list(sys.modules.items()):
        if name == "ditherseek" or name.startswith("ditherseek."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    return out


def test_tracer_instruments_a_run_and_restores_every_binding():
    tracer = _load_tracer()
    import ditherseek.cli  # noqa: F401  (its bindings belong in the snapshot)

    before = _bindings()
    with tracer.Patches() as patches:
        counter = tracer.StepCounter()
        spans = tracer.Tracer()
        tracer.instrument(patches, counter, spans)
        patched = {key for key, value in _bindings().items()
                   if key in before and value is not before[key]}
        sc = scenarios.load_scenario("scalar_basic")
        rhs = dynamics.assemble_rhs(sc.build_system(sc.omegas[0]))
        traj = sim.integrate(rhs, sc.x0, 0.05, policy=sc.policy)
        sim.sup_distance(traj, sim.integrate(sc.lie_field(), sc.x0, 0.05,
                                             policy=sc.policy))
    after = _bindings()

    assert ("DitherSignal", "eval") in patched
    assert ("ditherseek.sim", "integrate") in patched
    assert ("ditherseek.seekers", "analytic_lie_scalar") in patched
    calls = spans.call_counts()
    for layer in ("scenarios.load", "sim.integrate", "dynamics.rhs", "seekers.channel",
                  "liebracket.generic", "sim.sup_distance"):
        assert calls.get(layer, 0) > 0, layer
    assert len(counter.integrations) == 2
    assert counter.integrations[0][0] == traj.total_steps > 0
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_a_traced_unicycle_rhs_calls_each_agent_map_once():
    # traced systems evaluate their wrapped drift and channel fields one at a
    # time; the stack's point cache keeps that at one call per agent map
    tracer = _load_tracer()
    with tracer.Patches() as patches:
        spans = tracer.Tracer()
        tracer.instrument(patches, tracer.StepCounter(), spans)
        sc = scenarios.load_scenario("three_agent_unicycle")
        rhs = dynamics.assemble_rhs(sc.build_system(sc.omegas[-1]))
        before = spans.call_counts().get("seekers.agent_map", 0)
        rhs.fn(0.3, sc.x0)
        after = spans.call_counts()["seekers.agent_map"]
    assert after - before == 3


def test_a_traced_unicycle_run_makes_four_rhs_calls_per_step_and_no_dither_calls():
    # the per-layer counts the benchmark reads: every RHS evaluation passes
    # through the traced field, and the dithers are never evaluated through
    # DitherSignal.eval
    tracer = _load_tracer()
    with tracer.Patches() as patches:
        counter = tracer.StepCounter()
        spans = tracer.Tracer()
        tracer.instrument(patches, counter, spans)
        sc = scenarios.load_scenario("three_agent_unicycle")
        rhs = dynamics.assemble_rhs(sc.build_system(80.0))
        traj = sim.integrate(rhs, sc.x0, 0.4, policy=sc.policy)
    calls = spans.call_counts()
    assert not traj.diverged and traj.total_steps > 0
    assert counter.integrations == [(traj.total_steps, False, 1)]
    assert calls["sim.integrate"] == 1
    assert calls["dynamics.rhs"] == 4 * traj.total_steps
    assert calls.get("signals.eval", 0) == 0


def test_a_traced_generic_bracket_calls_each_agent_map_and_gradient_once():
    # the bracket evaluates the traced stack's value and Jacobian once each;
    # the row views' shared point cache turns the wrapped fields' one-at-a-time
    # calls into one map and one gradient call per agent (the tracer names both
    # seekers.agent_map)
    tracer = _load_tracer()
    with tracer.Patches() as patches:
        spans = tracer.Tracer()
        tracer.instrument(patches, tracer.StepCounter(), spans)
        sc = scenarios.load_scenario("three_agent_unicycle")
        bracket = sc.generic_lie_field()
        before = spans.call_counts().get("seekers.agent_map", 0)
        bracket.fn(0.3, sc.x0)
        after = spans.call_counts()["seekers.agent_map"]
    assert after - before == 6


def test_traced_compare_integrates_the_averaged_flow_first_then_each_omega(tmp_path):
    # the gate compares per-integration step lists in call order, and the
    # per-layer counts of compare's integrations, distances and CSV writes
    tracer = _load_tracer()
    from ditherseek import cli

    horizon = 0.05
    with tracer.Patches() as patches:
        counter = tracer.StepCounter()
        spans = tracer.Tracer()
        tracer.instrument(patches, counter, spans)
        status = cli.main(["--scenario", "scalar_basic", "--mode", "compare",
                           "--horizon", str(horizon), "--out", str(tmp_path)])
    assert status == 0
    sc = scenarios.load_scenario("scalar_basic")
    rates = [sc.lie_field().oscillation_rate] + [sc.build_system(w).fast_rate
                                                 for w in sc.omegas]
    assert [steps for steps, _, _ in counter.integrations] == [
        sim.step_count(horizon, rate, sc.policy) for rate in rates]
    # the averaged flow and omega=100 both step at max_step: the fields
    # evaluated within each integration's span tell them apart
    assert spans.n_spans < spans.span_cap
    kept = list(zip(spans.span_name, spans.span_start, spans.span_end))
    runs = sorted((start, end) for name, start, end in kept
                  if spans.names[name] == "sim.integrate")
    fields = [{spans.names[name] for name, start, end in kept if lo < start and end < hi}
              & {"liebracket.generic", "dynamics.rhs"} for lo, hi in runs]
    assert fields == [{"liebracket.generic"}] + [{"dynamics.rhs"}] * len(sc.omegas)
    calls = spans.call_counts()
    assert calls["sim.integrate"] == 1 + len(sc.omegas)
    assert calls["sim.sup_distance"] == len(sc.omegas)
    assert calls["sim.csv"] == len(sc.omegas) + 2


@pytest.mark.parametrize("mode", ["simulate", "sweep"])
def test_simulate_and_sweep_integrate_each_omega_once_in_increasing_order(mode, tmp_path):
    # the gate reads each mode's per-integration step list in call order: the
    # sweep's averaged flow first, then one integration per omega, in
    # increasing order whatever the order of the flags
    tracer = _load_tracer()
    from ditherseek import cli

    horizon, omegas = 0.05, [1600.0, 400.0, 800.0]
    flags = [arg for w in omegas for arg in ("--omega", str(w))]
    with tracer.Patches() as patches:
        counter = tracer.StepCounter()
        tracer.instrument(patches, counter, None)
        status = cli.main(["--scenario", "scalar_basic", "--mode", mode, "--horizon",
                           str(horizon), *flags, "--out", str(tmp_path)])
    assert status == 0
    sc = scenarios.load_scenario("scalar_basic")
    rates = [sc.build_system(w).fast_rate for w in sorted(omegas)]
    if mode == "sweep":
        rates.insert(0, sc.lie_field().oscillation_rate)
    steps = [sim.step_count(horizon, rate, sc.policy) for rate in rates]
    assert len(set(steps)) == len(rates)  # the order shows in the steps
    assert counter.integrations == [(s, False, 1) for s in steps]


def test_a_traced_probe_integrates_each_distinct_direction_once_per_cell_delta_major(tmp_path):
    # the gate of the probe workload reads the per-integration step list in
    # call order: each (delta, omega) cell, deltas outermost, runs every
    # distinct shell direction once over the probe horizon
    tracer = _load_tracer()
    from ditherseek import cli

    doc = yaml.safe_load(resources.files("ditherseek").joinpath(
        "data", "three_agent_unicycle.yaml").read_text("utf-8"))
    doc["probe"] = {"delta": [0.25, 0.5], "epsilon": 1.25, "t_f": 0.1,
                    "boundary_samples": 8, "horizon": 0.2}
    path = tmp_path / "short_probe.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    starts = []
    with tracer.Patches() as patches:
        counter = tracer.StepCounter()
        tracer.instrument(patches, counter, tracer.Tracer())
        traced = sim.integrate

        def recording(fld, x0, *args, **kwargs):
            starts.append(np.array(x0, dtype=float))
            return traced(fld, x0, *args, **kwargs)

        patches.rebind(traced, recording)
        status = cli.main(["--scenario", str(path), "--mode", "probe", "--seed", "2023",
                           "--out", str(tmp_path / "o")])
    assert status == 0
    sc = scenarios.load_scenario(str(path))
    dirs = sim._sphere_directions(8, sc.dim, 2023)
    assert len(dirs) == 8
    cells = [(delta, w) for delta in sc.probe.deltas for w in sc.omegas]
    steps = {w: sim.step_count(0.2, sc.build_system(w).fast_rate, sc.policy)
             for w in sc.omegas}
    assert len(set(steps.values())) == len(sc.omegas)  # the order shows in the steps
    assert counter.integrations == [(steps[w], False, 1) for _, w in cells for _ in dirs]
    expected = [sc.target + delta * d for delta, _ in cells for d in dirs]
    assert len(starts) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(starts, expected))
    report = (tmp_path / "o" / f"{sc.name}_probe.txt").read_text(encoding="utf-8")
    assert "samples/shell=8" in report and report.count(" delta=") == len(cells)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mode", ["compare", "sweep"])
def test_the_averaged_flows_compare_and_sweep_integrate_carry_stage_tables(mode, traced,
                                                                           tmp_path):
    # scalar_basic's averaged flow is the generic bracket; the tracer wraps its
    # fn and keeps its stage table
    tracer = _load_tracer()
    from ditherseek import cli

    fields = []
    with tracer.Patches() as patches:
        spans = tracer.Tracer() if traced else None
        tracer.instrument(patches, tracer.StepCounter(), spans)
        counted = sim.integrate

        def recording(fld, *args, **kwargs):
            fields.append(fld)
            return counted(fld, *args, **kwargs)

        patches.rebind(counted, recording)
        status = cli.main(["--scenario", "scalar_basic", "--mode", mode, "--horizon", "0.05",
                           "--out", str(tmp_path)])
    assert status == 0
    assert len(fields) == 1 + len(scenarios.load_scenario("scalar_basic").omegas)
    assert all(fld.stage_table is not None for fld in fields)
    if traced:
        assert spans.call_counts()["liebracket.generic"] == 4 * sim.step_count(
            0.05, fields[0].oscillation_rate, scenarios.load_scenario("scalar_basic").policy)
