"""The benchmark's instrumentation finds every name it patches and restores it.

``bench/tracer.py`` wraps package callables by name from outside the
package; renaming one of them must fail here, not only in traced benchmark
runs.
"""

import importlib.util
import sys
from pathlib import Path

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
