"""Instrumentation of ditherseek from outside the package.

The benchmark never edits the program. For the duration of one job it
replaces the public callables the program hands around (builders, fields,
signals, the integrator, CSV writers) with wrappers, and restores them
afterwards. Modules bind names at import (``cli`` does
``from .sim import integrate``), so every binding of a patched object in
every loaded ``ditherseek`` module is replaced, not only the defining one.

Two layers of instrumentation exist:

* :class:`StepCounter` is always on. It wraps only ``integrate`` (one call
  per trajectory, not per step) and records each integration's step count,
  divergence flag and cell count. The output gate and ``steps_per_s`` need
  these, and the probe mode writes none of them.
* :class:`Tracer` is on only in traced jobs. It records a span (name,
  start, end, parent) at every layer boundary and aggregates calls,
  inclusive time and self time per layer.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array

RHS = "dynamics.rhs"
INTEGRATE = "sim.integrate"

# per-layer aggregate slots
CALLS, TOTAL_S, SELF_S, IN_RHS, FROM_INTEGRATE = range(5)


class Patches:
    """Replace attributes of modules and classes; restore them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Replace every binding of ``original`` in the loaded ditherseek modules."""
        for name, module in list(sys.modules.items()):
            if name == "ditherseek" or name.startswith("ditherseek."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class StepCounter:
    """Step count, divergence flag and cell count of every integration."""

    def __init__(self):
        self.integrations: list[tuple[int, bool, int]] = []

    def wrap(self, integrate):
        def counted(fld, x0, *args, **kwargs):
            traj = integrate(fld, x0, *args, **kwargs)
            shape = getattr(x0, "shape", ())
            cells = int(shape[0]) if len(shape) == 2 else 1
            self.integrations.append((int(traj.total_steps), bool(traj.diverged), cells))
            return traj
        return counted


class Tracer:
    """In-memory span recorder with exact per-layer aggregates.

    Aggregates cover every span. Raw spans are kept for the first
    ``span_cap`` spans only, so a long traced run stays within a few MB.
    """

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.origin = time.perf_counter()
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.stats: list[list] = []
        self._open: list[int] = []
        self._stack: list[list] = []
        self.n_spans = 0
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.csv_bytes = 0
        self._id(RHS)
        self._id(INTEGRATE)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0, 0, 0])
            self._open.append(0)
        return self.ids[name]

    def layer(self, name: str) -> list:
        return self.stats[self.ids[name]] if name in self.ids else [0, 0.0, 0.0, 0, 0]

    def call_counts(self) -> dict[str, int]:
        return {name: self.stats[i][CALLS] for name, i in self.ids.items()}

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        i = self._id(name)
        stats = self.stats[i]
        stack = self._stack
        opened = self._open
        rhs_id = self.ids[RHS]
        integrate_id = self.ids[INTEGRATE]
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if opened[rhs_id]:
                stats[IN_RHS] += 1
            idx = tracer.n_spans
            tracer.n_spans = idx + 1
            frame = [0.0, i, idx]  # child seconds, layer, span index
            stack.append(frame)
            opened[i] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                opened[i] -= 1
                stack.pop()
                dur = t1 - t0
                stats[CALLS] += 1
                stats[TOTAL_S] += dur
                stats[SELF_S] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    if parent[1] == integrate_id:
                        stats[FROM_INTEGRATE] += 1
                if idx < tracer.span_cap:
                    tracer.span_name.append(i)
                    tracer.span_parent.append(parent[2] if parent is not None else -1)
                    tracer.span_start.append(t0 - tracer.origin)
                    tracer.span_end.append(t1 - tracer.origin)

        return traced

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV, times in microseconds from the origin."""
        n = len(self.span_name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_us,end_us,parent\n")
            for k in range(n):
                fh.write(f"{k},{self.names[self.span_name[k]]},"
                         f"{self.span_start[k] * 1e6:.3f},{self.span_end[k] * 1e6:.3f},"
                         f"{self.span_parent[k]}\n")
        return n


def _csv_path(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[1]


def instrument(patches: Patches, counter: StepCounter, tracer: Tracer | None) -> None:
    """Install the step counter and, when ``tracer`` is given, every span."""
    # load cli before patching: a module imported while patches are in place
    # would bind the wrappers and keep them after the restore
    import ditherseek.cli  # noqa: F401
    from ditherseek import dynamics, liebracket, scenarios, seekers, signals, sim

    integrate = counter.wrap(sim.integrate)
    if tracer is None:
        patches.rebind(sim.integrate, integrate)
        return
    wrap = tracer.wrap

    def field(fld, name: str, jac_name: str):
        jac = None if fld.jac is None else wrap(jac_name, fld.jac)
        return dataclasses.replace(fld, fn=wrap(name, fld.fn), jac=jac)

    def system_builder(build):
        def traced_build(*args, **kwargs):
            sys_ = build(*args, **kwargs)
            channels = tuple((field(f, "seekers.channel", "seekers.channel_jac"), s)
                             for f, s in sys_.channels)
            return dataclasses.replace(
                sys_, drift=field(sys_.drift, "seekers.drift", "seekers.drift_jac"),
                channels=channels)
        return traced_build

    def field_builder(build, name: str):
        def traced_build(*args, **kwargs):
            return field(build(*args, **kwargs), name, name + "_jac")
        return traced_build

    def traced_game(game):
        maps = tuple(dataclasses.replace(
            m, fn=wrap("seekers.agent_map", m.fn),
            grad=None if m.grad is None else wrap("seekers.agent_map", m.grad))
            for m in game.maps)
        return dataclasses.replace(game, maps=maps)

    load = wrap("scenarios.load", scenarios.load_scenario)

    def traced_load(*args, **kwargs):
        sc = load(*args, **kwargs)
        return sc if sc.game is None else dataclasses.replace(sc, game=traced_game(sc.game))

    def csv_writer(write):
        traced_write = wrap("sim.csv", write)

        def sized_write(*args, **kwargs):
            traced_write(*args, **kwargs)
            tracer.csv_bytes += os.path.getsize(_csv_path(args, kwargs))
        return sized_write

    for build in (seekers.build_single_integrator, seekers.build_unicycle,
                  seekers.build_scalar_seeker):
        patches.rebind(build, system_builder(build))
    for build in (seekers.analytic_lie_single_integrator, seekers.analytic_lie_unicycle,
                  seekers.analytic_lie_scalar):
        patches.rebind(build, field_builder(build, "seekers.closed_form"))
    patches.rebind(liebracket.build_lie_bracket_system,
                   field_builder(liebracket.build_lie_bracket_system, "liebracket.generic"))
    patches.rebind(dynamics.assemble_rhs, field_builder(dynamics.assemble_rhs, RHS))
    patches.rebind(liebracket.nu_quadrature,
                   wrap("liebracket.nu_quadrature", liebracket.nu_quadrature))
    patches.rebind(scenarios.load_scenario, traced_load)
    patches.rebind(sim.integrate, wrap(INTEGRATE, integrate))
    patches.rebind(sim.sup_distance, wrap("sim.sup_distance", sim.sup_distance))
    for write in (sim.write_trajectory_csv, sim.write_sweep_csv, sim.write_long_csv):
        patches.rebind(write, csv_writer(write))
    patches.set(signals.DitherSignal, "eval", wrap("signals.eval", signals.DitherSignal.eval))
