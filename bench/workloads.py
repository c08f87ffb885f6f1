"""The four benchmark workloads.

Each workload turns the seed into inputs once (``prepare``), then runs one
job per call (``run``): the job starts at the program's entry point and ends
with its last artefact or verdict. ``observe`` reads what the job produced
into the form the output gate checks (see ``gate.py``).

Jobs are sized so that a run of ``--seconds`` holds a few dozen of them;
each keeps the per-step character of the full bundled configuration (the
same right-hand side, dithers, step policy and output stride), only over a
shorter horizon.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

BENCH_DIR = Path(__file__).resolve().parent

SI = "three_agent_single_integrator"
UNI = "three_agent_unicycle"
SCALAR = "scalar_basic"

SI_SWEEP_HORIZON = 1.0
SCALAR_COMPARE_HORIZON = 0.3
CROSSCHECK_HORIZON = 1.0
CROSSCHECK_STATES = 4
PERTURBATION = 0.25  # half-width of the seeded initial-position offsets


@dataclass
class Inputs:
    """What one job needs: CLI arguments or library parameters."""

    argv: list[str] = field(default_factory=list)
    scenario: str = ""
    seed: int = 0
    samples_per_period: int | None = None


@dataclass
class Observation:
    """Job outputs in gate form.

    ``steps``/``diverged`` list every integration in call order;
    ``verdicts`` are strings that must match exactly for every seed;
    ``bounded`` values must not exceed the agreement bound for any seed;
    ``values`` are compared against the references of their seed only.
    """

    steps: list[int]
    diverged: list[bool]
    verdicts: list[str]
    values: dict[str, list]
    bounded: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, int | None], Inputs]
    run: Callable[[Inputs, Path], object]
    observe: Callable[[Inputs, Path, object, list], Observation]
    # artefacts that must be byte-identical from job to job
    deterministic: tuple[str, ...]
    # what set-up builds before the first step (see setup_probe.py)
    setup: Callable[[Inputs], list[dict]]


def _bundled_doc(name: str) -> dict:
    text = resources.files("ditherseek").joinpath("data", f"{name}.yaml").read_text(
        encoding="utf-8")
    return yaml.safe_load(text)


def _seeded_scenario(name: str, seed: int, work: Path) -> str:
    """The bundled scenario with seeded offsets on the initial positions."""
    doc = _bundled_doc(name)
    x0 = [float(v) for v in doc["initial_state"]]
    n_pos = 1 if len(x0) == 1 else 2 * len(x0) // 3
    offsets = np.random.default_rng(seed).uniform(-PERTURBATION, PERTURBATION, n_pos)
    for k in range(n_pos):
        x0[k] = round(x0[k] + float(offsets[k]), 6)
    doc["initial_state"] = x0
    path = work / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return str(path)


def _spp(argv: list[str], samples_per_period: int | None) -> list[str]:
    if samples_per_period is None:
        return argv
    return argv + ["--samples-per-period", str(samples_per_period)]


def _cli(inputs: Inputs, out: Path):
    from ditherseek import cli
    return cli.main(inputs.argv + ["--out", str(out)])


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _csv_sample(path: Path, count: int = 25) -> list:
    """Row count plus ``count`` evenly spaced rows, flattened."""
    rows = _read_csv(path)
    picks = sorted({round(k * (len(rows) - 1) / (count - 1)) for k in range(count)})
    return [len(rows)] + [cell for k in picks for cell in rows[k]]


def _integrations(integrations: list) -> tuple[list[int], list[bool]]:
    return [s for s, _, _ in integrations], [d for _, d, _ in integrations]


# ---------------------------------------------------------------------------
# si_sweep: CLI sweep on the single-integrator game

def _si_sweep_prepare(seed: int, work: Path, spp: int | None) -> Inputs:
    scenario = _seeded_scenario(SI, seed, work)
    argv = ["--scenario", scenario, "--mode", "sweep", "--horizon", str(SI_SWEEP_HORIZON)]
    return Inputs(_spp(argv, spp), scenario, seed, spp)


def _si_sweep_observe(inputs: Inputs, out: Path, result, integrations) -> Observation:
    steps, diverged = _integrations(integrations)
    rows = _read_csv(out / f"{SI}_sweep.csv")
    report = (out / f"{SI}_sweep.txt").read_text(encoding="utf-8").splitlines()
    verdicts = [f"exit={result}"] + [line.strip() for line in report
                                     if "non-increasing" in line]
    values = {"sup_error": [float(r[1]) for r in rows],
              "final_distance": [float(r[2]) for r in rows]}
    diverged += [r[4] == "1" for r in rows]
    return Observation(steps, diverged, verdicts, values)


def _scenario_setup(inputs: Inputs, lie: bool) -> list[dict]:
    return [{"scenario": inputs.scenario, "systems": True, "lie": lie}]


# ---------------------------------------------------------------------------
# uni_probe: CLI probe on a shortened unicycle scenario

def _uni_probe_prepare(seed: int, work: Path, spp: int | None) -> Inputs:
    scenario = str(BENCH_DIR / "scenarios" / "uni_probe.yaml")
    argv = ["--scenario", scenario, "--mode", "probe", "--seed", str(seed)]
    return Inputs(_spp(argv, spp), scenario, seed, spp)


_PROBE_CELL = re.compile(
    r"delta=(\S+) omega=(\S+): containment=(\S+) \(stability (\w+)\), "
    r"attraction=(\S+) \((\w+) after t_f\)( DIVERGED)?")


def _uni_probe_observe(inputs: Inputs, out: Path, result, integrations) -> Observation:
    steps, diverged = _integrations(integrations)
    text = (out / "uni_probe_probe.txt").read_text(encoding="utf-8")
    cells = _PROBE_CELL.findall(text)
    verdicts = [f"exit={result}", f"cells={len(cells)}"] + [
        f"delta={c[0]} omega={c[1]}: stability {c[3]}, attraction {c[5]}" for c in cells]
    diverged += [bool(c[6]) for c in cells]
    values = {"containment": [float(c[2]) for c in cells],
              "attraction": [float(c[4]) for c in cells]}
    return Observation(steps, diverged, verdicts, values)


# ---------------------------------------------------------------------------
# scalar_compare: CLI compare on the scalar loop

def _scalar_compare_prepare(seed: int, work: Path, spp: int | None) -> Inputs:
    scenario = _seeded_scenario(SCALAR, seed, work)
    argv = ["--scenario", scenario, "--mode", "compare",
            "--horizon", str(SCALAR_COMPARE_HORIZON)]
    return Inputs(_spp(argv, spp), scenario, seed, spp)


_COMPARE_ROW = re.compile(r"omega=(\S+): sup_error=(\S+) final_distance=(\S+)( DIVERGED)?")


def _scalar_compare_observe(inputs: Inputs, out: Path, result, integrations) -> Observation:
    steps, diverged = _integrations(integrations)
    summary = (out / f"{SCALAR}_compare_summary.txt").read_text(encoding="utf-8")
    rows = _COMPARE_ROW.findall(summary)
    verdicts = [f"exit={result}"] + [line for line in summary.splitlines()
                                     if "decreases with omega" in line]
    diverged += [bool(r[3]) for r in rows]
    values = {"sup_error": [float(r[1]) for r in rows],
              "final_distance": [float(r[2]) for r in rows]}
    for path in sorted(out.glob("*.csv")):
        values[path.name] = _csv_sample(path)
    return Observation(steps, diverged, verdicts, values)


# ---------------------------------------------------------------------------
# crosscheck: generic bracket vs closed form, plus CLI verify

AGREEMENT_BOUND = 1e-9


def _crosscheck_prepare(seed: int, work: Path, spp: int | None) -> Inputs:
    return Inputs([], "", seed, spp)


def _crosscheck_run(inputs: Inputs, out: Path):
    from ditherseek import cli, scenarios, sim

    rng = np.random.default_rng(inputs.seed)
    agreement, finals = [], []
    for name in (SI, UNI):
        sc = scenarios.load_scenario(name)
        policy = sc.policy
        if inputs.samples_per_period is not None:
            policy = replace(policy, samples_per_period=inputs.samples_per_period)
        closed = sc.lie_field()
        generic = sc.generic_lie_field()
        for _ in range(CROSSCHECK_STATES):
            x0 = sc.x0.copy()
            x0[:2 * len(sc.params)] += rng.uniform(-0.5, 0.5, 2 * len(sc.params))
            a = sim.integrate(generic, x0, CROSSCHECK_HORIZON, policy=policy)
            b = sim.integrate(closed, x0, CROSSCHECK_HORIZON, policy=policy)
            agreement.append(sim.sup_distance(a, b))
            finals.extend(float(v) for v in b.final_state)
    exits = []
    for name in scenarios.list_bundled():
        argv = ["--scenario", name, "--mode", "verify", "--seed", str(inputs.seed),
                "--out", str(out)]
        exits.append(cli.main(_spp(argv, inputs.samples_per_period)))
    return {"agreement": agreement, "finals": finals, "exits": exits}


def _crosscheck_observe(inputs: Inputs, out: Path, result, integrations) -> Observation:
    steps, diverged = _integrations(integrations)
    verdicts = [f"verify exits={result['exits']}"]
    for path in sorted(out.glob("*_verify.txt")):
        last = path.read_text(encoding="utf-8").splitlines()[-1]
        verdicts.append(f"{path.name}: {last}")
    return Observation(steps, diverged, verdicts, {"finals": result["finals"]},
                       bounded=result["agreement"])


def _crosscheck_setup(inputs: Inputs) -> list[dict]:
    return ([{"scenario": name, "lie": True, "generic": True} for name in (SI, UNI)]
            + [{"scenario": SCALAR, "systems": True}])


WORKLOADS = {w.name: w for w in (
    Workload(
        "si_sweep",
        "longest single trajectories with the heaviest RHS (6 channels, 9 agent-map "
        "calls per RHS) and no cells sharing a step size",
        _si_sweep_prepare, _cli, _si_sweep_observe, (f"{SI}_sweep.csv",),
        lambda inputs: _scenario_setup(inputs, lie=True)),
    Workload(
        "uni_probe",
        "many independent probe cells sharing one step size, on the time-varying "
        "unicycle channels",
        _uni_probe_prepare, _cli, _uni_probe_observe, ("uni_probe_probe.txt",),
        lambda inputs: _scenario_setup(inputs, lie=False)),
    Workload(
        "scalar_compare",
        "one-state RHS, so integrate-loop overhead and CSV writing dominate; the agent "
        "layers do no work",
        _scalar_compare_prepare, _cli, _scalar_compare_observe, ("*.csv",),
        lambda inputs: _scenario_setup(inputs, lie=True)),
    Workload(
        "crosscheck",
        "generic Lie bracket (Jacobian-heavy) against the closed form, plus CLI verify "
        "on every bundled scenario",
        _crosscheck_prepare, _crosscheck_run, _crosscheck_observe, ("*_verify.txt",),
        _crosscheck_setup),
)}
