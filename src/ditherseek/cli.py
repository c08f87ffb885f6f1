"""Command-line front end: load a scenario, run one mode, write artifacts.

Modes:
  simulate  integrate the oscillatory system at each omega, one CSV per run
  compare   oscillatory vs averaged trajectories plus a sup-distance summary
  sweep     omega sweep report (CSV + text)
  probe     empirical practical-stability probe (text report)
  verify    run the assumption validators and print a pass/fail table;
            the exit status is the number of failed checks
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import (FieldEvaluationError, assemble_rhs, central_differences,
                       central_points)
from .liebracket import nu_closed_form, nu_quadrature
from .scenarios import Scenario, ScenarioError, checked, list_bundled, load_scenario
from .seekers import check_maximizer_stationarity, check_potential_compatibility
from .signals import cosine, sine, validate_assumptions
from .sim import (checked_omegas, omega_sweep, run_cells, stability_probe, step_count,
                  write_long_csv, write_sweep_csv, write_trajectory_csv)

MODES = ("simulate", "compare", "sweep", "probe", "verify")


@dataclass(frozen=True)
class RunConfig:
    mode: str
    scenario: str
    out: Path
    omegas: tuple[float, ...] | None = None
    horizon: float | None = None
    samples_per_period: int | None = None
    seed: int = 2023
    strict: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        object.__setattr__(self, "out", Path(self.out))


def _resolved(scenario: Scenario, config: RunConfig) -> Scenario:
    """The scenario with the flags applied; ScenarioError for a bad flag or a
    mode precondition that fails, before any output is made."""
    if config.seed < 0:
        raise ScenarioError(f"--seed must be non-negative, got {config.seed}")
    updates = {}
    if config.omegas:
        updates["omegas"] = checked("--omega", checked_omegas, sorted(config.omegas))
    if config.horizon is not None:
        if config.mode == "probe":
            raise ScenarioError("--horizon does not apply in probe mode, which integrates "
                                "over the scenario's probe.horizon")
        if not (math.isfinite(config.horizon) and config.horizon > 0.0):
            raise ScenarioError(f"--horizon must be finite and positive, got {config.horizon}")
        updates["horizon"] = config.horizon
    if config.samples_per_period is not None:
        updates["policy"] = checked("--samples-per-period", replace, scenario.policy,
                                    samples_per_period=config.samples_per_period)
    sc = replace(scenario, **updates) if updates else scenario
    if config.mode == "probe" and sc.probe is None:
        raise ScenarioError("scenario has no probe block and probe mode was requested")
    if config.mode == "probe" and sc.target is None:
        raise ScenarioError("probe mode needs a scenario with a known target")
    # omegas name output files and report rows by their tag; they increase,
    # so equal tags are neighbours
    for a, b in zip(sc.omegas, sc.omegas[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ScenarioError(f"omegas {a!r} and {b!r} share the tag {a:g} that "
                                "names their output files and report rows")
    # runs stay within sim.MAX_STEPS (averaged flows step no finer than these)
    horizon = sc.probe.horizon if config.mode == "probe" else sc.horizon
    for w in sc.omegas if config.mode != "verify" else ():
        checked(f"omega={w:g}", step_count, horizon, sc.build_system(w).fast_rate,
                sc.policy)
    if config.mode == "sweep" and len(sc.omegas) < 2:
        raise ScenarioError("sweep mode needs at least two omega values")
    if config.mode in ("compare", "sweep"):
        sc.lie_field()  # refuses a scenario without an averaged flow
    return sc


def _omega_csv(sc: Scenario, config: RunConfig, w: float) -> Path:
    tag = f"{w:g}".replace(".", "p")
    return config.out / f"{sc.name}_omega{tag}.csv"


def _run_simulate(sc: Scenario, config: RunConfig) -> int:
    cells = ((assemble_rhs(sc.build_system(w)), sc.x0, sc.horizon) for w in sc.omegas)
    for w, (traj, _) in zip(sc.omegas, run_cells(cells, sc.policy)):
        out = _omega_csv(sc, config, w)
        write_trajectory_csv(traj, out)
        print(f"wrote {out}" + (" (diverged)" if traj.diverged else ""))
    return 0


def _omega_sweep(sc: Scenario):
    return omega_sweep(sc.build_system, sc.lie_field(), sc.omegas, sc.x0, sc.horizon,
                       policy=sc.policy, target=sc.target)


def _run_compare(sc: Scenario, config: RunConfig) -> int:
    report = _omega_sweep(sc)
    write_trajectory_csv(report.lie_trajectory, config.out / f"{sc.name}_averaged.csv")
    named = {"averaged": report.lie_trajectory}
    lines = [f"compared against the averaged flow over horizon {sc.horizon:g}"]
    if sc.target is not None:
        lines.append(f"averaged flow final distance to target: {report.lie_final_distance:.6g}")
    for r in report.records:
        write_trajectory_csv(r.trajectory, _omega_csv(sc, config, r.omega))
        named[f"omega={r.omega:g}"] = r.trajectory
        row = f"omega={r.omega:g}: sup_error={r.sup_error:.6g}"
        if sc.target is not None:
            row += f" final_distance={r.final_distance_to_target:.6g}"
        lines.append(row + (" DIVERGED" if r.diverged else ""))
    if report.verdict:
        lines.append(f"sup_error decreases with omega: {report.verdict}")
    write_long_csv(named, config.out / f"{sc.name}_compare_long.csv")
    _report(sc, config, "compare_summary", "\n".join(lines))
    return 0


def _run_sweep(sc: Scenario, config: RunConfig) -> int:
    report = _omega_sweep(sc)
    write_sweep_csv(report, config.out / f"{sc.name}_sweep.csv")
    _report(sc, config, "sweep", report.summary())
    return 0


def _run_probe(sc: Scenario, config: RunConfig) -> int:
    report = stability_probe(sc.build_system, sc.target, sc.probe, sc.omegas,
                             policy=sc.policy, seed=config.seed)
    _report(sc, config, "probe", report.summary())
    return 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _verify_checks(sc: Scenario, config: RunConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = np.random.default_rng(config.seed)

    sys_ref = sc.build_system(sc.omegas[0])
    dithers = {s.name: s for _, s in sys_ref.channels}
    for name, sig in sorted(dithers.items()):
        rep = validate_assumptions(sig, tol=1e-9)
        checks.append(CheckResult(
            f"dither {name} periodic/zero-mean/bounded", rep.passed,
            f"period defect {rep.max_periodicity_defect:.1e}, "
            f"mean defect {rep.max_mean_defect:.1e}, sup {rep.measured_sup:.4g}"))

    if sc.game is not None:
        rep = check_potential_compatibility(sc.game, samples=1000, tol=1e-6,
                                            seed=config.seed)
        checks.append(CheckResult("potential compatibility (own-block gradients)",
                                  rep.passed, f"max defect {rep.max_defect:.3e}"))
        if sc.game.maximizer is not None:
            st = check_maximizer_stationarity(sc.game, tol=1e-5)
            checks.append(CheckResult("maximizer witness is stationary",
                                      st.passed,
                                      f"|grad F| = {st.gradient_norm:.3e}"))

    # analytic Jacobians of drift and channels against central differences,
    # row by row of the field stack: per sample point one stack evaluation at
    # its 2n shifted points and one reduction over the rows' defects; a sample
    # point where either Jacobian is not finite (a heading rate so large that
    # Omega*t overflows) fails the check
    stack = sys_ref.stack
    worst = 0.0
    ok = all(fld.has_jacobian for fld in sys_ref.fields)
    points, nonfinite = 20, []
    for _ in range(points):
        x = sc.x0 + rng.uniform(-1.0, 1.0, size=sc.dim)
        t = float(rng.uniform(0.0, 10.0))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                h, shifted = central_points(x)
                J_fd = central_differences(stack(t, shifted), h)
                J_stack = stack.jacobian(t, x)
            except FieldEvaluationError:
                J_stack = None
        if J_stack is None or not np.isfinite(J_stack).all():
            nonfinite.append(t)
            continue
        defects = (np.abs(J_stack - J_fd).max(axis=(1, 2))
                   / np.maximum(1.0, np.abs(J_stack).max(axis=(1, 2))))
        worst = max(worst, float(defects.max()))
        ok = ok and bool((defects < 1e-5).all())
    detail = f"worst relative defect {worst:.3e}"
    if nonfinite:
        ok = False
        finite = points - len(nonfinite)
        detail = (f"non-finite (nan or inf) Jacobian values at {len(nonfinite)} of "
                  f"{points} sample points, the first at t={nonfinite[0]:.6g}"
                  + (f"; {detail} at the other {finite}" if finite else ""))
    checks.append(CheckResult("analytic Jacobians vs finite differences", ok, detail))

    harmonics = sorted({s.harmonic for s in dithers.values() if s.is_sinusoid})
    if harmonics:
        worst = 0.0
        for n in harmonics:
            for outer, inner in ((sine(n), cosine(n)), (cosine(n), sine(n))):
                worst = max(worst, abs(nu_quadrature(outer, inner)
                                       - nu_closed_form(outer, inner)))
        checks.append(CheckResult("nu quadrature vs closed form",
                                  worst < 1e-8, f"worst defect {worst:.3e}"))
    return checks


def _run_verify(sc: Scenario, config: RunConfig) -> int:
    checks = _verify_checks(sc, config)
    width = max(len(c.name) for c in checks)
    lines = [f"verification of scenario {sc.name}:"]
    for c in checks:
        lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name:<{width}}  {c.detail}")
    failures = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _report(sc, config, "verify", "\n".join(lines))
    return failures


def _report(sc: Scenario, config: RunConfig, kind: str, text: str):
    """Write ``text`` to ``<name>_<kind>.txt`` in the output directory and print it."""
    (config.out / f"{sc.name}_{kind}.txt").write_text(text + "\n", encoding="utf-8")
    print(text)


def run(config: RunConfig) -> int:
    """Execute one mode; returns the process exit status."""
    scenario = load_scenario(config.scenario, strict=config.strict)
    scenario = _resolved(scenario, config)
    config.out.mkdir(parents=True, exist_ok=True)
    runner = {
        "simulate": _run_simulate,
        "compare": _run_compare,
        "sweep": _run_sweep,
        "probe": _run_probe,
        "verify": _run_verify,
    }[config.mode]
    return runner(scenario, config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ditherseek",
        description="Simulate and verify extremum-seeking systems against "
                    "their averaged (Lie bracket) flows.",
        epilog=f"bundled scenarios: {', '.join(list_bundled())}")
    parser.add_argument("--scenario", required=True,
                        help="scenario file path or bundled scenario name")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--omega", action="append", type=float, default=None,
                        help="override scenario frequencies (repeatable)")
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--samples-per-period", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=True, help="reject unknown scenario keys")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(mode=args.mode, scenario=args.scenario, out=Path(args.out),
                       omegas=tuple(args.omega) if args.omega else None,
                       horizon=args.horizon,
                       samples_per_period=args.samples_per_period,
                       seed=args.seed, strict=args.strict)
    try:
        return run(config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reading a scenario raises ScenarioError instead
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
