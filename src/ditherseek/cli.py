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

from .dynamics import FieldEvaluationError, assemble_rhs, finite_diff_jacobian
from .liebracket import nu_closed_form, nu_quadrature
from .scenarios import (Scenario, ScenarioError, check_omegas, list_bundled,
                        load_scenario, step_policy)
from .seekers import check_maximizer_stationarity, check_potential_compatibility
from .signals import cosine, sine, validate_assumptions
from .sim import (final_distance, integrate, non_increasing, omega_sweep,
                  stability_probe, step_count, sup_distance, write_long_csv,
                  write_sweep_csv, write_trajectory_csv)

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
    if config.seed < 0:
        raise ScenarioError(f"--seed must be non-negative, got {config.seed}")
    updates = {}
    if config.omegas:
        updates["omegas"] = check_omegas(sorted(config.omegas), "--omega")
    if config.horizon is not None:
        if not (math.isfinite(config.horizon) and config.horizon > 0.0):
            raise ScenarioError(f"--horizon must be finite and positive, got {config.horizon}")
        updates["horizon"] = config.horizon
    if config.samples_per_period is not None:
        updates["policy"] = step_policy(scenario.policy, "--samples-per-period",
                                        samples_per_period=config.samples_per_period)
    sc = replace(scenario, **updates) if updates else scenario
    # omegas name output files and report rows by their tag; they increase,
    # so equal tags are neighbours
    for a, b in zip(sc.omegas, sc.omegas[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ScenarioError(f"omegas {a!r} and {b!r} share the tag {a:g} that "
                                "names their output files and report rows")
    # runs stay within sim.MAX_STEPS (averaged flows step no finer than these)
    horizon = sc.probe.horizon if config.mode == "probe" and sc.probe else sc.horizon
    for w in sc.omegas if config.mode != "verify" else ():
        try:
            step_count(horizon, sc.build_system(w).fast_rate, sc.policy)
        except ValueError as exc:
            raise ScenarioError(f"omega={w:g}: {exc}") from None
    return sc


def _omega_tag(w: float) -> str:
    return f"{w:g}".replace(".", "p")


def _oscillatory_run(sc: Scenario, config: RunConfig, w: float):
    """Integrate the oscillatory system at ``w``; write its CSV; return both."""
    traj = integrate(assemble_rhs(sc.build_system(w)), sc.x0, sc.horizon,
                     policy=sc.policy)
    out = config.out / f"{sc.name}_omega{_omega_tag(w)}.csv"
    write_trajectory_csv(traj, out)
    return traj, out


def _run_simulate(sc: Scenario, config: RunConfig) -> int:
    for w in sc.omegas:
        traj, out = _oscillatory_run(sc, config, w)
        print(f"wrote {out}" + (" (diverged)" if traj.diverged else ""))
    return 0


def _run_compare(sc: Scenario, config: RunConfig) -> int:
    lie_traj = integrate(sc.lie_field(), sc.x0, sc.horizon, policy=sc.policy)
    lie_path = config.out / f"{sc.name}_averaged.csv"
    write_trajectory_csv(lie_traj, lie_path)
    named = {"averaged": lie_traj}
    target = sc.target
    lines = [f"compared against the averaged flow over horizon {sc.horizon:g}"]
    if target is not None:
        lines.append("averaged flow final distance to target: "
                     f"{final_distance(lie_traj, target):.6g}")
    sups = []
    for w in sc.omegas:
        traj, _ = _oscillatory_run(sc, config, w)
        named[f"omega={w:g}"] = traj
        sup = sup_distance(traj, lie_traj)
        sups.append(sup)
        row = f"omega={w:g}: sup_error={sup:.6g}"
        if target is not None:
            row += f" final_distance={final_distance(traj, target):.6g}"
        if traj.diverged:
            row += " DIVERGED"
        lines.append(row)
    if len(sups) >= 2:
        lines.append("sup_error decreases with omega: "
                     f"{'yes' if non_increasing(sups) else 'NO'}")
    write_long_csv(named, config.out / f"{sc.name}_compare_long.csv")
    summary = "\n".join(lines)
    (config.out / f"{sc.name}_compare_summary.txt").write_text(summary + "\n",
                                                               encoding="utf-8")
    print(summary)
    return 0


def _run_sweep(sc: Scenario, config: RunConfig) -> int:
    if len(sc.omegas) < 2:
        raise ScenarioError("sweep mode needs at least two omega values")
    report = omega_sweep(sc.build_system, sc.lie_field(), sc.omegas, sc.x0,
                         sc.horizon, policy=sc.policy, target=sc.target)
    write_sweep_csv(report, config.out / f"{sc.name}_sweep.csv")
    (config.out / f"{sc.name}_sweep.txt").write_text(report.summary() + "\n",
                                                     encoding="utf-8")
    print(report.summary())
    return 0


def _run_probe(sc: Scenario, config: RunConfig) -> int:
    probe = sc.probe
    if probe is None:
        raise ScenarioError("scenario has no probe block and probe mode was requested")
    if sc.target is None:
        raise ScenarioError("probe mode needs a scenario with a known target")
    report = stability_probe(sc.build_system, sc.target, probe.deltas,
                             probe.epsilon, sc.omegas, probe.t_f,
                             boundary_samples=probe.boundary_samples,
                             horizon=probe.horizon, policy=sc.policy,
                             seed=config.seed)
    (config.out / f"{sc.name}_probe.txt").write_text(report.summary() + "\n",
                                                     encoding="utf-8")
    print(report.summary())
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
    # row by row of the field stack; a sample point where either is not
    # finite (a heading rate so large that Omega*t overflows) fails the check
    stack = sys_ref.stack
    worst = 0.0
    ok = all(fld.has_jacobian for fld in sys_ref.fields)
    points, nonfinite = 20, []
    for _ in range(points):
        x = sc.x0 + rng.uniform(-1.0, 1.0, size=sc.dim)
        t = float(rng.uniform(0.0, 10.0))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                J_fd = finite_diff_jacobian(stack, t, x)
                J_stack = stack.jacobian(t, x)
            except FieldEvaluationError:
                J_stack = None
        if J_stack is None or not np.isfinite(J_stack).all():
            nonfinite.append(t)
            continue
        for J, J_row_fd in zip(J_stack, J_fd):
            defect = float(np.max(np.abs(J - J_row_fd)) / max(1.0, np.max(np.abs(J))))
            worst = max(worst, defect)
            ok = ok and defect < 1e-5
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
    text = "\n".join(lines)
    (config.out / f"{sc.name}_verify.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return failures


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
