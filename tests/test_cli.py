"""Command-line front end: modes, exit codes, determinism, strictness."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import ditherseek
from ditherseek import (AgentParams, analytic_lie_single_integrator, analytic_lie_unicycle,
                        assemble_rhs, build_single_integrator, build_unicycle, integrate,
                        load_scenario, quadratic_game, seekers)
from ditherseek.cli import MODES, RunConfig, _resolved, main, run
from ditherseek.scenarios import ScenarioError

FAST_SCALAR = """
name: tiny
dynamics: scalar
map:
  quadratic1d: {xstar: 1.0, scale: 1.0}
alpha: 1.0
omega: [20.0, 60.0]
initial_state: [0.0]
horizon: 2.0
step: {samples_per_period: 30, max_step: 0.01}
probe: {delta: [0.3], epsilon: 0.6, t_f: 2.0, boundary_samples: 2, horizon: 4.0}
"""


@pytest.fixture()
def scalar_file(tmp_path):
    p = tmp_path / "tiny.yaml"
    p.write_text(FAST_SCALAR, encoding="utf-8")
    return p


def test_simulate_writes_one_csv_per_omega(scalar_file, tmp_path):
    out = tmp_path / "out"
    status = run(RunConfig("simulate", str(scalar_file), out))
    assert status == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["tiny_omega20.csv", "tiny_omega60.csv"]
    header = (out / "tiny_omega20.csv").read_text().splitlines()[0]
    assert header == "t,x1"


def test_compare_writes_pairs_and_summary(scalar_file, tmp_path):
    out = tmp_path / "out"
    assert run(RunConfig("compare", str(scalar_file), out)) == 0
    assert (out / "tiny_averaged.csv").exists()
    assert (out / "tiny_compare_long.csv").exists()
    summary = (out / "tiny_compare_summary.txt").read_text()
    assert "omega=20" in summary and "omega=60" in summary
    assert "sup_error decreases with omega: yes" in summary


def test_sweep_mode_csv(scalar_file, tmp_path):
    out = tmp_path / "out"
    assert run(RunConfig("sweep", str(scalar_file), out)) == 0
    lines = (out / "tiny_sweep.csv").read_text().splitlines()
    assert lines[0] == "omega,sup_error,final_distance_to_target,steps,diverged"
    assert len(lines) == 3


def test_probe_mode_writes_report(scalar_file, tmp_path):
    out = tmp_path / "out"
    assert run(RunConfig("probe", str(scalar_file), out)) == 0
    text = (out / "tiny_probe.txt").read_text()
    assert "delta=0.3" in text


_DITHER_CHECKS = [f"dither {kind}:{n} periodic/zero-mean/bounded"
                  for kind in ("cosine", "sine") for n in (1, 2, 3)]
_FIELD_CHECKS = ["analytic Jacobians vs finite differences", "nu quadrature vs closed form"]
_GAME_CHECKS = (_DITHER_CHECKS + ["potential compatibility (own-block gradients)",
                                  "maximizer witness is stationary"] + _FIELD_CHECKS)
_VERIFY_CHECKS = {
    "scalar_basic": [_DITHER_CHECKS[0], _DITHER_CHECKS[3]] + _FIELD_CHECKS,
    "three_agent_single_integrator": _GAME_CHECKS,
    "three_agent_unicycle": _GAME_CHECKS,
}


@pytest.mark.parametrize("name", list(_VERIFY_CHECKS))
def test_verify_mode_passes_on_each_bundled_scenario(tmp_path, name):
    # the check names in order and the closing count, as the verify report prints them
    assert run(RunConfig("verify", name, tmp_path / "v")) == 0
    lines = (tmp_path / "v" / f"{name}_verify.txt").read_text().splitlines()
    assert lines[0] == f"verification of scenario {name}:"
    checks = _VERIFY_CHECKS[name]
    assert [line[9:].split("  ")[0] for line in lines[1:-1]] == checks
    assert all(line.startswith("  [PASS] ") for line in lines[1:-1])
    assert lines[-1] == f"{len(checks)}/{len(checks)} checks passed"


def test_verify_checks_compatibility_with_one_gradient_call_per_map(tmp_path, monkeypatch):
    # every gradient takes all 1,000 points at once
    calls = []

    def counted(name, grad):
        def fn(x):
            calls.append((name, x.shape))
            return grad(x)
        return fn

    check = ditherseek.cli.check_potential_compatibility

    def counted_check(game, **kwargs):
        maps = tuple(replace(m, grad=counted(f"agent {i}", m.grad))
                     for i, m in enumerate(game.maps))
        return check(replace(game, maps=maps,
                             potential_grad=counted("potential", game.potential_grad)),
                     **kwargs)

    monkeypatch.setattr(ditherseek.cli, "check_potential_compatibility", counted_check)
    assert run(RunConfig("verify", "three_agent_unicycle", tmp_path / "v")) == 0
    assert calls == [("agent 0", (1000, 6)), ("agent 1", (1000, 6)),
                     ("agent 2", (1000, 6)), ("potential", (1000, 6))]
    assert "[PASS] potential compatibility" in (
        tmp_path / "v" / "three_agent_unicycle_verify.txt").read_text()


def test_identical_runs_are_byte_identical(scalar_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(RunConfig("simulate", str(scalar_file), out1, seed=5))
    run(RunConfig("simulate", str(scalar_file), out2, seed=5))
    a = (out1 / "tiny_omega20.csv").read_bytes()
    b = (out2 / "tiny_omega20.csv").read_bytes()
    assert a == b


def test_zero_horizon_override_rejected(scalar_file, tmp_path, capsys):
    status = main(["--scenario", str(scalar_file), "--mode", "simulate",
                   "--horizon", "0", "--out", str(tmp_path / "o")])
    assert status == 2
    assert "horizon" in capsys.readouterr().err


def test_misspelled_key_fails_before_any_computation(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(FAST_SCALAR.replace("initial_state:", "initial_sate:"),
                   encoding="utf-8")
    status = main(["--scenario", str(bad), "--mode", "simulate",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert "initial_sate" in err or "initial_state" in err
    assert not (tmp_path / "o").exists()


def test_no_strict_accepts_extra_keys(tmp_path):
    doc = tmp_path / "extra.yaml"
    doc.write_text(FAST_SCALAR + "note: extra\n", encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", "simulate",
                   "--out", str(tmp_path / "o"), "--no-strict"])
    assert status == 0


def test_omega_override(scalar_file, tmp_path):
    out = tmp_path / "out"
    status = main(["--scenario", str(scalar_file), "--mode", "simulate",
                   "--omega", "30", "--out", str(out)])
    assert status == 0
    assert (out / "tiny_omega30.csv").exists()


def test_unknown_bundled_name_exits_2(tmp_path, capsys):
    status = main(["--scenario", "missing_scenario", "--mode", "simulate",
                   "--out", str(tmp_path / "o")])
    assert status == 2


def test_compare_trajectory_values_are_plausible(scalar_file, tmp_path):
    out = tmp_path / "out"
    run(RunConfig("compare", str(scalar_file), out))
    data = np.genfromtxt(out / "tiny_omega60.csv", delimiter=",", names=True)
    assert data["t"][0] == 0.0
    assert abs(data["x1"][-1] - 1.0) < 0.5  # moved toward the maximizer


def _exit_and_error(argv, tmp_path, capsys):
    status = main(argv + ["--mode", "simulate", "--out", str(tmp_path / "o")])
    return status, capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_nonfinite_omega_override_rejected(scalar_file, tmp_path, capsys, value):
    status, err = _exit_and_error(["--scenario", str(scalar_file), f"--omega={value}"],
                                  tmp_path, capsys)
    assert status == 2
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [".inf", ".nan"])
def test_nonfinite_scenario_omega_rejected(tmp_path, capsys, value):
    doc = tmp_path / "bad.yaml"
    doc.write_text(FAST_SCALAR.replace("omega: [20.0, 60.0]", f"omega: [20.0, {value}]"),
                   encoding="utf-8")
    status, err = _exit_and_error(["--scenario", str(doc)], tmp_path, capsys)
    assert status == 2
    assert err.startswith("error:") and "finite" in err


def _bundled_text(name):
    return resources.files("ditherseek").joinpath("data", f"{name}.yaml").read_text("utf-8")


@pytest.mark.parametrize("doc,old,new", [
    ("tiny", "horizon: 2.0", "horizon: .inf"),
    ("tiny", "max_step: 0.01", "max_step: .nan"),
    ("tiny", "alpha: 1.0", "alpha: .inf"),
    ("tiny", "initial_state: [0.0]", "initial_state: [.nan]"),
    ("tiny", "scale: 1.0", "scale: .nan"),
    ("tiny", "epsilon: 0.6", "epsilon: .nan"),
    ("three_agent_unicycle", "Omega: 1.0", "Omega: .inf"),
    ("three_agent_unicycle", 'c: "3/10"', "c: .nan"),
    ("three_agent_unicycle", "h: 1.0", "h: .nan"),
])
def test_nonfinite_scenario_number_rejected(tmp_path, capsys, doc, old, new):
    text = FAST_SCALAR if doc == "tiny" else _bundled_text(doc)
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new, 1), encoding="utf-8")
    status, err = _exit_and_error(["--scenario", str(bad)], tmp_path, capsys)
    assert status == 2
    assert err.startswith("error:") and "finite" in err and old.split(":")[0] in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_horizon_override_rejected(scalar_file, tmp_path, capsys, value):
    status, err = _exit_and_error(["--scenario", str(scalar_file), "--horizon", value],
                                  tmp_path, capsys)
    assert status == 2
    assert err.startswith("error:") and "horizon" in err and "finite" in err


@pytest.mark.parametrize("mode", ["verify", "probe"])
def test_negative_seed_rejected(scalar_file, tmp_path, capsys, mode):
    status = main(["--scenario", str(scalar_file), "--mode", mode, "--seed", "-1",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert not (tmp_path / "o").exists()


def test_horizon_override_refused_in_probe_mode(scalar_file, tmp_path, capsys):
    status = main(["--scenario", str(scalar_file), "--mode", "probe", "--horizon", "0.1",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--horizon" in err and "probe.horizon" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["simulate", "compare", "sweep"])
def test_huge_horizon_override_rejected(scalar_file, tmp_path, capsys, mode):
    status = main(["--scenario", str(scalar_file), "--mode", mode, "--horizon", "1e300",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_STEPS" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode,old,new", [
    ("simulate", "horizon: 2.0", "horizon: 1e300"),
    ("probe", "boundary_samples: 2, horizon: 4.0", "boundary_samples: 2, horizon: 1e300"),
    ("probe", "t_f: 2.0, boundary_samples: 2, horizon: 4.0", "t_f: 1e300"),
])
def test_huge_scenario_horizon_rejected(tmp_path, capsys, mode, old, new):
    doc = tmp_path / "long.yaml"
    doc.write_text(FAST_SCALAR.replace(old, new, 1), encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", mode, "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_STEPS" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["simulate", "compare", "sweep", "probe"])
def test_huge_omega_override_rejected(scalar_file, tmp_path, capsys, mode):
    # the fast rate's step rounds to 0.0
    status = main(["--scenario", str(scalar_file), "--mode", mode, "--omega", "1e308",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not positive" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["simulate", "compare", "sweep", "probe"])
@pytest.mark.parametrize("old,new", [("omega: [8.0, 80.0]", "omega: [8.0, 1e307]"),
                                     ("Omega: 1.0", "Omega: 1e308")])
def test_huge_scenario_rates_rejected(tmp_path, capsys, mode, old, new):
    doc = tmp_path / "fast.yaml"
    doc.write_text(_bundled_text("three_agent_unicycle").replace(old, new, 1),
                   encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", mode, "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not positive" in err
    assert not (tmp_path / "o").exists()



@pytest.mark.parametrize("rate", ["1e308", "1e307"])
def test_verify_reports_nonfinite_jacobians_of_a_huge_heading_rate(tmp_path, capsys, rate):
    # cos(Omega_i * t) overflows to nan at some sampled times: the Jacobian
    # check fails and says so, with no traceback
    doc = tmp_path / "fast.yaml"
    doc.write_text(_bundled_text("three_agent_unicycle").replace("Omega: 1.0", f"Omega: {rate}",
                                                                  1), encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", "verify", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert status == 1 and captured.err == ""
    failed = [line for line in captured.out.splitlines() if "[FAIL]" in line]
    assert len(failed) == 1
    assert "analytic Jacobians vs finite differences" in failed[0]
    assert "non-finite (nan or inf) Jacobian values at" in failed[0]
    assert captured.out.endswith("9/10 checks passed\n")


def _per_point_jacobian_check(sc, seed):
    """The Jacobian check as a loop over sample points, one stack evaluation per
    shifted point and one defect per stack row: the reference that verify's
    batched check must render the same."""
    rng = np.random.default_rng(seed)
    sys_ref = sc.build_system(sc.omegas[0])
    stack = sys_ref.stack
    worst = 0.0
    ok = all(fld.has_jacobian for fld in sys_ref.fields)
    points, nonfinite = 20, []
    for _ in range(points):
        x = sc.x0 + rng.uniform(-1.0, 1.0, size=sc.dim)
        t = float(rng.uniform(0.0, 10.0))
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
        with np.errstate(over="ignore", invalid="ignore"):
            columns = []
            for k in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                columns.append((stack(t, xp) - stack(t, xm)) / (2.0 * h))
            J_fd = np.stack(columns, axis=-1)
            J_stack = stack.jacobian(t, x)
        if not (np.isfinite(J_fd).all() and np.isfinite(J_stack).all()):
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
    return ok, detail


@pytest.mark.parametrize("seed", [2023, 7])
@pytest.mark.parametrize("name", list(_VERIFY_CHECKS) + ["huge_heading_rate"])
def test_the_jacobian_check_equals_the_per_point_reference(tmp_path, name, seed):
    if name == "huge_heading_rate":  # non-finite at some sample points, not at all
        doc = tmp_path / "fast.yaml"
        doc.write_text(_bundled_text("three_agent_unicycle").replace(
            "Omega: 1.0", "Omega: 1e307", 1), encoding="utf-8")
        name = str(doc)
    sc = load_scenario(name)
    checks = ditherseek.cli._verify_checks(sc, RunConfig("verify", name, tmp_path, seed=seed))
    got = [(c.passed, c.detail) for c in checks
           if c.name == "analytic Jacobians vs finite differences"]
    assert got == [_per_point_jacobian_check(sc, seed)]


@pytest.mark.parametrize("name", list(_VERIFY_CHECKS))
def test_the_jacobian_check_evaluates_the_stack_once_per_sample_point(tmp_path, monkeypatch,
                                                                       name):
    # one call on the 2n shifted points of each of the 20 sample points
    shapes = []
    call = ditherseek.dynamics.FieldStack.__call__

    def counted(stack, t, x):
        shapes.append(np.shape(x))
        return call(stack, t, x)

    monkeypatch.setattr(ditherseek.dynamics.FieldStack, "__call__", counted)
    assert run(RunConfig("verify", name, tmp_path / "v")) == 0
    n = load_scenario(name).dim
    assert shapes == [(2 * n, n)] * 20


def _run_with_line(tmp_path, doc, key, line, mode):
    """Run ``mode`` on bundled ``doc`` with its ``key`` line replaced by ``line``;
    the exit status and the scenario as loaded."""
    text = _bundled_text(doc)
    start = text.index(key)
    end = text.index("\n", start)
    bad = tmp_path / "huge.yaml"
    bad.write_text(text[:start] + line + text[end:], encoding="utf-8")
    # probe mode refuses --horizon: it integrates over the scenario's probe.horizon
    horizon = [] if mode == "probe" else ["--horizon", "1"]
    status = main(["--scenario", str(bad), "--mode", mode, *horizon,
                   "--out", str(tmp_path / "o")])
    return status, load_scenario(str(bad))


@pytest.mark.parametrize("mode,report", [("simulate", "(diverged)"), ("compare", "DIVERGED"),
                                         ("sweep", "DIVERGED"), ("verify", "[FAIL]")])
@pytest.mark.parametrize("doc", ["three_agent_single_integrator", "three_agent_unicycle",
                                 "scalar_basic"])
def test_a_huge_initial_state_is_reported_not_a_traceback(tmp_path, capsys, doc, mode, report):
    # x0 + x1 overflows to inf, where the bundled maps take sin and cos; the
    # scalar map's (x - xstar) ** 2 overflows on Python floats
    state = "[1.0e200]" if doc == "scalar_basic" else "[1.0e308, 1.0e308, 0, 0, 0, 0, 0, 0, 0]"
    status, sc = _run_with_line(tmp_path, doc, "initial_state:", f"initial_state: {state}", mode)
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = [line for line in captured.out.splitlines() if report in line]
    if mode == "verify":
        assert status == 1
        assert len(lines) == 1 and "analytic Jacobians vs finite differences" in lines[0]
    else:
        assert status == 0
        assert len(lines) == len(sc.omegas)


@pytest.mark.parametrize("mode,report", [("simulate", "(diverged)"), ("compare", "DIVERGED"),
                                         ("sweep", "DIVERGED"), ("probe", "DIVERGED")])
def test_a_huge_scalar_amplitude_is_reported_not_a_traceback(tmp_path, capsys, mode, report):
    # the first step takes the state past 1e154, where (x - xstar) ** 2 overflows
    status, sc = _run_with_line(tmp_path, "scalar_basic", "alpha:", "alpha: 1.0e160", mode)
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    lines = [line for line in captured.out.splitlines() if report in line]
    cells = len(sc.probe.deltas) if mode == "probe" else 1
    assert len(lines) == cells * len(sc.omegas)


@pytest.mark.parametrize("mode", ["compare", "sweep"])
def test_a_gain_whose_square_overflows_is_reported_not_a_traceback(tmp_path, capsys, mode):
    # c ** 2 raises OverflowError on Python floats past about 1.3e154; the
    # closed-form averaged field reads it as inf, and its run diverges
    text = _bundled_text("three_agent_single_integrator")
    doc = tmp_path / "huge_gain.yaml"
    doc.write_text(text.replace('c: "3/10"', "c: 1e308"), encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", mode, "--horizon", "1",
                   "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    assert captured.out.count("DIVERGED") == 2
    assert "averaged flow final distance" in captured.out


def test_the_closed_form_squares_each_gain_as_a_python_float():
    c = 4.025030223315786  # c * c and c ** 2 round to different floats
    assert c * c != c ** 2
    game = seekers.three_agent_game()
    params = [AgentParams(c, 1.0, 1.0, a) for a in (1, 2, 3)]
    z = load_scenario("three_agent_single_integrator").x0 + 0.25
    want = []
    for i, m in enumerate(game.maps):  # the docstring's formula, with c ** 2
        f_val, row = m.fn(z[:6]), m.grad(z[:6])
        d1, d2, g = row[2 * i], row[2 * i + 1], f_val - z[6 + i]
        want += [0.5 * (c * d1 - c ** 2 * d2 * g), 0.5 * (c * d2 + c ** 2 * d1 * g)]
    want += [-z[6 + i] + m.fn(z[:6]) for i, m in enumerate(game.maps)]
    assert analytic_lie_single_integrator(game, params)(0.0, z).tolist() == want


def test_a_probe_of_a_huge_shell_warns_nothing(tmp_path, capsys):
    # the distances of states near 1e308 to the target overflow their squares
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, sc = _run_with_line(
            tmp_path, "scalar_basic", "probe:",
            "probe: {delta: [1e308], epsilon: 0.75, t_f: 8.0, boundary_samples: 4, "
            "horizon: 16.0}", "probe")
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    assert captured.out.count("DIVERGED") == len(sc.omegas)


def _many_agents_text(dynamics, n):
    """A ``dynamics`` scenario of ``n`` agents on a quadratic map."""
    agents = "".join(f'  - {{c: 0.3, alpha: 1.0, h: 1.0, a: "{k + 1}", d: "1"}}\n'
                     for k in range(n))
    return (f"name: many\ndynamics: {dynamics}\n"
            + ("Omega: 1.0\n" if dynamics == "unicycle" else "")
            + f"map:\n  quadratic: {{q_diag: {[1.0] * 2 * n}, xstar: {[0.0] * 2 * n}}}\n"
            + f"agents:\n{agents}omega: [10.0, 20.0]\ninitial_state: {[0.0] * 3 * n}\n"
            + "horizon: 0.1\nprobe: {delta: [0.1], epsilon: 0.5, t_f: 0.1}\n")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dynamics", ["single_integrator", "unicycle"])
def test_more_agents_than_the_bound_are_refused_before_any_layout(tmp_path, capsys, monkeypatch,
                                                                   dynamics, mode):
    def refuse(*args):
        raise AssertionError("agent layout allocated")

    monkeypatch.setattr(seekers, "_AgentLoops", refuse)
    n = seekers.MAX_AGENTS + 1
    doc = tmp_path / "many.yaml"
    doc.write_text(_many_agents_text(dynamics, n), encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", mode, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error:") and f"at most {seekers.MAX_AGENTS}" in err
    assert not (tmp_path / "o").exists()


def test_builders_refuse_more_agents_than_the_bound_before_any_layout(monkeypatch):
    monkeypatch.setattr(seekers, "_AgentLoops", None)  # calling it would fail
    n = seekers.MAX_AGENTS + 1
    game = quadratic_game([1.0] * 2 * n, [0.0] * 2 * n)
    params = [AgentParams(0.3, 1.0, 1.0, k + 1, 1) for k in range(n)]
    for build in (lambda: build_single_integrator(game, params, 10.0),
                  lambda: build_unicycle(game, params, 1.0, 10.0),
                  lambda: analytic_lie_single_integrator(game, params),
                  lambda: analytic_lie_unicycle(game, params, 1.0)):
        with pytest.raises(ValueError, match=f"at most {seekers.MAX_AGENTS}"):
            build()


@pytest.mark.parametrize("dynamics", ["single_integrator", "unicycle"])
def test_the_agent_bound_itself_loads(tmp_path, dynamics):
    doc = tmp_path / "many.yaml"
    doc.write_text(_many_agents_text(dynamics, seekers.MAX_AGENTS), encoding="utf-8")
    assert load_scenario(str(doc)).game.n_agents == seekers.MAX_AGENTS


@pytest.mark.parametrize("mode", ["simulate", "compare"])
def test_omegas_with_one_file_tag_rejected(tmp_path, capsys, mode):
    # both print as omega=20: one would overwrite the other's CSV and series
    doc = tmp_path / "twin.yaml"
    doc.write_text(FAST_SCALAR.replace("omega: [20.0, 60.0]", "omega: [20.0, 20.000001]"),
                   encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", mode, "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "20.0 " in err and "20.000001" in err
    assert not (tmp_path / "o").exists()


def test_probe_attraction_at_a_horizon_equal_to_t_f_reads_the_final_sample(tmp_path, capsys):
    # the last stored time rounds just below t_f; attraction must not read 0
    doc = tmp_path / "edge.yaml"
    doc.write_text(FAST_SCALAR.replace("omega: [20.0, 60.0]", "omega: [20.0]").replace(
        "t_f: 2.0, boundary_samples: 2, horizon: 4.0",
        "t_f: 1.39, boundary_samples: 2, horizon: 1.39"), encoding="utf-8")
    assert main(["--scenario", str(doc), "--mode", "probe", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    sc = load_scenario(str(doc))
    rhs = assemble_rhs(sc.build_system(20.0))
    final = max(abs(integrate(rhs, sc.target + d, 1.39, policy=sc.policy).final_state[0]
                    - sc.target[0]) for d in (-0.3, 0.3))
    assert final > 0.0
    assert f"attraction={final:.6g} " in out


def test_probe_horizon_short_of_t_f_rejected(tmp_path, capsys):
    bad = tmp_path / "short.yaml"
    bad.write_text(_bundled_text("scalar_basic").replace(
        "probe: {delta: [0.25, 0.5], epsilon: 0.75, t_f: 8.0, boundary_samples: 4, "
        "horizon: 16.0}",
        "probe: {delta: [0.25, 0.5], epsilon: 0.75, t_f: 8.0, horizon: 2.0}"),
        encoding="utf-8")
    status = main(["--scenario", str(bad), "--mode", "probe", "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "probe.horizon" in err and "t_f" in err


def test_samples_per_period_override_below_four_rejected(scalar_file, tmp_path, capsys):
    status, err = _exit_and_error(["--scenario", str(scalar_file),
                                   "--samples-per-period", "2"], tmp_path, capsys)
    assert status == 2
    assert err.startswith("error:") and "samples" in err


@pytest.mark.parametrize("value", ["foo", "4.9", "2", "true"])
def test_scenario_samples_per_period_must_be_an_integer_of_at_least_four(
        tmp_path, capsys, value):
    doc = tmp_path / "bad.yaml"
    doc.write_text(FAST_SCALAR.replace("samples_per_period: 30",
                                       f"samples_per_period: {value}"), encoding="utf-8")
    status, err = _exit_and_error(["--scenario", str(doc)], tmp_path, capsys)
    assert status == 2
    assert err.startswith("error:") and "samples_per_period" in err


@pytest.mark.parametrize("mode,verdict", [("sweep", "non-increasing in omega: NO"),
                                          ("compare", "decreases with omega: NO")])
def test_diverged_cells_report_inf_and_a_no_verdict(tmp_path, capsys, mode, verdict):
    # gain c = 40 on every agent blows the bundled game up within a few steps
    text = _bundled_text("three_agent_single_integrator")
    doc = tmp_path / "c40.yaml"
    doc.write_text(text.replace('c: "3/10"', "c: 40"), encoding="utf-8")
    out = tmp_path / "o"
    status = main(["--scenario", str(doc), "--mode", mode, "--horizon", "3",
                   "--out", str(out)])
    assert status == 0
    report = capsys.readouterr().out
    assert report.count("sup_error=inf") == 2
    # the last finite state of a diverged run is no distance to the target
    assert report.count("final_distance=inf") == 2
    assert report.count("DIVERGED") == 2
    assert verdict in report
    if mode == "sweep":
        rows = (out / "three_agent_single_integrator_sweep.csv").read_text().splitlines()
        assert [row.split(",")[1:3] for row in rows[1:]] == [["inf", "inf"]] * 2


def test_sweep_with_one_omega_fails_cleanly(scalar_file, tmp_path, capsys):
    status = main(["--scenario", str(scalar_file), "--mode", "sweep", "--omega", "100",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "two omega" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode, edit, message", [
    ("probe", ("probe: {", "# probe: {"), "no probe block"),
    ("compare", ("horizon: 2.0", "horizon: 2.0\namplitude_exponent: 1.0"), "averaged"),
    ("sweep", ("horizon: 2.0", "horizon: 2.0\namplitude_exponent: 1.0"), "averaged"),
], ids=["probe-without-block", "compare-exponent-1", "sweep-exponent-1"])
def test_mode_preconditions_refused_before_any_output(tmp_path, capsys, mode, edit, message):
    doc = tmp_path / "doc.yaml"
    doc.write_text(FAST_SCALAR.replace(*edit), encoding="utf-8")
    out = tmp_path / "o"
    status = main(["--scenario", str(doc), "--mode", mode, "--out", str(out)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_probe_without_a_known_target_refused_before_any_output():
    sc = load_scenario("three_agent_single_integrator")
    sc = replace(sc, game=replace(sc.game, maximizer=None))
    with pytest.raises(ScenarioError, match="known target"):
        _resolved(sc, RunConfig("probe", sc.name, "unused"))


@pytest.mark.parametrize("mode", ["simulate", "probe", "verify"])
def test_modes_without_an_averaged_flow_run_at_amplitude_exponent_one(tmp_path, mode):
    doc = tmp_path / "doc.yaml"
    doc.write_text(FAST_SCALAR + "amplitude_exponent: 1.0\n", encoding="utf-8")
    assert main(["--scenario", str(doc), "--mode", mode, "--out", str(tmp_path / "o")]) == 0


def _no_quadrature(*args, **kwargs):
    raise AssertionError("nu quadrature reached")


@pytest.mark.parametrize("value", ["quadrature:abc", "quadrature:4",
                                   "quadrature:100000000000"])
def test_bad_nu_method_fails_cleanly(tmp_path, capsys, monkeypatch, value):
    # a grid of 10^11 nodes would need 745 GiB: the refusal comes before any quadrature
    monkeypatch.setattr("ditherseek.liebracket.nu_quadrature", _no_quadrature)
    doc = tmp_path / "bad.yaml"
    doc.write_text(FAST_SCALAR + f"nu_method: {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    status = main(["--scenario", str(doc), "--mode", "compare", "--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err.startswith("error: scenario.nu_method:")
    assert not out.exists()


@pytest.mark.parametrize("data,message", [
    (b"\xff\xfe\x00bad", "cannot read scenario file"),
    (FAST_SCALAR.replace("omega: [20.0, 60.0]", "omega: " + "[" * 500 + "20.0" + "]" * 500)
     .encode(), "scenario syntax error"),
    ((FAST_SCALAR + "description: 2001-13-01\n").encode(), "scenario syntax error"),
], ids=["not_utf8", "nested_500_deep", "bad_date"])
def test_unreadable_scenario_file_fails_cleanly(tmp_path, capsys, data, message):
    doc = tmp_path / "bad.yaml"
    doc.write_bytes(data)
    status = main(["--scenario", str(doc), "--mode", "simulate",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_scenario_name_cannot_escape_the_output_directory(tmp_path, capsys):
    doc = tmp_path / "escape.yaml"
    doc.write_text(FAST_SCALAR.replace("name: tiny", "name: ../escaped"), encoding="utf-8")
    out = tmp_path / "runs" / "o"
    status = main(["--scenario", str(doc), "--mode", "sweep", "--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.rglob("escaped*"))


@pytest.mark.parametrize("new, key, kind", [
    ("name: [a, b]", "name", "list"),
    ("name: {a: b}", "name", "dict"),
    ("name: !!set {a, b}", "name", "set"),
    ("name: tiny\ndescription: [a, b]", "description", "list"),
    ("name: tiny\ndescription: {a: b}", "description", "dict"),
    ("name: tiny\nnu_method: [a, b]", "nu_method", "list"),
    ('name: tiny\ndither: [[a], "cosine:1"]', "dither", "list"),
    # a null or boolean is not read as the text 'None', 'True' or 'False'
    ("name:", "name", "NoneType"),
    ("name: null", "name", "NoneType"),
    ("name: true", "name", "bool"),
    ("name: tiny\ndescription: false", "description", "bool"),
    ("name: tiny\nnu_method: ~", "nu_method", "NoneType"),
    ('name: tiny\ndither: [true, "cosine:1"]', "dither", "bool"),
], ids=["name_list", "name_dict", "name_set", "description_list", "description_dict",
        "nu_method_list", "dither_entry_list", "name_empty", "name_null", "name_true",
        "description_false", "nu_method_null", "dither_entry_true"])
def test_a_collection_as_name_or_description_is_refused(tmp_path, capsys, new, key, kind):
    doc = tmp_path / "collection.yaml"
    doc.write_text(FAST_SCALAR.replace("name: tiny", new), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--scenario", str(doc), "--mode", "verify", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: scenario.{key}: expected a string or a "
                                       f"number, got {kind}\n")
    assert not out.exists()


def test_a_number_as_name_or_description_still_loads(tmp_path):
    doc = tmp_path / "numbers.yaml"
    doc.write_text(FAST_SCALAR.replace("name: tiny", "name: 2023\ndescription: 1.5"),
                   encoding="utf-8")
    assert main(["--scenario", str(doc), "--mode", "verify", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "2023_verify.txt").is_file()


@pytest.mark.parametrize("taken,as_directory", [("o", False), ("o/tiny_omega20.csv", True)])
def test_output_path_taken_fails_cleanly(scalar_file, tmp_path, capsys, taken, as_directory):
    # a file where --out must create a directory, or a directory where a CSV goes
    path = tmp_path / taken
    if as_directory:
        path.mkdir(parents=True)
    else:
        path.write_text("taken", encoding="utf-8")
    status = main(["--scenario", str(scalar_file), "--mode", "simulate",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and str(path) in err


@pytest.mark.parametrize("doc,old,new,flags,line", [
    ("scalar_basic", "omega: [100.0, 400.0, 1600.0]", "omega: [100.0, 50.0]", [],
     "scenario.omega: frequencies must be distinct and strictly increasing"),
    ("scalar_basic", '["cosine:1", "sine:1"]', '["cosine:0", "sine:1"]', [],
     "scenario.dither: harmonic must be a positive integer"),
    ("scalar_basic", "nu_method: closed_form", "nu_method: foo", [],
     "scenario.nu_method: unknown nu method 'foo'; expected closed_form or "
     "quadrature:<nodes>"),
    ("scalar_basic", "samples_per_period: 40", "samples_per_period: 2", [],
     "scenario.step: samples_per_period must be at least 4, got 2"),
    ("three_agent_unicycle", 'c: "3/10"', "c: -1", [],
     "scenario.agents[0]: feedback gain c must be nonnegative"),
    ("three_agent_unicycle", 'c: "3/10"', 'c: "x"', [],
     "scenario.agents[0].c: cannot parse 'x' as a number"),
    ("three_agent_unicycle", 'a: "1"', 'a: "2"', [],
     "scenario: dither frequency ratios must be distinct across agents"),
    ("three_agent_unicycle", "map: {builtin: three_agent}",
     "map: {quadratic: {q_diag: [1, 1, 1, 1, 1, -3], xstar: [0, 0, 0, 0, 0, 0]}}", [],
     "scenario.map.quadratic: quadratic weights must be positive"),
    ("three_agent_unicycle", "omega: [8.0, 80.0]", "omega: [8.0, 1e307]", [],
     "omega=1e+307: fast rate 3e+307 gives the step 0, not positive"),
    ("scalar_basic", "", "", ["--omega", "nan"],
     "--omega: frequencies must be finite and positive, got [nan]"),
    ("scalar_basic", "", "", ["--samples-per-period", "2"],
     "--samples-per-period: samples_per_period must be at least 4, got 2"),
])
def test_refusal_lines_are_pinned(tmp_path, capsys, doc, old, new, flags, line):
    bad = tmp_path / "bad.yaml"
    bad.write_text(_bundled_text(doc).replace(old, new, 1), encoding="utf-8")
    status = main(["--scenario", str(bad), *flags, "--mode", "compare",
                   "--horizon", "0.05", "--out", str(tmp_path / "o")])
    assert status == 2
    assert capsys.readouterr().err == f"error: {line}\n"


def test_a_probe_imports_no_scipy(tmp_path):
    # a fresh interpreter: the test session itself has scipy loaded as an oracle
    text = (resources.files("ditherseek") / "data" / "scalar_basic.yaml").read_text(
        encoding="utf-8")
    probe = "probe: {delta: [0.25, 0.5], epsilon: 0.75, t_f: 8.0, boundary_samples: 4"
    assert probe in text
    path = tmp_path / "scalar_basic.yaml"
    path.write_text(text.replace(probe, "probe: {delta: [0.25, 0.5], epsilon: 0.75, "
                                        "t_f: 0.05, boundary_samples: 4")
                    .replace("horizon: 16.0}", "horizon: 0.1}"), encoding="utf-8")
    argv = ["--scenario", str(path), "--mode", "probe", "--omega", "100",
            "--out", str(tmp_path / "o")]
    code = ("import sys\n"
            "from ditherseek.cli import main\n"
            f"status = main({argv!r})\n"
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(ditherseek.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "delta=0.25 omega=100" in done.stdout
    assert done.stdout.splitlines()[-1] == "0 []"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("old, new, message", [
    ("omega: [20.0, 60.0]", "omega: [20.0, 60.0",
     "at line 8, column 14: did not find expected ',' or ']'"),
    ("alpha: 1.0", "\talpha: 1.0",
     "at line 6, column 1: found character that cannot start any token"),
    ("alpha: 1.0", "alpha: 1.0: 2.0",
     "at line 6, column 11: mapping values are not allowed in this context"),
    ("name: tiny", "%\nname: tiny", "at line 2, column 2: could not find expected directive name"),
], ids=["unclosed_flow", "tab", "mapping_value", "directive"])
def test_a_malformed_scenario_names_libyaml_s_problem(tmp_path, capsys, old, new, message):
    doc = tmp_path / "bad.yaml"
    doc.write_text(FAST_SCALAR.replace(old, new), encoding="utf-8")
    out = tmp_path / "o"
    status = main(["--scenario", str(doc), "--mode", "simulate", "--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err == f"error: scenario syntax error {message}\n"
    assert not out.exists()
