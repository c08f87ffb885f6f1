"""Command-line front end: modes, exit codes, determinism, strictness."""

from importlib import resources

import numpy as np
import pytest

from ditherseek import assemble_rhs, integrate, load_scenario
from ditherseek.cli import RunConfig, main, run

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


def test_verify_mode_passes_on_bundled_scalar(tmp_path):
    assert run(RunConfig("verify", "scalar_basic", tmp_path / "v")) == 0


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


@pytest.mark.parametrize("value", ["quadrature:abc", "quadrature:4"])
def test_bad_nu_method_fails_cleanly(tmp_path, capsys, value):
    doc = tmp_path / "bad.yaml"
    doc.write_text(FAST_SCALAR + f"nu_method: {value}\n", encoding="utf-8")
    status = main(["--scenario", str(doc), "--mode", "compare",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nu_method" in err


def test_scenario_name_cannot_escape_the_output_directory(tmp_path, capsys):
    doc = tmp_path / "escape.yaml"
    doc.write_text(FAST_SCALAR.replace("name: tiny", "name: ../escaped"), encoding="utf-8")
    out = tmp_path / "runs" / "o"
    status = main(["--scenario", str(doc), "--mode", "sweep", "--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.rglob("escaped*"))


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
