"""Integration, trajectory comparison, sweeps, probes, and decay checks."""

import dataclasses
import math

import numpy as np
import pytest

from ditherseek import (AgentParams, DitherSignal, InputAffineSystem, OmegaRecord,
                        ProbeConfig, StepPolicy, SweepReport, Trajectory, VectorField,
                        analytic_lie_scalar, analytic_lie_single_integrator,
                        assemble_rhs, averaging_decay_check, build_scalar_seeker,
                        build_single_integrator, cosine, custom, equilibrium_state,
                        integrate, omega_sweep, sine, square, stability_probe,
                        sup_distance, three_agent_game, write_long_csv,
                        write_sweep_csv, write_trajectory_csv)
from ditherseek import sim
from ditherseek.scenarios import bundled_scenario
from helpers import constant_field, zero_field

RNG = np.random.default_rng(99)
X0 = np.array([2.0, -2.0, -2.0, 2.0, -1.0, 2.5, 0.0, 0.0, 0.0])


def _decay_field(rate=1.0):
    return VectorField(1, lambda t, x: -rate * x)


# ---------------------------------------------------------------------------
# integration

def test_integrate_constant_field():
    fld = zero_field(3)
    traj = integrate(fld, [1.0, -2.0, 0.5], horizon=2.0,
                     policy=StepPolicy(max_step=0.1))
    assert not traj.diverged
    assert np.allclose(traj.states, traj.states[0], atol=0.0)
    assert traj.final_time == pytest.approx(2.0)


def test_integrate_linear_decay_high_accuracy():
    traj = integrate(_decay_field(), [1.0], horizon=1.0,
                     policy=StepPolicy(max_step=1e-3))
    assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_rk4_global_order():
    # refine the step 4x: the global error on xdot = -x must drop ~4^4 = 256x
    errs = []
    for h in (0.02, 0.005):
        traj = integrate(_decay_field(), [1.0], horizon=1.0,
                         policy=StepPolicy(max_step=h))
        errs.append(abs(traj.final_state[0] - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 128.0 < ratio < 512.0


@pytest.mark.parametrize("name", ["scalar_basic", "three_agent_single_integrator",
                                  "three_agent_unicycle"])
def test_the_bundled_step_policy_resolves_the_runs(name):
    # each scenario's policy at K samples per period and at 2K, both against a
    # 4K reference, at its first two omegas: RK4 keeps its fourth order in the
    # steps taken (max_step caps scalar_basic's K run at omega=100), and its
    # error is a vanishing part of the oscillatory-averaged distance
    sc = bundled_scenario(name)
    horizon = 0.5
    k = sc.policy.samples_per_period
    averaged = integrate(sc.lie_field(), sc.x0, horizon, policy=sc.policy).final_state
    for w in sc.omegas[:2]:
        rhs = assemble_rhs(sc.build_system(w))
        coarse, fine, reference = (
            integrate(rhs, sc.x0, horizon,
                      policy=dataclasses.replace(sc.policy, samples_per_period=m * k))
            for m in (1, 2, 4))
        errors = [np.linalg.norm(run.final_state - reference.final_state)
                  for run in (coarse, fine)]
        order = math.log(errors[0] / errors[1]) / math.log(fine.total_steps
                                                           / coarse.total_steps)
        assert order >= 3.5, (w, order)
        assert errors[0] <= 1e-4 * np.linalg.norm(coarse.final_state - averaged), w


@pytest.mark.parametrize("value", [np.array([1.0]), 1.0])
def test_integrate_refuses_a_field_value_of_the_wrong_shape(value):
    # a (1,) or scalar value would broadcast onto the (2,) state unnoticed
    with pytest.raises(ValueError, match="shape"):
        integrate(VectorField(2, lambda t, x: value), [0.0, 0.0], 1.0)


def test_integrate_shape_check_adds_no_field_evaluation():
    calls = []
    fld = VectorField(2, lambda t, x: calls.append(t) or -x)
    traj = integrate(fld, [1.0, 2.0], 1.0, policy=StepPolicy(max_step=0.1))
    assert len(calls) == 4 * traj.total_steps


def test_integrate_resolves_oscillation_rate():
    fld = VectorField(1, lambda t, x: np.array([math.cos(50.0 * t)]),
                      oscillation_rate=50.0)
    traj = integrate(fld, [0.0], horizon=1.0,
                     policy=StepPolicy(samples_per_period=40, max_step=1.0))
    # dt = 2*pi/(50*40) ~ 3.1e-3, never the 1.0 cap
    assert traj.dt < 0.01
    assert traj.final_state[0] == pytest.approx(math.sin(50.0) / 50.0, abs=1e-8)


def test_integrate_flags_divergence():
    fld = VectorField(1, lambda t, x: x * x)  # finite-time blowup from 1 at t=1
    traj = integrate(fld, [1.0], horizon=2.0, policy=StepPolicy(max_step=0.01))
    assert traj.diverged
    assert traj.final_time < 2.0
    assert np.all(np.isfinite(traj.states))


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate(zero_field(1), [0.0], horizon=0.0)
    with pytest.raises(ValueError):
        integrate(zero_field(2), [0.0], horizon=1.0)


def test_step_count_is_bounded_by_max_steps():
    policy = StepPolicy(max_step=0.5)
    assert sim.step_count(0.5 * sim.MAX_STEPS, 0.0, policy) == sim.MAX_STEPS
    for horizon in (0.5 * (sim.MAX_STEPS + 1), 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            sim.step_count(horizon, 0.0, policy)
    # rounding up to a multiple of the output stride may not pass the bound either
    strided = StepPolicy(max_step=0.5, output_stride=7)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        sim.step_count(0.5 * (sim.MAX_STEPS - 1), 0.0, strided)


def test_step_count_refuses_a_step_that_is_not_positive():
    # a fast rate past the float range resolves to a step of 0.0
    assert StepPolicy().resolve(math.inf) == 0.0
    with pytest.raises(ValueError, match="not positive"):
        sim.step_count(1.0, math.inf, StepPolicy())


def test_integrate_refuses_a_huge_horizon_before_any_step():
    calls = []
    fld = VectorField(1, lambda t, x: calls.append(t) or -x)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate(fld, [1.0], horizon=1e300)
    assert calls == []


def test_output_stride_decimates_storage():
    traj = integrate(_decay_field(), [1.0], horizon=1.0,
                     policy=StepPolicy(max_step=0.01, output_stride=10))
    assert traj.dt == pytest.approx(0.1)
    assert traj.states.shape[0] == 11
    assert traj.total_steps == 100


def test_run_cells_integrates_one_cell_per_draw(monkeypatch):
    # cells are drawn lazily and integrated through the module's integrate,
    # one call each, so the first result costs exactly one integration
    drawn, calls = [], []
    plain = sim.integrate

    def counting(fld, x0, *args, **kwargs):
        calls.append(float(x0[0]))
        return plain(fld, x0, *args, **kwargs)

    def cells():
        for x in (1.0, 2.0, 3.0):
            drawn.append(x)
            yield _decay_field(), [x], 0.5

    monkeypatch.setattr(sim, "integrate", counting)
    policy = StepPolicy(max_step=0.01)
    runs = sim.run_cells(cells(), policy)
    assert drawn == [] and calls == []
    traj, wall = next(runs)
    assert drawn == [1.0] and calls == [1.0] and wall >= 0.0
    assert np.array_equal(traj.states, plain(_decay_field(), [1.0], 0.5, policy=policy).states)
    assert [t.states[0, 0] for t, _ in runs] == [2.0, 3.0]
    assert drawn == calls == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# sup distance

def test_sup_distance_of_trajectory_with_itself():
    traj = integrate(_decay_field(), [1.0], horizon=1.0,
                     policy=StepPolicy(max_step=0.01))
    assert sup_distance(traj, traj) == 0.0


def test_sup_distance_constant_offset():
    a = Trajectory(0.0, 0.1, np.zeros((11, 2)))
    b = Trajectory(0.0, 0.1, np.full((11, 2), [3.0, 4.0]))
    assert sup_distance(a, b) == pytest.approx(5.0)


def test_sup_distance_resamples_and_windows():
    ts_a = Trajectory(0.0, 0.05, np.linspace(0.0, 1.0, 21)[:, None])
    ts_b = Trajectory(0.0, 0.5, np.linspace(0.0, 1.0, 3)[:, None])
    assert sup_distance(ts_a, ts_b) == pytest.approx(0.0, abs=1e-12)


def test_sup_distance_disjoint_intervals_rejected():
    a = Trajectory(0.0, 0.1, np.zeros((5, 1)))
    b = Trajectory(10.0, 0.1, np.zeros((5, 1)))
    with pytest.raises(ValueError, match="overlap"):
        sup_distance(a, b)


# ---------------------------------------------------------------------------
# omega sweeps

def test_sweep_of_averaged_flow_against_itself_is_zero():
    lie = analytic_lie_scalar(lambda z: -2.0 * (z - 1.0), 1.0)
    rep = omega_sweep(lambda w: lie, lie, [10.0, 100.0], [0.0], horizon=3.0,
                      policy=StepPolicy(max_step=0.01), target=[1.0])
    assert all(r.sup_error == 0.0 for r in rep.records)
    assert rep.monotone_decreasing


def test_scalar_scheme_settles_near_maximizer_at_high_omega():
    # averaged flow reaches 1 - e^-10; the oscillatory run at omega=100 must
    # land within the measured approximation error band (0.2)
    f = lambda x: -(x - 1.0) ** 2
    fp = lambda x: -2.0 * (x - 1.0)
    rhs = assemble_rhs(build_scalar_seeker(f, fp, 1.0, 100.0))
    traj = integrate(rhs, [0.0], horizon=10.0, policy=StepPolicy(max_step=1e-3))
    assert abs(traj.final_state[0] - 1.0) < 0.2


def test_scalar_scheme_sweep_decays_with_omega():
    f = lambda x: -(x - 1.0) ** 2
    fp = lambda x: -2.0 * (x - 1.0)
    rep = omega_sweep(lambda w: build_scalar_seeker(f, fp, 1.0, w),
                      analytic_lie_scalar(fp, 1.0), [40.0, 400.0], [0.0],
                      horizon=5.0, policy=StepPolicy(max_step=0.005),
                      target=[1.0])
    assert rep.records[1].sup_error < rep.records[0].sup_error
    assert rep.monotone_decreasing
    assert not math.isnan(rep.lie_final_distance)


def test_sweep_verdict_is_strict():
    # one rule for sweep reports and CLI compare: any increase says NO
    rep = SweepReport([OmegaRecord(10.0, 1.0, 1.0, 1, 0.0),
                       OmegaRecord(20.0, 1.0005, 1.0, 1, 0.0)], 1.0)
    assert not rep.monotone_decreasing
    assert "non-increasing in omega: NO" in rep.summary()
    tie = SweepReport([OmegaRecord(10.0, 1.0, 1.0, 1, 0.0),
                       OmegaRecord(20.0, 1.0, 1.0, 1, 0.0)], 1.0)
    assert tie.monotone_decreasing


def test_sweep_validates_omega_list():
    lie = analytic_lie_scalar(lambda z: -z, 1.0)
    # one omega is a sweep with no verdict: no evidence of a trend is not a yes
    for rep in (omega_sweep(lambda w: lie, lie, [10.0], [0.0], horizon=1.0),
                SweepReport([OmegaRecord(10.0, 1.0, 1.0, 1, 0.0)], 1.0)):
        assert rep.omegas == (10.0,)
        assert not rep.monotone_decreasing and rep.verdict is None
        assert "non-increasing" not in rep.summary()
    # sweeps, sweep reports and decay checks refuse the same lists
    for omegas in ([10.0, 5.0], [10.0, math.nan], [0.0, 10.0], [10.0, math.inf]):
        with pytest.raises(ValueError):
            omega_sweep(lambda w: lie, lie, omegas, [0.0], horizon=1.0)
        with pytest.raises(ValueError):
            SweepReport([OmegaRecord(w, 1.0, 1.0, 1, 0.0) for w in omegas], 1.0)
        with pytest.raises(ValueError):
            averaging_decay_check(sine(1), 0.0, 1.0, omegas)


def test_sweep_records_divergence_not_fatal():
    blow = VectorField(1, lambda t, x: x * x)
    lie = zero_field(1)
    rep = omega_sweep(lambda w: blow, lie, [1.0, 2.0], [1.0], horizon=2.0,
                      policy=StepPolicy(max_step=0.01))
    assert all(r.diverged for r in rep.records)
    # a diverged cell is infinitely far from the reference, never consistent
    assert rep.sup_errors == (math.inf, math.inf)
    assert not rep.monotone_decreasing
    assert "non-increasing in omega: NO" in rep.summary()
    with pytest.raises(ValueError, match="finite"):
        rep.decay_slope()
    blown = integrate(blow, [1.0], horizon=2.0, policy=StepPolicy(max_step=0.01))
    calm = integrate(lie, [1.0], horizon=2.0, policy=StepPolicy(max_step=0.01))
    assert sup_distance(blown, calm) == sup_distance(calm, blown) == math.inf


# ---------------------------------------------------------------------------
# energy along averaged flows

def test_potential_nondecreasing_along_averaged_flow():
    game = three_agent_game()
    params = [AgentParams(0.3, 1.0, 1.0, a) for a in (1, 2, 3)]
    lie = analytic_lie_single_integrator(game, params)
    traj = integrate(lie, X0, horizon=20.0, policy=StepPolicy(max_step=0.01))
    values = np.array([game.potential(s[:6]) for s in traj.states])
    assert np.all(np.diff(values) >= -1e-10)


def test_filter_states_track_equilibrium_once_settled():
    game = three_agent_game()
    params = [AgentParams(0.3, 1.0, 1.0, a) for a in (1, 2, 3)]
    lie = analytic_lie_single_integrator(game, params)
    traj = integrate(lie, X0, horizon=50.0, policy=StepPolicy(max_step=0.01))
    xbar = traj.final_state[:6]
    expected = np.array([game.maps[i](xbar) / params[i].h for i in range(3)])
    assert np.max(np.abs(traj.final_state[6:] - expected)) < 1e-3


# ---------------------------------------------------------------------------
# stability probe

def test_probe_negative_control_no_feedback(zero_gain_probe):
    # the c = 0 probe at delta=1, epsilon=0.5, omega=50 (see conftest.py)
    rep = zero_gain_probe
    assert not all(c.attractive_consistent for c in rep.cells)
    assert all(c.attraction_radius > 0.5 for c in rep.cells)


def test_probe_consistent_near_target_at_moderate_omega():
    # small shell + moderately fast dither: containment within epsilon
    game = three_agent_game()
    params = [AgentParams(0.3, 1.0, 1.0, a) for a in (1, 2, 3)]
    target = equilibrium_state(game, params)
    rep = stability_probe(
        lambda w: build_single_integrator(game, params, w), target,
        ProbeConfig(deltas=[0.2], epsilon=0.75, t_f=8.0, boundary_samples=3, horizon=12.0),
        omegas=[50.0], policy=StepPolicy(max_step=0.01, output_stride=10))
    assert all(c.stable_consistent for c in rep.cells)
    assert all(c.attractive_consistent for c in rep.cells)


def test_probe_without_boundary_samples_rejected():
    # zero samples would report every shell consistent on no evidence
    with pytest.raises(ValueError, match="boundary sample"):
        stability_probe(lambda w: _decay_field(), [0.0],
                        ProbeConfig(deltas=[0.1], epsilon=0.5, t_f=1.0, boundary_samples=0),
                        omegas=[10.0])


@pytest.mark.parametrize("samples", [sim.MAX_BOUNDARY_SAMPLES + 1, 10**9])
def test_probe_refuses_too_many_boundary_samples_before_drawing(monkeypatch, samples):
    drawn = []
    monkeypatch.setattr(sim, "_sphere_directions", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="boundary samples"):
        stability_probe(lambda w: _decay_field(), [0.0],
                        ProbeConfig(deltas=[0.1], epsilon=0.5, t_f=1.0,
                                    boundary_samples=samples), omegas=[10.0])
    assert drawn == []


NAN = math.nan


def _probe(omegas=(10.0,), **kwargs):
    args = dict(deltas=[0.1], epsilon=0.5, t_f=1.0, boundary_samples=2)
    return stability_probe(lambda w: _decay_field(), [0.0], ProbeConfig(**{**args, **kwargs}),
                           omegas)


@pytest.mark.parametrize("make,match", [
    (lambda: InputAffineSystem(zero_field(1), ((zero_field(1), sine(1)),), NAN),
     "omega"),
    (lambda: StepPolicy(max_step=NAN), "max_step"),
    (lambda: Trajectory(0.0, NAN, np.zeros((1, 1))), "dt"),
    (lambda: AgentParams(NAN, 1.0, 1.0, 1), "gain c"),
    (lambda: AgentParams(0.3, NAN, 1.0, 1), "alpha and h"),
    (lambda: AgentParams(0.3, 1.0, NAN, 1), "alpha and h"),
    (lambda: DitherSignal("sine", period=NAN), "period"),
    (lambda: DitherSignal("sine", sup_bound=NAN), "bounds"),
    (lambda: DitherSignal("sine", lipschitz_t=NAN), "bounds"),
    (lambda: integrate(_decay_field(), [1.0], NAN), "horizon must be positive"),
    (lambda: _probe(epsilon=NAN), "epsilon"),
    # no cells: every verdict would read consistent on zero evidence
    (lambda: _probe(deltas=[]), "at least one delta"),
    (lambda: _probe(omegas=[]), "at least one delta"),
], ids=["omega", "max_step", "dt", "c", "alpha", "h", "period", "sup_bound", "lipschitz_t",
        "horizon", "epsilon", "no_deltas", "no_omegas"])
def test_library_checks_refuse_nan_and_empty_evidence(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_step_policy_refuses_an_infinite_max_step():
    # without a finite cap a field with no oscillation would be crossed in one RK4 step
    with pytest.raises(ValueError, match="max_step must be finite and positive"):
        StepPolicy(max_step=math.inf)


@pytest.mark.parametrize("t0", [NAN, math.inf, -math.inf])
def test_integrate_refuses_a_nonfinite_start_time(t0):
    # a nan t0 would make every stage time nan, read as a run diverged at step 0
    with pytest.raises(ValueError, match="t0 must be finite"):
        integrate(_decay_field(), [1.0], 1.0, t0=t0)


@pytest.mark.parametrize("doc,target", [("scalar_basic", [1.0, 1.0]),
                                        ("three_agent_single_integrator", [0.0])])
def test_sweep_refuses_a_target_shaped_unlike_x0(doc, target):
    # numpy would broadcast such a target into a distance that means nothing
    sc = bundled_scenario(doc)
    calls = []  # the averaged flow is not integrated for a refused target
    lie = VectorField(sc.x0.size, lambda t, x: calls.append(t) or -x)
    with pytest.raises(ValueError, match="target"):
        omega_sweep(sc.build_system, lie, sc.omegas, sc.x0, sc.horizon,
                    policy=sc.policy, target=target)
    assert calls == []


@pytest.mark.parametrize("kwargs,match", [
    (dict(deltas=[-0.5]), "deltas"),
    (dict(deltas=[0.1, 0.0]), "deltas"),
    (dict(deltas=[NAN]), "deltas"),
    (dict(deltas=[math.inf]), "deltas"),
    (dict(t_f=NAN), "t_f"),
    (dict(t_f=math.inf, horizon=math.inf), "t_f"),
    (dict(t_f=-1.0, horizon=1.0), "t_f"),
    (dict(horizon=NAN), "horizon must reach past t_f"),
    (dict(epsilon=math.inf), "epsilon"),
], ids=["negative_delta", "zero_delta", "nan_delta", "inf_delta", "nan_t_f", "inf_t_f",
        "negative_t_f", "nan_horizon", "inf_epsilon"])
def test_probe_refuses_a_bad_radius_tolerance_settling_time_or_horizon_by_name(kwargs, match):
    with pytest.raises(ValueError, match=match):
        _probe(**kwargs)


@pytest.mark.parametrize("samples", [2.5, "8", True])
def test_probe_refuses_boundary_samples_that_are_not_an_integer(samples):
    # 2.5 once reached the Sobol draw as a slice bound (TypeError), and True
    # ran one sample per shell
    with pytest.raises(ValueError, match="boundary_samples"):
        _probe(boundary_samples=samples)


def test_probe_on_contracting_flow_is_consistent():
    # the averaged flow itself: plain asymptotic stability, any omega
    lie = analytic_lie_scalar(lambda z: -2.0 * z, 1.0)  # dz/dt = -z
    rep = stability_probe(lambda w: lie, np.zeros(1),
                          ProbeConfig(deltas=[0.5, 1.0], epsilon=1.2, t_f=4.0,
                                      boundary_samples=4, horizon=8.0),
                          omegas=[10.0, 100.0], policy=StepPolicy(max_step=0.01))
    assert all(c.stable_consistent for c in rep.cells)
    assert all(c.attractive_consistent for c in rep.cells)
    # longer settling time shrinks the attraction radius estimate
    rep2 = stability_probe(lambda w: lie, np.zeros(1),
                           ProbeConfig(deltas=[1.0], epsilon=1.2, t_f=6.0,
                                       boundary_samples=4, horizon=8.0),
                           omegas=[10.0], policy=StepPolicy(max_step=0.01))
    assert rep2.cells[0].attraction_radius < rep.cells[-1].attraction_radius


def test_probe_reproducible_with_fixed_seed():
    lie = analytic_lie_scalar(lambda z: -2.0 * z, 1.0)

    def probe():
        return stability_probe(lambda w: lie, np.zeros(1),
                               ProbeConfig(deltas=[1.0], epsilon=1.0, t_f=2.0,
                                           boundary_samples=4, horizon=4.0),
                               omegas=[10.0], policy=StepPolicy(max_step=0.01), seed=7)

    a, b = probe(), probe()
    assert a.cells[0].containment_radius == b.cells[0].containment_radius


def test_probe_integrates_each_distinct_start_once(monkeypatch):
    # a one-state target has two shell directions only, +1 and -1; asking
    # for 4 samples must not integrate them twice
    starts = []
    plain = sim.integrate

    def counting(fld, x0, *args, **kwargs):
        starts.append(float(x0[0]))
        return plain(fld, x0, *args, **kwargs)

    monkeypatch.setattr(sim, "integrate", counting)
    lie = analytic_lie_scalar(lambda z: -2.0 * z, 1.0)
    rep = stability_probe(lambda w: lie, np.zeros(1),
                          ProbeConfig(deltas=[0.5, 1.0], epsilon=1.2, t_f=1.0,
                                      boundary_samples=4, horizon=2.0),
                          omegas=[10.0, 100.0], policy=StepPolicy(max_step=0.01), seed=2023)
    assert len(starts) == 2 * len(rep.cells)
    assert [abs(s) for s in starts] == [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
    assert rep.samples == 2
    assert "samples/shell=2" in rep.summary()


def test_probe_tail_at_a_horizon_equal_to_t_f_is_the_final_sample():
    # t0 + dt * steps rounds below t_f here, so the last stored sample lies
    # just short of t_f; it is still the sample at t_f, not an empty tail
    policy = StepPolicy(max_step=0.0137, output_stride=20)
    t_f = 0.01998330550918197
    unstable = VectorField(1, lambda t, x: x)
    final = integrate(unstable, [0.3], t_f, policy=policy)
    assert final.final_time < t_f
    rep = stability_probe(lambda w: unstable, np.zeros(1),
                          ProbeConfig(deltas=[0.3], epsilon=0.6, t_f=t_f, boundary_samples=2,
                                      horizon=t_f), omegas=[20.0], policy=policy)
    assert rep.cells[0].attraction_radius == abs(final.final_state[0]) > 0.3


@pytest.mark.parametrize("seed", [None, True, False, -1, 1.5, 2.0, "7", np.float64(7.0)])
def test_probe_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        stability_probe(lambda w: _decay_field(), [0.0],
                        ProbeConfig(deltas=[0.1], epsilon=0.5, t_f=1.0, boundary_samples=2),
                        omegas=[10.0], seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(7), 2**40])
def test_probe_takes_any_non_negative_integer_seed(seed):
    rep = stability_probe(lambda w: _decay_field(), [0.0],
                          ProbeConfig(deltas=[0.1], epsilon=0.5, t_f=1.0, boundary_samples=2),
                          omegas=[10.0], policy=StepPolicy(max_step=0.01), seed=seed)
    assert all(c.attractive_consistent for c in rep.cells)


def test_probe_keeps_distinct_directions_in_their_order():
    dirs = sim._sphere_directions(8, 9, 2023)
    assert dirs.shape == (8, 9)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert sim._sphere_directions(4, 1, 2023).tolist() == [[-1.0], [1.0]]


def test_probe_validates_epsilon():
    lie = analytic_lie_scalar(lambda z: -z, 1.0)
    with pytest.raises(ValueError):
        stability_probe(lambda w: lie, np.zeros(1), ProbeConfig([1.0], 0.0, 1.0), [10.0])


# ---------------------------------------------------------------------------
# averaging decay

def test_decay_sine_slope_and_bound():
    rep = averaging_decay_check(sine(1), 0.0, 1.0, [100.0, 1000.0, 10000.0])
    assert rep.slope == pytest.approx(-1.0, abs=0.1)
    for r in rep.records:
        # |int sin(omega tau)| = |1 - cos(omega t)| / omega <= 2/omega,
        # with a little slack for the K=64 Simpson panels
        assert r.sup_defect <= 2.0 / r.omega * (1.0 + 1e-5)


def test_decay_square_slope():
    rep = averaging_decay_check(square(1), 0.0, 1.0, [100.0, 1000.0, 10000.0])
    assert rep.slope == pytest.approx(-1.0, abs=0.2)
    # the worst running integral of sign(sin) is pi/omega
    assert rep.records[-1].sup_defect <= math.pi / 10000.0 + 1e-9


def test_decay_exact_multiple_endpoint_vanishes():
    w = 32.0 * math.pi  # omega * (t - t0) = 16 full periods
    rep = averaging_decay_check(sine(1), 0.0, 1.0, [w / 4.0, w],
                                samples_per_period=256)
    assert rep.records[-1].endpoint_defect < 1e-8


def test_decay_paired_integrand_with_quarter_phase_partner():
    rep = averaging_decay_check(sine(1), 0.0, 1.0, [100.0, 1000.0, 10000.0],
                                partner=cosine(1))
    assert rep.nu_value == pytest.approx(0.5, abs=1e-8)
    assert rep.paired_slope == pytest.approx(-1.0, abs=0.2)


def test_decay_validates_arguments():
    with pytest.raises(ValueError):
        averaging_decay_check(sine(1), 0.0, 0.0, [10.0, 100.0])
    with pytest.raises(ValueError):
        averaging_decay_check(sine(1), 0.0, 1.0, [10.0])
    # a non-finite end of the window is refused by name
    for t0, t_end, name in ((0.0, math.inf, "t_end"), (0.0, math.nan, "t_end"),
                            (-math.inf, 1.0, "t0"), (math.nan, 1.0, "t0")):
        with pytest.raises(ValueError, match=name):
            averaging_decay_check(sine(1), t0, t_end, [10.0, 100.0])
    # nan and inf raised unnamed errors, and 0 and -5 silently became 8
    for value in (math.nan, math.inf, 0, -5, 8.5, True, "64"):
        with pytest.raises(ValueError, match="samples_per_period must be an integer >= 1"):
            averaging_decay_check(sine(1), 0.0, 1.0, [10.0, 100.0], samples_per_period=value)


def test_decay_check_refuses_a_t_dependent_dither_by_name():
    # the paired integrand is centred on nu at t0 alone, so a t-dependent
    # partner is refused as a t-dependent u is
    slow = custom(lambda t, th: (1.0 + 0.5 * math.sin(t)) * np.sin(th))
    for u, partner, name in ((slow, None, "u"), (sine(1), slow, "partner")):
        with pytest.raises(ValueError, match=f"slow-time dependence: {name}$"):
            averaging_decay_check(u, 0.0, 1.0, [100.0, 1000.0], partner=partner)


def test_decay_check_calls_a_custom_evaluator_with_the_float_t0():
    # math on t takes a float only; the check evaluates its dithers at t0
    flat = custom(lambda t, th: math.cos(0.0 * t) * np.sin(th), t_dependent=False)
    quarter = custom(lambda t, th: math.cos(0.0 * t) * np.cos(th), t_dependent=False)
    omegas = [100.0, 1000.0]
    got = averaging_decay_check(flat, 0.5, 1.5, omegas, partner=quarter)
    want = averaging_decay_check(sine(1), 0.5, 1.5, omegas, partner=cosine(1))
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


def test_decay_check_refuses_a_grid_past_its_bound_before_any_quadrature(monkeypatch):
    # a 1e12 window at omega=100 is a 1e14-point grid; a huge omega is finer still
    monkeypatch.setattr(sim, "nu_quadrature", None)  # refused before this first step
    for t_end, omegas in ((1e12, [10.0, 100.0]), (1.0, [10.0, 1e300])):
        with pytest.raises(ValueError, match="MAX_DECAY_INTERVALS"):
            averaging_decay_check(sine(1), 0.0, t_end, omegas)
    with pytest.raises(ValueError, match="MAX_DECAY_INTERVALS"):
        averaging_decay_check(sine(1), 0.0, 1.0, [10.0, 100.0], samples_per_period=10**9)


# ---------------------------------------------------------------------------
# CSV output

def test_trajectory_csv_format(tmp_path):
    traj = Trajectory(0.0, 0.5, np.array([[0.0, 1.0], [0.25, -2.0]]))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1] == "0,0,1"
    assert lines[2] == "0.5,0.25,-2"


def test_trajectory_csv_significant_digits(tmp_path):
    traj = Trajectory(0.0, 1.0, np.array([[math.pi], [math.e]]))
    path = tmp_path / "digits.csv"
    write_trajectory_csv(traj, path)
    assert "3.14159265359" in path.read_text()


def test_sweep_csv_deterministic(tmp_path):
    lie = analytic_lie_scalar(lambda z: -2.0 * (z - 1.0), 1.0)
    f = lambda x: -(x - 1.0) ** 2
    fp = lambda x: -2.0 * (x - 1.0)

    def sweep():
        return omega_sweep(lambda w: build_scalar_seeker(f, fp, 1.0, w), lie,
                           [50.0, 100.0], [0.0], horizon=2.0,
                           policy=StepPolicy(max_step=0.005), target=[1.0])

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(sweep(), p1)
    write_sweep_csv(sweep(), p2)
    assert p1.read_bytes() == p2.read_bytes()  # wall time kept out of the CSV
    assert p1.read_text().startswith("omega,sup_error,final_distance_to_target")


def test_long_csv_format(tmp_path):
    traj = Trajectory(0.0, 1.0, np.array([[1.0], [2.0]]))
    path = tmp_path / "long.csv"
    write_long_csv({"run": traj}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,series,component,value"
    assert lines[1] == "0,run,x1,1"
    assert lines[2] == "1,run,x1,2"
