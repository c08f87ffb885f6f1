"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each test prints a single [PASS] line once its assertions have held; run
with ``pytest -s tests/test_acceptance.py`` to see the table. Expected
values marked as derived were produced by the independent oracles named in
the comments (hand integration, symbolic differentiation, or a pre-build
integration of the averaged flow) and are frozen here.
"""

import math
import time

import numpy as np
import pytest

from ditherseek import (AgentParams, StepPolicy, analytic_lie_scalar,
                        analytic_lie_single_integrator, analytic_lie_unicycle,
                        assemble_rhs, averaging_decay_check,
                        build_lie_bracket_system, build_scalar_seeker,
                        build_single_integrator, build_unicycle,
                        check_potential_compatibility, cosine, integrate,
                        nu_closed_form, nu_quadrature, omega_sweep, sawtooth, sine,
                        square, sup_distance, three_agent_game, triangle,
                        unicycle_period)

X0 = np.array([2.0, -2.0, -2.0, 2.0, -1.0, 2.5, 0.0, 0.0, 0.0])
XSTAR = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])


@pytest.fixture(scope="module")
def game():
    return three_agent_game()


@pytest.fixture(scope="module")
def si_params():
    return [AgentParams(0.3, 1.0, 1.0, a) for a in (1, 2, 3)]


@pytest.fixture(scope="module")
def uni_params():
    return [AgentParams(0.3, 1.0, 1.0, a, d) for a, d in ((1, 1), (2, 2), (3, 3))]


def test_criterion_1_nu_closed_form_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for n_outer in range(1, 6):
        for n_inner in range(1, 6):
            for outer, inner in ((sine(n_outer), cosine(n_inner)),
                                 (cosine(n_outer), sine(n_inner))):
                quad = nu_quadrature(outer, inner, nodes=4096)
                closed = nu_closed_form(outer, inner)
                worst = max(worst, abs(quad - closed))
                count += 1
    assert count == 50
    assert worst < 1e-8
    for n in range(1, 6):
        assert nu_closed_form(sine(n), cosine(n)) == 0.5 / n
        assert nu_closed_form(cosine(n), sine(n)) == -0.5 / n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: 50 sinusoid pairs, worst |quad - closed| "
          f"= {worst:.2e} < 1e-8 ({elapsed:.2f}s)")


def test_criterion_2_basic_scheme_bracket_identity():
    sys = build_scalar_seeker(lambda x: -(x - 1.0) ** 2,
                              lambda x: -2.0 * (x - 1.0), alpha=1.0, omega=50.0)
    lie = build_lie_bracket_system(sys)
    worst = 0.0
    for z in np.linspace(-5.0, 5.0, 100):
        worst = max(worst, abs(lie(0.0, np.array([z]))[0] - (1.0 - z)))
    assert worst < 1e-9
    print(f"[PASS] criterion 2: averaged scalar loop equals (1 - z), "
          f"worst defect {worst:.2e} < 1e-9")


def test_criterion_3_cross_builder_equivalence(game, si_params, uni_params):
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    gen_si = build_lie_bracket_system(build_single_integrator(game, si_params, 100.0))
    ana_si = analytic_lie_single_integrator(game, si_params)
    gen_uni = build_lie_bracket_system(build_unicycle(game, uni_params, 1.0, 80.0))
    ana_uni = analytic_lie_unicycle(game, uni_params, 1.0)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-3.0, 3.0, 9)
        t = float(rng.uniform(0.0, 10.0))
        worst = max(worst, float(np.max(np.abs(gen_si(t, z) - ana_si(t, z)))))
        worst = max(worst, float(np.max(np.abs(gen_uni(t, z) - ana_uni(t, z)))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    print(f"[PASS] criterion 3: generic vs analytic averaged fields agree, "
          f"worst defect {worst:.2e} < 1e-8 ({elapsed:.2f}s)")


def test_criterion_4_trajectory_error_decay_rate():
    start = time.perf_counter()
    f = lambda x: -(x - 1.0) ** 2
    fp = lambda x: -2.0 * (x - 1.0)
    report = omega_sweep(lambda w: build_scalar_seeker(f, fp, 1.0, w),
                         analytic_lie_scalar(fp, 1.0),
                         [100.0, 400.0, 1600.0], [0.0], horizon=10.0,
                         policy=StepPolicy(max_step=1e-3), target=[1.0])
    slope = report.decay_slope()
    elapsed = time.perf_counter() - start
    assert -0.8 <= slope <= -0.2  # expected -0.5 from the 1/sqrt(omega) bound
    assert elapsed < 60.0
    print(f"[PASS] criterion 4: sup|x - z| decay slope {slope:.3f} in "
          f"[-0.8, -0.2] over omega 100..1600 ({elapsed:.1f}s)")


def test_criterion_5_single_integrator_benchmark(game, si_params):
    start = time.perf_counter()
    horizon = 30.0
    policy = StepPolicy(max_step=0.01, output_stride=20)
    lie = analytic_lie_single_integrator(game, si_params)
    lie_traj = integrate(lie, X0, horizon, policy=policy)
    dist_lie = float(np.linalg.norm(lie_traj.final_state[:6] - XSTAR))
    # pre-build oracle integration of the averaged flow gave 0.0517 at T=30
    assert dist_lie < 0.06

    sups = {}
    finals = {}
    for w in (10.0, 100.0):
        traj = integrate(assemble_rhs(build_single_integrator(game, si_params, w)),
                         X0, horizon, policy=policy)
        assert not traj.diverged
        sups[w] = sup_distance(traj, lie_traj)
        finals[w] = float(np.linalg.norm(traj.final_state[:6] - XSTAR))
    assert finals[100.0] <= dist_lie + sups[100.0]
    assert sups[100.0] < sups[10.0]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"[PASS] criterion 5: single-integrator at omega=100 lands "
          f"{finals[100.0]:.3f} from the maximizer (averaged flow {dist_lie:.3f}); "
          f"sup_error 100 vs 10: {sups[100.0]:.2f} < {sups[10.0]:.2f} "
          f"({elapsed:.1f}s)")


def test_criterion_6_unicycle_benchmark(game, uni_params):
    start = time.perf_counter()
    horizon = 60.0
    policy = StepPolicy(max_step=0.01, output_stride=20)
    lie = analytic_lie_unicycle(game, uni_params, 1.0)

    # integer heading-rate ratios: the averaged field is 2*pi-periodic
    T = unicycle_period(uni_params, 1.0)
    assert T == pytest.approx(2.0 * math.pi, abs=1e-14)
    rng = np.random.default_rng(23)
    for _ in range(25):
        z = rng.uniform(-3.0, 3.0, 9)
        t = float(rng.uniform(0.0, 10.0))
        assert np.max(np.abs(lie(t + T, z) - lie(t, z))) < 1e-10

    lie_traj = integrate(lie, X0, horizon, policy=policy)
    dist_lie = float(np.linalg.norm(lie_traj.final_state[:6] - XSTAR))
    # pre-build oracle integration of the averaged flow gave 0.0504 at T=60
    assert dist_lie < 0.06

    sups = {}
    finals = {}
    for w in (8.0, 80.0):
        traj = integrate(assemble_rhs(build_unicycle(game, uni_params, 1.0, w)),
                         X0, horizon, policy=policy)
        assert not traj.diverged
        sups[w] = sup_distance(traj, lie_traj)
        finals[w] = float(np.linalg.norm(traj.final_state[:6] - XSTAR))
    assert finals[80.0] <= dist_lie + sups[80.0]
    assert sups[80.0] < sups[8.0]
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion 6: unicycle at omega=80 lands {finals[80.0]:.3f} "
          f"from the maximizer; averaged field 2pi-periodic to 1e-10 "
          f"({elapsed:.1f}s)")


def test_criterion_7_potential_compatibility(game):
    report = check_potential_compatibility(game, samples=1000, tol=1e-6, seed=0)
    assert report.passed
    print(f"[PASS] criterion 7: own-block gradients agree at 1000 points, "
          f"max defect {report.max_defect:.2e} < 1e-6")


def test_criterion_8_lyapunov_monotonicity(game, si_params, uni_params):
    lie = analytic_lie_single_integrator(game, si_params)
    rng = np.random.default_rng(31)
    policy = StepPolicy(max_step=0.01)
    for _ in range(20):
        direction = rng.normal(size=9)
        direction /= np.linalg.norm(direction)
        x0 = X0 + direction * rng.uniform(0.0, 1.0) ** (1.0 / 9.0)
        traj = integrate(lie, x0, horizon=10.0, policy=policy)
        values = np.array([game.potential(s[:6]) for s in traj.states])
        assert np.all(np.diff(values) >= -1e-10)

    lie_uni = analytic_lie_unicycle(game, uni_params, 1.0)
    worst = -math.inf
    for _ in range(1000):
        z = rng.uniform(-3.0, 3.0, 9)
        t = float(rng.uniform(0.0, 20.0))
        v_dot = -float(np.dot(game.potential_gradient(z[:6]), lie_uni(t, z)[:6]))
        worst = max(worst, v_dot)
        assert v_dot <= 1e-12
    print(f"[PASS] criterion 8: potential non-decreasing along 20 averaged "
          f"trajectories; unicycle dV/dt <= 0 at 1000 points (max {worst:.2e})")


def test_criterion_9_averaging_decay():
    omegas = [100.0, 1000.0, 10000.0]
    slopes = {}
    for sig in (sine(1), square(1), triangle(1), sawtooth(1)):
        report = averaging_decay_check(sig, 0.0, 1.0, omegas)
        slopes[sig.name] = report.slope
        assert report.slope == pytest.approx(-1.0, abs=0.2), sig.name
    # omega * (t - t0) = 32*pi: an integer multiple of the 2*pi period
    exact = averaging_decay_check(sine(1), 0.0, 1.0, [8.0 * math.pi, 32.0 * math.pi],
                                  samples_per_period=256)
    endpoint = exact.records[-1].endpoint_defect
    assert endpoint < 1e-8
    rendered = ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
    print(f"[PASS] criterion 9: decay slopes {{{rendered}}} all -1 +/- 0.2; "
          f"exact-multiple endpoint {endpoint:.1e} < 1e-8")


def test_criterion_10_negative_control_no_feedback(game, zero_gain_probe):
    params0 = [AgentParams(0.0, 1.0, 1.0, a) for a in (1, 2, 3)]

    # the averaged position field vanishes identically when c = 0
    lie = analytic_lie_single_integrator(game, params0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.uniform(-3.0, 3.0, 9)
        assert np.max(np.abs(lie(0.0, z)[:6])) == 0.0

    # the c = 0 probe at delta=1, epsilon=0.5, omega=50 (see conftest.py)
    report = zero_gain_probe
    assert not all(c.attractive_consistent for c in report.cells)
    worst = max(c.attraction_radius for c in report.cells)
    print(f"[PASS] criterion 10: with zero gain the probe reports attraction "
          f"failure at delta=1 (residual distance {worst:.2f} > 0.5)")
