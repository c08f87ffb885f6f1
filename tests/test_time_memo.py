"""Time-only work is done once per RK4 stage time.

Fixed-step RK4 evaluates a field at t0 + k*dt and t0 + k*dt + dt/2 only,
so factors that depend on t alone (the right-hand side's contracted dither
and layout matrix, t-dependent nu matrices) are memoized per time. Within a
run a step shares its last stage time with the next step's first. Runs on
one time grid (the directions of a probe cell) also share entries, but only
while the memo holds all 2*S + 1 stage times of a run: S <= 511 steps, as in
the short probes here and in the benchmark, not in the bundled probes.
Memoized and freshly built fields must give bit-identical values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (StepPolicy, VectorField, assemble_rhs, build_lie_bracket_system,
                        build_scalar_seeker, custom, integrate, load_scenario,
                        stability_probe)
from ditherseek.dynamics import _TIME_MEMO_SIZE, time_memo

ARCHITECTURES = ("scalar_basic", "three_agent_single_integrator", "three_agent_unicycle")
SCENARIOS = {name: load_scenario(name) for name in ARCHITECTURES}


@pytest.mark.parametrize("t0,horizon,max_step", [(0.0, 1.0, 0.03), (0.1, 1.0, 0.03),
                                                 (-2.5, 3.7, 0.011)])
def test_stage_times_lie_on_the_step_grid(t0, horizon, max_step):
    times = []

    def fn(t, x):
        times.append(t)
        return -x

    traj = integrate(VectorField(1, fn), [1.0], horizon, t0=t0,
                     policy=StepPolicy(max_step=max_step))
    steps, dt = traj.total_steps, traj.dt
    assert len(times) == 4 * steps
    for k in range(steps):
        t, t_mid = t0 + k * dt, t0 + k * dt + dt / 2
        assert times[4 * k:4 * k + 4] == [t, t_mid, t_mid, t0 + (k + 1) * dt]
    # each step's last stage time is the next step's first, as the same float
    assert all(times[4 * k + 3] == times[4 * k + 4] for k in range(steps - 1))
    assert len(set(times)) == 2 * steps + 1


def test_time_memo_is_exact_read_only_and_bounded():
    calls = []

    @time_memo
    def square(t):
        calls.append(t)
        return [t * t]

    first = square(0.5)
    assert square(0.5) is first and calls == [0.5]
    assert not first.flags.writeable
    square(0.5 + 1e-16)  # another float is another entry
    assert len(calls) == 2
    for k in range(_TIME_MEMO_SIZE):
        square(float(k) + 1.0)
    assert square(0.5)[0] == 0.25 and len(calls) == 3 + _TIME_MEMO_SIZE


points = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=20.0),
              st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9)),
    min_size=1, max_size=5)


@given(name=st.sampled_from(ARCHITECTURES), earlier=points, target=points,
       same_time=st.booleans())
@settings(max_examples=60, deadline=None)
def test_memoized_fields_match_freshly_built_ones(name, earlier, target, same_time):
    sc = SCENARIOS[name]
    omega = sc.omegas[0]
    sys = sc.build_system(omega)
    rhs, bracket = assemble_rhs(sys), build_lie_bracket_system(sys)
    t, offsets = target[0]
    # times just next to t must not share its entry; with same_time an
    # earlier point at t itself fills the entry the target then reads
    earlier = earlier + [(t - 1e-12, offsets), (t + 1e-12, offsets)]
    if same_time:
        earlier = earlier + [(t, offsets[::-1])]
    for t_other, other in earlier:
        x_other = sc.x0 + np.array(other[:sc.dim])
        rhs.fn(t_other, x_other)
        rhs.jacobian(t_other, x_other)
        bracket.fn(t_other, x_other)
    x = sc.x0 + np.array(offsets[:sc.dim])
    fresh = sc.build_system(omega)
    assert np.array_equal(rhs.fn(t, x), assemble_rhs(fresh).fn(t, x))
    assert np.array_equal(rhs.jacobian(t, x), assemble_rhs(fresh).jacobian(t, x))
    assert np.array_equal(bracket.fn(t, x),
                          build_lie_bracket_system(sc.build_system(omega)).fn(t, x))


def test_probe_cell_evaluates_each_dither_once_per_stage_time():
    calls = {"a": 0, "b": 0}

    def counting(name, wave):
        def fn(t, theta):
            calls[name] += 1
            return wave(theta)
        return custom(fn, t_dependent=False)

    dithers = (counting("a", math.cos), counting("b", math.sin))

    def build(w):
        return build_scalar_seeker(lambda x: -(x - 1.0) ** 2, lambda x: -2.0 * (x - 1.0),
                                   1.0, w, dithers)

    policy = StepPolicy(max_step=0.01)
    steps = integrate(assemble_rhs(build(20.0)), [1.3], 1.0, policy=policy).total_steps
    assert 2 * steps + 1 <= _TIME_MEMO_SIZE
    calls.update(a=0, b=0)
    report = stability_probe(build, [1.0], [0.3], 0.6, [20.0], t_f=0.5,
                             boundary_samples=4, horizon=1.0, policy=policy)
    assert len(report.cells) == 1 and not report.cells[0].any_diverged
    # four directions, one shared time grid: 2S + 1 distinct stage times
    assert calls == {"a": 2 * steps + 1, "b": 2 * steps + 1}
