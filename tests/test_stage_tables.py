"""Time-only work is done once per RK4 stage time, in stage tables.

Fixed-step RK4 evaluates a field at t0 + k*dt and t0 + k*dt + dt/2 only,
so the right-hand side's t-only factors, the matrices M(t) = c(t) @ L(t)
of dithers and layout, are tabulated for a chunk of STAGE_CHUNK steps'
stage times at once, and the last table is kept: runs on one time grid
(the directions of a probe cell) share it while they share a chunk. The
averaged field tabulates its P(t) and H(t), t-dependent nu matrix applied,
the same way. Table rows must agree with the scalar formula, chunk
boundaries must not show in a run, and cached and freshly built fields must
give bit-identical values.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (FieldEvaluationError, InputAffineSystem, ProbeConfig, StepPolicy,
                        VectorField, assemble_rhs, build_lie_bracket_system, build_scalar_seeker, cosine,
                        custom, integrate, load_scenario, sine, stability_probe)
from ditherseek import sim
from ditherseek.sim import STAGE_CHUNK, step_count
from helpers import constant_field

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
        rhs.fn(t_other, x_other, rhs.stage_table(np.array([t_other, t_other + 0.5]))[0])
        rhs.fn(t_other, x_other)
        rhs.jacobian(t_other, x_other)
        bracket.fn(t_other, x_other)
    x = sc.x0 + np.array(offsets[:sc.dim])
    fresh = sc.build_system(omega)
    assert np.array_equal(rhs.fn(t, x), assemble_rhs(fresh).fn(t, x))
    assert np.array_equal(rhs.fn(t, x, rhs.stage_table(np.array([t]))[0]), rhs.fn(t, x))
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
    assert steps <= STAGE_CHUNK
    calls.update(a=0, b=0)
    report = stability_probe(build, [1.0], ProbeConfig([0.3], 0.6, t_f=0.5, boundary_samples=4,
                                                       horizon=1.0), [20.0], policy=policy)
    assert len(report.cells) == 1 and not report.cells[0].any_diverged
    # four directions, one shared time grid: 2S + 1 distinct stage times
    assert calls == {"a": 2 * steps + 1, "b": 2 * steps + 1}


def test_probe_directions_share_one_right_hand_side_per_cell(monkeypatch):
    # the directions of a (delta, omega) cell are integrated on one right-hand
    # side, so they can share its stage tables; each cell builds its own
    fields = []
    plain = sim.integrate

    def recording(fld, x0, *args, **kwargs):
        fields.append(fld)
        return plain(fld, x0, *args, **kwargs)

    def build(w):
        return build_scalar_seeker(lambda x: -(x - 1.0) ** 2, lambda x: -2.0 * (x - 1.0),
                                   1.0, w, (cosine(1), sine(1)))

    monkeypatch.setattr(sim, "integrate", recording)
    report = stability_probe(build, [1.0], ProbeConfig([0.2, 0.3], 0.6, t_f=0.1, horizon=0.2),
                             [10.0, 20.0], policy=StepPolicy(max_step=0.01))
    n = report.samples
    assert n == 2 and len(fields) == n * len(report.cells) == 8
    cells = [fields[i:i + n] for i in range(0, len(fields), n)]
    assert all(fld is cell[0] for cell in cells for fld in cell)
    assert len({id(cell[0]) for cell in cells}) == len(cells)


def _scalar_matrix(sys, t):
    """M(t) = c(t) @ L(t) at one time, from the dithers and the basis at a float t."""
    stack = sys.stack
    c = [1.0] + [math.sqrt(sys.omega) * float(sig.eval(t, sys.omega * t))
                 for _, sig in sys.channels]
    phi = [1.0] if stack.basis is None else stack.basis(t)
    return np.einsum("r,rnw->nw", c, np.einsum("j,jrnw->rnw", phi, stack.layout))


def _per_field_reference(sys):
    """The right-hand side as a plain field: drift plus each dithered
    channel, one field at a time, refusing a non-finite value."""
    gain = math.sqrt(sys.omega)

    def fn(t, x):
        out = sys.drift(t, x) + sum(gain * float(sig.eval(t, sys.omega * t)) * b(t, x)
                                    for b, sig in sys.channels)
        if not np.all(np.isfinite(out)):
            raise FieldEvaluationError("non-finite right-hand side")
        return out

    return VectorField(sys.dim, fn, oscillation_rate=sys.fast_rate)


def _recording(rhs, tables):
    """``rhs`` with its stage table appending each (times, table) it returns."""
    def stage_table(times):
        tables.append((times.copy(), rhs.stage_table(times)))
        return tables[-1][1]
    return dataclasses.replace(rhs, stage_table=stage_table)


@given(name=st.sampled_from(ARCHITECTURES), t0=st.floats(min_value=-50.0, max_value=50.0),
       max_step=st.floats(min_value=1e-5, max_value=1e-3))
@settings(max_examples=12, deadline=None)
def test_table_rows_are_the_scalar_formula_across_a_chunk_boundary(name, t0, max_step):
    sc = SCENARIOS[name]
    sys = sc.build_system(sc.omegas[-1])
    tables = []
    policy = StepPolicy(max_step=max_step)
    horizon = (STAGE_CHUNK + 3) * policy.resolve(sys.fast_rate)
    traj = integrate(_recording(assemble_rhs(sys), tables), sc.x0, horizon, t0=t0,
                     policy=policy)
    steps, dt = traj.total_steps, traj.dt
    assert steps == step_count(horizon, sys.fast_rate, policy) > STAGE_CHUNK
    # one table per chunk, one row per stage time; the chunks meet at one time
    assert [times.size for times, _ in tables] == [
        2 * STAGE_CHUNK + 1, 2 * (steps - STAGE_CHUNK) + 1]
    grid = np.concatenate([tables[0][0], tables[1][0][1:]])
    k = np.arange(steps + 1)
    assert np.array_equal(grid[::2], t0 + k * dt)
    assert np.array_equal(grid[1::2], (t0 + k * dt)[:-1] + dt / 2)
    for times, table in tables:
        assert not table.flags.writeable and table.shape[1:] == _scalar_matrix(sys, t0).shape
        for t, row in zip(times.tolist(), table):
            want = _scalar_matrix(sys, t)
            assert np.max(np.abs(row - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))


def _blows_up_past(threshold):
    """dx/dt = 1 + 2 sin(4t) (1 + x), refused once x passes ``threshold``."""
    def channel(t, x):
        return np.array([math.inf if x[0] > threshold else 1.0 + x[0]])
    return InputAffineSystem(constant_field([1.0]), ((VectorField(1, channel), sine(1)),),
                             4.0)


@pytest.mark.parametrize("case", ["unicycle", "diverging"])
def test_a_run_past_one_chunk_matches_the_plain_field(case):
    if case == "unicycle":
        sc = SCENARIOS["three_agent_unicycle"]
        # two full chunks and a short one: equal-sized tables must not be mixed up
        sys, x0, horizon, policy = sc.build_system(80.0), sc.x0, 0.75, sc.policy
    else:
        sys, x0, horizon, policy = _blows_up_past(12.0), [0.0], 10.0, StepPolicy(max_step=0.01)
    got = integrate(assemble_rhs(sys), x0, horizon, policy=policy)
    want = integrate(_per_field_reference(sys), x0, horizon, policy=policy)
    assert got.total_steps == want.total_steps > (STAGE_CHUNK if case == "diverging"
                                                  else 2 * STAGE_CHUNK)
    assert got.diverged == want.diverged == (case == "diverging")
    scale = max(1.0, float(np.max(np.abs(want.states))))
    assert np.max(np.abs(got.states - want.states)) <= 1e-12 * scale


def test_a_custom_dither_with_a_math_factor_in_t_runs():
    # the evaluator gets float (t, theta): math functions of t are fine
    slow = custom(lambda t, theta: math.sin(t) * math.cos(theta), lipschitz_t=1.0)
    sys = build_scalar_seeker(lambda x: -(x - 1.0) ** 2, lambda x: -2.0 * (x - 1.0), 1.0,
                              50.0, (slow, sine(1)))
    policy = StepPolicy(max_step=0.01)
    got = integrate(assemble_rhs(sys), [0.5], 2.0, policy=policy)
    want = integrate(_per_field_reference(sys), [0.5], 2.0, policy=policy)
    assert not got.diverged and got.total_steps == want.total_steps > STAGE_CHUNK
    assert np.max(np.abs(got.states - want.states)) <= 1e-12
