"""The stage-table RK4 kernel against the ``fn`` path, the features contract
for non-finite states, and the row-formatted CSV writers."""

import dataclasses
import math

import numpy as np
import pytest

from ditherseek import (AgentParams, FieldEvaluationError, FieldStack, InputAffineSystem,
                        StepPolicy, Trajectory, VectorField, assemble_rhs, build_scalar_seeker,
                        build_single_integrator, build_unicycle, cosine, integrate, load_scenario,
                        parse_scenario_text, quadratic_game, sine, write_long_csv,
                        write_trajectory_csv)
from ditherseek.sim import STAGE_CHUNK, step_count

STRIDE_1 = StepPolicy(output_stride=1)
BUNDLED = ("scalar_basic", "three_agent_single_integrator", "three_agent_unicycle")

QUADRATIC_YAML = """
name: quadratic_pair
dynamics: single_integrator
map:
  quadratic: {q_diag: [1, 2, 1, 2], xstar: [0.5, -0.5, 1, 0]}
agents:
  - {c: 1, alpha: 1, h: 1, a: "1"}
  - {c: 1, alpha: 1, h: 2, a: "3/2"}
omega: [10.0, 100.0]
initial_state: [0, 0, 0, 0, 0, 0]
horizon: 1.0
"""


def _own_stack_system():
    """dx/dt = -x + u_1 e_1 + u_2 [0, x_1] over the features [1, x_1, x_2]."""
    layout = np.zeros((1, 3, 2, 3))
    layout[0, 0, 0, 1] = layout[0, 0, 1, 2] = -1.0
    layout[0, 1, 0, 0] = 1.0
    layout[0, 2, 1, 1] = 1.0
    drift, e1, x1 = FieldStack(layout, lambda t, x: np.array([1.0, x[0], x[1]])).fields
    return InputAffineSystem(drift, ((e1, cosine(1)), (x1, sine(1))), 50.0)


def _overflow_system():
    # the drift's first entry is 2 * x_1: x_1 = 1e308 overflows it to inf
    layout = np.zeros((1, 2, 3, 2))
    layout[0, 0, 0, 1] = 2.0
    stack = FieldStack(layout, lambda t, x: np.array([1.0, x[0]]))
    return InputAffineSystem(stack.fields[0], ((stack.fields[1], sine(1)),), 10.0)


def _cases():
    """(label, system, x0, horizon) for every kind of stacked right-hand side."""
    cases = []
    for name in BUNDLED:
        sc = load_scenario(name)
        cases.append((name, sc.build_system(sc.omegas[0]), sc.x0, 0.3))
    cases.append(("own_stack", _own_stack_system(), np.array([1.0, -0.5]), 0.5))
    # x' ~ 2 x^3 on average: finite-time blow-up after 540 steps; x**4 then
    # overflows in Python floats and the scalar features read nan
    quartic = build_scalar_seeker(lambda x: x ** 4, lambda x: 4.0 * x ** 3, 1.0, 100.0)
    cases.append(("quartic_blowup", quartic, np.array([0.5]), 20.0))
    cases.append(("overflow_1e308", _overflow_system(), np.array([1e308, 0.0, 0.0]), 1.0))
    # fields stacked by FieldStack.of: math.sin raises ValueError on inf, so
    # their features must refuse the diverged state before calling them
    drift = VectorField(1, lambda t, x: np.array([50.0 * x[0] ** 2]))
    channel = VectorField(1, lambda t, x: np.array([math.sin(x[0])]))
    cases.append(("foreign_fields", InputAffineSystem(drift, ((channel, sine(1)),), 10.0),
                  np.array([1.0]), 5.0))
    return cases


CASES = _cases()


@pytest.mark.parametrize("label, system, x0, horizon", CASES, ids=[c[0] for c in CASES])
def test_the_kernel_and_the_fn_path_give_identical_trajectories(label, system, x0, horizon):
    rhs = assemble_rhs(system)
    assert rhs.fn.features is system.stack.features
    # the tracer replaces fn the same way, which leaves no features on it
    through_fn = integrate(dataclasses.replace(rhs, fn=lambda *a: rhs.fn(*a)), x0, horizon,
                           policy=STRIDE_1)

    calls = {"fn": 0, "features": 0}

    def features(t, x):  # the stack's features, counted
        calls["features"] += 1
        return rhs.fn.features(t, x)

    def fn(*args):
        calls["fn"] += 1
        return rhs.fn(*args)

    fn.features = features
    kernel = integrate(dataclasses.replace(rhs, fn=fn), x0, horizon, policy=STRIDE_1)
    plain = integrate(rhs, x0, horizon, policy=STRIDE_1)

    for run in (kernel, plain):
        assert np.array_equal(run.states, through_fn.states)
        assert run.total_steps == through_fn.total_steps
        assert run.diverged == through_fn.diverged
    # the kernel is taken: no fn call, four stages per step, then those of the
    # refused step up to the first that raises
    assert calls["fn"] == 0
    assert calls["features"] - 4 * kernel.total_steps in (range(1, 5) if kernel.diverged
                                                          else (0,))
    if label in ("quartic_blowup", "overflow_1e308"):  # features return inf or nan
        assert calls["features"] == 4 * (kernel.total_steps + 1)
    if label == "foreign_fields":
        assert kernel.diverged and kernel.total_steps == 4
    if label == "quartic_blowup":
        assert kernel.diverged and kernel.total_steps >= 100
    if label == "overflow_1e308":
        assert kernel.diverged and kernel.total_steps == 0


def _operator_form_rk4(rhs, x0, horizon, policy, stage=None, const=float):
    """The stage-table kernel written with operators, one step at a time:
    ``row @ f``, ``x + half * k1``, ``x + sixth * (k1 + 2.0 * (k2 + k3) + k4)``
    and ``isfinite(x).all()``. ``stage(row, t, x)``, if given, replaces
    ``row @ features(t, x)``; row is None without a stage table. ``const``
    types the step constants: Python floats by default. Returns (kept states,
    steps taken, diverged)."""
    steps = step_count(horizon, rhs.oscillation_rate, policy)
    dt = horizon / steps
    half = 0.5 * dt
    c_half, c_dt, c_two, sixth = const(half), const(dt), const(2.0), const(dt / 6.0)
    if stage is None:
        features = rhs.fn.features

        def stage(row, t, x):
            return row @ features(t, x)
    stride = policy.output_stride
    x = np.array(x0, dtype=float)
    kept, taken = [x], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            j = 2 * (k % STAGE_CHUNK)
            if j == 0:
                even = 0.0 + np.arange(k, min(k + STAGE_CHUNK, steps) + 1) * dt
                times = np.append(np.stack((even[:-1], even[:-1] + half), axis=1), even[-1])
                rows = ([None] * times.size if rhs.stage_table is None
                        else rhs.stage_table(times))
                times = times.tolist()
            try:
                k1 = stage(rows[j], times[j], x)
                k2 = stage(rows[j + 1], times[j + 1], x + c_half * k1)
                k3 = stage(rows[j + 1], times[j + 1], x + c_half * k2)
                k4 = stage(rows[j + 2], times[j + 2], x + c_dt * k3)
            except FieldEvaluationError:
                return np.array(kept), taken, True
            x_new = x + sixth * (k1 + c_two * (k2 + k3) + k4)
            if not np.isfinite(x_new).all():
                return np.array(kept), taken, True
            x = x_new
            taken = k + 1
            if taken % stride == 0:
                kept.append(x)
    return np.array(kept), taken, False


def _assert_operator_form(system, x0, horizon, policy):
    rhs = assemble_rhs(system)
    run = integrate(rhs, x0, horizon, policy=policy)
    states, taken, diverged = _operator_form_rk4(rhs, x0, horizon, policy)
    assert np.array_equal(run.states, states)
    assert (run.total_steps, run.diverged) == (taken, diverged)
    return run


@pytest.mark.parametrize("label, system, x0, horizon", CASES, ids=[c[0] for c in CASES])
def test_the_kernel_gives_the_bits_of_the_operator_form(label, system, x0, horizon):
    _assert_operator_form(system, x0, horizon, STRIDE_1)


def test_a_divergence_after_the_first_chunk_is_kept_at_the_output_stride():
    quartic = build_scalar_seeker(lambda x: x ** 4, lambda x: 4.0 * x ** 3, 1.0, 100.0)
    run = _assert_operator_form(quartic, [0.5], 20.0, StepPolicy(output_stride=7))
    assert run.diverged and STAGE_CHUNK < run.total_steps
    assert len(run.states) == run.total_steps // 7 + 1


def test_finite_components_whose_sum_overflows_are_not_refused():
    # dx/dt = -1e-300 x + u e_1 barely moves [1e308, 1e308]; the sum is inf
    layout = np.zeros((1, 2, 2, 3))
    layout[0, 0, 0, 1] = layout[0, 0, 1, 2] = -1e-300
    layout[0, 1, 0, 0] = 1.0
    drift, e1 = FieldStack(layout, lambda t, x: np.array([1.0, x[0], x[1]])).fields
    x0 = np.array([1e308, 1e308])
    kernel = _assert_operator_form(InputAffineSystem(drift, ((e1, sine(1)),), 10.0), x0, 0.5,
                                   STRIDE_1)
    plain = integrate(VectorField(2, lambda t, x: -1e-300 * x), x0, 0.5, policy=STRIDE_1)
    for run in (kernel, plain):
        assert not run.diverged and run.total_steps == 50
        assert np.isfinite(run.states).all()
        with np.errstate(over="ignore"):
            assert np.add.reduce(run.final_state) == math.inf


def _float32_field():
    return VectorField(2, lambda t, x: np.array([-x[0] + math.sin(t) * x[1], -0.3 * x[1] - x[0]],
                                                dtype=np.float32), oscillation_rate=20.0)


def _integer_field():
    return VectorField(2, lambda t, x: np.array([round(-3.0 * x[0]), 1 + int(10.0 * t)]),
                       oscillation_rate=20.0)


def _float32_table_field():
    # fn(t, x, row) = row @ x in float32, over a stage table of (2, 2) matrices
    def table(times):
        rows = np.empty((times.size, 2, 2))
        rows[:, 0, 0], rows[:, 0, 1] = -1.0, np.cos(5.0 * times)
        rows[:, 1, 0], rows[:, 1, 1] = -np.sin(5.0 * times), -0.5
        return rows

    return VectorField(2, lambda t, x, row: (row @ x).astype(np.float32), oscillation_rate=20.0,
                       stage_table=table)


# (field, its value dtype, a constant type that would change its bits)
VALUE_DTYPES = {"float32": (_float32_field(), np.float32, float),
                "integer": (_integer_field(), np.int64, np.float32),
                "float32_table": (_float32_table_field(), np.float32, float)}


@pytest.mark.parametrize("label", VALUE_DTYPES)
def test_fields_of_other_value_dtypes_step_with_float64_constants(label):
    # the step constants are float64 arrays, so a float32 value is stepped in
    # float64, not in the float32 that a Python float times it is computed in
    fld, dtype, wrong = VALUE_DTYPES[label]

    def stage(row, t, x):
        return np.asarray(fld.fn(t, x) if row is None else fld.fn(t, x, row))

    x0 = np.array([1.0, -0.5])
    run = integrate(fld, x0, 1.0, policy=STRIDE_1)
    states, taken, diverged = _operator_form_rk4(fld, x0, 1.0, STRIDE_1, stage,
                                                 const=np.float64)
    row = None if fld.stage_table is None else fld.stage_table(np.zeros(1))[0]
    assert stage(row, 0.0, x0).dtype == dtype
    assert np.array_equal(run.states, states)
    assert (run.total_steps, run.diverged) == (taken, diverged) == (128, False)
    # constants of another type step it differently: the comparison sees the dtype
    other, _, _ = _operator_form_rk4(fld, x0, 1.0, STRIDE_1, stage, const=wrong)
    assert not np.array_equal(other, states)


@pytest.mark.parametrize("switch", [0.05, 0.0], ids=["later_step", "first_step"])
def test_a_field_whose_value_dtype_changes_between_stages_steps_with_float64_constants(
        switch):
    def fn(t, x):  # float64 up to the switch time, float32 after it
        return (-x).astype(np.float32 if t > switch else np.float64)

    fld = VectorField(2, fn)
    run = integrate(fld, [1.0, 2.0], 0.1, policy=STRIDE_1)
    states, taken, diverged = _operator_form_rk4(fld, [1.0, 2.0], 0.1, STRIDE_1,
                                                 lambda row, t, x: fn(t, x), const=np.float64)
    assert np.array_equal(run.states, states)
    assert (run.total_steps, run.diverged) == (taken, diverged) == (10, False)
    with pytest.raises(TypeError):  # complex values, which the real states cannot hold
        integrate(VectorField(2, lambda t, x: -x + 1j), [1.0, 2.0], 0.1, policy=STRIDE_1)


def _reachable_features():
    """(label, features, finite state) for every features the CLI can build."""
    quadratic1d = parse_scenario_text("""
name: shifted_scalar
dynamics: scalar
map:
  quadratic1d: {xstar: -2.5, scale: 0.25}
alpha: 2.0
omega: [50.0, 100.0]
initial_state: [3.0]
horizon: 1.0
""")
    scenarios = [load_scenario(name) for name in BUNDLED]
    scenarios += [quadratic1d, parse_scenario_text(QUADRATIC_YAML)]
    out = [(sc.name, assemble_rhs(sc.build_system(sc.omegas[0])).fn.features, sc.x0 + 0.25)
           for sc in scenarios]
    game = quadratic_game([1.0, 3.0, 2.0, 1.0], [1.0, -1.0, 0.0, 2.0])
    params = [AgentParams(c=0.5, alpha=1.0, h=1.0, a=1, d=1),
              AgentParams(c=0.5, alpha=1.0, h=0.5, a=2, d=3)]
    for build, args in ((build_single_integrator, ()), (build_unicycle, (1.5,))):
        rhs = assemble_rhs(build(game, params, *args, 20.0))
        out.append((f"quadratic_game_{build.__name__}", rhs.fn.features, np.full(6, 0.5)))
    return out


FEATURES = _reachable_features()


@pytest.mark.parametrize("label, features, base", FEATURES, ids=[f[0] for f in FEATURES])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_features_map_a_nonfinite_state_to_nonfinite_values(label, features, base, bad):
    # integrate's kernel hands features the states built from a non-finite stage
    assert np.isfinite(features(0.3, base)).all()
    states = [np.where(np.arange(base.size) == k, bad, base) for k in range(base.size)]
    states.append(np.full(base.size, bad))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in states:
            assert not np.isfinite(features(0.3, x)).all(), x


EDGE_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e16,
               123456789012.5, -2.5e-7]


def _per_value_trajectory_csv(traj):
    lines = ["t," + ",".join(f"x{k + 1}" for k in range(traj.dim))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.12g}" for v in (t, *row)))
    return "\n".join(lines) + "\n"


def _per_value_long_csv(trajectories):
    lines = ["t,series,component,value"]
    for label, traj in trajectories.items():
        for t, row in zip(traj.times, traj.states):
            lines.extend(f"{t:.12g},{label},x{k + 1},{v:.12g}" for k, v in enumerate(row))
    return "\n".join(lines) + "\n"


def _edge_trajectories():
    edges = Trajectory(-2.5e-7, 1.0 / 3.0, np.array(EDGE_VALUES * 3).reshape(9, 3),
                       diverged=True)
    quartic = build_scalar_seeker(lambda x: x ** 4, lambda x: 4.0 * x ** 3, 1.0, 100.0)
    blowup = integrate(assemble_rhs(quartic), [0.5], 20.0)
    assert blowup.diverged
    return {"edges": edges, "blowup": blowup}


def test_the_csv_writers_match_the_per_value_rendering(tmp_path):
    trajectories = _edge_trajectories()
    for label, traj in trajectories.items():
        path = tmp_path / f"{label}.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == _per_value_trajectory_csv(traj).encode()
    # a label is written as it is, never read as a format
    labelled = {"omega=100%s%d": trajectories["edges"], "50%=half": trajectories["blowup"]}
    path = tmp_path / "long.csv"
    write_long_csv(labelled, path)
    assert path.read_bytes() == _per_value_long_csv(labelled).encode()
    assert "%.12g" % -0.0 == "-0" and "%.12g" % math.nan == "nan"
