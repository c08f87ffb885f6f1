"""Stacked fields: the fused right-hand side and bracket against per-field formulas.

The per-agent reference fields below restate the architectures' drift and
channel formulas one field at a time, independently of the stacked
implementation in ``seekers``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (FieldEvaluationError, FieldStack, InputAffineSystem, PrecisionWarning,
                        StepPolicy, VectorField, assemble_rhs, build_lie_bracket_system,
                        cosine, finite_diff_jacobian, frequency_decomposition, integrate,
                        load_scenario, nu_closed_form, sine)
from ditherseek.sim import STAGE_CHUNK, step_count
from helpers import constant_field, zero_field

ARCHITECTURES = ("scalar_basic", "three_agent_single_integrator", "three_agent_unicycle")
SCENARIOS = {name: load_scenario(name) for name in ARCHITECTURES}
REL_TOL = 1e-12


def _reference_agent_fields(sc):
    """Drift and channel (value, Jacobian) callables, one per field."""
    n = len(sc.params)
    dim = 3 * n
    maps = sc.game.maps
    _, harmonics = frequency_decomposition([p.a for p in sc.params])

    def drift(t, x):
        out = np.zeros(dim)
        for i, (m, p) in enumerate(zip(maps, sc.params)):
            out[2 * n + i] = -p.h * x[2 * n + i] + m(x[:2 * n])
        return out

    def drift_jac(t, x):
        J = np.zeros((dim, dim))
        for i, (m, p) in enumerate(zip(maps, sc.params)):
            J[2 * n + i, :2 * n] = m.gradient(x[:2 * n])[:2 * n]
            J[2 * n + i, 2 * n + i] = -p.h
        return J

    fields = [(drift, drift_jac)]
    for i, (m, p, n_i) in enumerate(zip(maps, sc.params, harmonics)):
        s = math.sqrt(n_i)
        W = 0.0 if sc.kind == "single_integrator" else float(p.d) * sc.Omega
        row, col, filt = 2 * i, 2 * i + 1, 2 * n + i

        def seek(x, m=m, p=p, s=s, filt=filt):
            return s * p.c * (m(x[:2 * n]) - x[filt] * p.h)

        def seek_grad(x, m=m, p=p, s=s, filt=filt):
            g = np.zeros(dim)
            g[:2 * n] = s * p.c * m.gradient(x[:2 * n])[:2 * n]
            g[filt] = -s * p.c * p.h
            return g

        if sc.kind == "single_integrator":
            def b1(t, x, seek=seek, s=s, p=p, row=row, col=col):
                out = np.zeros(dim)
                out[row], out[col] = seek(x), s * p.alpha
                return out

            def b1_jac(t, x, seek_grad=seek_grad, row=row):
                J = np.zeros((dim, dim))
                J[row] = seek_grad(x)
                return J

            def b2(t, x, seek=seek, s=s, p=p, row=row, col=col):
                out = np.zeros(dim)
                out[row], out[col] = s * p.alpha, -seek(x)
                return out

            def b2_jac(t, x, seek_grad=seek_grad, col=col):
                J = np.zeros((dim, dim))
                J[col] = -seek_grad(x)
                return J
        else:
            def b1(t, x, seek=seek, W=W, row=row, col=col):
                out = np.zeros(dim)
                out[row], out[col] = seek(x) * math.cos(W * t), seek(x) * math.sin(W * t)
                return out

            def b1_jac(t, x, seek_grad=seek_grad, W=W, row=row, col=col):
                J = np.zeros((dim, dim))
                J[row] = math.cos(W * t) * seek_grad(x)
                J[col] = math.sin(W * t) * seek_grad(x)
                return J

            def b2(t, x, s=s, p=p, W=W, row=row, col=col):
                out = np.zeros(dim)
                out[row] = s * p.alpha * math.cos(W * t)
                out[col] = s * p.alpha * math.sin(W * t)
                return out

            def b2_jac(t, x):
                return np.zeros((dim, dim))

        fields += [(b1, b1_jac), (b2, b2_jac)]
    return fields


def _reference_fields(sc, sys):
    if sc.kind == "scalar":
        return [(fld, fld.jacobian) for fld in sys.fields]
    return _reference_agent_fields(sc)


def _close(got, terms):
    """``got`` equals the sum of ``terms`` to REL_TOL of the largest term."""
    terms = np.array(terms)
    scale = max(1.0, float(np.max(np.abs(terms))))
    return float(np.max(np.abs(got - terms.sum(axis=0)))) <= REL_TOL * scale


def _point(sc, offsets):
    return sc.x0 + np.array(offsets[:sc.dim])


points = st.tuples(
    st.sampled_from(ARCHITECTURES),
    st.floats(min_value=0.0, max_value=20.0),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9))


@given(points)
@settings(max_examples=60, deadline=None)
def test_stacked_rhs_matches_per_field_sum(case):
    name, t, offsets = case
    sc = SCENARIOS[name]
    sys = sc.build_system(sc.omegas[0])
    x = _point(sc, offsets)
    gain = math.sqrt(sys.omega)
    reference = _reference_fields(sc, sys)
    terms = [reference[0][0](t, x)] + [
        gain * float(sig.eval(t, sys.omega * t)) * b(t, x)
        for (b, _), (_, sig) in zip(reference[1:], sys.channels)]
    assert _close(assemble_rhs(sys).fn(t, x), terms)


@given(points)
@settings(max_examples=60, deadline=None)
def test_stacked_jacobians_match_per_field_jacobians(case):
    name, t, offsets = case
    sc = SCENARIOS[name]
    sys = sc.build_system(sc.omegas[0])
    x = _point(sc, offsets)
    stacked = sys.stack.jacobian(t, x)
    assert stacked.shape == (1 + len(sys.channels), sys.dim, sys.dim)
    for J, (_, jac) in zip(stacked, _reference_fields(sc, sys)):
        assert _close(J, [jac(t, x)])
    gain = math.sqrt(sys.omega)
    terms = [jac(t, x) * (1.0 if k == 0 else
                          gain * float(sys.channels[k - 1][1].eval(t, sys.omega * t)))
             for k, (_, jac) in enumerate(_reference_fields(sc, sys))]
    assert _close(assemble_rhs(sys).jacobian(t, x), terms)


@given(points)
@settings(max_examples=40, deadline=None)
def test_stacked_bracket_matches_per_pair_formula(case):
    name, t, offsets = case
    sc = SCENARIOS[name]
    sys = sc.build_system(sc.omegas[0])
    z = _point(sc, offsets)
    reference = _reference_fields(sc, sys)
    terms = [reference[0][0](t, z)]
    for i in range(len(sys.channels)):
        for j in range(i + 1, len(sys.channels)):
            s_i, s_j = sys.channels[i][1], sys.channels[j][1]
            nu = nu_closed_form(s_j, s_i)
            (b_i, J_i), (b_j, J_j) = reference[i + 1], reference[j + 1]
            terms.append(nu * (J_j(t, z) @ b_i(t, z) - J_i(t, z) @ b_j(t, z)))
    assert _close(build_lie_bracket_system(sys).fn(t, z), terms)


def _hand_written_system():
    """A t-dependent 2-D stack given as written: the identity-layout case."""
    def objective(x):
        return -(x[0] - 1.0) ** 2 - (x[1] + 1.0) ** 2

    def fn(t, x):
        f = objective(x)
        return np.array([[0.1 * x[1], -0.2 * x[0]], [f, 0.5 * math.cos(t)],
                         [0.5, -f * x[0]]])

    def jac(t, x):
        f = objective(x)
        g = np.array([-2.0 * (x[0] - 1.0), -2.0 * (x[1] + 1.0)])
        return np.array([[[0.0, 0.1], [-0.2, 0.0]],
                         [g, [0.0, 0.0]],
                         [[0.0, 0.0], -(x[0] * g + [f, 0.0])]])

    drift, b1, b2 = FieldStack.of(
        VectorField(2, lambda t, x, k=k: fn(t, x)[k], lambda t, x, k=k: jac(t, x)[k], rate)
        for k, rate in enumerate((0.0, 1.0, 0.0))).fields
    return InputAffineSystem(drift, ((b1, sine(1)), (b2, cosine(2))), omega=50.0)


def _hand_factored_system():
    """A 2-D stack over the t-dependent basis [1, cos 2t, sin 2t] and the
    features [1, f(x), x0 * x1]: a user-supplied basis."""
    layout = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 3, 2, 3))

    def basis(t):  # (3,) for a float t, (T, 3) for T times
        return np.stack([np.ones_like(t), np.cos(2.0 * t), np.sin(2.0 * t)], axis=-1)

    def features(t, x):
        return np.array([1.0, -(x[0] - 1.0) ** 2 - (x[1] + 1.0) ** 2, x[0] * x[1]])

    def feature_jac(t, x):
        return np.array([[-2.0 * (x[0] - 1.0), -2.0 * (x[1] + 1.0)], [x[1], x[0]]])

    drift, b1, b2 = FieldStack(layout, features, feature_jac, basis, (2.0,) * 3).fields
    return InputAffineSystem(drift, ((b1, sine(1)), (b2, cosine(2))), omega=50.0)


SYSTEMS = {name: sc.build_system(sc.omegas[0]) for name, sc in SCENARIOS.items()}
SYSTEMS["hand_written"] = _hand_written_system()
SYSTEMS["hand_factored"] = _hand_factored_system()


def _start(name):
    return SCENARIOS[name].x0 if name in SCENARIOS else np.zeros(2)


@given(name=st.sampled_from(sorted(SYSTEMS)), t=st.floats(min_value=0.0, max_value=20.0),
       offsets=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9))
@settings(max_examples=80, deadline=None)
def test_factored_rhs_is_the_weighted_stack(name, t, offsets):
    sys = SYSTEMS[name]
    x = _start(name) + np.array(offsets[:sys.dim])
    rhs = assemble_rhs(sys)
    weights = [1.0] + [math.sqrt(sys.omega) * float(sig.eval(t, sys.omega * t))
                       for _, sig in sys.channels]
    assert _close(rhs(t, x), [np.array(weights) @ sys.stack(t, x)])
    J = rhs.jacobian(t, x)
    J_fd = finite_diff_jacobian(rhs, t, x)
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(J))))


@given(name=st.sampled_from(sorted(SYSTEMS)), t=st.floats(min_value=0.0, max_value=20.0),
       offsets=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9))
@settings(max_examples=80, deadline=None)
def test_stack_value_is_the_layout_contraction(name, t, offsets):
    stack = SYSTEMS[name].stack
    x = _start(name) + np.array(offsets[:stack.dim])
    phi = [1.0] if stack.basis is None else stack.basis(t)
    L = np.einsum("j,jrnw->rnw", phi, stack.layout)
    rows = stack.shape[0]
    # the weights of the rows one at a time give each row of L(t)
    assert _close(stack.weighted([t] * rows, np.eye(rows)), [L.reshape(rows, -1)])
    assert _close(stack(t, x), [L @ stack.features(t, x.tolist())])
    assert _close(stack.jacobian(t, x), [L[..., 1:] @ stack.feature_jac(t, x)])
    # any array-like point, as a field takes it
    assert np.array_equal(stack(t, x.tolist()), stack(t, x))
    assert np.array_equal(stack.jacobian(t, x.tolist()), stack.jacobian(t, x))


@given(name=st.sampled_from(sorted(SYSTEMS)), t=st.floats(min_value=0.0, max_value=20.0),
       offsets=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9))
@settings(max_examples=40, deadline=None)
def test_bracket_is_the_per_pair_formula_on_the_row_views(name, t, offsets):
    sys = SYSTEMS[name]
    z = _start(name) + np.array(offsets[:sys.dim])
    terms = [sys.drift(t, z)]
    for i, (b_i, s_i) in enumerate(sys.channels):
        for b_j, s_j in sys.channels[i + 1:]:
            J_i, J_j = finite_diff_jacobian(b_i, t, z), finite_diff_jacobian(b_j, t, z)
            terms.append(nu_closed_form(s_j, s_i) * (J_j @ b_i(t, z) - J_i @ b_j(t, z)))
    got = build_lie_bracket_system(sys).fn(t, z)
    want = np.sum(terms, axis=0)
    assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, float(np.max(np.abs(terms))))


@pytest.mark.parametrize("build", [assemble_rhs, build_lie_bracket_system])
def test_the_basis_is_evaluated_once_per_stage_time(build):
    # RK4 meets 2S + 1 distinct stage times in S steps. The RHS tabulates
    # them a chunk at a time, all of a chunk's times even if the run stops
    # within it; the bracket tabulates the basis weights phi(t) the same way
    sys = _hand_factored_system()
    calls = []
    basis = sys.stack.basis

    def counting(t):
        calls.extend(np.atleast_1d(t).tolist())
        return basis(t)

    sys.stack.basis = counting
    fld, policy = build(sys), StepPolicy(max_step=0.01)
    traj = integrate(fld, np.zeros(2), 0.5, policy=policy)
    assert traj.total_steps > 1
    assert len(set(calls)) == len(calls)
    tabulated = min(STAGE_CHUNK, step_count(0.5, fld.oscillation_rate, policy))
    steps = tabulated if build is assemble_rhs else traj.total_steps
    assert len(calls) == 2 * steps + 1


def test_constructor_refuses_an_inconsistent_layout():
    layout = np.zeros((3, 2, 1, 2))
    with pytest.raises(ValueError, match="basis"):
        FieldStack(layout, lambda t, x: np.array([1.0, x[0]]))
    with pytest.raises(ValueError, match="oscillation rates"):
        FieldStack(layout[:1], lambda t, x: np.array([1.0, x[0]]), oscillation_rates=(0.0,))


def test_rhs_stage_table_holds_only_the_contracted_matrices():
    for name, sys in SYSTEMS.items():
        rhs, tables, policy = assemble_rhs(sys), [], StepPolicy(max_step=0.01)

        def stage_table(times, rhs=rhs, tables=tables):
            tables.append(rhs.stage_table(times))
            return tables[-1]

        integrate(dataclasses.replace(rhs, stage_table=stage_table), _start(name), 0.05,
                  policy=policy)
        # one table for a run within one chunk, one (n, 1 + k) matrix per stage time
        steps = step_count(0.05, rhs.oscillation_rate, policy)
        width = sys.stack.layout.shape[-1]
        assert [table.shape for table in tables] == [(2 * steps + 1, sys.dim, width)]
    # agent stacks: the constant and one washout per agent; the hand-written
    # stack has the identity layout, its 3 x 2 entries as features; the
    # hand-factored one the constant and its two features
    assert [SYSTEMS[name].stack.layout.shape[-1] for name in sorted(SYSTEMS)] == [
        3, 7, 2, 4, 4]


def test_builders_share_one_stack_and_call_each_map_once():
    for name in ("three_agent_single_integrator", "three_agent_unicycle"):
        sc = SCENARIOS[name]
        calls = {"map": 0, "gradient": 0}

        def counted(kind, f):
            def fn(x):
                calls[kind] += 1
                return f(x)
            return fn

        maps = tuple(dataclasses.replace(m, fn=counted("map", m.fn),
                                         grad=counted("gradient", m.grad))
                     for m in sc.game.maps)
        sc = dataclasses.replace(sc, game=dataclasses.replace(sc.game, maps=maps))
        sys = sc.build_system(sc.omegas[-1])
        assert sys.stack.fields == sys.fields
        rhs = assemble_rhs(sys)
        rhs.fn(0.3, sc.x0)
        assert calls == {"map": 3, "gradient": 0}
        rhs.jacobian(0.3, sc.x0)
        assert calls == {"map": 3, "gradient": 3}
        # row views evaluated one at a time share one stack evaluation per point
        for fld in sys.fields:
            fld(0.7, sc.x0)
        assert calls == {"map": 6, "gradient": 3}
        for fld in sys.fields:
            fld.jacobian(0.7, sc.x0)
        assert calls == {"map": 6, "gradient": 6}


def test_row_views_evaluate_their_stack_once_per_new_point():
    base = SCENARIOS["three_agent_unicycle"].build_system(80.0).stack
    calls = {"features": [], "feature_jac": []}

    def counted(name, f):
        def fn(t, x):
            calls[name].append(t)
            return f(t, x)
        return fn

    stack = FieldStack(base.layout, counted("features", base.features),
                       counted("feature_jac", base.feature_jac), base.basis)
    x = SCENARIOS["three_agent_unicycle"].x0

    def each_row(t, x, jacobian=False):
        for fld in stack.fields:
            (fld.jacobian if jacobian else fld)(t, x)

    each_row(np.float64(0.3), x)
    each_row(0.3, x.tolist())  # a repeat, however the point is written
    assert calls == {"features": [0.3], "feature_jac": []}
    assert type(calls["features"][0]) is float  # t reaches the stack as a float
    each_row(0.3, x, jacobian=True)
    each_row(0.3, x, jacobian=True)
    each_row(0.3, x)  # the Jacobian kept the value's point
    assert calls == {"features": [0.3], "feature_jac": [0.3]}
    each_row(0.3, x + 1.0)
    each_row(0.5, x + 1.0)
    each_row(0.5, x + 1.0, jacobian=True)
    assert calls == {"features": [0.3, 0.3, 0.5], "feature_jac": [0.3, 0.5]}
    # each view reads its own row of the one evaluation
    assert np.array_equal([fld(0.5, x) for fld in stack.fields], stack(0.5, x))
    assert np.array_equal([fld.jacobian(0.5, x) for fld in stack.fields],
                          stack.jacobian(0.5, x))


def test_replaced_channels_are_never_evaluated_through_the_old_stack():
    sc = SCENARIOS["three_agent_single_integrator"]
    sys = sc.build_system(100.0)
    doubled = tuple((VectorField(f.dim, lambda t, x, f=f: 2.0 * f(t, x)), s)
                    for f, s in sys.channels)
    for new in (dataclasses.replace(sys, channels=doubled),
                dataclasses.replace(sys, channels=sys.channels[::-1]),
                dataclasses.replace(sys, channels=sys.channels[:4])):
        assert new.stack is not sys.stack
        t, x = 0.4, sc.x0 + 0.1
        gain = math.sqrt(new.omega)
        terms = [new.drift(t, x)] + [gain * float(s.eval(t, new.omega * t)) * f(t, x)
                                     for f, s in new.channels]
        assert _close(assemble_rhs(new).fn(t, x), terms)
    assert dataclasses.replace(sys, omega=7.0).stack is sys.stack


def test_wrongly_shaped_field_raises_from_integrate():
    bad = VectorField(2, lambda t, x: np.zeros(3))
    sys = InputAffineSystem(zero_field(2), ((bad, sine(1)),), 10.0)
    with pytest.raises(ValueError, match="shape"):
        integrate(assemble_rhs(sys), np.zeros(2), 1.0)
    # the bracket evaluates only channels with a non-zero pair: give it a partner
    paired = dataclasses.replace(sys, channels=sys.channels + ((bad, cosine(1)),))
    with pytest.warns(PrecisionWarning):
        bracket = build_lie_bracket_system(paired)
    with pytest.raises(ValueError, match="shape"):
        integrate(bracket, np.zeros(2), 1.0)


def test_nonfinite_rhs_marks_divergence_at_the_same_step():
    # the channel field blows up past x = 2; the per-field right-hand side
    # below is the reference for where the run must stop
    def fn(t, x):
        return np.array([math.inf if x[0] > 2.0 else 1.0 + x[0] ** 2])

    fld = VectorField(1, fn)
    sys = InputAffineSystem(constant_field([1.0]), ((fld, sine(1)),), 4.0)

    def reference(t, x):
        out = sys.drift(t, x) + 2.0 * math.sin(4.0 * t) * fld(t, x)
        if not np.all(np.isfinite(out)):
            raise FieldEvaluationError("non-finite right-hand side")
        return out

    policy = StepPolicy(max_step=0.01)
    got = integrate(assemble_rhs(sys), [0.0], 5.0, policy=policy)
    want = integrate(VectorField(1, reference, oscillation_rate=4.0), [0.0], 5.0,
                     policy=policy)
    assert got.diverged and want.diverged
    assert 0 < got.total_steps == want.total_steps
    assert np.allclose(got.states, want.states, rtol=REL_TOL, atol=REL_TOL)


@pytest.mark.parametrize("entry", range(3))
@pytest.mark.parametrize("bad", ["overflow", "nan"])
def test_a_nonfinite_rhs_entry_raises_on_a_memo_hit_and_a_miss(entry, bad):
    # entry ``entry`` of the drift is 2 * w: w = 1e308 overflows it to inf
    # and leaves the other entries 0; a nan w makes every entry nan
    layout = np.zeros((1, 2, 3, 2))
    layout[0, 0, entry, 1] = 2.0
    stack = FieldStack(layout, lambda t, x: np.array([1.0, x[0]]))
    rhs = assemble_rhs(InputAffineSystem(stack.fields[0], ((stack.fields[1], sine(1)),), 10.0))
    x_bad = np.array([1e308 if bad == "overflow" else math.nan, 0.0, 0.0])
    t = 0.3
    times = np.array([t, t + 0.1])
    with np.errstate(over="ignore"):
        if bad == "overflow":
            assert np.flatnonzero(~np.isfinite(stack(t, x_bad)[0])).tolist() == [entry]
        with pytest.raises(FieldEvaluationError):
            rhs.fn(t, x_bad)  # no row: M(t) is computed, then the value refused
        table = rhs.stage_table(times)  # a miss: the table is built
        with pytest.raises(FieldEvaluationError):
            rhs.fn(t, x_bad, table[0])
        assert rhs.stage_table(times) is table  # a hit: the same table
        with pytest.raises(FieldEvaluationError):
            rhs.fn(t, x_bad, rhs.stage_table(times)[0])
    assert np.array_equal(rhs.fn(t, np.ones(3)), 2.0 * np.eye(3)[entry])
    assert np.array_equal(rhs.fn(t, np.ones(3), table[0]), 2.0 * np.eye(3)[entry])
