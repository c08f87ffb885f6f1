"""The generic bracket as precontracted products: equal to the stacked formula, at its cost.

The reference below is the bracket as the full stacked value and Jacobian
contracted per evaluation, ``rows[0] + einsum(J[1:], A @ rows[1:])``, with the
``nu`` matrix A filled here pair by pair.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (FieldStack, InputAffineSystem, PrecisionWarning, StepPolicy,
                        VectorField, build_lie_bracket_system, cosine, custom, integrate,
                        load_scenario, nu_closed_form, nu_quadrature, sine)
from ditherseek import liebracket
from ditherseek.dynamics import last_table
from ditherseek.sim import STAGE_CHUNK, step_count

REL_TOL = 1e-13
BUNDLED = ("scalar_basic", "three_agent_single_integrator", "three_agent_unicycle")
SCENARIOS = {name: load_scenario(name) for name in BUNDLED}


def _t_dependent():
    return custom(lambda t, th: (1.0 + 0.5 * math.sin(t)) * np.sin(th),
                  sup_bound=1.5, lipschitz_t=0.5)


def _fields():
    """Drift and three channel fields on R^2 with analytic Jacobians."""
    def fld(fn, jac):
        return VectorField(2, fn, jac)

    return (fld(lambda t, x: np.array([0.1 * x[1], -0.2 * x[0] + math.cos(t)]),
                lambda t, x: np.array([[0.0, 0.1], [-0.2, 0.0]])),
            fld(lambda t, x: np.array([x[0] * x[1], 1.0]),
                lambda t, x: np.array([[x[1], x[0]], [0.0, 0.0]])),
            fld(lambda t, x: np.array([0.5, -(x[0] - 1.0) ** 2 - x[1] ** 2]),
                lambda t, x: np.array([[0.0, 0.0], [-2.0 * (x[0] - 1.0), -2.0 * x[1]]])),
            fld(lambda t, x: np.array([math.sin(x[0]), x[1] ** 3]),
                lambda t, x: np.array([[math.cos(x[0]), 0.0], [0.0, 3.0 * x[1] ** 2]])))


def _custom_dither_system():
    """Three channels, one with a t-dependent custom dither: the quadrature refill."""
    drift, b1, b2, b3 = _fields()
    return InputAffineSystem(drift, ((b1, cosine(1)), (b2, sine(1)), (b3, _t_dependent())), 20.0)


def _field_by_field_system():
    """Fields made one at a time: the identity layout, their values as features."""
    drift, b1, b2, b3 = _fields()
    return InputAffineSystem(drift, ((b1, cosine(1)), (b2, sine(1)), (b3, sine(1))), 20.0)


def _stack_without_feature_jac():
    """A stack over the basis [1, cos 2t, sin 2t] whose Jacobians are central differences."""
    layout = np.random.default_rng(11).uniform(-1.0, 1.0, (3, 4, 2, 3))

    def basis(t):
        return np.stack([np.ones_like(t), np.cos(2.0 * t), np.sin(2.0 * t)], axis=-1)

    def features(t, x):
        return np.array([1.0, -(x[0] - 1.0) ** 2 - (x[1] + 1.0) ** 2, x[0] * x[1]])

    drift, *channels = FieldStack(layout, features, basis=basis).fields
    return InputAffineSystem(drift, tuple(zip(channels, (sine(1), cosine(1), cosine(1)))), 20.0)


SYSTEMS = {name: (sc.build_system(sc.omegas[0]), sc.nu_method, sc.x0)
           for name, sc in SCENARIOS.items()}
SYSTEMS["custom_quadrature_512"] = (_custom_dither_system(), "quadrature:512", np.zeros(2))
SYSTEMS["field_by_field"] = (_field_by_field_system(), "closed_form", np.zeros(2))
SYSTEMS["no_feature_jac"] = (_stack_without_feature_jac(), "closed_form", np.zeros(2))


def _nu_matrix(sys, nu_method, t):
    nodes = liebracket._parse_nu_method(nu_method)
    dithers = [s for _, s in sys.channels]
    m = len(dithers)
    A = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            outer, inner = dithers[j], dithers[i]
            value = (nu_closed_form(outer, inner) if nodes is None
                     else nu_quadrature(outer, inner, t, nodes))
            if abs(value) > 1e-12:
                A[j, i], A[i, j] = value, -value
    return A


def _reference(sys, nu_method, t, z):
    """The stacked bracket and the largest of its terms."""
    rows, J = sys.stack(t, z), sys.stack.jacobian(t, z)
    mixed = _nu_matrix(sys, nu_method, t) @ rows[1:]
    terms = J[1:] * mixed[:, None, :]
    scale = max(1.0, float(np.abs(rows[0]).max()), float(np.abs(terms).max(initial=0.0)))
    return rows[0] + np.einsum("akl,al->k", J[1:], mixed), scale


@given(name=st.sampled_from(sorted(SYSTEMS)), t=st.floats(min_value=0.0, max_value=20.0),
       offsets=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9))
@settings(max_examples=80, deadline=None)
def test_the_contracted_bracket_is_the_stacked_formula(name, t, offsets):
    sys, nu_method, x0 = SYSTEMS[name]
    z = x0 + np.array(offsets[:sys.dim])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        bracket, fresh = (build_lie_bracket_system(sys, nu_method) for _ in range(2))
    want, scale = _reference(sys, nu_method, t, z)
    got = bracket.fn(t, z)
    assert np.max(np.abs(got - want)) <= REL_TOL * scale
    # through its stage-table row, as integrate calls it, at a fresh build
    row = fresh.stage_table(np.array([t, t + 0.5]))[0]
    assert np.max(np.abs(fresh.fn(t, z, row) - want)) <= REL_TOL * scale


def _counting(calls, key, fn):
    def counted(*args):
        calls[key] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_one_features_and_one_feature_jac_call_per_evaluation(name):
    sys, nu_method, x0 = SYSTEMS[name]
    stack = sys.stack
    features, feature_jac = stack.features, stack.feature_jac
    calls = {"features": 0, "feature_jac": 0}
    stack.features = _counting(calls, "features", features)
    if feature_jac is not None:
        stack.feature_jac = _counting(calls, "feature_jac", feature_jac)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            bracket = build_lie_bracket_system(sys, nu_method)
        assert calls == {"features": 0, "feature_jac": 0}
        for k, t in enumerate((0.3, 0.3, 0.7)):
            bracket.fn(t, x0 + 0.1)
            if feature_jac is not None:
                assert calls == {"features": k + 1, "feature_jac": k + 1}
            else:  # and central differences of the features, 2 calls per state
                assert calls == {"features": (k + 1) * (1 + 2 * sys.dim), "feature_jac": 0}
    finally:
        stack.features, stack.feature_jac = features, feature_jac


def _counting_tables(monkeypatch, built):
    """Make every table the bracket builds record the number of times it tabulates."""
    def counting(tabulate):
        return last_table(lambda times: (built.append(times.size), tabulate(times))[1])

    monkeypatch.setattr(liebracket, "last_table", counting)


@pytest.mark.parametrize("name", ["three_agent_unicycle", "custom_quadrature_512",
                                  "three_agent_single_integrator", "field_by_field"])
def test_p_and_h_are_formed_once_per_distinct_stage_time(name, monkeypatch):
    # RK4 meets 2S + 1 distinct stage times in S steps: the chunk's table forms
    # P(t) and H(t) at each, and fn, given its rows, tabulates no time itself
    sys, nu_method, x0 = SYSTEMS[name]
    built = []
    _counting_tables(monkeypatch, built)
    bracket = build_lie_bracket_system(sys, nu_method)
    policy = StepPolicy(max_step=0.01)
    traj = integrate(bracket, x0, 0.3, policy=policy)
    assert 1 < traj.total_steps == step_count(0.3, bracket.oscillation_rate, policy) <= STAGE_CHUNK
    assert built == [2 * traj.total_steps + 1]


@pytest.mark.parametrize("name", BUNDLED)
def test_integrations_on_one_grid_share_the_chunk_table(name, monkeypatch):
    # crosscheck integrates 4 initial states per field on one time grid: the
    # chunk's table is built once and read by all four
    sc = SCENARIOS[name]
    built = []
    _counting_tables(monkeypatch, built)
    bracket = sc.generic_lie_field()
    policy = StepPolicy(max_step=0.01)
    runs = [integrate(bracket, sc.x0 + shift, 0.3, policy=policy)
            for shift in (0.0, 0.1, 0.2, 0.3)]
    steps = runs[0].total_steps
    assert all(run.total_steps == steps for run in runs) and 1 < steps <= STAGE_CHUNK
    assert built == [2 * steps + 1]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a_time_invariant_bracket_shares_one_pair_formed_at_build(name):
    # the constant basis and no t-dependent dither: every time reads the pair of
    # t = 0, one object; otherwise each time has its own pair
    sys, nu_method, _ = SYSTEMS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        bracket = build_lie_bracket_system(sys, nu_method)
    times = np.array([0.0, 0.3, 0.7, 1.1])
    table = bracket.stage_table(times)
    shared = sys.stack.basis is None and not any(s.t_dependent for _, s in sys.channels)
    assert shared == (name in ("scalar_basic", "three_agent_single_integrator",
                               "field_by_field"))
    assert all((row is table[0]) == shared for row in table[1:])
    assert (bracket.stage_table(np.zeros(1))[0] is table[0]) == shared


def test_a_row_less_call_evaluates_the_basis_once_per_new_time():
    sys, nu_method, x0 = SYSTEMS["three_agent_unicycle"]
    calls = []
    basis = sys.stack.basis
    sys.stack.basis = lambda t: (calls.append(t), basis(t))[1]
    try:
        bracket = build_lie_bracket_system(sys, nu_method)
        for t in (0.3, 0.3, 0.7, 0.7, 0.3):
            bracket.fn(t, x0)
    finally:
        sys.stack.basis = basis
    assert calls == [0.3, 0.7, 0.3]


def test_a_t_dependent_dither_costs_the_same_quadratures_over_an_integration(monkeypatch):
    # 3 pairs at build, then the 2 pairs of the custom dither at each of the
    # 2S new stage times after t = 0: 3 + 4 * 10 = 43 over 10 steps
    counted = []

    def counting(outer, inner, t, nodes):
        counted.append(t)
        return nu_quadrature(outer, inner, t, nodes)

    monkeypatch.setattr(liebracket, "nu_quadrature", counting)
    sys, nu_method, x0 = SYSTEMS["custom_quadrature_512"]
    bracket = build_lie_bracket_system(sys, nu_method)
    traj = integrate(bracket, x0, 0.1, policy=StepPolicy(max_step=0.01))
    assert traj.total_steps == 10
    assert len(counted) == 43
    assert len(set(counted)) == 2 * traj.total_steps + 1


def _repro(with_dead_channel, calls):
    const = VectorField.constant([1.0])
    f = VectorField(1, lambda t, x: np.array([-(x[0] - 1.0) ** 2]),
                    jac=lambda t, x: np.array([[-2.0 * (x[0] - 1.0)]]))

    def steep(t, x):
        calls.append(t)
        return np.exp(50.0 * x)

    channels = ((const, cosine(1)), (f, sine(1)))
    if with_dead_channel:  # nu = 0 with both: sine(2) pairs with no first harmonic
        channels += ((VectorField(1, steep), sine(2)),)
    return InputAffineSystem(VectorField.zero(1), channels, 100.0)


def test_a_channel_that_pairs_with_nothing_is_never_evaluated():
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        dead = build_lie_bracket_system(_repro(True, calls))
    pair = build_lie_bracket_system(_repro(False, calls))
    assert np.array_equal(dead(0.0, np.array([15.0])), pair(0.0, np.array([15.0])))
    got = integrate(dead, [15.0], 1.0)
    want = integrate(pair, [15.0], 1.0)
    assert calls == []
    assert not got.diverged and got.total_steps == want.total_steps == 100
    assert np.array_equal(got.states, want.states)
    assert got.final_state[0] == pytest.approx(6.15031, abs=5e-6)


@pytest.mark.parametrize("dead_channel", [False, True])
def test_a_system_over_some_rows_of_a_stack_evaluates_it_once_per_point(dead_channel):
    # two of the stack's three channels, or all three with one that pairs with
    # nothing: the bracket restacks the stack's own rows, so an evaluation is one
    # features call and 2n more for the central-difference Jacobian
    sys = _stack_without_feature_jac()
    calls = []
    features = sys.stack.features
    sys.stack.features = lambda t, x: (calls.append(t), features(t, x))[1]
    channels = sys.channels[:2]
    if dead_channel:  # sine(2) pairs with no first harmonic
        channels += ((sys.channels[2][0], sine(2)),)
    some = dataclasses.replace(sys, channels=channels)

    def copy(f):  # the same field, no row view: the identity layout over its value
        return VectorField(f.dim, f.fn, oscillation_rate=f.oscillation_rate)

    by_value = InputAffineSystem(copy(some.drift), [(copy(f), s) for f, s in channels],
                                 some.omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        bracket, reference = build_lie_bracket_system(some), build_lie_bracket_system(by_value)
    z = np.array([0.4, -0.3])
    for t in (0.3, 0.3, 0.7):
        del calls[:]
        got = bracket.fn(t, z)
        assert len(calls) == 1 + 2 * sys.dim
        want = reference.fn(t, z)
        # two central-difference Jacobians of one stack: equal to their roundoff
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_generic_averaged_field_has_a_stage_table(name):
    # one read-only (P(t), H(t)) pair per time; every bundled channel pairs with another
    sc = SCENARIOS[name]
    sys = sc.build_system(sc.omegas[0])
    n, r, k = sys.dim, len(sys.channels), sys.stack.layout.shape[-1] - 1
    table = sc.generic_lie_field().stage_table(np.array([0.0, 0.25, 0.5]))
    assert len(table) == 3
    for P, H in table:
        assert P.shape == ((1 + r) * n, 1 + k) and H.shape == (n, r * k)
        assert not (P.flags.writeable or H.flags.writeable)
