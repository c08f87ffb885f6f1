"""The agent layer on Python floats equals the array formulas, bit for bit.

The bundled maps unpack a point once and compute with ``math``; the washout
features and their Jacobian are formed from the map values. The references
below evaluate the same formulas on numpy arrays, element by element. Every
point is also handed over as a read-only, non-contiguous view, the kind of
slice the stacks pass to the maps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditherseek import (AgentMap, AgentParams, FieldEvaluationError, PotentialGame,
                        analytic_lie_single_integrator, analytic_lie_unicycle,
                        assemble_rhs, build_single_integrator, build_unicycle,
                        quadratic_game, three_agent_game)

GAME = three_agent_game()


def ref_f_a(x):
    return (-0.5 * (x[0] - 1.0) ** 2 - 0.5 * (x[1] - 1.0) ** 2
            + x[2] ** 2 + x[3] ** 2 + math.exp(-x[4] ** 2 - x[5] ** 2) - 10.0)


def ref_grad_f_a(x):
    e = math.exp(-x[4] ** 2 - x[5] ** 2)
    return np.array([-(x[0] - 1.0), -(x[1] - 1.0), 2.0 * x[2], 2.0 * x[3],
                     -2.0 * x[4] * e, -2.0 * x[5] * e])


def ref_f_b(x):
    return -0.5 * (x[2] + 1.0) ** 2 - 0.5 * (x[3] + 1.0) ** 2 + math.sin(x[0] + x[1]) - 10.0


def ref_grad_f_b(x):
    cc = math.cos(x[0] + x[1])
    return np.array([cc, cc, -(x[2] + 1.0), -(x[3] + 1.0), 0.0, 0.0])


def ref_f_c(x):
    return -0.5 * (x[4] + 1.0) ** 2 - 1.5 * (x[5] - 1.0) ** 2 + 10.0


def ref_grad_f_c(x):
    return np.array([0.0, 0.0, 0.0, 0.0, -(x[4] + 1.0), -3.0 * (x[5] - 1.0)])


REFERENCES = ((ref_f_a, ref_grad_f_a), (ref_f_b, ref_grad_f_b), (ref_f_c, ref_grad_f_c))


def _read_only_view(values):
    """``values`` as a read-only, non-contiguous float64 view."""
    buf = np.zeros((len(values), 2))
    buf[:, 0] = values
    view = buf[:, 0]
    view.flags.writeable = False
    assert not view.flags.c_contiguous
    return view


def _builders(h):
    params = [AgentParams(0.3, 1.0, h_i, i + 1, i + 1) for i, h_i in enumerate(h)]
    return {"single_integrator": build_single_integrator(GAME, params, 100.0),
            "unicycle": build_unicycle(GAME, params, 1.0, 80.0)}


# squares of these stay far inside the float range
coordinates = st.floats(min_value=-1e100, max_value=1e100)
positions = st.lists(coordinates, min_size=6, max_size=6)
states = st.lists(coordinates, min_size=9, max_size=9)
poles = st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=3)


@given(positions)
# x ** 2 (libm pow) and x * x can round differently; here f_a shows it
@example([-0.2044005530144144 * 2.0 ** 20] * 6)
@settings(max_examples=200, deadline=None)
def test_bundled_maps_and_gradients_equal_the_array_formulas(values):
    x, reference = _read_only_view(values), np.array(values)
    for m, (f, grad) in zip(GAME.maps, REFERENCES):
        value = m.fn(x)
        assert type(value) is float and value == f(reference)
        assert m(x) == value
        g = m.grad(x)
        assert g.dtype == np.float64 and g.shape == (6,)
        assert np.array_equal(g, grad(reference))
        assert np.array_equal(m.gradient(x), g)


@given(st.lists(positions, min_size=1, max_size=8))
# the per-point bodies square with libm pow(x, 2.0), numpy with x * x; the two
# round 13.433321765081631 ** 2 differently, and exp magnifies that one ulp of
# its argument -181.45 into 248 ulp of f_a's gradient entry 4
@example([[0.0, 0.0, 0.0, 0.0, 13.433321765081631, 1.0]])
@settings(max_examples=100, deadline=None)
def test_bundled_gradients_of_a_batch_equal_the_per_point_gradients(rows):
    batch = np.array(rows)
    for i, m in enumerate(GAME.maps):
        got = m.grad(batch)
        assert got.dtype == np.float64 and got.shape == batch.shape
        assert np.array_equal(m.gradient(batch), got)
        want = np.array([m.grad(x) for x in batch])
        # the own block, all the compatibility check reads, keeps every bit
        own = slice(2 * i, 2 * i + 2)
        assert np.array_equal(got[:, own], want[:, own])
        ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
        ulps[:, own] = 0.0
        if i == 0:
            # f_a's entries 4 and 5 carry exp(-x4**2 - x5**2): its argument is
            # above -745.2 where it is not 0, so one ulp of it moves the entry
            # by a relative 745 * 2**-52 = 1.7e-13 at most, plus exp's own
            # ulps (2.3e-13 in all, measured); atol covers subnormal results
            assert np.allclose(got[:, 4:], want[:, 4:], rtol=1e-12, atol=1e-300)
            ulps[:, 4:] = 0.0
        # numpy's cos and exp may differ from math's in the last bits
        assert np.all(ulps <= 4.0)


def test_overflowing_and_infinite_batch_rows_equal_the_per_point_gradients():
    # a finite x4 or x5 squaring past the float range makes the float body's **
    # raise, a nan row; an infinite one squares to inf and goes on through exp
    inf = math.inf
    batch = np.array([[0.1, 0.2, 0.3, 0.4, 1e200, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5, -2e154],
                      [0.0, 0.0, 0.0, 0.0, inf, -2e154], [0.0, 0.0, 0.0, 0.0, 1e200, -inf],
                      [0.0, 0.0, 0.0, 0.0, inf, 0.5], [0.0, 0.0, 0.0, 0.0, -inf, inf],
                      [inf, -inf, inf, 0.0, 0.0, 0.0], [1.0, 1.0, -1.0, -1.0, -1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        for m in GAME.maps:
            want = np.array([m.gradient(x) for x in batch])
            assert np.array_equal(m.gradient(batch), want, equal_nan=True)
        got = GAME.maps[0].gradient(batch)
    assert np.isnan(got[:4]).all() and not np.isnan(got[4:, :4]).any()


@pytest.mark.parametrize("kind", ["single_integrator", "unicycle"])
@given(values=states, h=poles, t=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_features_are_the_washouts_and_their_jacobian(kind, values, h, t):
    stack = _builders(h)[kind].stack
    x, reference = _read_only_view(values), np.array(values)
    xbar = reference[:6]
    maps = np.array([m(xbar) for m in GAME.maps])
    w = stack.features(t, x)
    assert w.dtype == np.float64 and w.shape == (4,)
    assert np.array_equal(w, np.concatenate(([1.0], maps - np.array(h) * reference[6:])))
    J = stack.feature_jac(t, x)
    assert J.dtype == np.float64 and J.shape == (3, 9)
    grads = np.array([m.gradient(xbar) for m in GAME.maps])
    assert np.array_equal(J, np.concatenate((grads, -np.diag(h)), axis=1))


gains = st.sampled_from([0.0, 0.3]) | st.floats(min_value=0.0, max_value=50.0)
amplitudes = st.floats(min_value=0.01, max_value=50.0)


@given(values=states, t=st.floats(min_value=-50.0, max_value=50.0),
       c=st.lists(gains, min_size=3, max_size=3),
       alpha=st.lists(amplitudes, min_size=3, max_size=3), h=poles,
       base_rate=st.sampled_from([1.0, -2.5]) | st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_closed_form_fields_are_the_array_formulas(values, t, c, alpha, h, base_rate):
    # the reference reads every parameter at every call, in the expression
    # order the fields keep, c = 0 included: the constants the fields form
    # once (c*alpha, c**2, 0.5*c*alpha, h, the heading rate) give the same bits
    params = [AgentParams(c[i], alpha[i], h[i], i + 1, (1, 2, Fraction(3, 2))[i])
              for i in range(3)]
    z, reference = _read_only_view(values), np.array(values)
    zbar, z_e = reference[:6], reference[6:]
    for field, Omega in ((analytic_lie_single_integrator(GAME, params), None),
                         (analytic_lie_unicycle(GAME, params, base_rate), base_rate)):
        want = np.zeros(9)
        for i, (m, p) in enumerate(zip(GAME.maps, params)):
            f_val, grad = m(zbar), m.gradient(zbar)
            d1, d2 = grad[2 * i], grad[2 * i + 1]
            if Omega is None:
                g = f_val - z_e[i] * p.h
                want[2 * i] = 0.5 * (p.c * p.alpha * d1 - p.c ** 2 * d2 * g)
                want[2 * i + 1] = 0.5 * (p.c * p.alpha * d2 + p.c ** 2 * d1 * g)
            else:
                rate = float(p.d) * Omega
                cw, sw = math.cos(rate * t), math.sin(rate * t)
                proj = 0.5 * p.c * p.alpha * (d1 * cw + d2 * sw)
                want[2 * i], want[2 * i + 1] = proj * cw, proj * sw
            want[6 + i] = -z_e[i] * p.h + f_val
        got = field.fn(t, z)
        assert got.dtype == np.float64 and got.shape == (9,)
        assert np.array_equal(got, want, equal_nan=True)  # inf - inf where terms overflow


def _gradient_free(game):
    # the same maps without analytic gradients: central differences instead
    return PotentialGame(tuple(AgentMap(m.fn) for m in game.maps), game.potential)


@pytest.mark.parametrize("kind", ["single_integrator", "unicycle"])
@pytest.mark.parametrize("game", [GAME, _gradient_free(GAME),
                                  quadratic_game([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 0.5, 2.0])],
                         ids=["bundled", "finite_differences", "quadratic"])
@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=9, max_size=9),
       t=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_the_washout_jacobian_is_the_row_by_row_template_fill(kind, game, values, t):
    n = game.n_agents
    h = [0.5 + i for i in range(n)]
    params = [AgentParams(0.3, 1.0, h[i], i + 1, i + 1) for i in range(n)]
    sys = (build_single_integrator(game, params, 100.0) if kind == "single_integrator"
           else build_unicycle(game, params, 1.0, 80.0))
    loops = sys.stack.feature_jac.__self__
    x = _read_only_view(values[:3 * n])
    want = loops.jac_template.copy()
    for row, m in zip(want, game.maps):
        row[:2 * n] = m.gradient(np.array(values[:2 * n]))
    got = sys.stack.feature_jac(t, x)
    assert got.dtype == np.float64 and got.shape == (n, 3 * n)
    assert np.array_equal(got, want)


def test_overflowing_map_arithmetic_reads_nan_and_the_rhs_refuses_it():
    # Python floats raise OverflowError where numpy scalars gave inf; a
    # diverging run must still stop with FieldEvaluationError
    x = np.full(9, 1e200)
    for m in GAME.maps:
        assert math.isnan(m(x[:6]))
    assert np.isnan(GAME.maps[0].gradient(x[:6])).all()
    for sys in _builders([1.0, 1.0, 1.0]).values():
        with pytest.raises(FieldEvaluationError):
            assemble_rhs(sys).fn(0.1, x)
