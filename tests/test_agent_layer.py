"""The agent layer on Python floats equals the array formulas, bit for bit.

The bundled maps unpack a point once and compute with ``math``; the washout
features and their Jacobian are formed from the map values. The references
below evaluate the same formulas on numpy arrays, element by element. The
washout features take a point as the list of floats their callers make; every
other point is also handed over as a read-only, non-contiguous view, the kind
of slice the Jacobian paths get.
"""

import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditherseek import (AgentMap, AgentParams, FieldEvaluationError, FieldStack, PotentialGame,
                        VectorField, analytic_lie_single_integrator, analytic_lie_unicycle,
                        assemble_rhs, build_lie_bracket_system, build_single_integrator,
                        build_unicycle, integrate, load_scenario, quadratic_game,
                        three_agent_game)

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
        value = m.fn(x.tolist())
        assert type(value) is float and value == f(reference)
        assert m(x) == value
        g = m.grad(x.tolist())  # for one point, a list of 2N Python floats
        assert type(g) is list and len(g) == 6 and all(type(d) is float for d in g)
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
        want = np.array([m.grad(x.tolist()) for x in batch])
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


@pytest.mark.parametrize("shape", [(6,), (1, 1, 6), (2, 5), ()])
def test_bundled_batch_gradients_refuse_anything_but_a_batch_of_points(shape):
    # a point as a (6,) array would reach the numpy body, whose bits differ from
    # the float body's at this point (entry 4 of grad f_a)
    point = np.array([0.0, 0.0, 0.0, 0.0, 13.433321765081631, 1.0])
    x = np.resize(point, shape)
    for m in GAME.maps:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            m.grad(x)
    for m in GAME.maps:  # the accessor converts a point to the list the float body takes
        assert np.array_equal(m.gradient(point), m.grad(point.tolist()))


def _check_batch_rows(m, batch, overflowing=()):
    """``m``'s batch gradient row by row: the per-point gradient's bits, and nan
    in the rows ``overflowing``, whose per-point float arithmetic raises
    OverflowError."""
    got = m.gradient(batch)
    for k, (x, row) in enumerate(zip(batch, got)):
        if k in overflowing:
            with pytest.raises(OverflowError):
                m.gradient(x)
            assert np.isnan(row).all()
        else:
            assert np.array_equal(row, m.gradient(x), equal_nan=True)
    return got


def test_overflowing_and_infinite_batch_rows_equal_the_per_point_gradients():
    # a finite x4 or x5 squaring past the float range makes the float body's **
    # raise, a nan batch row; an infinite one squares to inf and goes on through exp
    inf = math.inf
    batch = np.array([[0.1, 0.2, 0.3, 0.4, 1e200, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5, -2e154],
                      [0.0, 0.0, 0.0, 0.0, inf, -2e154], [0.0, 0.0, 0.0, 0.0, 1e200, -inf],
                      [0.0, 0.0, 0.0, 0.0, inf, 0.5], [0.0, 0.0, 0.0, 0.0, -inf, inf],
                      [inf, -inf, inf, 0.0, 0.0, 0.0], [1.0, 1.0, -1.0, -1.0, -1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        got = _check_batch_rows(GAME.maps[0], batch, overflowing=range(4))
        for m in GAME.maps[1:]:  # neither squares a coordinate
            _check_batch_rows(m, batch)
    assert np.isnan(got[:4]).all() and not np.isnan(got[4:, :4]).any()


def test_batch_rows_with_infinities_give_no_warning():
    # the float bodies are silent on these rows; cos(inf), inf * 0 and 2 * 1.7e308
    # in the numpy bodies must be too
    inf, big = math.inf, 1.7e308
    batch = np.array([[inf, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, inf, 0.0],
                      [0.0, 0.0, 0.0, 0.0, -inf, inf], [inf, -inf, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 1e200, 0.0], [big, big, big, big, big, -big],
                      [-big, -big, -big, -big, -big, big], [1.0, 1.0, -1.0, -1.0, -1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # grad f_a squares x4 = 1e200 and +-1.7e308 past the float range
        _check_batch_rows(GAME.maps[0], batch, overflowing=(4, 5, 6))
        for m in GAME.maps[1:]:
            _check_batch_rows(m, batch)


QUADRATIC = quadratic_game([1.0, 2.0, 3.0, 4.0, 0.5, 1.5], [1.0, -1.0, 0.5, 2.0, 0.0, -3.0])
GAMES = {"bundled": GAME, "quadratic": QUADRATIC}
# entries past the float range when squared make the bundled float bodies' **
# raise OverflowError; the quadratic maps' dot warns there, so they get only
# the infinities and nan
ENTRIES = {"bundled": coordinates | st.sampled_from(
               [1e200, -2e154, 1.7e308, math.inf, -math.inf, math.nan]),
           "quadratic": coordinates | st.sampled_from([math.inf, -math.inf, math.nan])}


def _same_bits(got, want):
    """Equal bit patterns, with nan (of any payload) where ``want`` has one."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.dtype == want.dtype == np.float64 and got.shape == want.shape
            and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


def _batches(game, width):
    rows = st.lists(ENTRIES[game], min_size=width, max_size=width)
    return st.lists(rows, max_size=8).map(lambda r: np.array(r, dtype=float).reshape(-1, width))


def _check_batch_values(stack, t, batch):
    """A stack value of ``batch`` against those of its rows: the same bits for the
    rows whose features raise no OverflowError, and OverflowError from the whole
    batch, taken row by row, if any row raises. The features warn on no row; the
    layout's zeros times an infinite feature are nan and warn."""
    kept = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in batch:
            try:
                stack.features(t, x.tolist())
            except OverflowError:  # a map squares an entry past the float range
                continue
            kept.append(x)
    kept = np.array(kept).reshape(-1, batch.shape[1])
    with np.errstate(invalid="ignore"):
        want = np.array([stack(t, x) for x in kept]).reshape((len(kept),) + stack.shape)
        assert _same_bits(stack(t, kept), want)
        if len(kept) < len(batch):
            with pytest.raises(OverflowError):
                stack(t, batch)


@pytest.mark.parametrize("kind", ["single_integrator", "unicycle"])
@pytest.mark.parametrize("game", list(GAMES))
@given(data=st.data(), h=poles, t=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_stack_values_of_a_batch_equal_the_per_point_values(kind, game, data, h, t):
    params = [AgentParams(0.3, 1.0, h_i, i + 1, i + 1) for i, h_i in enumerate(h)]
    build = {"single_integrator": lambda: build_single_integrator(GAMES[game], params, 100.0),
             "unicycle": lambda: build_unicycle(GAMES[game], params, 1.0, 80.0)}
    stack = build[kind]().stack
    _check_batch_values(stack, t, data.draw(_batches(game, 9)))


@given(rows=st.lists(ENTRIES["bundled"], max_size=8), t=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_scalar_and_identity_stacks_take_a_batch_row_by_row(rows, t):
    stack = load_scenario("scalar_basic").build_system(50.0).stack
    batch = np.array(rows).reshape(-1, 1)
    _check_batch_values(stack, t, batch)  # the scalar map squares 1e200, -2e154, 1.7e308
    identity = FieldStack.of([VectorField(2, lambda t, x: x + t), VectorField(2, lambda t, x: -x)])
    finite = np.where(np.isfinite(batch), batch, 0.5).repeat(2, axis=1)
    want = np.array([identity(t, x) for x in finite]).reshape(len(finite), 2, 2)
    assert _same_bits(identity(t, finite), want)
    if not np.isfinite(batch).all():  # the identity features refuse a non-finite row
        with pytest.raises(FieldEvaluationError):
            identity(t, np.repeat(batch, 2, axis=1))


@pytest.mark.parametrize("name", ["scalar_basic", "three_agent_single_integrator",
                                  "three_agent_unicycle"])
@given(data=st.data(), t=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_a_point_s_stack_value_is_the_layout_times_its_features(name, data, t):
    # a point goes through the batch body as a batch of one row; its bits are
    # the product L(t) @ features(t, x) of the layout contracted with phi(t)
    stack = load_scenario(name).build_system(80.0).stack
    x = data.draw(_batches("bundled", stack.dim).filter(len))[0]
    p, rows, n, width = stack.layout.shape
    L = (stack.phi([t]) @ stack.layout.reshape(p, -1)).reshape(rows * n, width)
    with np.errstate(invalid="ignore"):
        try:
            want = (L @ stack.features(t, x.tolist())).reshape(rows, n)
        except OverflowError:  # a map squares an entry past the float range
            with pytest.raises(OverflowError):
                stack(t, x)
        else:
            assert _same_bits(stack(t, x), want)


def test_batches_of_no_rows_keep_their_row_shape():
    # np.array over no rows has shape (0,), whatever the rows' shape
    none = np.zeros((0, 6))
    assert AgentMap(GAME.maps[0].fn).gradient(none).shape == (0, 6)
    assert _gradient_free(GAME).potential_gradient(none).shape == (0, 6)
    for m in GAME.maps + QUADRATIC.maps:
        assert m.gradient(none).shape == (0, 6)
    for sys in _builders([1.0, 1.0, 1.0]).values():
        assert sys.stack(0.5, np.zeros((0, 9))).shape == (0, 7, 9)
    assert load_scenario("scalar_basic").build_system(50.0).stack(
        0.5, np.zeros((0, 1))).shape == (0, 3, 1)
    identity = FieldStack.of([VectorField(2, lambda t, x: x)])
    assert identity(0.5, np.zeros((0, 2))).shape == (0, 1, 2)


@pytest.mark.parametrize("kind", ["single_integrator", "unicycle"])
@given(values=states, h=poles, t=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_features_are_the_washouts_and_their_jacobian(kind, values, h, t):
    stack = _builders(h)[kind].stack
    x, reference = _read_only_view(values), np.array(values)
    xbar = reference[:6]
    maps = np.array([m(xbar) for m in GAME.maps])
    w = stack.features(t, x.tolist())
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
    z = _read_only_view(values)
    for field, Omega in ((analytic_lie_single_integrator(GAME, params), None),
                         (analytic_lie_unicycle(GAME, params, base_rate), base_rate)):
        got = field.fn(t, z)
        assert got.dtype == np.float64 and got.shape == (9,)
        # inf - inf where terms overflow
        assert np.array_equal(got, _closed_form_reference(params, Omega, t, values),
                              equal_nan=True)


def _closed_form_reference(params, Omega, t, values, game=GAME):
    """The closed-form field of ``game`` from ``AgentMap.__call__`` and
    ``AgentMap.gradient``: single integrator for ``Omega`` None, else unicycle."""
    reference = np.array(values)
    zbar, z_e = reference[:6], reference[6:]
    want = np.zeros(9)
    for i, (m, p) in enumerate(zip(game.maps, params)):
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
    return want


def _list_path(game, kind, h):
    """The agent loops of ``kind``'s stack and the closed form of that kind for ``game``."""
    params = [AgentParams(0.3, 1.5, h_i, i + 1, (1, 2, Fraction(3, 2))[i])
              for i, h_i in enumerate(h)]
    if kind == "single_integrator":
        return (build_single_integrator(game, params, 100.0).stack.feature_jac.__self__,
                analytic_lie_single_integrator(game, params), params, None)
    return (build_unicycle(game, params, 1.0, 80.0).stack.feature_jac.__self__,
            analytic_lie_unicycle(game, params, 1.0), params, 1.0)


def _check_list_path(game, kind, values, h, t):
    # the hot paths convert a state once and hand floats to every map; the
    # accessors convert an array point: both must give the same bits
    loops, closed_form, params, Omega = _list_path(GAMES[game], kind, h)
    x, xbar = _read_only_view(values), np.array(values[:6])
    maps = GAMES[game].maps
    washouts = [m(xbar) - p.h * e for m, p, e in zip(maps, params, values[6:])]
    assert _same_bits(loops.features(t, x.tolist()), np.array([1.0] + washouts))
    want = loops.jac_template.copy()
    want[:, :6] = [m.gradient(xbar) for m in maps]
    assert _same_bits(loops.feature_jac(t, x), want)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same_bits(closed_form.fn(t, x),
                          _closed_form_reference(params, Omega, t, values, GAMES[game]))


@pytest.mark.parametrize("kind", ["single_integrator", "unicycle"])
@pytest.mark.parametrize("game", list(GAMES))
@given(values=states, h=poles, t=st.floats(min_value=0.0, max_value=50.0))
# the libm pow square of 13.433321765081631 that a numpy body would round differently
@example(values=[0.0, 0.0, 0.0, 0.0, 13.433321765081631, 1.0, 0.5, -0.5, 2.0],
         h=[1.0, 2.0, 3.0], t=0.3)
@settings(max_examples=60, deadline=None)
def test_the_list_path_keeps_the_bits_of_the_array_accessors(kind, game, values, h, t):
    _check_list_path(game, kind, values, h, t)
    for m in GAMES[game].maps:  # squares of these coordinates stay in range
        value = m.fn(values[:6])
        assert type(value) is float and _same_bits(value, m(np.array(values[:6])))


@pytest.mark.parametrize("kind", ["single_integrator", "unicycle"])
@pytest.mark.parametrize("k", range(6))
def test_an_overflowing_coordinate_raises_on_the_list_path(kind, k):
    # 1e200 squares past the float range: f_a squares every coordinate, so its
    # float body's ** raises OverflowError through the washouts, the closed form
    # and the accessor; its gradient squares x4 and x5 only
    values = [0.5, -0.5, 1.0, 2.0, -1.0, 0.25, 0.5, -0.5, 2.0]
    values[k] = 1e200
    loops, closed_form, _, _ = _list_path(GAME, kind, [1.0, 2.0, 3.0])
    x, xbar = _read_only_view(values), np.array(values[:6])
    with pytest.raises(OverflowError):
        GAME.maps[0](xbar)
    with pytest.raises(OverflowError):
        loops.features(0.3, values)
    if k >= 4:
        with pytest.raises(OverflowError):
            loops.feature_jac(0.3, x)
    else:  # the rows of the accessors, which raise nothing here
        want = loops.jac_template.copy()
        want[:, :6] = [m.gradient(xbar) for m in GAME.maps]
        assert _same_bits(loops.feature_jac(0.3, x), want)
    with pytest.raises(OverflowError):
        closed_form.fn(0.3, x)


@given(positions)
@settings(max_examples=100, deadline=None)
def test_a_quadratic_map_given_a_list_gives_the_bits_of_the_array(values):
    x = np.array(values)
    for m in QUADRATIC.maps:
        value = m.fn(list(values))
        assert type(value) is float and _same_bits(value, m.fn(x))
        assert _same_bits(m.grad(list(values)), m.grad(x))


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


def test_overflowing_map_arithmetic_raises_and_the_rhs_refuses_it():
    # Python floats raise OverflowError where numpy scalars gave inf; a
    # diverging run must still stop, refused by integrate at its first step
    x = np.full(9, 1e200)
    for m in GAME.maps:
        with pytest.raises(OverflowError):
            m(x[:6])
    with pytest.raises(OverflowError):
        GAME.maps[0].gradient(x[:6])
    for sys in _builders([1.0, 1.0, 1.0]).values():
        rhs = assemble_rhs(sys)
        with pytest.raises(OverflowError):
            rhs.fn(0.1, x)
        run = integrate(rhs, x, 0.1)
        assert run.diverged and run.total_steps == 0


def test_overflowing_maps_raise_on_the_jacobian_paths():
    # at 1e200, f_a and grad_f_a raise OverflowError (so do f_b and f_c); so do
    # the washout Jacobian, the generic bracket and the closed forms
    values = [1e200] * 9
    x, xbar = np.array(values), np.array(values[:6])
    with pytest.raises(OverflowError):
        GAME.maps[0].fn(xbar.tolist())
    with pytest.raises(OverflowError):
        GAME.maps[0].grad(xbar.tolist())
    for sys in _builders([1.0, 2.0, 3.0]).values():
        with pytest.raises(OverflowError):
            sys.stack.feature_jac(0.1, x)
        with pytest.raises(OverflowError):
            build_lie_bracket_system(sys).fn(0.1, x)
    params = [AgentParams(0.3, 1.0, 0.5 + i, i + 1, i + 1) for i in range(3)]
    for field in (analytic_lie_single_integrator(GAME, params),
                  analytic_lie_unicycle(GAME, params, 1.0)):
        with pytest.raises(OverflowError):
            field.fn(0.1, x)
        run = integrate(field, x, 0.1)
        assert run.diverged and run.total_steps == 0


def test_the_jacobian_paths_call_each_raw_gradient_once(monkeypatch):
    # the hot paths read the raw map and gradient: neither AgentMap accessor
    def refuse(*args):
        raise AssertionError("an AgentMap accessor was called")

    monkeypatch.setattr(AgentMap, "__call__", refuse)
    monkeypatch.setattr(AgentMap, "gradient", refuse)
    calls = []

    def counted(i, grad):
        return lambda x: (calls.append(i), grad(x))[1]

    game = replace(GAME, maps=tuple(replace(m, grad=counted(i, m.grad))
                                    for i, m in enumerate(GAME.maps)))
    params = [AgentParams(0.3, 1.0, 0.5 + i, i + 1, i + 1) for i in range(3)]
    z = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    fields = [build_lie_bracket_system(build_single_integrator(game, params, 100.0)),
              build_lie_bracket_system(build_unicycle(game, params, 1.0, 80.0)),
              analytic_lie_single_integrator(game, params),
              analytic_lie_unicycle(game, params, 1.0)]
    assert calls == []
    for field in fields:
        got = field.fn(0.3, z)
        assert got.shape == (9,) and np.isfinite(got).all()
        assert sorted(calls) == [0, 1, 2]
        del calls[:]
