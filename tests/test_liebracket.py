"""Bracket algebra, nu coefficients, and the averaged-system construction."""

import math
import warnings

import numpy as np
import pytest

from ditherseek import (InputAffineSystem, PrecisionWarning, UnsupportedSignalError,
                        VectorField, build_lie_bracket_system, cosine, custom,
                        lie_bracket, nu_closed_form, nu_quadrature, sine, square)
from ditherseek import liebracket
from ditherseek.liebracket import MAX_NU_NODES
from helpers import constant_field, zero_field

RNG = np.random.default_rng(42)


def _poly_field():
    def fn(t, x):
        return np.array([x[0] ** 2 - x[1], x[0] * x[1] + 1.0])

    def jac(t, x):
        return np.array([[2.0 * x[0], -1.0], [x[1], x[0]]])

    return VectorField(2, fn, jac=jac)


def _trig_field():
    def fn(t, x):
        return np.array([math.sin(x[1]), math.cos(x[0])])

    def jac(t, x):
        return np.array([[0.0, math.cos(x[1])], [-math.sin(x[0]), 0.0]])

    return VectorField(2, fn, jac=jac)


# ---------------------------------------------------------------------------
# the bracket operator

def test_bracket_of_field_with_itself_vanishes():
    f = _poly_field()
    br = lie_bracket(f, f)
    for _ in range(10):
        x = RNG.uniform(-2, 2, 2)
        assert np.max(np.abs(br(0.0, x))) < 1e-14


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        lie_bracket(zero_field(2), zero_field(3))


def test_bracket_constant_against_gradient_structure():
    # b1 = alpha (constant), b2 = f(x) along the same axis:
    # [b1, b2] = alpha * f'(x) on a line
    alpha = 1.7
    b1 = constant_field([alpha])
    b2 = VectorField(1, lambda t, x: np.array([-(x[0] - 1.0) ** 2]),
                     jac=lambda t, x: np.array([[-2.0 * (x[0] - 1.0)]]))
    br = lie_bracket(b1, b2)
    for z in np.linspace(-4, 4, 9):
        assert br(0.0, np.array([z]))[0] == pytest.approx(alpha * (-2.0 * (z - 1.0)),
                                                          abs=1e-12)


def test_bracket_frozen_symbolic_example():
    # f = [x2, 0], g = [0, x1]; symbolic oracle gives [f,g](x) = [-x1, x2]
    f = VectorField(2, lambda t, x: np.array([x[1], 0.0]),
                    jac=lambda t, x: np.array([[0.0, 1.0], [0.0, 0.0]]))
    g = VectorField(2, lambda t, x: np.array([0.0, x[0]]),
                    jac=lambda t, x: np.array([[0.0, 0.0], [1.0, 0.0]]))
    br = lie_bracket(f, g)
    assert np.allclose(br(0.0, np.array([1.0, 2.0])), [-1.0, 2.0], atol=1e-14)
    x = RNG.uniform(-3, 3, 2)
    assert np.allclose(br(0.0, x), [-x[0], x[1]], atol=1e-14)


def test_bracket_antisymmetry_analytic_and_finite_difference():
    f, g = _poly_field(), _trig_field()
    fg, gf = lie_bracket(f, g), lie_bracket(g, f)
    for _ in range(20):
        x = RNG.uniform(-2, 2, 2)
        assert np.max(np.abs(fg(0.0, x) + gf(0.0, x))) < 1e-10

    f_fd = VectorField(2, f.fn)  # drop the analytic Jacobian
    g_fd = VectorField(2, g.fn)
    with pytest.warns(PrecisionWarning):
        fg_fd = lie_bracket(f_fd, g_fd)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        gf_fd = lie_bracket(g_fd, f_fd)
    for _ in range(10):
        x = RNG.uniform(-2, 2, 2)
        assert np.max(np.abs(fg_fd(0.0, x) + gf_fd(0.0, x))) < 1e-5
        assert np.max(np.abs(fg_fd(0.0, x) - fg(0.0, x))) < 1e-5


def test_bracket_bilinearity():
    f, g, h = _poly_field(), _trig_field(), _poly_field()
    a, b = 2.5, -1.25

    def combo_fn(t, x):
        return a * f(t, x) + b * h(t, x)

    def combo_jac(t, x):
        return a * f.jacobian(t, x) + b * h.jacobian(t, x)

    combo = VectorField(2, combo_fn, jac=combo_jac)
    left = lie_bracket(combo, g)
    f_g, h_g = lie_bracket(f, g), lie_bracket(h, g)
    for _ in range(20):
        x = RNG.uniform(-2, 2, 2)
        expected = a * f_g(0.0, x) + b * h_g(0.0, x)
        assert np.max(np.abs(left(0.0, x) - expected)) < 1e-10


# ---------------------------------------------------------------------------
# nu coefficients

def test_nu_closed_form_matched_sinusoids():
    assert nu_closed_form(sine(1), cosine(1)) == pytest.approx(0.5)
    assert nu_closed_form(cosine(4), sine(4)) == pytest.approx(-0.125)
    assert nu_closed_form(sine(2), sine(3)) == 0.0
    assert nu_closed_form(sine(2), sine(2)) == 0.0
    assert nu_closed_form(cosine(5), cosine(5)) == 0.0


def test_nu_closed_form_rejects_non_sinusoids():
    with pytest.raises(UnsupportedSignalError):
        nu_closed_form(square(1), sine(1))


def test_nu_quadrature_reference_values():
    assert nu_quadrature(cosine(1), sine(1)) == pytest.approx(-0.5, abs=1e-10)
    assert nu_quadrature(sine(2), sine(2)) == pytest.approx(0.0, abs=1e-12)
    assert nu_quadrature(cosine(3), sine(2)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("outer_kind", ["sine", "cosine"])
@pytest.mark.parametrize("inner_kind", ["sine", "cosine"])
@pytest.mark.parametrize("n_outer", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_inner", [1, 2, 3, 4, 5])
def test_nu_quadrature_matches_closed_form(outer_kind, inner_kind, n_outer, n_inner):
    outer = sine(n_outer) if outer_kind == "sine" else cosine(n_outer)
    inner = sine(n_inner) if inner_kind == "sine" else cosine(n_inner)
    quad = nu_quadrature(outer, inner, nodes=10000)
    closed = nu_closed_form(outer, inner)
    assert quad == pytest.approx(closed, abs=1e-8)


def test_nu_quadrature_validates_inputs():
    with pytest.raises(ValueError):
        nu_quadrature(sine(1), cosine(1), nodes=4)
    with pytest.raises(ValueError):
        nu_quadrature(sine(1), cosine(1), nodes=MAX_NU_NODES + 1)
    with pytest.raises(ValueError):
        nu_quadrature(sine(1), custom(lambda t, th: np.sin(th), period=1.0))
    # 8.5 ran on 8 nodes and read 0.49585 where nu = 0.5
    for nodes in (8.5, 4096.0, True, "4096", None):
        with pytest.raises(ValueError, match="integer node count"):
            nu_quadrature(sine(1), cosine(1), nodes=nodes)
    assert nu_quadrature(sine(1), cosine(1), nodes=np.int64(4096)) == pytest.approx(0.5)


def test_nu_antisymmetric_for_any_zero_mean_pair():
    # d/dtheta (P_a * P_b) = u_a P_b + u_b P_a and both running integrals
    # vanish at 0 and T, so nu(a, b) = -nu(b, a) for every zero-mean pair
    import itertools

    from ditherseek import sawtooth, triangle
    sigs = [sine(2), cosine(3), square(1), triangle(2), sawtooth(1)]
    for a, b in itertools.combinations(sigs, 2):
        s = (nu_quadrature(a, b, nodes=65536)
             + nu_quadrature(b, a, nodes=65536))
        assert abs(s) < 1e-12, (a.name, b.name)


# ---------------------------------------------------------------------------
# the averaged system

def _scalar_scheme(alpha=1.0, omega=50.0):
    const = constant_field([alpha])
    f_field = VectorField(1, lambda t, x: np.array([-(x[0] - 1.0) ** 2]),
                          jac=lambda t, x: np.array([[-2.0 * (x[0] - 1.0)]]))
    return InputAffineSystem(zero_field(1),
                             ((const, cosine(1)), (f_field, sine(1))), omega)


def test_averaged_scalar_scheme_is_half_gradient():
    lie = build_lie_bracket_system(_scalar_scheme())
    for z in np.linspace(-5.0, 5.0, 21):
        assert lie(0.0, np.array([z]))[0] == pytest.approx(1.0 - z, abs=1e-12)


def test_averaged_system_refuses_wrong_amplitude_exponent():
    sys = _scalar_scheme()
    wrong = InputAffineSystem(sys.drift, sys.channels, sys.omega,
                              amplitude_exponent=1.0)
    with pytest.raises(ValueError, match="amplitude exponent"):
        build_lie_bracket_system(wrong)


def test_single_channel_reduces_to_drift():
    drift = constant_field([2.0, 0.5])
    fld = VectorField(2, lambda t, x: np.array([x[1], -x[0]]),
                      jac=lambda t, x: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    lie = build_lie_bracket_system(InputAffineSystem(drift, ((fld, sine(1)),), 10.0))
    for _ in range(5):
        x = RNG.uniform(-1, 1, 2)
        assert np.allclose(lie(0.0, x), [2.0, 0.5], atol=1e-14)


def test_distinct_harmonics_contribute_nothing():
    # pair (sine(1), cosine(2)) has nu = 0: averaged field equals the drift
    drift = constant_field([0.0])
    f1 = VectorField(1, lambda t, x: np.array([x[0]]),
                     jac=lambda t, x: np.array([[1.0]]))
    f2 = VectorField(1, lambda t, x: np.array([x[0] ** 2]),
                     jac=lambda t, x: np.array([[2.0 * x[0]]]))
    sys = InputAffineSystem(drift, ((f1, sine(1)), (f2, cosine(2))), 10.0)
    lie = build_lie_bracket_system(sys)
    for z in np.linspace(-2, 2, 7):
        assert lie(0.0, np.array([z]))[0] == 0.0


def test_harmonic_scaling_identity():
    # scaling both channel fields by sqrt(n) while moving to harmonic n
    # leaves the averaged field unchanged
    def pair_system(n):
        s = math.sqrt(n)
        b1 = VectorField(2, lambda t, x: s * np.array([x[1], 1.0]),
                         jac=lambda t, x: s * np.array([[0.0, 1.0], [0.0, 0.0]]))
        b2 = VectorField(2, lambda t, x: s * np.array([1.0, x[0] * x[1]]),
                         jac=lambda t, x: s * np.array([[0.0, 0.0],
                                                        [x[1], x[0]]]))
        return InputAffineSystem(zero_field(2),
                                 ((b1, sine(n)), (b2, cosine(n))), 10.0)

    base = build_lie_bracket_system(pair_system(1))
    for n in (2, 3, 5):
        lifted = build_lie_bracket_system(pair_system(n))
        for _ in range(10):
            x = RNG.uniform(-2, 2, 2)
            assert np.allclose(lifted(0.0, x), base(0.0, x), atol=1e-12)


def test_averaged_system_with_quadrature_method():
    lie_cf = build_lie_bracket_system(_scalar_scheme(), "closed_form")
    lie_q = build_lie_bracket_system(_scalar_scheme(), "quadrature:8192")
    for z in np.linspace(-3, 3, 11):
        x = np.array([z])
        assert lie_q(0.0, x)[0] == pytest.approx(lie_cf(0.0, x)[0], abs=1e-9)


def test_averaged_system_square_dithers_need_quadrature():
    const = constant_field([1.0])
    f_field = VectorField(1, lambda t, x: np.array([x[0]]),
                          jac=lambda t, x: np.array([[1.0]]))
    sys = InputAffineSystem(zero_field(1),
                            ((const, square(1)), (f_field, cosine(1))), 10.0)
    with pytest.raises(UnsupportedSignalError):
        build_lie_bracket_system(sys, "closed_form")
    lie = build_lie_bracket_system(sys, "quadrature")
    # the bracket [const, x] is identically 1, so the field equals nu itself;
    # running integral of square(1) is the tent theta on [0,pi], 2pi-theta on
    # [pi,2pi], and integrating it against cos gives -4, so nu = -2/pi
    nu = nu_quadrature(cosine(1), square(1), nodes=65536)
    assert nu == pytest.approx(-2.0 / math.pi, abs=1e-6)
    for z in np.linspace(-2, 2, 5):
        assert lie(0.0, np.array([z]))[0] == pytest.approx(nu, abs=1e-6)


def test_t_dependent_custom_nu_recomputed_per_time():
    # u(t, theta) = (1 + 0.5 sin t) * sin(theta): nu against cosine(1) scales
    # with the slow-time factor
    mod = custom(lambda t, th: (1.0 + 0.5 * math.sin(t)) * np.sin(th),
                 sup_bound=1.5, lipschitz_t=0.5)
    const = constant_field([1.0])
    f_field = VectorField(1, lambda t, x: np.array([x[0]]),
                          jac=lambda t, x: np.array([[1.0]]))
    sys = InputAffineSystem(zero_field(1),
                            ((const, cosine(1)), (f_field, mod)), 10.0)
    with pytest.raises(UnsupportedSignalError):
        build_lie_bracket_system(sys, "closed_form")
    lie = build_lie_bracket_system(sys, "quadrature")
    # [const, f] = 1 at every point; nu(outer = mod, inner = cosine) = r(t)/2
    for t in (0.0, 1.0, 2.5):
        expected = 0.5 * (1.0 + 0.5 * math.sin(t))
        assert lie(t, np.array([0.3]))[0] == pytest.approx(expected, abs=1e-9)
    # one t-dependent channel forms no pair: closed_form averages it to the drift
    single = InputAffineSystem(constant_field([2.0]), ((f_field, mod),), 10.0)
    lie = build_lie_bracket_system(single, "closed_form")
    for t in (0.0, 1.0):
        assert lie(t, np.array([0.3])).tolist() == [2.0]


def test_only_pairs_with_a_t_dependent_dither_are_refilled(monkeypatch):
    counted = []

    def counting(outer, inner, t, nodes):
        counted.append((outer.name, inner.name, t))
        return nu_quadrature(outer, inner, t, nodes)

    monkeypatch.setattr(liebracket, "nu_quadrature", counting)
    mod = custom(lambda t, th: (1.0 + 0.5 * math.sin(t)) * np.sin(th),
                 sup_bound=1.5, lipschitz_t=0.5)
    const = constant_field([1.0])
    f_field = VectorField(1, lambda t, x: np.array([x[0]]),
                          jac=lambda t, x: np.array([[1.0]]))
    sys = InputAffineSystem(zero_field(1), ((const, cosine(1)), (f_field, sine(1)),
                                                  (f_field, mod)), 10.0)
    lie = build_lie_bracket_system(sys, "quadrature")
    assert len(counted) == 3  # every pair once at build, at t = 0
    x = np.array([0.3])
    # a new time refills the two pairs of the t-dependent third channel only;
    # t = 0 takes the matrix filled at build
    for t, refilled in ((0.0, 0), (1.0, 2), (1.0, 0), (2.5, 2), (0.0, 0)):
        before = len(counted)
        value = lie(t, x)
        assert len(counted) - before == refilled
        assert all(outer == "custom" for outer, _, _ in counted[before:])
        assert np.array_equal(value, build_lie_bracket_system(sys, "quadrature")(t, x))


def test_non_finite_nu_is_refused_by_name():
    # one nan sample makes nu nan, which the zero test alone reads as a
    # structural zero, leaving the drift
    holed = custom(lambda t, th: np.where(th == 0.0, np.nan, np.sin(th)), t_dependent=False)
    const = constant_field([1.0])
    f_field = VectorField(1, lambda t, x: np.array([x[0]]),
                          jac=lambda t, x: np.array([[1.0]]))
    sys = InputAffineSystem(zero_field(1), ((const, cosine(1)), (f_field, holed)), 10.0)
    with pytest.raises(ValueError, match=r"nu\(custom, cosine:1\) at t=0 is nan"):
        build_lie_bracket_system(sys, "quadrature")
    # a t-dependent pair is refused at the time its nu is not finite
    late = custom(lambda t, th: (math.nan if t >= 1.0 else 1.0) * np.sin(th))
    sys = InputAffineSystem(zero_field(1), ((const, cosine(1)), (f_field, late)), 10.0)
    lie = build_lie_bracket_system(sys, "quadrature")
    assert lie(0.5, np.array([0.3]))[0] == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError, match=r"nu\(custom, cosine:1\) at t=1 is nan"):
        lie(1.0, np.array([0.3]))


@pytest.mark.parametrize("third, differentiated", [(cosine(2), False), (sine(1), True)])
def test_only_channels_of_non_zero_pairs_are_differentiated(third, differentiated):
    # a third channel whose pairs all have nu = 0 sets neither the rate nor
    # the finite-difference warning, and adds nothing to the field
    base = _scalar_scheme()
    rough = VectorField(1, lambda t, x: np.array([x[0] ** 2]), oscillation_rate=7.0)
    sys = InputAffineSystem(base.drift, base.channels + ((rough, third),), base.omega)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lie = build_lie_bracket_system(sys)
    assert [w.category for w in caught] == [PrecisionWarning] * differentiated
    assert lie.oscillation_rate == (7.0 if differentiated else 0.0)
    if not differentiated:
        pair = build_lie_bracket_system(base)
        for z in np.linspace(-2.0, 2.0, 5):
            assert lie(0.0, np.array([z])).tolist() == pair(0.0, np.array([z])).tolist()


def test_fallback_warning_from_averaged_construction():
    const = constant_field([1.0])
    f_field = VectorField(1, lambda t, x: np.array([x[0]]))  # no Jacobian
    sys = InputAffineSystem(zero_field(1),
                            ((const, cosine(1)), (f_field, sine(1))), 10.0)
    with pytest.warns(PrecisionWarning):
        build_lie_bracket_system(sys)
