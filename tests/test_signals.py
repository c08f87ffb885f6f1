"""Dither signals: waveform conventions, zero averages, claim validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (DitherSignal, cosine, custom, from_name, nu_quadrature, sawtooth,
                        sine, square, triangle, validate_assumptions)
from ditherseek.signals import BUILTIN_KINDS, SignalValidationReport, period_mean

TWO_PI = 2.0 * math.pi
ALL_KINDS = [sine, cosine, square, triangle, sawtooth]


# ---------------------------------------------------------------------------
# evaluation

@pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.array(0.25)],
                         ids=["float", "float64", "0-d"])
def test_a_scalar_custom_value_stands_for_every_theta(value):
    sig = custom(lambda t, th: value, t_dependent=False)
    theta = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    for evaluate in (sig.eval, sig.eval_for_quadrature):
        got = evaluate(0.5, theta)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == theta.shape and (got == 0.25).all()


@pytest.mark.parametrize("make", ALL_KINDS + [lambda: custom(lambda t, th: math.sin(th) + t)],
                         ids=[f.__name__ for f in ALL_KINDS] + ["custom"])
def test_a_scalar_pair_gives_a_0d_float64_array_for_every_kind(make):
    # np.sin of a 0-d array is a numpy scalar, np.where's result a 0-d array
    sig = make()
    for evaluate in (sig.eval, sig.eval_for_quadrature):
        got = evaluate(0.25, 0.5)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == ()
        assert got == evaluate(np.array([0.25]), np.array([0.5]))[0]


def test_values_take_the_broadcast_shape_of_t_and_theta():
    theta = np.linspace(0.1, 6.0, 5)
    rows = np.zeros((3, 1))  # three slow times, each against every theta
    for sig in (sine(2), sawtooth(1)):
        for evaluate in (sig.eval, sig.eval_for_quadrature):
            got = evaluate(rows, theta)
            assert got.shape == (3, 5)
            assert np.array_equal(got, np.broadcast_to(evaluate(0.0, theta), (3, 5)))
    # where t varies, a custom evaluator is called once per element with floats
    calls = []

    def fn(t, th):
        calls.append((type(t), type(th)))
        return math.sin(t) * math.cos(th)

    t = np.array([0.1, 0.2, 0.3])
    got = custom(fn).eval(t, theta[:2, None])
    assert got.shape == (2, 3) and len(calls) == 6 and set(calls) == {(float, float)}
    assert got.tolist() == [[math.sin(a) * math.cos(b) for a in t.tolist()]
                            for b in theta[:2].tolist()]


def test_quadrature_values_never_pass_through_eval(monkeypatch):
    # the benchmark tracer counts DitherSignal.eval calls; a quadrature makes none
    def refuse(self, t, theta):
        raise AssertionError("eval called")

    monkeypatch.setattr(DitherSignal, "eval", refuse)
    for sig in (sawtooth(3), custom(lambda t, th: np.sin(th), t_dependent=False)):
        assert sig.eval_for_quadrature(0.0, np.zeros(3)).shape == (3,)
        assert abs(period_mean(sig, 0.5)) < 1e-12
    assert nu_quadrature(sine(1), cosine(1)) == pytest.approx(0.5, abs=1e-9)


def test_eval_sine_at_quarter_period():
    assert float(sine(1)(0.0, math.pi / 2)) == pytest.approx(1.0)


def test_eval_cosine_harmonic_ignores_t():
    assert float(cosine(2)(5.0, 0.0)) == pytest.approx(1.0)


def test_eval_square_sign_convention():
    assert float(square(1)(0.0, math.pi / 4)) == 1.0
    assert float(square(1)(0.0, 0.0)) == 0.0
    assert float(square(1)(0.0, 1.5 * math.pi)) == -1.0


def test_triangle_peak_location_and_oddness():
    sig = triangle(2)
    assert float(sig(0.0, math.pi / 4)) == pytest.approx(1.0)
    theta = np.linspace(0.05, 3.0, 40)
    assert np.allclose(sig.eval(0.0, -theta), -sig.eval(0.0, theta), atol=1e-12)


def test_sawtooth_rises_with_top_at_jump():
    sig = sawtooth(1)
    assert float(sig(0.0, 0.0)) == 1.0  # range (-1, 1]
    assert float(sig(0.0, math.pi)) == pytest.approx(0.0)
    assert float(sig(0.0, 0.1)) == pytest.approx(0.1 / math.pi - 1.0)


def test_from_name_round_trip():
    sig = from_name("sine:2")
    assert sig.kind == "sine" and sig.harmonic == 2
    assert from_name("square:1").name == "square:1"
    with pytest.raises(ValueError):
        from_name("wedge:1")


def test_malformed_signals_rejected():
    with pytest.raises(ValueError):
        DitherSignal("sine", 1, period=0.0)
    with pytest.raises(ValueError):
        DitherSignal("sine", 0)
    with pytest.raises(ValueError):
        DitherSignal("custom", 1)  # no evaluator
    # an infinite period reads angular rate 0, so the step policy would ignore the dither
    for period in (math.inf, -math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="period must be finite and positive"):
            custom(lambda t, th: np.sin(th), period=period)


# ---------------------------------------------------------------------------
# zero averages

@pytest.mark.parametrize("ctor", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_zero_mean_over_one_period(ctor, n):
    sig = ctor(n)
    tol = 1e-10 if sig.is_sinusoid else 1e-6
    # the period integral of u, as validate_assumptions measures it
    assert validate_assumptions(sig).max_mean_defect * TWO_PI < tol


@given(st.integers(min_value=1, max_value=10),
       st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_waveforms_periodic_pointwise(n, theta):
    for ctor in ALL_KINDS:
        sig = ctor(n)
        assert abs(float(sig.eval(0.0, theta + TWO_PI)) -
                   float(sig.eval(0.0, theta))) < 1e-9


# ---------------------------------------------------------------------------
# claim validation

def test_validate_sine_all_pass():
    rep = validate_assumptions(sine(1), tol=1e-9)
    assert rep.passed
    assert rep.max_periodicity_defect < 1e-12


def test_validate_constant_fails_zero_mean():
    const = custom(lambda t, th: np.ones_like(np.asarray(th, dtype=float)),
                   t_dependent=False)
    rep = validate_assumptions(const)
    assert not rep.zero_mean
    assert rep.max_mean_defect == pytest.approx(1.0, abs=1e-9)
    assert not rep.passed


def test_validate_sawtooth_with_understated_bound():
    sig = DitherSignal("sawtooth", 1, sup_bound=0.4)
    rep = validate_assumptions(sig)
    assert not rep.bounded
    assert rep.measured_sup == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("ctor", ALL_KINDS)
@pytest.mark.parametrize("n", list(range(1, 11)))
def test_builtin_kinds_satisfy_their_claims(ctor, n):
    rep = validate_assumptions(ctor(n), tol=1e-9)
    assert rep.passed, rep
    if ctor(n).is_sinusoid:
        assert rep.max_periodicity_defect < 1e-12


def test_validate_t_dependent_custom_lipschitz():
    # u(t, theta) = sin(theta) * (1 + 0.5 sin t) has Lipschitz constant 0.5 in t
    fn = lambda t, th: np.sin(np.asarray(th, dtype=float)) * (1.0 + 0.5 * math.sin(t))
    honest = custom(fn, sup_bound=1.5, lipschitz_t=0.5)
    assert validate_assumptions(honest, tol=1e-6).passed
    lying = custom(fn, sup_bound=1.5, lipschitz_t=0.05)
    rep = validate_assumptions(lying, tol=1e-6)
    assert not rep.lipschitz
    assert rep.max_lipschitz_quotient > 0.05


def _report_at_nine_slow_times(signal, tol=1e-9):
    """validate_assumptions as it reads with every dither sampled at all 9 slow times."""
    T = signal.period
    t_samples = np.linspace(-2.0, 2.0, 9)
    cell = T / 1024
    theta_samples = np.arange(1024) * cell + 0.5 * cell
    values = np.stack([np.broadcast_to(signal.eval(t, theta_samples), theta_samples.shape)
                       for t in t_samples])
    shifted = np.stack([np.broadcast_to(signal.eval(t, theta_samples + T), theta_samples.shape)
                        for t in t_samples])
    period_defect = float(np.max(np.abs(shifted - values)))
    measured_sup = float(np.max(np.abs(values)))
    mean_defect = max(abs(period_mean(signal, t)) for t in t_samples)
    lip_quot = 0.0
    for a in range(t_samples.size):
        for b in range(a + 1, t_samples.size):
            q = np.max(np.abs(values[a] - values[b])) / abs(t_samples[a] - t_samples[b])
            lip_quot = max(lip_quot, float(q))
    return SignalValidationReport(
        periodic=period_defect <= tol, zero_mean=mean_defect <= tol,
        bounded=measured_sup <= signal.sup_bound + tol,
        lipschitz=lip_quot <= signal.lipschitz_t + tol,
        max_periodicity_defect=period_defect, max_mean_defect=float(mean_defect),
        measured_sup=measured_sup, max_lipschitz_quotient=lip_quot)


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("period, sup_bound", [(TWO_PI, 1.0), (0.7, 0.4)])
def test_a_builtin_sampled_at_one_slow_time_reports_what_nine_would(kind, n, period,
                                                                    sup_bound):
    # a built-in ignores t, so its nine rows are one row repeated
    sig = DitherSignal(kind, n, period, sup_bound)
    for tol in (1e-9, 1e-3):
        got = validate_assumptions(sig, tol=tol)
        assert dataclasses.astuple(got) == dataclasses.astuple(
            _report_at_nine_slow_times(sig, tol))


def test_a_custom_dither_keeps_every_slow_time():
    # u depends on t but claims lipschitz_t = 0: only samples at more than
    # one slow time can see the claim fail
    sig = custom(lambda t, th: np.sin(np.asarray(th, dtype=float)) * (1.0 + 0.25 * t),
                 sup_bound=1.5, lipschitz_t=0.0)
    rep = validate_assumptions(sig)
    assert rep.periodic and rep.zero_mean and rep.bounded
    assert not rep.lipschitz and not rep.passed
    assert rep.max_lipschitz_quotient == pytest.approx(0.25, rel=1e-5)
    assert dataclasses.astuple(rep) == dataclasses.astuple(_report_at_nine_slow_times(sig))


def test_validate_rejects_bad_grids_and_tol():
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            validate_assumptions(sine(1), tol=tol)


@pytest.mark.parametrize("make", [lambda: sine(math.inf), lambda: sine("2"),
                                  lambda: DitherSignal("cosine", True), lambda: sine(2.0),
                                  lambda: from_name("sine:1.5"), lambda: from_name("sine:1_0")],
                         ids=["inf", "str", "bool", "float", "name_decimal", "name_underscore"])
def test_a_harmonic_that_is_not_an_integer_is_refused(make):
    with pytest.raises(ValueError, match="harmonic must be a positive integer"):
        make()


@pytest.mark.parametrize("field", ["sup_bound", "lipschitz_t"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0])
def test_a_claimed_bound_that_is_not_finite_and_nonnegative_is_refused_by_name(field, value):
    # an infinite claim would pass the bound or Lipschitz check of any dither
    fn = lambda t, th: 50.0 * np.sin(np.asarray(th, dtype=float)) + t * np.cos(th)
    with pytest.raises(ValueError, match=f"claimed bounds must be finite and nonnegative, "
                                         f"got {field}="):
        custom(fn, **{field: value})
    with pytest.raises(ValueError, match=field):
        DitherSignal("sine", **{field: value})
    assert DitherSignal("sine", **{field: 0.0}).name == "sine:1"
