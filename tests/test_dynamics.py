"""Vector fields, finite-difference Jacobians, and the input-affine assembly."""

import math

import numpy as np
import pytest

from ditherseek import (FieldEvaluationError, InputAffineSystem, VectorField,
                        assemble_rhs, cosine, finite_diff_jacobian, sine)
from helpers import constant_field, zero_field


def _linear_field(A):
    A = np.asarray(A, dtype=float)
    return VectorField(A.shape[0], lambda t, x: A @ x, jac=lambda t, x: A)


# ---------------------------------------------------------------------------
# fields and finite differences

def test_field_shape_is_enforced():
    bad = VectorField(2, lambda t, x: np.zeros(3))
    with pytest.raises(ValueError):
        bad(0.0, np.zeros(2))


def test_finite_diff_linear_field_recovers_matrix():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    fld = VectorField(2, lambda t, x: A @ x)
    J = finite_diff_jacobian(fld, 0.0, np.array([0.7, -1.2]))
    assert np.max(np.abs(J - A)) < 1e-6


def test_finite_diff_constant_field_is_zero():
    fld = constant_field([3.0, -1.0, 2.0])
    J = finite_diff_jacobian(fld, 0.0, np.array([1.0, 1.0, 1.0]))
    assert np.max(np.abs(J)) < 1e-9


def test_finite_diff_polynomial_field():
    # b(x) = [x1^2, x1*x2]: analytic Jacobian [[2*x1, 0], [x2, x1]]
    fld = VectorField(2, lambda t, x: np.array([x[0] ** 2, x[0] * x[1]]))
    J = finite_diff_jacobian(fld, 0.0, np.array([2.0, 3.0]))
    assert np.allclose(J, [[4.0, 0.0], [3.0, 2.0]], atol=1e-5)


def test_finite_diff_propagates_nonfinite_values():
    fld = VectorField(
        1, lambda t, x: np.array([1.0 / x[0] if x[0] != 0.0 else np.inf]))
    # the step at 1e-6 is 1e-6, so x - h lands on the pole
    with pytest.raises(FieldEvaluationError):
        finite_diff_jacobian(fld, 0.0, np.array([1e-6]))


def test_supplied_jacobian_consistent_with_finite_differences():
    # analytic Jacobians must agree with central differences to 1e-5 relative
    def fn(t, x):
        return np.array([x[0] ** 2 - math.sin(x[1]), x[0] * x[1]])

    def jac(t, x):
        return np.array([[2.0 * x[0], -math.cos(x[1])], [x[1], x[0]]])

    fld = VectorField(2, fn, jac=jac)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        J, J_fd = fld.jacobian(0.0, x), finite_diff_jacobian(fld, 0.0, x)
        assert np.max(np.abs(J - J_fd)) / max(1.0, np.max(np.abs(J))) < 1e-5


def test_jacobian_prefers_analytic():
    called = []
    A = np.eye(2)
    fld = VectorField(2, lambda t, x: A @ x,
                      jac=lambda t, x: (called.append(1), A)[1])
    fld.jacobian(0.0, np.zeros(2))
    assert called


# ---------------------------------------------------------------------------
# input-affine assembly

def test_empty_channel_list_returns_drift():
    drift = constant_field([1.0, -2.0])
    rhs = assemble_rhs(InputAffineSystem(drift, (), omega=3.0))
    assert np.allclose(rhs(0.7, np.zeros(2)), [1.0, -2.0])


def _scalar_instance(f, alpha, omega):
    const = constant_field([alpha])
    f_field = VectorField(1, lambda t, x: np.array([f(x[0])]))
    return InputAffineSystem(zero_field(1),
                             ((const, cosine(1)), (f_field, sine(1))), omega)


def test_scalar_instance_at_time_zero():
    # at t = 0: sin -> 0, cos -> 1, so xdot = alpha * sqrt(omega)
    rhs = assemble_rhs(_scalar_instance(lambda x: -(x - 1.0) ** 2, 2.0, 4.0))
    assert rhs(0.0, np.array([0.5]))[0] == pytest.approx(2.0 * 2.0)


def test_scalar_instance_at_quarter_dither_period():
    # omega=100, t = pi/(2*100): cos -> 0, sin -> 1; f(1) = -1, alpha = 1
    rhs = assemble_rhs(_scalar_instance(lambda x: -x ** 2, 1.0, 100.0))
    value = rhs(math.pi / 200.0, np.array([1.0]))[0]
    assert value == pytest.approx(-10.0, abs=1e-9)


def test_amplitude_exponent_one_scales_by_omega():
    const = constant_field([1.0])
    sys = InputAffineSystem(zero_field(1), ((const, cosine(1)),), 9.0,
                            amplitude_exponent=1.0)
    assert assemble_rhs(sys)(0.0, np.zeros(1))[0] == pytest.approx(9.0)


def test_assembly_linear_in_each_channel_field():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    drift = _linear_field(rng.normal(size=(3, 3)))
    base = InputAffineSystem(drift, ((_linear_field(A), sine(1)),), 7.0)
    scaled = InputAffineSystem(drift, ((_linear_field(4.0 * A), sine(1)),), 7.0)
    f_base, f_scaled = assemble_rhs(base), assemble_rhs(scaled)
    for _ in range(10):
        t, x = rng.uniform(0, 5), rng.normal(size=3)
        d = drift(t, x)
        assert np.allclose(f_scaled(t, x) - d, 4.0 * (f_base(t, x) - d), atol=1e-12)


def test_assembly_matches_definition_pointwise():
    # direct restatement: drift + sum sqrt(omega) u_i(omega t) b_i
    rng = np.random.default_rng(5)
    A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    drift = _linear_field(rng.normal(size=(2, 2)))
    omega = 13.0
    sys = InputAffineSystem(drift, ((_linear_field(A), sine(2)),
                                    (_linear_field(B), cosine(3))), omega)
    rhs = assemble_rhs(sys)
    for _ in range(20):
        t, x = rng.uniform(0, 5), rng.normal(size=2)
        expected = (drift(t, x)
                    + math.sqrt(omega) * math.sin(2 * omega * t) * (A @ x)
                    + math.sqrt(omega) * math.cos(3 * omega * t) * (B @ x))
        assert np.allclose(rhs(t, x), expected, atol=1e-12)


def test_assembled_jacobian_combines_channel_jacobians():
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    sys = InputAffineSystem(_linear_field(B), ((_linear_field(A), sine(1)),), 4.0)
    rhs = assemble_rhs(sys)
    assert rhs.has_jacobian
    t = 0.37
    expected = B + 2.0 * math.sin(4.0 * t) * A
    assert np.allclose(rhs.jacobian(t, np.zeros(2)), expected, atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        InputAffineSystem(zero_field(2),
                          ((zero_field(3), sine(1)),), 1.0)


def test_invalid_omega_and_exponent_rejected():
    with pytest.raises(ValueError):
        InputAffineSystem(zero_field(1), (), omega=0.0)
    with pytest.raises(ValueError):
        InputAffineSystem(zero_field(1), (), omega=1.0, amplitude_exponent=0.7)


def test_fast_rate_tracks_harmonics_and_fields():
    fld = VectorField(1, lambda t, x: np.zeros(1), oscillation_rate=11.0)
    sys = InputAffineSystem(zero_field(1), ((fld, sine(3)),), omega=2.0)
    # dither rate: omega * n = 6; field carries its own 11
    assert sys.fast_rate == pytest.approx(11.0)
    sys2 = InputAffineSystem(zero_field(1), ((fld, sine(3)),), omega=10.0)
    assert sys2.fast_rate == pytest.approx(30.0)
