"""Fields the tests build systems from."""

import numpy as np

from ditherseek import VectorField


def constant_field(vec) -> VectorField:
    """The field b(t, x) = vec, with its zero Jacobian."""
    v = np.asarray(vec, dtype=float)
    zj = np.zeros((v.size, v.size))
    return VectorField(v.size, lambda t, x: v, jac=lambda t, x: zj)


def zero_field(dim: int) -> VectorField:
    """The zero field on R^dim."""
    return constant_field(np.zeros(dim))
