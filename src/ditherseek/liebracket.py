"""Lie brackets, dither cross-correlation coefficients, and the averaged system.

The averaged counterpart of an oscillatory input-affine system is

    dz/dt = b0(t, z) + sum_{i<j} nu_ji(t) * [b_i, b_j](t, z)

where [f, g] = (dg/dx) f - (df/dx) g and

    nu_ji(t) = (1/T) * integral_0^T u_j(t, theta) * integral_0^theta u_i(t, tau) dtau dtheta.

Index convention: the first subscript names the *outer* signal (the one the
running integral of the other is correlated against). For matched sinusoids
nu(outer=sine(n), inner=cosine(n)) = +1/(2n) and
nu(outer=cosine(n), inner=sine(n)) = -1/(2n); every other sinusoid pairing,
including distinct harmonics, gives exactly zero. The sign convention is
pinned by the scalar seeking loop: channels (alpha, cosine) and (f, sine)
must average to +(alpha/2) * grad f.
"""

from __future__ import annotations

import warnings
from functools import lru_cache, partial

import numpy as np

from ._quadrature import cumulative_simpson, even_intervals, simpson_uniform
from .dynamics import InputAffineSystem, VectorField
from .signals import DitherSignal

# quadrature values below this are treated as structural zeros when the
# averaged field is assembled
_NU_ZERO_TOL = 1e-12
# nu quadrature grids stay within megabytes: 256 times the default of 4,096
MAX_NU_NODES = 1 << 20


class PrecisionWarning(UserWarning):
    """A bracket fell back to finite-difference Jacobians."""


class UnsupportedSignalError(ValueError):
    """Closed-form coefficients exist only for sinusoidal dithers."""


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """The field (t, x) -> Jg(t,x) f(t,x) - Jf(t,x) g(t,x).

    Falls back to central differences for fields without analytic Jacobians
    and emits a :class:`PrecisionWarning` once when it does.
    """
    if f.dim != g.dim:
        raise ValueError("bracket operands must share a dimension")
    if not (f.has_jacobian and g.has_jacobian):
        warnings.warn(
            "lie_bracket falling back to finite-difference Jacobians; "
            "expect ~1e-5 accuracy instead of machine precision",
            PrecisionWarning, stacklevel=2)

    def fn(t, x):
        return g.jacobian(t, x) @ f(t, x) - f.jacobian(t, x) @ g(t, x)

    rate = max(f.oscillation_rate, g.oscillation_rate)
    return VectorField(f.dim, fn, oscillation_rate=rate)


def nu_closed_form(outer: DitherSignal, inner: DitherSignal) -> float:
    """Closed-form nu for a sinusoid pair; raises for any other kind."""
    for sig in (outer, inner):
        if sig.kind not in ("sine", "cosine"):
            raise UnsupportedSignalError(
                f"no closed form for {sig.kind!r} dithers, use nu_quadrature")
    if outer.harmonic != inner.harmonic or outer.kind == inner.kind:
        return 0.0
    return (0.5 if outer.kind == "sine" else -0.5) / outer.harmonic


def nu_quadrature(outer: DitherSignal, inner: DitherSignal, t: float = 0.0,
                  nodes: int = 4096) -> float:
    """Composite-Simpson evaluation of nu over one shared period.

    The inner running integral is accumulated with cumulative Simpson on the
    same grid. ``nodes`` counts subintervals (rounded up to even, from 8 to
    MAX_NU_NODES).
    """
    if not 8 <= nodes <= MAX_NU_NODES:
        raise ValueError(f"nu quadrature needs from 8 to {MAX_NU_NODES:,} nodes, got {nodes}")
    if abs(outer.period - inner.period) > 1e-12 * max(outer.period, inner.period):
        raise ValueError("nu is defined for signals sharing one period")
    T = outer.period
    n_int = even_intervals(nodes, minimum=8)
    grid = np.linspace(0.0, T, n_int + 1)
    h = T / n_int
    inner_running = cumulative_simpson(
        np.broadcast_to(inner.eval_for_quadrature(t, grid), grid.shape).astype(float), h)
    outer_vals = np.broadcast_to(outer.eval_for_quadrature(t, grid), grid.shape)
    return simpson_uniform(outer_vals * inner_running, h) / T


def _parse_nu_method(nu_method: str):
    """The evaluator (outer, inner[, t]) -> nu named by "closed_form",
    "quadrature" (4096 nodes) or "quadrature:<nodes>".

    Raises ValueError for any other value and for node counts outside 8 to
    MAX_NU_NODES.
    """
    if nu_method == "closed_form":
        return lambda outer, inner, t=0.0: nu_closed_form(outer, inner)
    kind, sep, count = str(nu_method).partition(":")
    if kind != "quadrature":
        raise ValueError(f"unknown nu method {nu_method!r}; "
                         "expected closed_form or quadrature:<nodes>")
    nodes = 4096
    if sep:
        try:
            nodes = int(count)
        except ValueError:
            raise ValueError(f"nu method {nu_method!r}: node count must be an "
                             "integer") from None
    if not 8 <= nodes <= MAX_NU_NODES:
        raise ValueError(f"nu method {nu_method!r}: quadrature needs from 8 to "
                         f"{MAX_NU_NODES:,} nodes")
    # nu_quadrature is looked up per call, so a rebound name is honoured
    return lambda outer, inner, t=0.0: nu_quadrature(outer, inner, t, nodes)


def build_lie_bracket_system(sys: InputAffineSystem,
                             nu_method: str = "closed_form") -> VectorField:
    """Assemble the averaged field b0 + sum_{i<j} nu_ji [b_i, b_j].

    Only the sqrt(omega) amplitude scaling averages to this system, so any
    other ``amplitude_exponent`` is refused. Coefficients are computed once
    per channel pair; pairs involving genuinely t-dependent custom dithers
    are re-integrated whenever the evaluation time changes. Self-pairs never
    contribute: for zero-mean dithers their averaged term vanishes identically.

    Each evaluation computes the system's field stack and stacked Jacobian
    once and contracts them with an antisymmetric coefficient matrix A,
    A[j, i] = nu_ji = -A[i, j], as sum_a J_a (A B)_a with B the channel rows.
    """
    if sys.amplitude_exponent != 0.5:
        raise ValueError(
            "the averaged system exists only for amplitude exponent 0.5 "
            f"(got {sys.amplitude_exponent})")
    nu = _parse_nu_method(nu_method)

    m = sys.n_channels
    # (i, j, t -> nu_ji(t)) for every pair that can contribute
    pairs = []
    for i in range(m):
        s_i = sys.channels[i][1]
        for j in range(i + 1, m):
            s_j = sys.channels[j][1]
            if s_i.t_dependent or s_j.t_dependent:
                if nu_method == "closed_form":
                    raise UnsupportedSignalError(
                        "t-dependent dithers need nu_method='quadrature'")
                pairs.append((i, j, partial(nu, s_j, s_i)))
            elif abs(value := nu(s_j, s_i)) > _NU_ZERO_TOL:
                pairs.append((i, j, lambda t, v=value: v))

    # only channel fields are differentiated; the drift enters undifferentiated
    fields = [sys.channels[k][0] for i, j, _ in pairs for k in (i, j)]
    if not all(f.has_jacobian for f in fields):
        warnings.warn(
            "averaged system uses finite-difference Jacobians for at least "
            "one bracket", PrecisionWarning, stacklevel=2)
    rate = max([sys.drift.oscillation_rate] + [f.oscillation_rate for f in fields])

    def fill(t):
        coeffs = np.zeros((m, m))
        for i, j, nu_ji in pairs:
            value = nu_ji(t)
            if abs(value) > _NU_ZERO_TOL:
                coeffs[j, i] = value
                coeffs[i, j] = -value
        return coeffs

    if any(s.t_dependent for _, s in sys.channels):
        coefficients = lru_cache(maxsize=1)(fill)
    else:
        static = fill(0.0)

        def coefficients(t):
            return static

    stack_fn, stack_jac = sys.stack.__call__, sys.stack.jacobian

    def fn(t, z):
        rows = stack_fn(t, z)
        if not pairs:
            return rows[0]
        mixed = coefficients(t) @ rows[1:]
        return rows[0] + np.einsum("akl,al->k", stack_jac(t, z)[1:], mixed)

    return VectorField(sys.dim, fn, oscillation_rate=rate)
