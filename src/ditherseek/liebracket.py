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
from dataclasses import dataclass

import numpy as np

from ._quadrature import cumulative_simpson, even_intervals, simpson_uniform
from .dynamics import InputAffineSystem, VectorField, time_memo
from .signals import DitherSignal

# quadrature values below this are treated as structural zeros when the
# averaged field is assembled
_NU_ZERO_TOL = 1e-12


class PrecisionWarning(UserWarning):
    """A bracket fell back to finite-difference Jacobians."""


class UnsupportedSignalError(ValueError):
    """Closed-form coefficients exist only for sinusoidal dithers."""


@dataclass(frozen=True)
class NuCoefficient:
    """One averaged cross-correlation coefficient nu_ji.

    ``pair`` holds the (outer, inner) channel indices, 1-based with
    outer > inner when produced by the system builder.
    """

    value: float
    pair: tuple[int, int] = (2, 1)
    method: str = "closed_form"


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


def nu_closed_form(outer_kind: str, outer_n: int, inner_kind: str, inner_n: int,
                   pair: tuple[int, int] = (2, 1)) -> NuCoefficient:
    """Closed-form nu for a sinusoid pair; raises for any other kind."""
    for kind in (outer_kind, inner_kind):
        if kind not in ("sine", "cosine"):
            raise UnsupportedSignalError(
                f"no closed form for {kind!r} dithers, use nu_quadrature")
    if outer_n != inner_n or outer_kind == inner_kind:
        value = 0.0
    elif outer_kind == "sine":
        value = +0.5 / outer_n
    else:
        value = -0.5 / outer_n
    return NuCoefficient(value, pair=pair, method="closed_form")


def nu_quadrature(outer: DitherSignal, inner: DitherSignal, t: float = 0.0,
                  nodes: int = 4096, pair: tuple[int, int] = (2, 1)) -> NuCoefficient:
    """Composite-Simpson evaluation of nu over one shared period.

    The inner running integral is accumulated with cumulative Simpson on the
    same grid. ``nodes`` counts subintervals (rounded up to even, >= 8).
    """
    if nodes < 8:
        raise ValueError("nu quadrature needs at least 8 nodes")
    if abs(outer.period - inner.period) > 1e-12 * max(outer.period, inner.period):
        raise ValueError("nu is defined for signals sharing one period")
    T = outer.period
    n_int = even_intervals(nodes, minimum=8)
    grid = np.linspace(0.0, T, n_int + 1)
    h = T / n_int
    inner_running = cumulative_simpson(
        np.broadcast_to(inner.eval_for_quadrature(t, grid), grid.shape).astype(float), h)
    outer_vals = np.broadcast_to(outer.eval_for_quadrature(t, grid), grid.shape)
    value = simpson_uniform(outer_vals * inner_running, h) / T
    return NuCoefficient(value, pair=pair, method="quadrature")


def _parse_nu_method(nu_method: str, nodes: int = 4096) -> tuple[str, int]:
    """(method, nodes) of "closed_form", "quadrature" or "quadrature:<nodes>".

    Raises ValueError for any other value and for fewer than 8 nodes.
    """
    if nu_method == "closed_form":
        return "closed_form", nodes
    kind, sep, count = str(nu_method).partition(":")
    if kind != "quadrature":
        raise ValueError(f"unknown nu method {nu_method!r}; "
                         "expected closed_form or quadrature:<nodes>")
    if sep:
        try:
            nodes = int(count)
        except ValueError:
            raise ValueError(f"nu method {nu_method!r}: node count must be an "
                             "integer") from None
    if nodes < 8:
        raise ValueError(f"nu method {nu_method!r}: quadrature needs at least 8 nodes")
    return "quadrature", nodes


def build_lie_bracket_system(sys: InputAffineSystem, nu_method: str = "closed_form",
                             nodes: int = 4096) -> VectorField:
    """Assemble the averaged field b0 + sum_{i<j} nu_ji [b_i, b_j].

    Only the sqrt(omega) amplitude scaling averages to this system, so any
    other ``amplitude_exponent`` is refused. Coefficients are computed once
    per channel pair; pairs involving genuinely t-dependent custom dithers
    are re-integrated once per evaluation time. Self-pairs never contribute:
    for zero-mean dithers their averaged term vanishes identically.

    Each evaluation computes the system's field stack and stacked Jacobian
    once and contracts them with an antisymmetric coefficient matrix A,
    A[j, i] = nu_ji = -A[i, j], as sum_a J_a (A B)_a with B the channel rows.
    """
    if sys.amplitude_exponent != 0.5:
        raise ValueError(
            "the averaged system exists only for amplitude exponent 0.5 "
            f"(got {sys.amplitude_exponent})")
    method, nodes = _parse_nu_method(nu_method, nodes)

    m = sys.n_channels
    static = np.zeros((m, m))
    dynamic_terms: list[tuple[int, int, DitherSignal, DitherSignal, tuple[int, int]]] = []
    terms = []
    # only channel fields are differentiated; the drift enters undifferentiated
    for i in range(m):
        f_i, s_i = sys.channels[i]
        for j in range(i + 1, m):
            f_j, s_j = sys.channels[j]
            if s_i.t_dependent or s_j.t_dependent:
                if method == "closed_form":
                    raise UnsupportedSignalError(
                        "t-dependent dithers need nu_method='quadrature'")
                dynamic_terms.append((i, j, s_j, s_i, (j + 1, i + 1)))
                terms.append((f_i, f_j))
                continue
            if method == "closed_form":
                nu = nu_closed_form(s_j.kind, s_j.harmonic, s_i.kind, s_i.harmonic)
            else:
                nu = nu_quadrature(s_j, s_i, nodes=nodes)
            if abs(nu.value) <= _NU_ZERO_TOL:
                continue
            static[j, i] += nu.value
            static[i, j] -= nu.value
            terms.append((f_i, f_j))

    if any(not (f_i.has_jacobian and f_j.has_jacobian) for f_i, f_j in terms):
        warnings.warn(
            "averaged system uses finite-difference Jacobians for at least "
            "one bracket", PrecisionWarning, stacklevel=2)

    rates = [sys.drift.oscillation_rate]
    for f_i, f_j in terms:
        rates.extend((f_i.oscillation_rate, f_j.oscillation_rate))

    stack = sys.stack
    stack_fn = stack.fn
    stack_jac = stack.jac or stack.jacobian
    checked = False

    @time_memo
    def dynamic_coeffs(t):
        coeffs = static.copy()
        for i, j, s_j, s_i, pair in dynamic_terms:
            value = nu_quadrature(s_j, s_i, t=t, nodes=nodes, pair=pair).value
            if abs(value) > _NU_ZERO_TOL:
                coeffs[j, i] += value
                coeffs[i, j] -= value
        return coeffs

    def fn(t, z):
        nonlocal checked
        rows = stack_fn(t, z)
        if not checked:
            stack.check(rows)
            checked = True
        if not terms:
            return rows[0]
        coeffs = dynamic_coeffs(t) if dynamic_terms else static
        mixed = coeffs @ rows[1:]
        return rows[0] + np.einsum("akl,al->k", stack_jac(t, z)[1:], mixed)

    return VectorField(sys.dim, fn, oscillation_rate=max(rates))
