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

import math
import numbers
import warnings

import numpy as np

from ._quadrature import cumulative_simpson, even_intervals, simpson_uniform
from .dynamics import FieldStack, InputAffineSystem, VectorField, _read_only, last_table
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
    same grid. ``nodes``, an integer, counts subintervals (rounded up to even,
    from 8 to MAX_NU_NODES).
    """
    if isinstance(nodes, bool) or not isinstance(nodes, numbers.Integral):
        raise ValueError(f"nu quadrature needs an integer node count, got {nodes!r}")
    if not 8 <= nodes <= MAX_NU_NODES:
        raise ValueError(f"nu quadrature needs from 8 to {MAX_NU_NODES:,} nodes, got {nodes}")
    if abs(outer.period - inner.period) > 1e-12 * max(outer.period, inner.period):
        raise ValueError("nu is defined for signals sharing one period")
    T = outer.period
    n_int = even_intervals(nodes, minimum=8)
    grid = np.linspace(0.0, T, n_int + 1)
    h = T / n_int
    inner_running = cumulative_simpson(inner.eval_for_quadrature(t, grid), h)
    return simpson_uniform(outer.eval_for_quadrature(t, grid) * inner_running, h) / T


def _parse_nu_method(nu_method: str) -> int | None:
    """The quadrature node count named by "quadrature" (4096) or
    "quadrature:<nodes>", or None for "closed_form"; ValueError for any other
    value and for node counts outside 8 to MAX_NU_NODES."""
    if nu_method == "closed_form":
        return None
    kind, sep, count = str(nu_method).partition(":")
    if kind != "quadrature":
        raise ValueError(f"unknown nu method {nu_method!r}; "
                         "expected closed_form or quadrature:<nodes>")
    nodes = 4096
    if sep:
        if not (count.isascii() and count.isdigit()):  # int() takes "1_0", "+1" and " 1"
            raise ValueError(f"nu method {nu_method!r}: node count must be an integer")
        nodes = int(count)
    if not 8 <= nodes <= MAX_NU_NODES:
        raise ValueError(f"nu method {nu_method!r}: quadrature needs from 8 to "
                         f"{MAX_NU_NODES:,} nodes")
    return nodes


def build_lie_bracket_system(sys: InputAffineSystem,
                             nu_method: str = "closed_form") -> VectorField:
    """Assemble the averaged field b0 + sum_{i<j} nu_ji [b_i, b_j].

    Only the sqrt(omega) amplitude scaling averages to this system, so any
    other ``amplitude_exponent`` is refused. The coefficients form one
    antisymmetric matrix A, A[j, i] = nu_ji = -A[i, j], filled once; the
    pairs with a genuinely t-dependent dither are refilled at each tabulated
    time but t = 0. A coefficient that is not finite raises ValueError.
    Self-pairs never contribute: for zero-mean dithers their averaged term
    vanishes identically, and a channel with no non-zero pair is left out of
    the field, never evaluated.

    Over the stack of the drift and the r live channels, L(t) = phi(t) @ layout,
    the field is B_0 + sum_a J_a (A B)_a with B = L(t) @ w and J_a = L_a(t)[:, 1:] @ Jw.
    All but the features w and their Jacobian Jw is contracted at build, per
    basis function: P stacks the drift rows over the rows A @ L_live, and H,
    (n, r*k), holds the live rows' Jacobian columns side by side. One evaluation
    is y = P(t) @ w, U = y[n:] as (r, n) @ Jw.T and y[:n] + H(t) @ U. The stage
    table, a :func:`~ditherseek.dynamics.last_table`, holds a read-only (P(t), H(t))
    pair per time, from one product phi @ G per table; ``fn(t, z)`` reads t's alone.
    With the constant basis and no t-dependent dither, every time holds the one
    pair formed at build.
    """
    if sys.amplitude_exponent != 0.5:
        raise ValueError(
            "the averaged system exists only for amplitude exponent 0.5 "
            f"(got {sys.amplitude_exponent})")
    nodes = _parse_nu_method(nu_method)
    dithers = [s for _, s in sys.channels]
    m = len(dithers)
    varying = m > 1 and any(s.t_dependent for s in dithers)
    if varying and nodes is None:
        raise UnsupportedSignalError("t-dependent dithers need nu_method='quadrature'")

    def fill(t, coeffs, pairs):
        for i, j in pairs:
            outer, inner = dithers[j], dithers[i]
            # nu_quadrature is looked up per call, so a rebound name is honoured
            value = (nu_closed_form(outer, inner) if nodes is None
                     else nu_quadrature(outer, inner, t, nodes))
            if not math.isfinite(value):
                raise ValueError(f"nu({outer.name}, {inner.name}) at t={t:g} is {value}")
            coeffs[j, i], coeffs[i, j] = ((value, -value) if abs(value) > _NU_ZERO_TOL
                                          else (0.0, 0.0))
        return coeffs

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    static = fill(0.0, np.zeros((m, m)), pairs)
    moving = [(i, j) for i, j in pairs if dithers[i].t_dependent or dithers[j].t_dependent]

    # only the channel fields of pairs that can contribute are differentiated;
    # the drift enters undifferentiated
    live = [k for k in range(m) if varying or static[:, k].any()]
    fields = [sys.channels[k][0] for k in live]
    if not all(f.has_jacobian for f in fields):
        warnings.warn(
            "averaged system uses finite-difference Jacobians for at least "
            "one bracket", PrecisionWarning, stacklevel=2)
    rate = max([sys.drift.oscillation_rate] + [f.oscillation_rate for f in fields])
    stack = sys.stack if len(live) == m else FieldStack.of([sys.drift] + fields)
    layout, features = stack.layout, stack.features
    feature_jac = stack.feature_jac or stack.feature_jacobian
    p, _, n, width = layout.shape
    r = len(live)
    live_rows = layout[:, 1:].reshape(p, r, n * width)
    if not varying:
        live_rows = static[np.ix_(live, live)] @ live_rows
    # per basis function: P's drift and live rows, then H with H[:, a*k:(a+1)*k] = L_a[:, 1:]
    G = np.concatenate((layout[:, 0].reshape(p, -1), live_rows.reshape(p, -1),
                        layout[:, 1:, :, 1:].transpose(0, 2, 1, 3).reshape(p, -1)), axis=1)
    split = (1 + r) * n * width

    def tabulate(times):  # one (P(t), H(t)) pair per time
        if shared is not None:
            return [shared] * times.size
        PH = stack.phi(times) @ G
        P = PH[:, :split].reshape(times.size, (1 + r) * n, width)
        H = PH[:, split:].reshape(times.size, n, -1)
        if varying:  # refill the pairs with a t-dependent dither at each time but 0
            for t, Pt in zip(times.tolist(), P):
                A = static if t == 0.0 else fill(t, static.copy(), moving)
                Pt[n:] = (A @ Pt[n:].reshape(r, -1)).reshape(r * n, width)
        return list(zip(_read_only(P), _read_only(H)))

    shared = None  # with the constant basis and fixed nu, every time has the pair of t = 0
    if stack.basis is None and not varying:
        shared = tabulate(np.zeros(1))[0]
    stage_table = last_table(tabulate)

    def fn(t, z, row=None):
        P, H = stage_table(t)[0] if row is None else row
        y = P.dot(features(t, z))
        if not r:
            return y
        U = y[n:].reshape(r, n).dot(feature_jac(t, z).T)
        return y[:n] + H.dot(U.ravel())

    return VectorField(sys.dim, fn, oscillation_rate=rate, stage_table=stage_table)
