"""Time-varying vector fields on R^n and the oscillatory input-affine form.

An :class:`InputAffineSystem` bundles a drift field with m (field, dither)
channels and a frequency parameter omega; :func:`assemble_rhs` turns it into
the single field

    F(t, x) = b0(t, x) + sum_i omega**gamma * u_i(t, omega*t) * b_i(t, x)

with gamma = 1/2 by default. The gamma = 1 variant is exposed only to let the
amplitude scaling be contrasted experimentally; the averaged construction in
:mod:`ditherseek.liebracket` refuses it.

Drift and channel fields are evaluated together as a :class:`FieldStack`,
b0, b1, ..., bm as the rows of a (1+m, n) array held as a time-only layout
times state features, so that work the fields share (agent maps, gradients)
is done once per point and work that depends on t alone once per time.

Fields and systems are immutable after construction; evaluation is
reentrant. The only mutable state is a stack's one-entry caches (the point
its row views share, the time of its layout), each changed by replacing one
tuple, and the bounded memos of t-only factors (:func:`time_memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .signals import DitherSignal


class FieldEvaluationError(RuntimeError):
    """A vector field produced non-finite values."""


@dataclass(frozen=True)
class VectorField:
    """A field b(t, x) on R^n with an optional analytic state-Jacobian.

    ``fn`` maps (t, x) -> array of shape (n,); ``jac`` maps (t, x) -> (n, n)
    with row i holding the gradient of component i. ``oscillation_rate`` is
    the fastest angular rate the field varies with in t (0 for autonomous
    fields); integrators use it to resolve the fast scale.
    """

    dim: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    jac: Callable[[float, np.ndarray], np.ndarray] | None = None
    oscillation_rate: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("field dimension must be positive")

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(t, np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dim,):
            raise ValueError(f"field returned shape {out.shape}, expected ({self.dim},)")
        return out

    def jacobian(self, t: float, x: np.ndarray, h: float | None = None) -> np.ndarray:
        """Analytic Jacobian when supplied, else central finite differences."""
        if self.jac is not None:
            J = np.asarray(self.jac(t, np.asarray(x, dtype=float)), dtype=float)
            if J.shape != (self.dim, self.dim):
                raise ValueError(f"jacobian returned shape {J.shape}")
            return J
        return finite_diff_jacobian(self, t, x, h)

    @property
    def has_jacobian(self) -> bool:
        return self.jac is not None

    @staticmethod
    def zero(dim: int) -> "VectorField":
        return VectorField.constant(np.zeros(dim))

    @staticmethod
    def constant(vec) -> "VectorField":
        v = np.asarray(vec, dtype=float)
        zj = np.zeros((v.size, v.size))
        return VectorField(v.size, lambda t, x: v, jac=lambda t, x: zj)


# times a memo holds before it is cleared. Runs on one time grid (a probe
# cell's directions) share entries only if the memo holds a run's 2*S + 1
# stage times, S <= 511 steps: true of the probe in bench/, not of the bundled
# probes (about 69,000 steps per unicycle direction), whose runs share nothing
_TIME_MEMO_SIZE = 1024


def time_memo(fn: Callable[[float], np.ndarray]) -> Callable[[float], np.ndarray]:
    """``fn(t)`` as a read-only array, cached by the exact float t in a dict
    (the ``cache`` attribute of the memo) cleared when full: RK4 runs on one
    time grid share their stage times."""
    cache: dict[float, np.ndarray] = {}

    def memo(t):
        value = cache.get(t)
        if value is None:
            if len(cache) >= _TIME_MEMO_SIZE:
                cache.clear()
            value = np.asarray(fn(t), dtype=float)
            value.flags.writeable = False
            cache[t] = value
        return value

    memo.cache = cache
    return memo


def finite_diff_jacobian(fld, t: float, x: np.ndarray,
                         h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, column k = (F(x + h e_k) - F(x - h e_k)) / 2h.

    ``fld`` is any callable (t, x) -> array; the derivative axis is
    appended last, so a :class:`FieldStack` gives one Jacobian per row.
    Default step 1e-6 * max(1, |x|_inf), the usual double-precision
    compromise between truncation and roundoff.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    columns = []
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        columns.append((fld(t, xp) - fld(t, xm)) / (2.0 * h))
    J = np.stack(columns, axis=-1)
    if not np.all(np.isfinite(J)):
        raise FieldEvaluationError("non-finite values in finite-difference Jacobian")
    return J


class _RowView:
    """Row ``index`` of a stack's value (or of its Jacobian), as a field callable."""

    __slots__ = ("stack", "index", "of_jacobian")

    def __init__(self, stack: "FieldStack", index: int, of_jacobian: bool):
        self.stack = stack
        self.index = index
        self.of_jacobian = of_jacobian

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        value = self.stack.jacobian(t, x) if self.of_jacobian else self.stack(t, x)
        return value[self.index]


class FieldStack:
    """Drift and m channel fields on R^n evaluated together, as a layout times features.

    The value at (t, x) is a (rows, n) array, row 0 the drift and row k the
    k-th channel field: L(t) @ features(t, x), L(t) = sum_j phi_j(t) * layout[j].
    ``layout`` has shape (p, rows, n, 1 + k), ``basis`` maps t to phi(t)
    (None: the constant basis [1]), ``features`` (t, x) to [1, w] and
    ``feature_jac`` (t, x) to the (k, n) Jacobian of w. ``fn`` and ``jac`` give
    the value and the stacked Jacobian (rows, n, n); ``oscillation_rates``
    each row's rate in t (see :class:`VectorField`).

    ``FieldStack(dim, fn, jac)`` takes the value as written: identity layout,
    rows as features. :meth:`factored` derives ``fn`` and ``jac`` from few
    features (agent maps, gradients) and passes ``factors`` = the four above.
    The row views in :attr:`fields` share a one-entry cache keyed on the
    point, so callers that evaluate the fields one at a time still pay for
    one stack evaluation per point. Cached values are read-only.
    """

    def __init__(self, dim: int, fn: Callable[[float, np.ndarray], np.ndarray],
                 jac: Callable[[float, np.ndarray], np.ndarray] | None = None,
                 oscillation_rates=(0.0,), factors=None):
        rates = tuple(float(r) for r in oscillation_rates)
        if dim < 1 or not rates:
            raise ValueError("a stack needs a positive dimension and at least one row")
        self.dim, self.fn, self.jac = dim, fn, jac
        self.shape = (len(rates), dim)
        self._value = self._jac_value = (None, None)
        self.fields = tuple(
            VectorField(dim, _RowView(self, k, False),
                        jac=None if jac is None else _RowView(self, k, True),
                        oscillation_rate=rate)
            for k, rate in enumerate(rates))
        if factors is None:  # identity layout, the rows as features
            size = len(rates) * dim
            layout = np.zeros((1,) + self.shape + (1 + size,))
            layout[0, ..., 1:] = np.eye(size).reshape(self.shape + (size,))

            def features(t, x):
                value = np.asarray(fn(t, x), dtype=float)
                self.check(value)
                return np.concatenate(([1.0], value.reshape(size)))

            def feature_jac(t, x):
                return np.asarray(jac(t, x), dtype=float).reshape(size, dim)

            factors = (layout, None, features, None if jac is None else feature_jac)
        self.layout, self.basis, self.features, self.feature_jac = factors
        self.layout.flags.writeable = False

    @classmethod
    def factored(cls, dim: int, layout, features, feature_jac=None, basis=None,
                 oscillation_rates=(0.0,)) -> "FieldStack":
        """L(t) @ features(t, x), with ``jac`` L(t)[..., 1:] @ feature_jac(t, x)."""
        layout = np.array(layout, dtype=float)
        p, rows, n, width = layout.shape
        if basis is None and p != 1:
            raise ValueError("a layout over more than one basis function needs a basis")
        flat = layout.reshape(p, rows * n * width)
        L = flat[0].reshape(rows * n, width)  # L(t) of a constant basis, (rows * n, 1 + k)
        last = (None, (L, L[:, 1:]))  # one-entry cache: t, (L(t), its w columns)

        def at(t):
            nonlocal last
            cached_t, value = last
            if cached_t != t and basis is not None:
                L = (basis(t) @ flat).reshape(rows * n, width)
                value = (L, L[:, 1:])
                last = (t, value)
            return value

        def fn(t, x):
            return (at(t)[0] @ features(t, x)).reshape(rows, n)

        def jac(t, x):
            return (at(t)[1] @ feature_jac(t, x)).reshape(rows, n, n)

        return cls(dim, fn, None if feature_jac is None else jac, oscillation_rates,
                   (layout, basis, features, feature_jac))

    @staticmethod
    def from_fields(fields) -> "FieldStack":
        """Stack of individually evaluated fields (analytic or difference Jacobians)."""
        fields = tuple(fields)
        fns = tuple(f.fn for f in fields)
        jacs = tuple(f.jacobian if f.jac is None else f.jac for f in fields)
        return FieldStack(fields[0].dim,
                          lambda t, x: np.array([f(t, x) for f in fns], dtype=float),
                          lambda t, x: np.array([j(t, x) for j in jacs], dtype=float),
                          tuple(f.oscillation_rate for f in fields))

    @staticmethod
    def of(fields) -> "FieldStack":
        """The stack whose row views ``fields`` are, in order; else a new one."""
        fields = tuple(fields)
        view = fields[0].fn
        if isinstance(view, _RowView):
            own = view.stack.fields
            if len(own) == len(fields) and all(a is b for a, b in zip(own, fields)):
                return view.stack
        return FieldStack.from_fields(fields)

    def check(self, value) -> None:
        """Raise ValueError unless ``value`` has this stack's shape."""
        if np.shape(value) != self.shape:
            raise ValueError(f"stack returned shape {np.shape(value)}, "
                             f"expected {self.shape}")

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked value (rows, n) through the point cache."""
        x = np.asarray(x, dtype=float)
        key = (t, x.tobytes())
        cached_key, value = self._value
        if cached_key != key:
            value = np.array(self.fn(t, x), dtype=float)
            self.check(value)
            value.flags.writeable = False
            self._value = (key, value)
        return value

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked Jacobian (rows, n, n): ``jac`` when supplied, else central differences."""
        x = np.asarray(x, dtype=float)
        key = (t, x.tobytes())
        cached_key, value = self._jac_value
        if cached_key != key:
            if self.jac is None:
                value = finite_diff_jacobian(self, t, x)
            else:
                value = np.array(self.jac(t, x), dtype=float)
                if value.shape != self.shape + (self.dim,):
                    raise ValueError(f"stacked jacobian returned shape {value.shape}")
            value.flags.writeable = False
            self._jac_value = (key, value)
        return value


@dataclass(frozen=True)
class InputAffineSystem:
    """Drift plus m dithered channels and the oscillation parameter omega.

    ``stack`` is derived, never passed: the builder's own stack when drift
    and channel fields are its row views in order, otherwise a stack of the
    individual fields, so a system rebuilt with other fields (for instance
    by ``dataclasses.replace``) is never evaluated through a stale stack.
    """

    drift: VectorField
    channels: tuple[tuple[VectorField, DitherSignal], ...]
    omega: float
    amplitude_exponent: float = 0.5
    stack: FieldStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(tuple(c) for c in self.channels))
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.amplitude_exponent not in (0.5, 1.0):
            raise ValueError("amplitude exponent must be 0.5 or 1.0")
        for fld, sig in self.channels:
            if fld.dim != self.drift.dim:
                raise ValueError("all channel fields must share the drift dimension")
            if not isinstance(sig, DitherSignal):
                raise TypeError("channel dither must be a DitherSignal")
        object.__setattr__(self, "stack", FieldStack.of(self.fields))

    @property
    def fields(self) -> tuple[VectorField, ...]:
        """Drift followed by the channel fields, in stack row order."""
        return (self.drift,) + tuple(fld for fld, _ in self.channels)

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def fast_rate(self) -> float:
        """Largest effective angular rate among dithers and channel fields."""
        rates = [self.drift.oscillation_rate]
        for fld, sig in self.channels:
            rates.append(self.omega * sig.angular_rate)
            rates.append(fld.oscillation_rate)
        return max(rates)


def assemble_rhs(sys: InputAffineSystem) -> VectorField:
    """Combine drift and channels into the full oscillatory right-hand side.

    With c(t) = [1, gain*u_1(t, omega*t), ..., gain*u_m(t, omega*t)], it is
    c(t) @ stack(t, x) = M(t) @ features(t, x). The (n, 1 + k) matrix
    M(t) = (c(t) outer phi(t)) @ layout is memoized per t, so dithers must be
    pure functions of (t, theta); each evaluation is one matrix-vector
    product, checked for finiteness. The Jacobian M(t)[:, 1:] @ feature_jac
    is supplied only when drift and every channel carry one.
    """
    stack, omega = sys.stack, sys.omega
    gain = omega ** sys.amplitude_exponent
    dithers = tuple(sig.scalar_evaluator() for _, sig in sys.channels)
    p, rows, n, width = stack.layout.shape
    # row r * p + j holds layout[j, r], matching the flattened outer product
    layout = stack.layout.transpose(1, 0, 2, 3).reshape(rows * p, n * width)
    basis, features = stack.basis, stack.features

    @time_memo
    def contracted(t):
        theta = omega * t
        c = np.array([1.0] + [gain * u(t, theta) for u in dithers])
        if basis is not None:
            c = np.outer(c, basis(t)).reshape(rows * p)
        return (c @ layout).reshape(n, width)

    def fn(t, x):
        out = contracted(t) @ features(t, x)
        if not np.isfinite(out).all():
            raise FieldEvaluationError("non-finite right-hand side")
        return out

    jac = None
    if all(fld.has_jacobian for fld in sys.fields):
        feature_jac = stack.feature_jac

        def jac(t, x):
            return contracted(t)[:, 1:] @ feature_jac(t, x)

    return VectorField(sys.dim, fn, jac=jac, oscillation_rate=sys.fast_rate)
