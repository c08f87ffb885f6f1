"""Time-varying vector fields on R^n and the oscillatory input-affine form.

An :class:`InputAffineSystem` bundles a drift field with m (field, dither)
channels and a frequency parameter omega; :func:`assemble_rhs` turns it into
the single field

    F(t, x) = b0(t, x) + sum_i omega**gamma * u_i(t, omega*t) * b_i(t, x)

with gamma = 1/2 by default. The gamma = 1 variant is exposed only to let the
amplitude scaling be contrasted experimentally; the averaged construction in
:mod:`ditherseek.liebracket` refuses it.

Drift and channel fields are evaluated together as a :class:`FieldStack`:
b0, b1, ..., bm are the rows of the (1+m, n) array L(t) @ features(t, x), a
time-only layout times state features, so that work the fields share (agent
maps, gradients) is done once per point and work that depends on t alone
once per time. Fields made one at a time are stacked by
:meth:`FieldStack.of` over the identity layout, their values as features.

Fields and systems are immutable after construction; evaluation is
reentrant. The only mutable state is a stack's one-entry caches (the point
its row views share, the time of its L(t)), each changed by replacing one
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

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Analytic Jacobian when supplied, else central finite differences."""
        if self.jac is not None:
            J = np.asarray(self.jac(t, np.asarray(x, dtype=float)), dtype=float)
            if J.shape != (self.dim, self.dim):
                raise ValueError(f"jacobian returned shape {J.shape}")
            return J
        return finite_diff_jacobian(self, t, x)

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
    ``feature_jac`` (t, x) to the (k, n) Jacobian of w. :meth:`at` gives
    L(t), ``fn`` the value and ``jac`` the stacked Jacobian (rows, n, n),
    L(t)[..., 1:] @ feature_jac (None without a ``feature_jac``);
    ``oscillation_rates`` gives each row's rate in t (default 0, see
    :class:`VectorField`).

    The row views in :attr:`fields` share a one-entry cache keyed on the
    point, so callers that evaluate the fields one at a time still pay for
    one stack evaluation per point. Cached values are read-only.
    """

    def __init__(self, layout, features, feature_jac=None, basis=None, oscillation_rates=None):
        layout = np.array(layout, dtype=float)
        p, rows, n, width = layout.shape
        if basis is None and p != 1:
            raise ValueError("a layout over more than one basis function needs a basis")
        rates = (0.0,) * rows if oscillation_rates is None else tuple(oscillation_rates)
        if len(rates) != rows:
            raise ValueError(f"{len(rates)} oscillation rates for {rows} rows")
        layout.flags.writeable = False
        self.layout, self.basis = layout, basis
        self.features, self.feature_jac = features, feature_jac
        self.dim, self.shape = n, (rows, n)
        self.jac = None if feature_jac is None else self._jac
        self._flat = layout.reshape(p, -1)
        # one-entry cache: t and L(t) as the (rows * n, 1 + k) matrix
        self._last = (None, layout[0].reshape(rows * n, width))
        self._value = self._jac_value = (None, None)
        self.fields = tuple(
            VectorField(n, _RowView(self, k, False),
                        jac=None if feature_jac is None else _RowView(self, k, True),
                        oscillation_rate=float(rate))
            for k, rate in enumerate(rates))

    def _matrix(self, t):
        last_t, L = self._last
        if last_t != t and self.basis is not None:
            L = (self.basis(t) @ self._flat).reshape(-1, self.layout.shape[-1])
            L.flags.writeable = False
            self._last = (t, L)
        return L

    def at(self, t: float) -> np.ndarray:
        """L(t) as a read-only (rows, n * (1 + k)) view, row r the (n, 1 + k)
        block of row r flattened, so that c @ L(t) contracts the rows."""
        return self._matrix(t).reshape(self.shape[0], -1)

    def fn(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked value (rows, n), uncached."""
        return (self._matrix(t) @ self.features(t, x)).reshape(self.shape)

    def _jac(self, t: float, x: np.ndarray) -> np.ndarray:
        J = self._matrix(t)[:, 1:] @ self.feature_jac(t, x)
        return J.reshape(self.shape + (self.dim,))

    @staticmethod
    def of(fields) -> "FieldStack":
        """The stack whose row views ``fields`` are, in order; else the identity
        layout over the fields' values, rows as features."""
        fields = tuple(fields)
        view = fields[0].fn
        if isinstance(view, _RowView):
            own = view.stack.fields
            if len(own) == len(fields) and all(a is b for a, b in zip(own, fields)):
                return view.stack
        shape = (len(fields), fields[0].dim)
        size = shape[0] * shape[1]
        layout = np.eye(size, 1 + size, 1).reshape((1,) + shape + (1 + size,))
        fns = tuple(f.fn for f in fields)
        jacs = tuple(f.jacobian for f in fields)  # analytic when given, shape-checked

        def features(t, x):
            value = np.array([f(t, x) for f in fns], dtype=float)
            if value.shape != shape:
                raise ValueError(f"stack returned shape {value.shape}, expected {shape}")
            return np.concatenate(([1.0], value.reshape(size)))

        def feature_jac(t, x):
            return np.array([j(t, x) for j in jacs], dtype=float).reshape(size, shape[1])

        return FieldStack(layout, features, feature_jac,
                          oscillation_rates=[f.oscillation_rate for f in fields])

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked value (rows, n) through the point cache."""
        x = np.asarray(x, dtype=float)
        key = (t, x.tobytes())
        cached_key, value = self._value
        if cached_key != key:
            value = self.fn(t, x)
            value.flags.writeable = False
            self._value = (key, value)
        return value

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked Jacobian (rows, n, n): ``jac`` when supplied, else central differences."""
        x = np.asarray(x, dtype=float)
        key = (t, x.tobytes())
        cached_key, value = self._jac_value
        if cached_key != key:
            value = finite_diff_jacobian(self, t, x) if self.jac is None else self.jac(t, x)
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
    M(t) = c(t) @ L(t) is memoized per t, so dithers must be pure functions
    of (t, theta); each evaluation is one matrix-vector product, checked for
    finiteness. The Jacobian M(t)[:, 1:] @ feature_jac is supplied only when
    drift and every channel carry one.
    """
    stack, omega = sys.stack, sys.omega
    gain = omega ** sys.amplitude_exponent
    dithers = tuple(sig.scalar_evaluator() for _, sig in sys.channels)
    n = sys.dim
    at, features = stack.at, stack.features

    @time_memo
    def contracted(t):
        theta = omega * t
        c = np.array([1.0] + [gain * u(t, theta) for u in dithers])
        return (c @ at(t)).reshape(n, -1)

    isfinite = np.isfinite

    def fn(t, x):
        out = contracted(t) @ features(t, x)
        if not isfinite(out).all():
            raise FieldEvaluationError("non-finite right-hand side")
        return out

    jac = None
    if all(fld.has_jacobian for fld in sys.fields):
        feature_jac = stack.feature_jac

        def jac(t, x):
            return contracted(t)[:, 1:] @ feature_jac(t, x)

    return VectorField(sys.dim, fn, jac=jac, oscillation_rate=sys.fast_rate)
