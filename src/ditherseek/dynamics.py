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
A right-hand side carries its stack's features as ``fn.features``, so that
integrators form a stage as a stage-table row times the features.

Fields and systems are immutable after construction; evaluation is
reentrant. The only mutable state is in one kind of one-entry cache, the
:func:`last_table`: one per job on time alone (a stack's L(t), a right-hand
side's M(t), the averaged P(t), H(t)), and the two that a stack's row views
share, for the value and the Jacobian at their last point [t, x].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .signals import DitherSignal


class FieldEvaluationError(ArithmeticError):
    """A vector field produced non-finite values; an ArithmeticError, like an overflow
    in a map's float arithmetic, so one ``except ArithmeticError`` refuses both."""


@dataclass(frozen=True)
class VectorField:
    """A field b(t, x) on R^n with an optional analytic state-Jacobian.

    ``fn`` maps (t, x) -> array of shape (n,); ``jac`` maps (t, x) -> (n, n)
    with row i holding the gradient of component i. ``oscillation_rate`` is
    the fastest angular rate the field varies with in t (0 for autonomous
    fields); integrators use it to resolve the fast scale. ``stage_table``, if
    given, maps T times to T rows of t-only data (read-only arrays, or tuples of
    them), and then ``fn(t, x, row)`` takes the row of t (``integrate`` reads
    ``list(stage_table(times))``).
    """

    dim: int
    fn: Callable[..., np.ndarray]
    jac: Callable[[float, np.ndarray], np.ndarray] | None = None
    oscillation_rate: float = 0.0
    stage_table: Callable[[np.ndarray], np.ndarray] | None = None

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


def central_points(x: np.ndarray) -> tuple[float, np.ndarray]:
    """The step h and the (2n, n) points of a central difference at x: rows
    2k and 2k + 1 are x + h e_k and x - h e_k, each a copy of x with one entry
    moved. h = 1e-6 * max(1, |x|_inf), the usual double-precision compromise
    between truncation and roundoff."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * max(1.0, float(np.abs(x).max(initial=0.0)))
    n = x.size
    points = np.empty((2 * n, n))
    points[:] = x
    flat = points.reshape(-1)  # entry k of row 2k is flat[k * (2n + 1)]
    flat[::2 * n + 1] += h
    flat[n::2 * n + 1] -= h
    return h, points


def central_differences(values: np.ndarray, h: float) -> np.ndarray:
    """The Jacobian from the (2n, ...) values at the :func:`central_points` of
    step h, with the derivative axis last: column k is
    (F(x + h e_k) - F(x - h e_k)) / 2h. Non-finite entries raise
    FieldEvaluationError."""
    D = (values[0::2] - values[1::2]) / (2.0 * h)
    if not np.isfinite(D).all():
        raise FieldEvaluationError("non-finite values in finite-difference Jacobian")
    return D.transpose(tuple(range(1, D.ndim)) + (0,))


def finite_diff_jacobian(fld, t: float, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of any callable (t, x) -> array at one point,
    ``fld`` called once per shifted point; a :class:`FieldStack` gives one
    Jacobian per row (see :func:`central_differences`)."""
    h, points = central_points(x)
    return central_differences(np.array([fld(t, p) for p in points]), h)


def by_rows(fn, X: np.ndarray, shape) -> np.ndarray:
    """``fn`` of each row of the batch ``X`` as one (len(X),) + ``shape`` array,
    also for a batch of no rows."""
    return np.array([fn(x) for x in X], dtype=float).reshape((len(X),) + tuple(shape))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def last_table(tabulate):
    """``tabulate``, mapping a float array (T times, or one point [t, x]) to read-only
    data of it alone, as a table that keeps the data of its last array, keyed by
    its exact bytes."""
    tabulated = lru_cache(maxsize=1)(lambda key: tabulate(np.frombuffer(key)))

    def table(times):
        return tabulated(np.asarray(times, dtype=float).tobytes())

    return table


class _RowView:
    """Row ``index`` of a stack's value or Jacobian, as a field callable, read
    from ``table``: a :func:`last_table` over the point [t, x] that all views of
    the stack share, so callers that evaluate the fields one at a time still pay
    for one stack evaluation per point."""

    __slots__ = ("stack", "index", "table")

    def __init__(self, stack: "FieldStack", index: int, table):
        self.stack, self.index, self.table = stack, index, table

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.table(np.concatenate(([t], np.asarray(x, dtype=float))))[self.index]


class FieldStack:
    """Drift and m channel fields on R^n evaluated together, as a layout times features.

    Calling the stack at (t, x) gives a (rows, n) array, row 0 the drift and
    row k the k-th channel field: L(t) @ features(t, x), with
    L(t) = sum_j phi_j(t) * layout[j]; at a batch (B, n) of points it gives
    (B, rows, n), the features taken row by row. ``layout`` has shape
    (p, rows, n, 1 + k), ``basis`` maps T times to the (T, p) phi(t) (None: the
    constant basis [1]), ``features`` (t, x) to [1, w] at one point x, which
    every caller passes as a list of n Python floats, and ``feature_jac``
    (t, x) to the (k, n) Jacobian of w at a float array x.
    :meth:`phi` gives phi(t) at T times, :meth:`weighted` c(t) @ L(t),
    :meth:`jacobian` the stacked Jacobian (rows, n, n); ``oscillation_rates`` each
    row's rate in t (default 0, see :class:`VectorField`). L(t) is kept in a
    :func:`last_table`, and so are the value and the Jacobian at the last point
    the row views in :attr:`fields` read (see :class:`_RowView`).
    """

    def __init__(self, layout, features, feature_jac=None, basis=None, oscillation_rates=None):
        layout = _read_only(np.array(layout, dtype=float))
        p, rows, n, width = layout.shape
        if basis is None and p != 1:
            raise ValueError("a layout over more than one basis function needs a basis")
        rates = (0.0,) * rows if oscillation_rates is None else tuple(oscillation_rates)
        if len(rates) != rows:
            raise ValueError(f"{len(rates)} oscillation rates for {rows} rows")
        self.layout, self.basis = layout, basis
        self.features, self.feature_jac = features, feature_jac
        self.dim, self.shape = n, (rows, n)
        flat, self._by_row = layout.reshape(p, -1), layout.reshape(p * rows, -1)
        self._matrices = last_table(lambda times: _read_only(  # L(t) as (rows * n, 1 + k)
            (self.phi(times) @ flat).reshape(times.size, rows * n, width)))
        value, jac = (last_table(lambda tx, f=f: _read_only(f(float(tx[0]), tx[1:])))
                      for f in (self, self.jacobian))  # at the point tx = [t, x]
        self.fields = tuple(
            VectorField(n, _RowView(self, k, value),
                        jac=None if feature_jac is None else _RowView(self, k, jac),
                        oscillation_rate=float(rate))
            for k, rate in enumerate(rates))

    def phi(self, times) -> np.ndarray:
        """The basis weights phi(t) at T times as (T, p): ones for the constant basis."""
        times = np.asarray(times, dtype=float)
        phi = np.ones((times.size, 1)) if self.basis is None else np.asarray(self.basis(times))
        if phi.shape != (times.size, self.layout.shape[0]):
            raise ValueError(f"basis returned shape {phi.shape} for {times.size} times")
        return phi

    def weighted(self, times, weights) -> np.ndarray:
        """c(t) @ L(t) at T times as (T, n * (1 + k)), ``weights`` the (T, rows) c(t):
        the outer products phi(t) ⊗ c(t) times the layout, with no L(t) formed."""
        outer = self.phi(times)[:, :, None] * np.asarray(weights, dtype=float)[:, None, :]
        return outer.reshape(len(outer), -1) @ self._by_row

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked value (rows, n) at one point, (B, rows, n) at a batch (B, n): the
        features of each row of one ``tolist()``, then one matrix-vector product
        per row, a point taken as a batch of one row."""
        x = np.asarray(x, dtype=float)
        L = self._matrices(t)[0]
        w = by_rows(partial(self.features, t), x.reshape(-1, self.dim).tolist(), (L.shape[1],))
        return np.matmul(L, w[:, :, None]).reshape(x.shape[:-1] + self.shape)

    def feature_jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """The (k, n) Jacobian of w: ``feature_jac`` when supplied, else central
        differences of the features, each shifted point a list of floats."""
        x = np.asarray(x, dtype=float)
        if self.feature_jac is None:
            return finite_diff_jacobian(lambda t, p: self.features(t, p.tolist()), t, x)[1:]
        return self.feature_jac(t, x)

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        """Stacked Jacobian (rows, n, n): L(t)[..., 1:] @ :meth:`feature_jacobian`."""
        J = self._matrices(t)[0, :, 1:] @ self.feature_jacobian(t, x)
        return J.reshape(self.shape + (self.dim,))

    @staticmethod
    def of(fields) -> "FieldStack":
        """The stack whose row views ``fields`` are, in order, or that stack's layout
        over just those rows when they are some of its row views; else the identity
        layout over the fields' values, rows as features, which make one float array
        of the point for all the fields and refuse a non-finite state with
        FieldEvaluationError before calling any field (see ``integrate``)."""
        fields = tuple(fields)
        view = fields[0].fn
        if isinstance(view, _RowView):
            stack = view.stack
            rows = [k for f in fields for k, own in enumerate(stack.fields) if f is own]
            if len(rows) == len(fields):
                if rows == list(range(len(stack.fields))):
                    return stack
                return FieldStack(stack.layout[:, rows], stack.features, stack.feature_jac,
                                  stack.basis, [f.oscillation_rate for f in fields])
        shape = (len(fields), fields[0].dim)
        size = shape[0] * shape[1]
        layout = np.eye(size, 1 + size, 1).reshape((1,) + shape + (1 + size,))
        fns = tuple(f.fn for f in fields)
        jacs = tuple(f.jacobian for f in fields)  # analytic when given, shape-checked

        def features(t, x):
            x = np.array(x, dtype=float)  # the one array every field is called with
            if not np.isfinite(x).all():
                raise FieldEvaluationError("non-finite state")
            value = np.array([f(t, x) for f in fns], dtype=float)
            if value.shape != shape:
                raise ValueError(f"stack returned shape {value.shape}, expected {shape}")
            return np.concatenate(([1.0], value.reshape(size)))

        def feature_jac(t, x):
            return np.array([j(t, x) for j in jacs], dtype=float).reshape(size, shape[1])

        return FieldStack(layout, features, feature_jac,
                          oscillation_rates=[f.oscillation_rate for f in fields])


@dataclass(frozen=True)
class InputAffineSystem:
    """Drift plus m dithered channels and the oscillation parameter omega.

    ``stack`` is derived, never passed: the builder's own stack when drift
    and channel fields are its row views in order, its layout over those rows
    when they are some of its row views, otherwise a stack of the individual
    fields, so a system rebuilt with other fields (for instance
    by ``dataclasses.replace``) is never evaluated through a stale stack.
    """

    drift: VectorField
    channels: tuple[tuple[VectorField, DitherSignal], ...]
    omega: float
    amplitude_exponent: float = 0.5
    stack: FieldStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(tuple(c) for c in self.channels))
        if not self.omega > 0.0:
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
    c(t) @ stack(t, x) = M(t) @ features(t, x). The stage table holds the
    (n, 1 + k) matrices M(t) = c(t) @ L(t) of an array of times, built in one
    pass and kept for the last array (a :func:`last_table`), so dithers must be
    pure in (t, theta). ``fn(t, x, row)`` is one matrix-vector product, checked
    for finiteness; ``fn(t, x)`` reads the table of t alone. ``fn.features`` is
    the stack's features: for a table row r and a float array x, ``fn(t, x, r)``
    is ``np.dot(r, fn.features(t, x.tolist()))``, the product ``integrate``'s
    kernel forms as ``r.dot(...)``, then the check. M(t)[:, 1:] @ feature_jac
    is the Jacobian, supplied only when drift and every channel carry one.
    """
    stack, omega = sys.stack, sys.omega
    gain = omega ** sys.amplitude_exponent
    dithers = tuple(sig.table_evaluator() for _, sig in sys.channels)
    features = stack.features

    def matrices(times):
        c = np.array([np.ones(times.size)] + [gain * u(times, omega * times) for u in dithers])
        return _read_only(stack.weighted(times, c.T).reshape(times.size, sys.dim, -1))

    stage_table = last_table(matrices)
    dot, isfinite = np.dot, np.isfinite

    def fn(t, x, row=None):
        out = dot(stage_table(t)[0] if row is None else row, features(t, x.tolist()))
        if not isfinite(out).all():
            raise FieldEvaluationError("non-finite right-hand side")
        return out

    fn.features = features
    jac = None
    if all(fld.has_jacobian for fld in sys.fields):
        feature_jac = stack.feature_jac

        def jac(t, x):
            return stage_table(t)[0, :, 1:] @ feature_jac(t, x)

    return VectorField(sys.dim, fn, jac=jac, oscillation_rate=sys.fast_rate,
                       stage_table=stage_table)
