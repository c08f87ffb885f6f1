"""Periodic zero-mean dither signals u(t, theta) and checks of their claimed properties.

Built-in waveforms share the canonical period T = 2*pi; harmonic content is
carried by an integer multiplier n, so e.g. ``sine(3)`` evaluates to
sin(3*theta). All built-ins are independent of the slow-time argument t;
genuinely t-dependent inputs are supported through :func:`custom`.

Conventions for the discontinuous kinds:

* ``square(n)``  = sign(sin(n*theta)), value 0 at the crossings (odd symmetry
  keeps the average exactly zero).
* ``triangle(n)``: odd, piecewise linear, peak +1 at theta = pi/(2n).
* ``sawtooth(n)``: rises -1 -> 1 over each period with a jump at
  theta = 2*pi*k/n; the value at the jump itself is +1 (range (-1, 1]).

Jump locations are detected in phase arithmetic with a 1e-9 relative snap so
that quadrature grids that land exactly on a discontinuity sample the
midpoint value instead of an arbitrary side.

Signals are immutable after construction and safe to evaluate from any
number of concurrent workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import even_intervals, simpson_uniform

TWO_PI = 2.0 * math.pi

SINUSOID_KINDS = ("sine", "cosine")
BUILTIN_KINDS = ("sine", "cosine", "square", "triangle", "sawtooth")

_JUMP_SNAP = 1e-9  # phase fraction within which a sample counts as "on a jump"


def _frac_phase(theta, n: int):
    """Phase of the n-th harmonic folded to [0, 1), snapped onto exact jumps."""
    r = np.asarray(theta, dtype=float) * (n / TWO_PI)
    r = r - np.floor(r)
    r = np.where(np.abs(r - 1.0) < _JUMP_SNAP, 0.0, r)
    r = np.where(np.abs(r) < _JUMP_SNAP, 0.0, r)
    r = np.where(np.abs(r - 0.5) < _JUMP_SNAP, 0.5, r)
    return r


def _waveform(kind: str, n: int, theta, at_jump_midpoint: bool = False):
    """Evaluate a built-in waveform; vectorized over theta."""
    if kind == "sine":
        return np.sin(n * np.asarray(theta, dtype=float))
    if kind == "cosine":
        return np.cos(n * np.asarray(theta, dtype=float))
    r = _frac_phase(theta, n)
    if kind == "square":
        return np.where(r == 0.0, 0.0, np.where(r == 0.5, 0.0, np.where(r < 0.5, 1.0, -1.0)))
    if kind == "triangle":
        return np.where(r <= 0.25, 4.0 * r, np.where(r <= 0.75, 2.0 - 4.0 * r, 4.0 * r - 4.0))
    if kind == "sawtooth":
        jump_value = 0.0 if at_jump_midpoint else 1.0
        return np.where(r == 0.0, jump_value, 2.0 * r - 1.0)
    raise ValueError(f"unknown waveform kind {kind!r}")


@dataclass(frozen=True)
class DitherSignal:
    """A T-periodic, zero-mean, bounded input u(t, theta).

    ``sup_bound`` and ``lipschitz_t`` are the *claimed* bound M on |u| and
    Lipschitz constant L of u(., theta); :func:`validate_assumptions`
    measures both on sample grids and can falsify, never prove.
    """

    kind: str
    harmonic: int = 1
    period: float = TWO_PI
    sup_bound: float = 1.0
    lipschitz_t: float = 0.0
    fn: Callable | None = None
    t_dependent: bool = False

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:  # an infinite period reads angular rate 0
            raise ValueError(f"dither period must be finite and positive, got {self.period}")
        n = self.harmonic
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("harmonic must be a positive integer")
        for name in ("sup_bound", "lipschitz_t"):  # an infinite claim passes any dither
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"claimed bounds must be finite and nonnegative, "
                                 f"got {name}={value}")
        if self.kind == "custom":
            if self.fn is None:
                raise ValueError("custom signals need an evaluator")
        elif self.kind not in BUILTIN_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.harmonic}" if self.kind != "custom" else "custom"

    @property
    def is_sinusoid(self) -> bool:
        return self.kind in SINUSOID_KINDS

    @property
    def angular_rate(self) -> float:
        """Fastest angular rate present in theta (used for step-size control)."""
        return TWO_PI * self.harmonic / self.period

    def __call__(self, t, theta):
        return self.eval(t, theta)

    def eval(self, t, theta):
        """u(t, theta) as a float64 array of the broadcast shape of t and theta,
        0-d for a scalar pair.
        Built-ins ignore t; see :func:`custom` for how an evaluator is called."""
        return self._values(t, theta, at_jump_midpoint=False)

    def table_evaluator(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """u at equal-length arrays of times and phases, as a float array:
        one array pass for a built-in, one call per element with scalar
        (t, theta) for a custom evaluator, which may use ``math`` on t."""
        if self.kind == "custom":
            fn = self.fn
            return lambda ts, thetas: np.fromiter(map(fn, ts.tolist(), thetas.tolist()), float)
        kind, n = self.kind, self.harmonic
        return lambda ts, thetas: _waveform(kind, n, thetas)

    def eval_for_quadrature(self, t, theta):
        """Like :meth:`eval` but samples jump nodes at their midpoint value."""
        return self._values(t, theta, at_jump_midpoint=True)

    def _values(self, t, theta, at_jump_midpoint: bool) -> np.ndarray:
        # the body of eval and eval_for_quadrature: no quadrature passes through
        # eval, whose calls the benchmark tracer counts
        ts, thetas = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
        if self.kind != "custom":  # np.sin of a 0-d array is a numpy scalar: made an array
            return np.asarray(_waveform(self.kind, self.harmonic, thetas, at_jump_midpoint))
        if np.ndim(t):  # t varies: one call per element, as in a stage table
            return self.table_evaluator()(ts.ravel(), thetas.ravel()).reshape(ts.shape)
        return np.broadcast_to(np.asarray(self.fn(float(t), theta), dtype=float), ts.shape).copy()


def sine(n: int = 1) -> DitherSignal:
    return DitherSignal("sine", n)


def cosine(n: int = 1) -> DitherSignal:
    return DitherSignal("cosine", n)


def square(n: int = 1) -> DitherSignal:
    return DitherSignal("square", n)


def triangle(n: int = 1) -> DitherSignal:
    return DitherSignal("triangle", n)


def sawtooth(n: int = 1) -> DitherSignal:
    return DitherSignal("sawtooth", n)


def custom(fn: Callable, period: float = TWO_PI, sup_bound: float = 1.0,
           lipschitz_t: float = 0.0, t_dependent: bool = True,
           harmonic: int = 1) -> DitherSignal:
    """Wrap a user evaluator fn(t, theta) -> real: t a float, theta an array or
    a float broadcast over, a scalar result standing for every theta. Where t
    varies, ``fn`` is called once per element with floats, so it may use ``math`` on t."""
    return DitherSignal("custom", harmonic, period, sup_bound, lipschitz_t,
                        fn=fn, t_dependent=t_dependent)


def from_name(name: str) -> DitherSignal:
    """Parse a ``kind:n`` string as used in scenario files, e.g. ``sine:2``."""
    kind, _, tail = name.partition(":")
    kind, tail = kind.strip(), tail.strip()
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown signal name {name!r}")
    if tail and not (tail.isascii() and tail.isdigit()):  # int() takes "1_0" and "+1"
        raise ValueError("harmonic must be a positive integer")
    return DitherSignal(kind, int(tail) if tail else 1)


def period_mean(signal: DitherSignal, t: float) -> float:
    """Average of u(t, .) over one period: composite Simpson, 4096 intervals."""
    n_int = even_intervals(4096)
    grid = np.linspace(0.0, signal.period, n_int + 1)
    values = signal.eval_for_quadrature(t, grid)
    return simpson_uniform(values, signal.period / n_int) / signal.period


def check_tolerance(tol: float) -> None:
    """Refuse a validator tolerance that is not finite and positive: an infinite
    one would pass every claim and a zero or nan one fail every claim."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


@dataclass(frozen=True)
class SignalValidationReport:
    """Measured defects of the periodicity / zero-mean / bound / Lipschitz claims."""

    periodic: bool
    zero_mean: bool
    bounded: bool
    lipschitz: bool
    max_periodicity_defect: float
    max_mean_defect: float
    measured_sup: float
    max_lipschitz_quotient: float

    @property
    def passed(self) -> bool:
        return self.periodic and self.zero_mean and self.bounded and self.lipschitz


def validate_assumptions(signal: DitherSignal, tol: float = 1e-9) -> SignalValidationReport:
    """Measure the periodicity, zero-average, bound and Lipschitz claims on grids.

    The t grid is 9 points on [-2, 2] for a ``custom`` dither and its first
    point for a built-in: a built-in ignores t, so its other 8 rows would
    repeat the first, each Lipschitz quotient would be 0 and each period mean
    the same, and the report is the same with or without them. The theta grid
    is the midpoints of 1,024 cells over one period, so discontinuous kinds
    are sampled away from their jump points. Any claim ``tol`` short of its
    measurement fails.
    """
    check_tolerance(tol)
    T = signal.period
    t_samples = np.linspace(-2.0, 2.0, 9 if signal.kind == "custom" else 1)
    cell = T / 1024
    theta_samples = np.arange(1024) * cell + 0.5 * cell

    values = np.stack([signal.eval(t, theta_samples) for t in t_samples])
    shifted = np.stack([signal.eval(t, theta_samples + T) for t in t_samples])

    period_defect = float(np.max(np.abs(shifted - values)))
    measured_sup = float(np.max(np.abs(values)))

    mean_defect = max(abs(period_mean(signal, t)) for t in t_samples)

    lip_quot = 0.0
    for a in range(t_samples.size):
        for b in range(a + 1, t_samples.size):
            q = np.max(np.abs(values[a] - values[b])) / abs(t_samples[a] - t_samples[b])
            lip_quot = max(lip_quot, float(q))

    return SignalValidationReport(
        periodic=period_defect <= tol,
        zero_mean=mean_defect <= tol,
        bounded=measured_sup <= signal.sup_bound + tol,
        lipschitz=lip_quot <= signal.lipschitz_t + tol,
        max_periodicity_defect=period_defect,
        max_mean_defect=float(mean_defect),
        measured_sup=measured_sup,
        max_lipschitz_quotient=lip_quot,
    )
