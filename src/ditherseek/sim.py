"""Oscillation-aware integration and the empirical verification harness.

Fixed-step RK4 is used throughout: the dither frequency sets a known fastest
time scale, and adaptive controllers chatter on oscillatory forcing. The step
resolves the fastest angular rate of the field with a configurable number of
samples per period (default 40), capped by ``max_step``.

Stability verdicts produced here are reported as "consistent with / not
falsified at the tested omega": the definitions quantify over all
sufficiently large omega, which no finite sweep can prove.

:func:`omega_sweep` alone integrates the averaged flow and each omega's
oscillatory system against it; a one-omega report gives no verdict.

Every (omega, initial-condition) cell of a simulation, sweep or probe is an
independent integration over immutable inputs. :func:`run_cells` is the one
schedule that runs them: one cell at a time, in the order the caller draws.
"""

from __future__ import annotations

import math
import numbers
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import _qmc
from ._quadrature import cumulative_simpson, even_intervals, fit_loglog_slope
from .dynamics import InputAffineSystem, VectorField, assemble_rhs
from .liebracket import nu_quadrature
from .signals import TWO_PI, DitherSignal, period_mean

# most RK4 steps one integration may take: about 100 times the longest bundled
# run (scalar_basic at omega=1600, 101,860 steps); 80 MB of states per component
MAX_STEPS = 10_000_000

# steps per stage table (1,025 rows); probe directions this short share one table
STAGE_CHUNK = 512

# most intervals of an averaging_decay_check grid: 20 times the largest caller's
# (101,860 at omega=10,000 over [0, 1]); about ten arrays of 16.8 MB each
MAX_DECAY_INTERVALS = 1 << 21

# most boundary samples a probe draws per shell: 512 times the bundled 8; the
# Sobol draw behind them is then at most 4,096 rows
MAX_BOUNDARY_SAMPLES = 4096


@dataclass(frozen=True)
class StepPolicy:
    """Step-size policy: K samples per fastest period, capped by max_step.

    ``output_stride`` decimates trajectory storage (every stride-th step is
    kept) so CSV output stays sane at high frequencies.
    """

    samples_per_period: int = 40
    max_step: float = 0.01
    output_stride: int = 1

    def __post_init__(self):
        for name in ("samples_per_period", "output_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples_per_period < 4:
            raise ValueError(
                f"samples_per_period must be at least 4, got {self.samples_per_period}")
        if not (math.isfinite(self.max_step) and self.max_step > 0.0):
            raise ValueError(f"max_step must be finite and positive, got {self.max_step!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")

    def resolve(self, fast_rate: float) -> float:
        if fast_rate > 0.0:
            return min(self.max_step, TWO_PI / (fast_rate * self.samples_per_period))
        return self.max_step


def step_count(horizon: float, fast_rate: float, policy: StepPolicy) -> int:
    """RK4 steps :func:`integrate` takes over ``horizon`` at ``fast_rate``, a
    multiple of the output stride; ValueError past :data:`MAX_STEPS` or for
    a step that is not positive (a fast rate so large that the step rounds to 0)."""
    dt = policy.resolve(fast_rate)
    if not dt > 0.0:
        raise ValueError(f"fast rate {fast_rate:g} gives the step {dt:g}, not positive")
    ratio = horizon / dt
    stride = policy.output_stride
    if ratio <= MAX_STEPS:  # false for nan and inf too
        steps = stride * math.ceil(max(1, math.ceil(ratio)) / stride)
        if steps <= MAX_STEPS:
            return steps
    raise ValueError(f"horizon {horizon:g} needs more than MAX_STEPS = {MAX_STEPS:,} steps")


def checked_omegas(omegas) -> tuple[float, ...]:
    """Frequencies as floats; ValueError unless finite, positive and strictly increasing."""
    omegas = tuple(float(w) for w in omegas)
    if not all(math.isfinite(w) and w > 0.0 for w in omegas):
        raise ValueError(f"frequencies must be finite and positive, got {list(omegas)}")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError("frequencies must be distinct and strictly increasing")
    return omegas


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution states at t0 + k*dt.

    ``dt`` is the storage spacing; ``total_steps`` counts the integrator
    steps actually taken (0 when the trajectory was built directly).
    """

    t0: float
    dt: float
    states: np.ndarray
    diverged: bool = False
    total_steps: int = 0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("states must be a (k, n) array")
        object.__setattr__(self, "states", states)
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.diverged and not np.all(np.isfinite(states)):
            raise ValueError("non-finite states in a non-diverged trajectory")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.states.shape[0])

    @property
    def final_time(self) -> float:
        return self.t0 + self.dt * (self.states.shape[0] - 1)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def sample(self, t) -> np.ndarray:
        """Linear interpolation onto arbitrary times within the stored range."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ts = self.times
        if np.any(t < ts[0] - 1e-12) or np.any(t > ts[-1] + 1e-12):
            raise ValueError("sample times outside the trajectory range")
        out = np.empty((t.size, self.dim))
        for k in range(self.dim):
            out[:, k] = np.interp(t, ts, self.states[:, k])
        return out


def integrate(fld: VectorField, x0, horizon: float, t0: float = 0.0,
              policy: StepPolicy | None = None) -> Trajectory:
    """Classical fixed-step RK4 over [t0, t0 + horizon].

    A non-finite state truncates the trajectory and sets the divergence flag
    instead of raising, and so does a stage that raises an ArithmeticError:
    FieldEvaluationError, or Python float arithmetic in a map (``1.0 / 0.0``
    and an overflowing ``x ** 2`` raise where numpy scalars give inf); more than
    :data:`MAX_STEPS` steps raise ValueError. Stage times are the floats
    t0 + k*dt and t0 + k*dt + dt/2, so steps k and k+1 share the time of
    their common stage. A field with a stage table is called as
    ``fn(t, x, row)``, tabulated :data:`STAGE_CHUNK` steps at a time.
    If ``fn`` carries ``features`` (see ``assemble_rhs``), the state is one
    list of n Python floats and each stage is ``row.dot(features(t, x))``,
    ``np.dot`` without its dispatch, as a list, unchecked: RK4's stage
    weights are finite and non-zero, so a non-finite stage is refused in the
    new state. ``features`` takes the point as that list and must map a
    non-finite state to non-finite values or raise. The stage inputs and the
    RK4 combination are list comprehensions, ``a + half * b`` and
    ``a + sixth * ((p + 2.0 * (q + r)) + s)`` per component: the operations
    of ``x + half * k1`` and ``x + sixth * (k1 + 2 * (k2 + k3) + k4)`` in
    their order, each one IEEE double operation, so every bit is the
    operator form's. The product stays ``row.dot``, since a Python sum of
    products rounds otherwise. Any other field is called on float64 arrays,
    with stage inputs and combination in ufunc calls on float64 constants of
    the state's shape: a constant times a stage value of any real dtype is
    float64, but ``k2 + k3`` keeps the stages' dtype (float32 for two float32
    stages). A complex stage raises TypeError. The new state is finite if the
    sum of its components is, else if each component is.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    policy = policy or StepPolicy()
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (fld.dim,):
        raise ValueError(f"initial state must have shape ({fld.dim},)")

    stride = policy.output_stride
    steps = step_count(horizon, fld.oscillation_rate, policy)
    dt = horizon / steps

    table = fld.stage_table
    fn = fld.fn if table is not None else lambda t, x, row, plain=fld.fn: plain(t, x)
    features = None if table is None else getattr(fn, "features", None)

    add, mul, asarray = np.add, np.multiply, np.asarray
    isfinite, total = math.isfinite, sum
    states = np.empty((steps // stride + 1, x0.size))
    states[0] = x0
    x = x0 if features is None else x0.tolist()
    diverged = False
    taken = 0
    half, sixth = 0.5 * dt, dt / 6.0
    c_half, c_dt, c_two, c_sixth = (np.full(x0.shape, c) for c in (half, dt, 2.0, sixth))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, STAGE_CHUNK):
            stop = min(start + STAGE_CHUNK, steps)
            # the chunk's stage times: t0 + k*dt, each then + dt/2
            even = t0 + np.arange(start, stop + 1) * dt
            times = np.append(np.stack((even[:-1], even[:-1] + half), axis=1), even[-1])
            rows = [None] * times.size if table is None else list(table(times))
            times = times.tolist()
            for k, t_a, row_a, t_mid, row_mid, t_b, row_b in zip(
                    range(start, stop), times[0::2], rows[0::2], times[1::2], rows[1::2],
                    times[2::2], rows[2::2]):
                try:
                    if features is not None:  # fn(t, x, row) without its per-stage check
                        k1 = row_a.dot(features(t_a, x)).tolist()
                        x_in = [a + half * b for a, b in zip(x, k1)]
                        k2 = row_mid.dot(features(t_mid, x_in)).tolist()
                        x_in = [a + half * b for a, b in zip(x, k2)]
                        k3 = row_mid.dot(features(t_mid, x_in)).tolist()
                        x_in = [a + dt * b for a, b in zip(x, k3)]
                        k4 = row_b.dot(features(t_b, x_in)).tolist()
                        x_new = values = [a + sixth * ((p + 2.0 * (q + r)) + s)
                                          for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
                    else:
                        k1 = asarray(fn(t_a, x, row_a))
                        if k == 0 and k1.shape != x.shape:
                            raise ValueError(f"field value must have shape ({fld.dim},), "
                                             f"got {k1.shape}")
                        k2 = asarray(fn(t_mid, add(x, mul(c_half, k1)), row_mid))
                        k3 = asarray(fn(t_mid, add(x, mul(c_half, k2)), row_mid))
                        k4 = asarray(fn(t_b, add(x, mul(c_dt, k3)), row_b))
                        x_new = add(x, mul(c_sixth, add(add(k1, mul(c_two, add(k2, k3))), k4)))
                        values = x_new.tolist()
                except ArithmeticError:  # FieldEvaluationError included
                    break
                # a finite sum has finite terms; an overflowing one is checked term by term
                if not (isfinite(total(values)) or all(map(isfinite, values))):
                    break
                x = x_new
                taken = k + 1
                if taken % stride == 0:
                    states[taken // stride] = x
            else:
                continue
            diverged = True  # the inner loop broke on a refused step
            break
    return Trajectory(t0, dt * stride, states[:taken // stride + 1], diverged,
                      total_steps=taken)


def run_cells(cells, policy: StepPolicy | None = None):
    """Integrate each ``(field, x0, horizon)`` cell over [0, horizon], drawing it only
    when the one before is done; yield its trajectory and its integration's wall seconds.
    ``integrate`` is looked up per cell, so a rebound ``sim.integrate`` sees every cell."""
    for fld, x0, horizon in cells:
        start = time.perf_counter()
        traj = integrate(fld, x0, horizon, policy=policy)
        yield traj, time.perf_counter() - start


def sup_distance(a: Trajectory, b: Trajectory) -> float:
    """Max Euclidean distance over a's grid points where both trajectories are
    defined, b linearly resampled; ValueError if they do not overlap. A
    diverged trajectory is infinitely far from any other."""
    if a.dim != b.dim:
        raise ValueError("trajectories must share a dimension")
    if a.diverged or b.diverged:
        return math.inf
    lo = max(a.t0, b.t0)
    hi = min(a.final_time, b.final_time)
    if hi < lo:
        raise ValueError("trajectories do not overlap")
    mask = (a.times >= lo - 1e-12) & (a.times <= hi + 1e-12)
    return float(np.max(_distances(a.states[mask], b.sample(a.times[mask]), axis=1)))


def _distances(states, other, axis=None):
    """Euclidean distances of ``states`` to ``other`` along ``axis`` (None: one);
    an overflow near divergence reads inf quietly."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(states - other, axis=axis)


def final_distance(traj: Trajectory, target) -> float:
    """Distance of the final state to ``target``: nan without a target, inf
    for a diverged trajectory, whose last finite state is no result."""
    if target is None:
        return math.nan
    if traj.diverged:
        return math.inf
    return float(_distances(traj.final_state, np.asarray(target, dtype=float)))


def _rhs_of(system) -> VectorField:
    if isinstance(system, InputAffineSystem):
        return assemble_rhs(system)
    if isinstance(system, VectorField):
        return system
    raise TypeError("expected an InputAffineSystem or VectorField")


@dataclass(frozen=True)
class OmegaRecord:
    omega: float
    sup_error: float
    final_distance_to_target: float
    steps: int
    wall_time: float
    diverged: bool = False
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepReport:
    """Per-omega approximation errors against the averaged reference flow,
    with the measured trajectories when :func:`omega_sweep` built it."""

    records: tuple[OmegaRecord, ...]
    horizon: float
    lie_final_distance: float = math.nan
    lie_trajectory: Trajectory | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        checked_omegas(r.omega for r in self.records)

    @property
    def omegas(self) -> tuple[float, ...]:
        return tuple(r.omega for r in self.records)

    @property
    def sup_errors(self) -> tuple[float, ...]:
        return tuple(r.sup_error for r in self.records)

    @property
    def _shows_trend(self) -> bool:  # one record or errors all 0 are no evidence
        return len(self.records) > 1 and any(self.sup_errors)

    @property
    def monotone_decreasing(self) -> bool:  # False, not yes, without evidence
        errors = self.sup_errors
        return (self._shows_trend and all(math.isfinite(e) for e in errors)
                and all(b <= a for a, b in zip(errors, errors[1:])))

    @property
    def verdict(self) -> str | None:
        """:attr:`monotone_decreasing` as "yes" or "NO"; None (no verdict) where the
        errors show no trend."""
        if not self._shows_trend:
            return None
        return "yes" if self.monotone_decreasing else "NO"

    def decay_slope(self) -> float:
        return fit_loglog_slope(np.array(self.omegas), np.array(self.sup_errors))

    def summary(self) -> str:
        lines = [f"omega sweep over horizon {self.horizon:g}:"]
        for r in self.records:
            flag = " DIVERGED" if r.diverged else ""
            lines.append(
                f"  omega={r.omega:g}: sup_error={r.sup_error:.6g} "
                f"final_distance={r.final_distance_to_target:.6g} "
                f"steps={r.steps} wall={r.wall_time:.2f}s{flag}")
        if not math.isnan(self.lie_final_distance):
            lines.append(f"  averaged flow final distance: {self.lie_final_distance:.6g}")
        if self.verdict:
            lines.append(f"  sup_error non-increasing in omega: {self.verdict}")
        return "\n".join(lines)


def omega_sweep(build_system, lie_field: VectorField, omegas, x0, horizon: float,
                policy: StepPolicy | None = None, target=None) -> SweepReport:
    """Integrate the oscillatory system at each omega against the averaged flow,
    every run over [0, horizon].

    ``build_system`` maps omega to an InputAffineSystem (or directly to a
    VectorField); the averaged flow is integrated once, first, since it does
    not depend on omega. Divergence at some omega is recorded, not fatal.
    """
    omegas = checked_omegas(omegas)
    if not omegas:
        raise ValueError("a sweep needs at least one omega value")
    x0 = np.asarray(x0, dtype=float)
    if target is not None and np.shape(target) != x0.shape:
        raise ValueError(f"target must have the shape of x0, {x0.shape}, got "
                         f"{np.shape(target)}")
    lie_traj, _ = next(run_cells([(lie_field, x0, horizon)], policy))
    cells = ((_rhs_of(build_system(w)), x0, horizon) for w in omegas)
    records = [OmegaRecord(w, sup_distance(traj, lie_traj), final_distance(traj, target),
                           traj.total_steps, wall, traj.diverged, traj)
               for w, (traj, wall) in zip(omegas, run_cells(cells, policy))]
    return SweepReport(tuple(records), horizon, final_distance(lie_traj, target), lie_traj)


def _sphere_directions(count: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere, at most
    ``count`` of them: repeats are dropped, first occurrences keep their order.

    ``scipy.stats.qmc.Sobol``'s scrambled points, bit for bit, for up to
    ``_qmc.MAX_DIM`` dimensions, mapped through the standard library's normal
    quantile (Wichura's AS 241). That is within 7 ulps of scipy's quantile,
    so the directions are within 1e-15 of scipy's draw.
    """
    # inv_cdf's domain is the open interval (0, 1); a Sobol point can be 0
    u = np.clip(_qmc.sobol(count, dim, seed), 1e-12, 1.0 - 1e-12)
    quantile = statistics.NormalDist().inv_cdf
    z = np.array([quantile(p) for p in u.ravel().tolist()]).reshape(u.shape)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs = z / norms
    _, first = np.unique(dirs, axis=0, return_index=True)
    return dirs[np.sort(first)]


@dataclass(frozen=True)
class ProbeConfig:
    """Shell radii, tolerance, settling time, samples per shell and horizon
    (2*t_f if None) of a :func:`stability_probe`: the one owner of its rules."""

    deltas: tuple[float, ...]
    epsilon: float
    t_f: float
    boundary_samples: int = 8
    horizon: float | None = None

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise ValueError("a probe needs at least one delta and one omega value")
        if not all(0.0 < d < math.inf for d in deltas):
            raise ValueError(f"deltas: radii must be finite and positive, got {list(deltas)}")
        for name, value in (("epsilon", self.epsilon), ("t_f", self.t_f)):
            if not 0.0 < value < math.inf:  # an infinite epsilon passes every cell
                raise ValueError(f"{name} must be finite and positive, got {value}")
        n = self.boundary_samples
        if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                or not 1 <= n <= MAX_BOUNDARY_SAMPLES):
            raise ValueError("boundary_samples: a probe needs an integer from 1 to "
                             f"{MAX_BOUNDARY_SAMPLES:,} boundary samples per shell, got {n!r}")
        horizon = 2.0 * self.t_f if self.horizon is None else self.horizon
        if not self.t_f <= horizon < math.inf:  # refuses a nan horizon too
            raise ValueError(f"probe.horizon must reach past t_f = {self.t_f:g} and be "
                             f"finite, got {horizon}")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "horizon", horizon)


@dataclass(frozen=True)
class ProbeCell:
    delta: float
    omega: float
    containment_radius: float
    attraction_radius: float
    stable_consistent: bool
    attractive_consistent: bool
    any_diverged: bool


@dataclass(frozen=True)
class StabilityProbeReport:
    epsilon: float
    t_f: float
    samples: int
    cells: tuple[ProbeCell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))

    def summary(self) -> str:
        lines = [f"stability probe: epsilon={self.epsilon:g} t_f={self.t_f:g} "
                 f"samples/shell={self.samples}"]
        for c in self.cells:
            div = " DIVERGED" if c.any_diverged else ""
            lines.append(
                f"  delta={c.delta:g} omega={c.omega:g}: "
                f"containment={c.containment_radius:.6g} "
                f"(stability {'consistent' if c.stable_consistent else 'FALSIFIED'}), "
                f"attraction={c.attraction_radius:.6g} "
                f"({'consistent' if c.attractive_consistent else 'FAILED'} after t_f){div}")
        lines.append("  verdicts hold at the tested omega only; the definitions "
                     "quantify over all larger omega")
        return "\n".join(lines)


def stability_probe(build_system, target, probe: ProbeConfig, omegas,
                    policy: StepPolicy | None = None,
                    seed: int = 2023) -> StabilityProbeReport:
    """Empirical containment/attraction probe around a target point.

    Cells run delta-major; each integrates, over [0, probe.horizon], one start
    per distinct direction among ``probe.boundary_samples`` drawn on the
    delta-shell of the target. Containment is the worst-case distance over
    the whole run, attraction the worst case over the stored samples at or
    after t_f. A sample short of t_f by rounding only, less than a millionth
    of the storage spacing, counts as at t_f: with a horizon equal to t_f,
    that is the final sample. ``seed``, a non-negative integer, fixes the
    shell directions.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    omegas = list(omegas)
    if not omegas:
        raise ValueError("a probe needs at least one delta and one omega value")
    target = np.asarray(target, dtype=float)
    dirs = _sphere_directions(probe.boundary_samples, target.size, seed)

    cells = []
    for delta in probe.deltas:
        for w in omegas:
            rhs = _rhs_of(build_system(w))  # the directions share it and its stage tables
            containment = 0.0
            attraction = 0.0
            any_div = False
            for traj, _ in run_cells(((rhs, target + delta * d, probe.horizon) for d in dirs),
                                     policy):
                dist = _distances(traj.states, target, axis=1)
                if traj.diverged:
                    any_div = True
                    containment = math.inf
                    attraction = math.inf
                    continue
                containment = max(containment, float(np.max(dist)))
                # no stored sample at or after t_f is no evidence of attraction
                tail = dist[math.ceil(probe.t_f / traj.dt - 1e-6):]
                attraction = max(attraction, float(np.max(tail)) if tail.size else math.inf)
            cells.append(ProbeCell(
                delta=delta, omega=float(w),
                containment_radius=containment, attraction_radius=attraction,
                stable_consistent=containment <= probe.epsilon,
                attractive_consistent=attraction <= probe.epsilon,
                any_diverged=any_div))
    return StabilityProbeReport(probe.epsilon, probe.t_f, len(dirs), tuple(cells))


@dataclass(frozen=True)
class DecayRecord:
    omega: float
    endpoint_defect: float
    sup_defect: float
    paired_sup_defect: float


@dataclass(frozen=True)
class DecayReport:
    """Measured large-omega decay of running averaging defects.

    ``slope`` fits log(sup defect) against log(omega) for the plain
    integrand u(tau, omega*tau); ``paired_slope`` does the same for the
    second-order integrand omega*u_out*int(u_in) minus its period mean nu.
    An O(1/omega) averaging bound shows as a slope near -1.
    """

    nu_value: float
    records: tuple[DecayRecord, ...]
    slope: float
    paired_slope: float


def averaging_decay_check(u: DitherSignal, t0: float, t_end: float, omegas,
                          partner: DitherSignal | None = None,
                          samples_per_period: int = 64) -> DecayReport:
    """Measure |int (u(tau, omega*tau) - mean)| and its paired analogue.

    The quadrature grid carries ``samples_per_period`` (an integer >= 1)
    intervals per fast period, rounded up to a multiple of 8 so that the
    jump and kink points of the discontinuous built-ins land exactly on panel
    boundaries (exactly so when omega * t0 is a multiple of the dither
    period, e.g. t0 = 0); the grid may overshoot t_end by less than one
    step. The endpoint defect is read at the node closest to t_end, the sup
    defect over the whole window. ``u`` and ``partner`` are evaluated at the
    one slow time t0, so a t-dependent one is refused.
    """
    partner = partner or u
    for name, sig in (("u", u), ("partner", partner)):
        if sig.t_dependent:
            raise ValueError(f"decay check expects dithers without slow-time dependence: {name}")
    for name, value in (("t0", t0), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    omegas = checked_omegas(omegas)
    if len(omegas) < 2:
        raise ValueError("a decay check needs at least two omega values")
    n = samples_per_period
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"samples_per_period must be an integer >= 1, got {n!r}")
    K = 8 * math.ceil(n / 8)
    steps = [u.period / (w * u.harmonic) / K for w in omegas]
    if not (t_end - t0) / steps[-1] <= MAX_DECAY_INTERVALS:  # the last omega's grid is finest
        raise ValueError(f"a window of {t_end - t0:g} at omega {omegas[-1]:g} needs more than "
                         f"MAX_DECAY_INTERVALS = {MAX_DECAY_INTERVALS:,} quadrature intervals")

    nu = nu_quadrature(u, partner, t=t0, nodes=8192)

    mean0 = period_mean(u, t0)  # zero for any zero-mean dither

    records = []
    for w, step in zip(omegas, steps):
        n_int = even_intervals(math.ceil((t_end - t0) / step))
        grid = t0 + step * np.arange(n_int + 1)

        y = u.eval_for_quadrature(t0, w * grid)
        running = cumulative_simpson(y - mean0, step)
        defects = np.abs(running)
        endpoint_idx = int(round((t_end - t0) / step))
        endpoint_idx = min(endpoint_idx, defects.size - 1)

        y_in = partner.eval_for_quadrature(t0, w * grid)
        inner_running = cumulative_simpson(y_in, step)
        paired_vals = w * y * inner_running - nu
        paired_running = cumulative_simpson(paired_vals, step)
        paired_defects = np.abs(paired_running)

        records.append(DecayRecord(
            omega=w,
            endpoint_defect=float(defects[endpoint_idx]),
            sup_defect=float(np.max(defects)),
            paired_sup_defect=float(np.max(paired_defects))))

    slope = fit_loglog_slope(np.array(omegas), np.array([r.sup_defect for r in records]))
    paired_slope = fit_loglog_slope(np.array(omegas),
                                    np.array([r.paired_sup_defect for r in records]))
    return DecayReport(nu, tuple(records), slope, paired_slope)


# ---------------------------------------------------------------------------
# CSV output

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory as CSV with header t,x1,...,xn and 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x{k + 1}" for k in range(traj.dim)) + "\n")
        line = ",".join(["%.12g"] * (traj.dim + 1)) + "\n"
        fh.writelines(line % tuple(row) for row
                      in np.column_stack((traj.times, traj.states)).tolist())


def write_sweep_csv(report: SweepReport, path) -> None:
    """Sweep records as CSV (wall time stays in the text report: CSV output
    must be byte-identical for identical configs)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega,sup_error,final_distance_to_target,steps,diverged\n")
        fh.writelines("%.12g,%.12g,%.12g,%d,%d\n" % (r.omega, r.sup_error,
                                                     r.final_distance_to_target, r.steps,
                                                     r.diverged) for r in report.records)


def write_long_csv(trajectories: dict[str, Trajectory], path) -> None:
    """Plot-ready long format: one row per (time, series, component)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,series,component,value\n")
        for label, traj in trajectories.items():
            fh.writelines("%.12g,%s,x%d,%.12g\n" % (t, label, k + 1, v)
                          for t, row in zip(traj.times.tolist(), traj.states.tolist())
                          for k, v in enumerate(row))
