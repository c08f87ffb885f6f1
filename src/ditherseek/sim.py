"""Oscillation-aware integration and the empirical verification harness.

Fixed-step RK4 is used throughout: the dither frequency sets a known fastest
time scale, and adaptive controllers chatter on oscillatory forcing. The step
resolves the fastest angular rate of the field with a configurable number of
samples per period (default 40), capped by ``max_step``.

Stability verdicts produced here are reported as "consistent with / not
falsified at the tested omega": the definitions quantify over all
sufficiently large omega, which no finite sweep can prove.

Every (omega, initial-condition) cell of a sweep or probe is an independent
integration over immutable inputs, so cells can be farmed out to concurrent
workers; the serial loops here are simply the baseline schedule.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._quadrature import cumulative_simpson, even_intervals, fit_loglog_slope
from .dynamics import FieldEvaluationError, InputAffineSystem, VectorField, assemble_rhs
from .liebracket import nu_quadrature
from .signals import DitherSignal, period_mean

TWO_PI = 2.0 * math.pi

# most RK4 steps one integration may take: about 100 times the longest bundled
# run (scalar_basic at omega=1600, 101,860 steps); 80 MB of states per component
MAX_STEPS = 10_000_000

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
        if self.max_step <= 0.0:
            raise ValueError("max_step must be positive")
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
        if self.dt <= 0.0:
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
    instead of raising; more than :data:`MAX_STEPS` steps raise ValueError.
    Stage times are the floats t0 + k*dt and t0 + k*dt + dt/2, so steps k and
    k+1 share the time of their common stage.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    policy = policy or StepPolicy()
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.shape != (fld.dim,):
        raise ValueError(f"initial state must have shape ({fld.dim},)")

    stride = policy.output_stride
    steps = step_count(horizon, fld.oscillation_rate, policy)
    dt = horizon / steps

    fn = fld.fn
    asarray, isfinite = np.asarray, np.isfinite
    states = np.empty((steps // stride + 1, x0.size))
    states[0] = x0
    x = x0
    t = t0
    diverged = False
    taken = 0
    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t_mid = t + half
            t_next = t0 + (k + 1) * dt
            try:
                k1 = asarray(fn(t, x))
                if k == 0 and k1.shape != x.shape:
                    raise ValueError(f"field value must have shape ({fld.dim},), "
                                     f"got {k1.shape}")
                k2 = asarray(fn(t_mid, x + half * k1))
                k3 = asarray(fn(t_mid, x + half * k2))
                k4 = asarray(fn(t_next, x + dt * k3))
                x_new = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            except FieldEvaluationError:
                diverged = True
                break
            if not isfinite(x_new).all():
                diverged = True
                break
            x = x_new
            t = t_next
            taken = k + 1
            if taken % stride == 0:
                states[taken // stride] = x
    return Trajectory(t0, dt * stride, states[:taken // stride + 1], diverged,
                      total_steps=taken)


def sup_distance(a: Trajectory, b: Trajectory, interval=None) -> float:
    """Max Euclidean distance over a's grid points, b linearly resampled.

    ``interval`` restricts to absolute times [lo, hi]; the effective window
    is its intersection with both trajectories' ranges and must be nonempty.
    A diverged trajectory is infinitely far from any other.
    """
    if a.dim != b.dim:
        raise ValueError("trajectories must share a dimension")
    if a.diverged or b.diverged:
        return math.inf
    lo = max(a.t0, b.t0)
    hi = min(a.final_time, b.final_time)
    if interval is not None:
        lo = max(lo, interval[0])
        hi = min(hi, interval[1])
    if hi < lo:
        raise ValueError("trajectories do not overlap on the requested interval")
    mask = (a.times >= lo - 1e-12) & (a.times <= hi + 1e-12)
    ts = a.times[mask]
    diffs = a.states[mask] - b.sample(ts)
    # near-divergent states can overflow the squared norm; report inf quietly
    with np.errstate(over="ignore"):
        return float(np.max(np.linalg.norm(diffs, axis=1)))


def final_distance(traj: Trajectory, target) -> float:
    """Distance of the final state to ``target``: nan without a target, inf
    for a diverged trajectory, whose last finite state is no result."""
    if target is None:
        return math.nan
    if traj.diverged:
        return math.inf
    return float(np.linalg.norm(traj.final_state - np.asarray(target, dtype=float)))


def _rhs_of(system) -> VectorField:
    if isinstance(system, InputAffineSystem):
        return assemble_rhs(system)
    if isinstance(system, VectorField):
        return system
    raise TypeError("expected an InputAffineSystem or VectorField")


def non_increasing(errors) -> bool:
    """The sweep verdict: every error finite and none larger than the one before."""
    return (all(math.isfinite(e) for e in errors)
            and all(b <= a for a, b in zip(errors, errors[1:])))


@dataclass(frozen=True)
class OmegaRecord:
    omega: float
    sup_error: float
    final_distance_to_target: float
    steps: int
    wall_time: float
    diverged: bool = False


@dataclass(frozen=True)
class SweepReport:
    """Per-omega approximation errors against the averaged reference flow."""

    records: tuple[OmegaRecord, ...]
    horizon: float
    lie_final_distance: float = math.nan

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
    def monotone_decreasing(self) -> bool:
        return non_increasing(self.sup_errors)

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
        lines.append(f"  sup_error non-increasing in omega: "
                     f"{'yes' if self.monotone_decreasing else 'NO'}")
        return "\n".join(lines)


def omega_sweep(build_system, lie_field: VectorField, omegas, x0, horizon: float,
                t0: float = 0.0, policy: StepPolicy | None = None,
                target=None) -> SweepReport:
    """Integrate the oscillatory system at each omega against the averaged flow.

    ``build_system`` maps omega to an InputAffineSystem (or directly to a
    VectorField); the averaged flow is integrated once since it does not
    depend on omega. Divergence at some omega is recorded, not fatal.
    """
    omegas = checked_omegas(omegas)
    if len(omegas) < 2:
        raise ValueError("a sweep needs at least two omega values")
    x0 = np.asarray(x0, dtype=float)
    lie_traj = integrate(lie_field, x0, horizon, t0=t0, policy=policy)

    records = []
    for w in omegas:
        rhs = _rhs_of(build_system(w))
        start = time.perf_counter()
        traj = integrate(rhs, x0, horizon, t0=t0, policy=policy)
        wall = time.perf_counter() - start
        records.append(OmegaRecord(w, sup_distance(traj, lie_traj),
                                   final_distance(traj, target), traj.total_steps, wall,
                                   traj.diverged))
    return SweepReport(tuple(records), horizon,
                       lie_final_distance=final_distance(lie_traj, target))


def _sphere_directions(count: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere, at most
    ``count`` of them: repeats are dropped, first occurrences keep their order."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    n_pow2 = 1 << max(1, math.ceil(math.log2(max(count, 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n_pow2)[:count]
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs = z / norms
    _, first = np.unique(dirs, axis=0, return_index=True)
    return dirs[np.sort(first)]


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

    @property
    def all_stable_consistent(self) -> bool:
        return all(c.stable_consistent for c in self.cells)

    @property
    def all_attractive_consistent(self) -> bool:
        return all(c.attractive_consistent for c in self.cells)

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


def stability_probe(build_system, target, delta_list, epsilon: float, omegas,
                    t_f: float, boundary_samples: int = 8, horizon: float | None = None,
                    t0: float = 0.0, policy: StepPolicy | None = None,
                    seed: int = 2023) -> StabilityProbeReport:
    """Empirical containment/attraction probe around a target point.

    For each (delta, omega) cell, initial conditions are sampled on the
    delta-shell of the target; containment is the worst-case distance over
    the whole run, attraction the worst case over the stored samples at or
    after t0 + t_f. A sample short of t0 + t_f by rounding only, less than a
    millionth of the storage spacing, counts as at t0 + t_f: with a horizon
    equal to t_f, that is the final sample.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 1 <= boundary_samples <= MAX_BOUNDARY_SAMPLES:
        raise ValueError(f"a probe needs 1 to {MAX_BOUNDARY_SAMPLES:,} boundary samples "
                         f"per shell, got {boundary_samples}")
    target = np.asarray(target, dtype=float)
    horizon = 2.0 * t_f if horizon is None else horizon
    if horizon < t_f:
        raise ValueError("horizon must reach past t_f")
    dirs = _sphere_directions(boundary_samples, target.size, seed)

    cells = []
    for delta in delta_list:
        for w in omegas:
            rhs = _rhs_of(build_system(w))
            containment = 0.0
            attraction = 0.0
            any_div = False
            for d in dirs:
                traj = integrate(rhs, target + delta * d, horizon, t0=t0, policy=policy)
                dist = np.linalg.norm(traj.states - target, axis=1)
                if traj.diverged:
                    any_div = True
                    containment = math.inf
                    attraction = math.inf
                    continue
                containment = max(containment, float(np.max(dist)))
                # no stored sample at or after t_f is no evidence of attraction
                tail = dist[math.ceil(t_f / traj.dt - 1e-6):]
                attraction = max(attraction, float(np.max(tail)) if tail.size else math.inf)
            cells.append(ProbeCell(
                delta=float(delta), omega=float(w),
                containment_radius=containment, attraction_radius=attraction,
                stable_consistent=containment <= epsilon,
                attractive_consistent=attraction <= epsilon,
                any_diverged=any_div))
    return StabilityProbeReport(epsilon, t_f, len(dirs), tuple(cells))


@dataclass(frozen=True)
class DecayRecord:
    omega: float
    endpoint_defect: float
    sup_defect: float
    paired_endpoint_defect: float
    paired_sup_defect: float


@dataclass(frozen=True)
class DecayReport:
    """Measured large-omega decay of running averaging defects.

    ``slope`` fits log(sup defect) against log(omega) for the plain
    integrand u(tau, omega*tau); ``paired_slope`` does the same for the
    second-order integrand omega*u_out*int(u_in) minus its period mean nu.
    An O(1/omega) averaging bound shows as a slope near -1.
    """

    signal_name: str
    partner_name: str
    nu_value: float
    records: tuple[DecayRecord, ...]
    slope: float
    paired_slope: float

    def summary(self) -> str:
        lines = [f"averaging decay for {self.signal_name} "
                 f"(paired with {self.partner_name}, nu={self.nu_value:.6g}):"]
        for r in self.records:
            lines.append(f"  omega={r.omega:g}: sup={r.sup_defect:.6g} "
                         f"endpoint={r.endpoint_defect:.6g} "
                         f"paired_sup={r.paired_sup_defect:.6g}")
        lines.append(f"  fitted slopes: single={self.slope:.4f} paired={self.paired_slope:.4f}")
        return "\n".join(lines)


def averaging_decay_check(u: DitherSignal, t0: float, t_end: float, omegas,
                          partner: DitherSignal | None = None,
                          samples_per_period: int = 64) -> DecayReport:
    """Measure |int (u(tau, omega*tau) - mean)| and its paired analogue.

    The quadrature grid carries ``samples_per_period`` intervals per fast
    period (rounded to a multiple of 8) so that the jump and kink points of
    the discontinuous built-ins land exactly on panel boundaries (exactly so
    when omega * t0 is a multiple of the dither period, e.g. t0 = 0); the
    grid may overshoot t_end by less than one step. The endpoint defect is
    read at the node closest to t_end, the sup defect over the whole window.
    """
    if u.t_dependent:
        raise ValueError("decay check expects dithers without slow-time dependence")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    omegas = checked_omegas(omegas)
    if len(omegas) < 2:
        raise ValueError("a decay check needs at least two omega values")
    partner = partner or u
    K = 8 * max(1, math.ceil(samples_per_period / 8))

    nu = nu_quadrature(u, partner, t=t0, nodes=8192)

    mean0 = period_mean(u, t0)  # zero for any zero-mean dither

    records = []
    for w in omegas:
        period_t = u.period / (w * u.harmonic)
        step = period_t / K
        n_int = even_intervals(math.ceil((t_end - t0) / step))
        grid = t0 + step * np.arange(n_int + 1)

        y = np.asarray(u.eval_for_quadrature(grid, w * grid), dtype=float)
        running = cumulative_simpson(y - mean0, step)
        defects = np.abs(running)
        endpoint_idx = int(round((t_end - t0) / step))
        endpoint_idx = min(endpoint_idx, defects.size - 1)

        y_in = np.asarray(partner.eval_for_quadrature(grid, w * grid), dtype=float)
        inner_running = cumulative_simpson(y_in, step)
        paired_vals = w * y * inner_running - nu
        paired_running = cumulative_simpson(paired_vals, step)
        paired_defects = np.abs(paired_running)

        records.append(DecayRecord(
            omega=w,
            endpoint_defect=float(defects[endpoint_idx]),
            sup_defect=float(np.max(defects)),
            paired_endpoint_defect=float(paired_defects[endpoint_idx]),
            paired_sup_defect=float(np.max(paired_defects))))

    slope = fit_loglog_slope(np.array(omegas), np.array([r.sup_defect for r in records]))
    paired_slope = fit_loglog_slope(np.array(omegas),
                                    np.array([r.paired_sup_defect for r in records]))
    return DecayReport(u.name, partner.name, nu, tuple(records), slope, paired_slope)


# ---------------------------------------------------------------------------
# CSV output

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory as CSV with header t,x1,...,xn and 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x{k + 1}" for k in range(traj.dim)) + "\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(_fmt(t) + "," + ",".join(_fmt(v) for v in row) + "\n")


def write_sweep_csv(report: SweepReport, path) -> None:
    """Sweep records as CSV (wall time stays in the text report: CSV output
    must be byte-identical for identical configs)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega,sup_error,final_distance_to_target,steps,diverged\n")
        for r in report.records:
            fh.write(",".join([_fmt(r.omega), _fmt(r.sup_error),
                               _fmt(r.final_distance_to_target), str(r.steps),
                               str(int(r.diverged))]) + "\n")


def write_long_csv(trajectories: dict[str, Trajectory], path) -> None:
    """Plot-ready long format: one row per (time, series, component)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,series,component,value\n")
        for label, traj in trajectories.items():
            for t, row in zip(traj.times, traj.states):
                for k, v in enumerate(row):
                    fh.write(f"{_fmt(t)},{label},x{k + 1},{_fmt(v)}\n")
