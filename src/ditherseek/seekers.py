"""Extremum-seeking architectures and their analytic averaged fields.

Agents live in the plane. The packed state is x = [xbar, xbar_e] where
xbar in R^(2N) stacks the agent positions and xbar_e in R^N stacks the
washout-filter states (one per agent, dx_e/dt = -h*x_e + f(xbar)).

Each agent injects a sine/cosine dither pair at its own frequency
a_i * omega. Rational frequency ratios are decomposed into integer
harmonics n_i of a common base omega/q so that every dither shares the
canonical 2*pi period; the sqrt(n_i) factor moves into the channel field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .dynamics import FieldStack, InputAffineSystem, VectorField, by_rows, finite_diff_jacobian
from .signals import check_tolerance, cosine, sine


def _fd_gradient(fn: Callable[[np.ndarray], float], xbar: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a per-point ``fn`` at one point (2N,),
    or row by row of a batch (S, 2N): the bits of a loop over the rows."""
    xbar = np.asarray(xbar, dtype=float)
    if xbar.ndim == 2:
        return by_rows(partial(_fd_gradient, fn), xbar, xbar.shape[1:])
    return finite_diff_jacobian(lambda t, y: fn(y), 0.0, xbar)


@dataclass(frozen=True)
class AgentMap:
    """An individual objective f_i: R^(2N) -> R with optional analytic gradient.

    ``fn`` takes one point as a list of 2N Python floats; ``grad`` one point
    as such a list or a batch as an (S, 2N) array, returning for one point 2N
    floats, as a list or a (2N,) array, and for a batch (S, 2N). Every caller
    of a state converts it to floats once and hands the list to all N maps
    and gradients. :meth:`__call__` and :meth:`gradient` take one point as an
    array, with one ``tolist``; :meth:`gradient` always returns an array, and
    without ``grad`` takes central differences, row by row for a batch. Float
    arithmetic that overflows raises OverflowError where numpy gives inf, and
    the consumers of the fields built on the map refuse it as they refuse a
    non-finite value (see ``sim.integrate``). The hot paths (the washouts,
    their Jacobian, the closed-form averaged fields) call ``fn`` and ``grad``
    directly. A batch body computes in numpy, where an overflow is inf, so it
    must give a nan row where the float body raises.
    """

    fn: Callable[[list[float]], float]
    grad: Callable[[list[float] | np.ndarray], np.ndarray | list[float]] | None = None

    def __call__(self, xbar: np.ndarray) -> float:
        return float(self.fn(np.asarray(xbar, dtype=float).tolist()))

    def gradient(self, xbar: np.ndarray) -> np.ndarray:
        if self.grad is None:
            return _fd_gradient(self, xbar)
        xbar = np.asarray(xbar, dtype=float)
        return np.asarray(self.grad(xbar.tolist() if xbar.ndim == 1 else xbar), dtype=float)


@dataclass(frozen=True)
class PotentialGame:
    """N agent maps tied together by a shared potential.

    The compatibility requirement is that the agent-i position block of
    grad f_i equals the same block of grad F at every point; it is measured,
    not assumed, by :func:`check_potential_compatibility`.
    """

    maps: tuple[AgentMap, ...]
    potential: Callable[[np.ndarray], float]
    potential_grad: Callable[[np.ndarray], np.ndarray] | None = None
    maximizer: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("a game needs at least one agent map")
        if self.maximizer is not None:
            maximizer = np.asarray(self.maximizer, dtype=float)
            if maximizer.shape != (self.dim,):
                raise ValueError(f"maximizer must have length 2N = {self.dim} for "
                                 f"{self.n_agents} agents, got shape {maximizer.shape}")
            object.__setattr__(self, "maximizer", maximizer)

    @property
    def n_agents(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return 2 * self.n_agents

    def potential_gradient(self, xbar: np.ndarray) -> np.ndarray:
        """grad F at one point (2N,) or a batch (S, 2N), as :meth:`AgentMap.gradient`."""
        if self.potential_grad is not None:
            return np.asarray(self.potential_grad(xbar), dtype=float)
        return _fd_gradient(self.potential, xbar)


@dataclass(frozen=True)
class AgentParams:
    """Per-agent loop parameters.

    c is the feedback gain, alpha the dither amplitude, h the washout pole,
    a the rational dither-frequency ratio and d the rational angular-rate
    ratio (unicycle only). c = 0 is admitted as a no-feedback diagnostic
    configuration even though the convergence theory needs c > 0.
    """

    c: float
    alpha: float
    h: float
    a: Fraction
    d: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        if self.d is not None:
            object.__setattr__(self, "d", Fraction(self.d))
        if not self.c >= 0.0:
            raise ValueError("feedback gain c must be nonnegative")
        if not (self.alpha > 0.0 and self.h > 0.0):
            raise ValueError("alpha and h must be positive")
        if self.a <= 0:
            raise ValueError("frequency ratio a must be positive")
        if self.d is not None and self.d <= 0:
            raise ValueError("angular-rate ratio d must be positive")


def frequency_decomposition(ratios) -> tuple[int, list[int]]:
    """Rewrite rational ratios a_i = p_i/q_i as integer harmonics of omega/q.

    Returns q = prod q_i and n_i = p_i * prod_{j != i} q_j, which satisfy
    a_i * omega = n_i * (omega / q) exactly in rational arithmetic.
    """
    fracs = [Fraction(r) for r in ratios]
    if any(r <= 0 for r in fracs):
        raise ValueError("frequency ratios must be positive")
    q = math.prod(r.denominator for r in fracs)
    harmonics = [int(r.numerator * (q // r.denominator)) for r in fracs]
    if max(harmonics + [q]).bit_length() > 1000:
        raise ValueError("frequency ratios share no base frequency within float range")
    return q, harmonics


# most agents a system is built for: the dense stack layout holds
# (basis, 1 + 2N, 3N, 1 + N) floats, for the unicycle 8*(1 + 2N)**2*3N*(1 + N)
# bytes (34.6 MB at N = 24, 9.8 GB at N = 100), and the stack copies it once;
# the generic bracket contracts it into (basis, (1 + 2N)*3N*(1 + N) + 3N*2N*N)
# floats, 67 MB for the unicycle at N = 24 (23 KB at N = 3)
MAX_AGENTS = 24


def _one_per_agent(game: PotentialGame, params) -> list:
    """``params`` as a list, refused unless it holds one entry per agent of ``game``."""
    params = list(params)
    if len(params) != game.n_agents:
        raise ValueError(f"need one parameter set per agent: the game has "
                         f"{game.n_agents} agents, got {len(params)}")
    return params


def _check_params(game: PotentialGame, params,
                  Omega: float | None = None) -> list[AgentParams]:
    """Agent parameters for ``game``; a base angular rate ``Omega`` marks a unicycle."""
    if game.n_agents > MAX_AGENTS:
        raise ValueError(f"{game.n_agents} agents: at most {MAX_AGENTS} are supported")
    params = _one_per_agent(game, params)
    ratios = [p.a for p in params]
    if len(set(ratios)) != len(ratios):
        raise ValueError("dither frequency ratios must be distinct across agents")
    frequency_decomposition(ratios)
    if Omega is not None:
        if Omega == 0.0:
            raise ValueError("base angular rate Omega must be nonzero")
        if any(p.d is None for p in params):
            raise ValueError("unicycle agents need an angular-rate ratio d")
    return params


class _AgentLoops:
    """Washout features and stack layout shared by both agent architectures.

    Stack rows: 0 is the drift, 1 + 2i and 2 + 2i are agent i's sine and
    cosine channels. Agent i moves positions 2i, 2i + 1 and its washout
    filter state 2N + i. The features are the washouts
    w_i = f_i(xbar) - h_i*x_e,i, layout column 1 + i; column 0 holds the
    constant entries. The builders fill ``layout`` over their basis.
    """

    def __init__(self, game: PotentialGame, params: list[AgentParams], basis_size: int):
        self.n = n = game.n_agents
        self.fns = [m.fn for m in game.maps]
        # the raw gradients; a map without one takes central differences
        self.grads = [m.gradient if m.grad is None else m.grad for m in game.maps]
        self.q, self.harmonics = frequency_decomposition([p.a for p in params])
        s = np.sqrt(np.array(self.harmonics, dtype=float))
        self.h = [float(p.h) for p in params]
        self.sc = s * np.array([p.c for p in params])
        self.sa = s * np.array([p.alpha for p in params])
        agents = np.arange(n)
        self.first, self.second, self.washout = 2 * agents, 2 * agents + 1, 1 + agents
        self.sin_rows, self.cos_rows = 1 + 2 * agents, 2 + 2 * agents
        # the washout Jacobian with the filter block filled: -h_i at column 2N + i
        self.jac_template = np.concatenate((np.zeros((n, 2 * n)), -np.diag(self.h)), axis=1)
        # drift row dx_e/dt = w, under the constant basis function 0
        self.layout = np.zeros((basis_size, 1 + 2 * n, 3 * n, 1 + n))
        self.layout[0, 0, 2 * n + agents, self.washout] = 1.0

    def features(self, t, x):
        """[1, w_1, ..., w_N], the washouts formed in floats from x, the list
        of floats every caller passes; calls each agent map once on the
        positions."""
        n2 = 2 * self.n
        xbar = x[:n2]
        w = [1.0]
        for f, h, e in zip(self.fns, self.h, x[n2:]):
            w.append(float(f(xbar)) - h * e)
        return np.array(w)

    def feature_jac(self, t, x):
        """Washout Jacobian (N, 3N), each agent gradient called once on the
        positions as floats and the N rows written into a copy of
        ``jac_template`` in one assignment."""
        n2 = 2 * self.n
        xbar = x[:n2].tolist()
        rows = []
        for grad in self.grads:
            rows.append(grad(xbar))
        J = self.jac_template.copy()
        J[:, :n2] = rows
        return J

    def system(self, basis, agent_rates, omega: float) -> InputAffineSystem:
        """System of the stack's row views; agent i's channels carry sine(n_i)
        and cosine(n_i) and vary in t at ``agent_rates[i]``."""
        rates = [0.0] + [r for rate in agent_rates for r in (rate, rate)]
        stack = FieldStack(self.layout, self.features, self.feature_jac, basis, rates)
        channels = [(stack.fields[2 * i + k], dither(n_i))
                    for i, n_i in enumerate(self.harmonics)
                    for k, dither in ((1, sine), (2, cosine))]
        return InputAffineSystem(stack.fields[0], tuple(channels), omega / self.q)


def build_single_integrator(game: PotentialGame, params, omega: float) -> InputAffineSystem:
    """Oscillatory multi-agent system with single-integrator position dynamics.

    Per agent the position block moves with

        dx1/dt = c*(f - x_e*h) * sqrt(w_i) * sin(w_i t) + alpha * sqrt(w_i) * cos(w_i t)
        dx2/dt = -c*(f - x_e*h) * sqrt(w_i) * cos(w_i t) + alpha * sqrt(w_i) * sin(w_i t)

    with w_i = a_i * omega, rewritten on the common base frequency so every
    channel carries a sine(n_i) or cosine(n_i) dither and a sqrt(n_i) field
    scaling. Each stack entry is a constant or a constant times a washout,
    so the layout needs only the constant basis. Each agent map (and
    gradient) is called once per point; all Jacobians are analytic.
    """
    lp = _AgentLoops(game, _check_params(game, params), 1)
    layout = lp.layout[0]
    layout[lp.sin_rows, lp.first, lp.washout] = lp.sc
    layout[lp.sin_rows, lp.second, 0] = lp.sa
    layout[lp.cos_rows, lp.first, 0] = lp.sa
    layout[lp.cos_rows, lp.second, lp.washout] = -lp.sc
    return lp.system(None, [0.0] * lp.n, omega)


def _analytic_maps(game: PotentialGame) -> tuple[AgentMap, ...]:
    """The game's maps; a closed-form averaged field needs each one's gradient."""
    if any(m.grad is None for m in game.maps):
        raise ValueError("analytic averaged field needs analytic gradients")
    return game.maps


def _square(c: float) -> float:
    """c ** 2, inf where the Python float power raises OverflowError."""
    try:
        return c ** 2
    except OverflowError:
        return math.inf


def analytic_lie_single_integrator(game: PotentialGame, params) -> VectorField:
    """Closed-form averaged field of the single-integrator architecture.

    Per agent, with g = f(zbar) - z_e*h and (d1, d2) the agent's own block
    of grad f:

        dz1/dt = (c*alpha*d1 - c^2*d2*g) / 2
        dz2/dt = (c*alpha*d2 + c^2*d1*g) / 2
        dz_e/dt = -z_e*h + f(zbar)
    """
    params = _check_params(game, params)
    n = game.n_agents
    dim = 3 * n
    # per agent: index, map, gradient, c*alpha, c**2, h
    agents = [(i, m.fn, m.grad, p.c * p.alpha, _square(p.c), p.h)
              for i, (m, p) in enumerate(zip(_analytic_maps(game), params))]

    def fn(t, z):
        zs = z.tolist()  # one conversion for all 2N map and gradient calls
        zbar, z_e = zs[:2 * n], zs[2 * n:]
        out = [0.0] * dim
        for i, f, grad, c_alpha, c_sq, h in agents:
            f_val = float(f(zbar))
            row = grad(zbar)
            d1, d2 = float(row[2 * i]), float(row[2 * i + 1])
            g = f_val - z_e[i] * h
            out[2 * i] = 0.5 * (c_alpha * d1 - c_sq * d2 * g)
            out[2 * i + 1] = 0.5 * (c_alpha * d2 + c_sq * d1 * g)
            out[2 * n + i] = -z_e[i] * h + f_val
        return np.array(out)

    return VectorField(dim, fn)


def build_unicycle(game: PotentialGame, params, Omega: float, omega: float) -> InputAffineSystem:
    """Oscillatory multi-agent system with unicycle position dynamics.

    Only the forward speed carries the seeking feedback; each heading is
    eliminated analytically as Omega_i * t (headings start at zero), which
    makes the channel fields time-varying with rate Omega_i = d_i * Omega.
    Drift and channels are one stack over the basis
    [1, cos(Omega_i t), sin(Omega_i t)], which calls each agent map (and
    gradient) once per point.
    """
    params = _check_params(game, params, Omega)
    lp = _AgentLoops(game, params, 1 + 2 * len(params))
    rates = np.array([float(p.d) * Omega for p in params])

    def basis(t):  # (1 + 2N,) for a float t, (T, 1 + 2N) for T times
        phase = np.multiply.outer(t, rates)
        return np.concatenate((np.ones_like(phase[..., :1]), np.cos(phase), np.sin(phase)), -1)

    # basis function 1 + i is cos(Omega_i t), 1 + N + i is sin(Omega_i t)
    cos_i, sin_i = lp.washout, lp.washout + lp.n
    lp.layout[cos_i, lp.sin_rows, lp.first, lp.washout] = lp.sc
    lp.layout[sin_i, lp.sin_rows, lp.second, lp.washout] = lp.sc
    lp.layout[cos_i, lp.cos_rows, lp.first, 0] = lp.sa
    lp.layout[sin_i, lp.cos_rows, lp.second, 0] = lp.sa
    return lp.system(basis, np.abs(rates), omega)


def analytic_lie_unicycle(game: PotentialGame, params, Omega: float) -> VectorField:
    """Closed-form averaged field of the unicycle architecture.

    Per agent, with (d1, d2) the agent's own gradient block and
    (cw, sw) = (cos(Omega_i t), sin(Omega_i t)):

        dz1/dt = (c*alpha/2) * cw * (d1*cw + d2*sw)
        dz2/dt = (c*alpha/2) * sw * (d1*cw + d2*sw)
        dz_e/dt = -z_e*h + f(zbar)

    The field is time-varying and periodic with period
    (2*pi/|Omega|) * prod(denominator(d_i)).
    """
    params = _check_params(game, params, Omega)
    n = game.n_agents
    dim = 3 * n
    # per agent: index, map, gradient, 0.5*c*alpha, h, heading rate
    agents = [(i, m.fn, m.grad, 0.5 * p.c * p.alpha, p.h, float(p.d) * Omega)
              for i, (m, p) in enumerate(zip(_analytic_maps(game), params))]

    def fn(t, z):
        zs = z.tolist()  # one conversion for all 2N map and gradient calls
        zbar, z_e = zs[:2 * n], zs[2 * n:]
        out = [0.0] * dim
        for i, f, grad, half_c_alpha, h, rate in agents:
            f_val = float(f(zbar))
            row = grad(zbar)
            d1, d2 = float(row[2 * i]), float(row[2 * i + 1])
            cw, sw = math.cos(rate * t), math.sin(rate * t)
            proj = half_c_alpha * (d1 * cw + d2 * sw)
            out[2 * i] = proj * cw
            out[2 * i + 1] = proj * sw
            out[2 * n + i] = -z_e[i] * h + f_val
        return np.array(out)

    return VectorField(dim, fn, oscillation_rate=abs(Omega) * max(float(p.d) for p in params))


def unicycle_period(params, Omega: float) -> float:
    """Shared period of the unicycle averaged field."""
    l = math.prod(Fraction(p.d).denominator for p in params)
    return 2.0 * math.pi / abs(Omega) * l


@dataclass(frozen=True)
class CompatibilityReport:
    """Block-gradient agreement between individual maps and the potential."""

    tol: float
    max_defect: float
    per_agent: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.max_defect < self.tol


# most samples of a compatibility check: 10 times the CLI's 1,000; the (samples,
# N + 1, 2N) gradients take 1.9 MB for three agents, 96 MB at MAX_AGENTS
MAX_COMPATIBILITY_SAMPLES = 10_000


def check_potential_compatibility(game: PotentialGame, samples: int = 1000,
                                  tol: float = 1e-6, seed: int = 0) -> CompatibilityReport:
    """Measure max over random points in [-3, 3]^(2N) of the own-block gradient defect.

    Each map's gradient and the potential's gradient are called once, on the
    (samples, 2N) batch of points; a gradient that does not return one row
    per point is refused with ValueError. The own-block defects of all
    samples are then reduced at once, so a nan defect reads nan (a FAIL).
    """
    if (isinstance(samples, bool) or not isinstance(samples, numbers.Integral)
            or not 1 <= samples <= MAX_COMPATIBILITY_SAMPLES):
        raise ValueError("samples must be an integer from 1 to MAX_COMPATIBILITY_SAMPLES = "
                         f"{MAX_COMPATIBILITY_SAMPLES:,}, got {samples!r}")
    check_tolerance(tol)
    rng = np.random.default_rng(seed)
    n = game.n_agents
    pts = rng.uniform(-3.0, 3.0, size=(samples, game.dim))
    # the agents' gradients and then the potential's, one batch call each
    grads = np.empty((samples, n + 1, game.dim))
    for i, gradient in enumerate([m.gradient for m in game.maps] + [game.potential_gradient]):
        g = gradient(pts)
        if g.shape != pts.shape:
            whose = f"agent {i}" if i < n else "the potential"
            raise ValueError(f"gradient of {whose} returned shape {g.shape} for "
                             f"points of shape {pts.shape}")
        grads[:, i] = g
    blocks = grads.reshape(samples, n + 1, n, 2)
    agents = np.arange(n)
    # own[s, i] is agent i's block of grad f_i at sample s, pot[s, i] that of grad F
    own, pot = blocks[:, agents, agents], blocks[:, n]
    per_agent = np.abs(own - pot).max(axis=(0, 2), initial=0.0)
    return CompatibilityReport(tol, float(np.max(per_agent)),
                               tuple(per_agent.tolist()))


@dataclass(frozen=True)
class StationarityReport:
    """Finite-difference gradient norm of the potential at the claimed maximizer."""

    gradient_norm: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.gradient_norm < self.tol


def check_maximizer_stationarity(game: PotentialGame,
                                 tol: float = 1e-5) -> StationarityReport:
    """Check the known-maximizer witness is a stationary point of the potential.

    Deliberately uses central finite differences of the potential itself, not
    a supplied gradient, so the witness is checked independently. A global
    verification of maximality is not attempted: it is undecidable for
    black-box maps.
    """
    if game.maximizer is None:
        raise ValueError("game has no known maximizer to check")
    check_tolerance(tol)
    grad = finite_diff_jacobian(lambda t, y: game.potential(y), 0.0, game.maximizer)
    return StationarityReport(float(np.linalg.norm(grad)), tol)


def filter_equilibrium(game: PotentialGame, params, xbar: np.ndarray) -> np.ndarray:
    """Washout-state equilibrium [f_1(xbar)/h_1, ..., f_N(xbar)/h_N]; ``params``
    must hold one entry per agent."""
    params = _one_per_agent(game, params)
    xbar = np.asarray(xbar, dtype=float)
    return np.array([m(xbar) / p.h for m, p in zip(game.maps, params)])


def equilibrium_state(game: PotentialGame, params) -> np.ndarray:
    """Packed target state [maximizer, filter equilibrium at the maximizer]."""
    if game.maximizer is None:
        raise ValueError("game has no known maximizer")
    return np.concatenate([game.maximizer,
                           filter_equilibrium(game, params, game.maximizer)])


# ---------------------------------------------------------------------------
# scalar loop (one state, no washout filter)

def build_scalar_seeker(f: Callable[[float], float], grad_f: Callable[[float], float],
                        alpha: float, omega: float,
                        dithers=None) -> InputAffineSystem:
    """The basic one-dimensional seeking loop.

    dx/dt = alpha*sqrt(omega)*u_a(omega t) + f(x)*sqrt(omega)*u_b(omega t)
    with the default dither pair u_a = cosine(1), u_b = sine(1). Its averaged
    system is (alpha/2) * grad f. Drift and channels are one stack with rows
    [0], [alpha] and [f(x)]: a constant layout over the one feature f(x).
    """
    if dithers is None:
        dithers = (cosine(1), sine(1))
    u_a, u_b = dithers
    layout = np.zeros((1, 3, 1, 2))
    layout[0, 1, 0, 0] = alpha
    layout[0, 2, 0, 1] = 1.0

    def features(t, x):
        return np.array([1.0, f(float(x[0]))])

    def feature_jac(t, x):
        return np.array([[grad_f(float(x[0]))]])

    drift, alpha_field, f_field = FieldStack(layout, features, feature_jac).fields
    return InputAffineSystem(drift, ((alpha_field, u_a), (f_field, u_b)), omega)


def analytic_lie_scalar(grad_f: Callable[[float], float], alpha: float) -> VectorField:
    """Averaged field (alpha/2) * grad f of the basic scalar loop."""

    def fn(t, z):
        return np.array([0.5 * alpha * grad_f(float(z[0]))])

    return VectorField(1, fn)


# ---------------------------------------------------------------------------
# bundled games

def _columns(batch: np.ndarray) -> np.ndarray:
    """The six columns of an (S, 6) batch of points; ValueError naming the shape of
    any other array, such as one point as a (6,) array: the float body takes a
    point, as a list, and keeps its bits."""
    if np.ndim(batch) != 2 or np.shape(batch)[1] != 6:
        raise ValueError("a batch gradient takes an (S, 6) array of points, got shape "
                         f"{np.shape(batch)}")
    return batch.T


def three_agent_game() -> PotentialGame:
    """The bundled three-agent benchmark game.

    Agents a, b, c with coupled individual maps and the shared quadratic
    potential F(x) = -(x - x*)^T Q (x - x*) / 2, Q = diag(1,1,1,1,1,3),
    maximizer x* = [1, 1, -1, -1, -1, 1]. Cross terms in the individual maps
    involve only the *other* agents' coordinates, so own-block gradients
    agree with the potential's.

    Each map and, for one point, each gradient takes the 6 coordinates as a
    list of Python floats, made by its caller with one ``tolist`` of the
    state for all the maps, unpacks it and computes with ``math``: the same
    bits as indexing a float array element by element, at a fraction of the
    cost of numpy scalar arithmetic: one unicycle right-hand side at
    omega = 80 costs 9.6 us with these maps, 15.9 us with the same
    expressions on the numpy scalars of a (6,) array view (medians of 15
    rounds, each the best of 7 x 4,000 calls, on a shared 2-core Xeon in a
    slow phase; Python 3.11.7, numpy 2.4.6). A gradient returns those floats
    as a list of 6, no array: its callers write rows into a matrix or read
    two entries.

    A gradient also takes a batch, an (S, 6) array, to (S, 6) in a numpy
    body, so the compatibility check makes one call per map; it tells a
    point from a batch by ``isinstance(x, list)``, and the maps, on the
    value path, test nothing. The batch body refuses any array but an (S, 6)
    one with ValueError, so a point as a (6,) array never gets numpy bits.
    Its own block keeps the per-point bits; numpy's ``exp``, ``cos`` and squares (x * x, not libm
    pow) may move the last bits of the others, exp's up to |argument| ulp. A
    row whose finite x4 or x5 squares past the float range is nan, where the
    float body's ** raises OverflowError.
    The batch bodies give no warning on infinite and overflowing entries:
    numpy's invalid and overflow warnings are off inside them.
    """

    def f_a(x):
        x0, x1, x2, x3, x4, x5 = x
        return (-0.5 * (x0 - 1.0) ** 2 - 0.5 * (x1 - 1.0) ** 2
                + x2 ** 2 + x3 ** 2 + math.exp(-x4 ** 2 - x5 ** 2) - 10.0)

    def grad_f_a(x):
        if isinstance(x, list):
            x0, x1, x2, x3, x4, x5 = x
            e = math.exp(-x4 ** 2 - x5 ** 2)
            return [-(x0 - 1.0), -(x1 - 1.0), 2.0 * x2, 2.0 * x3, -2.0 * x4 * e, -2.0 * x5 * e]
        x0, x1, x2, x3, x4, x5 = _columns(x)
        with np.errstate(over="ignore", invalid="ignore"):
            sq4, sq5 = x4 ** 2, x5 ** 2
            e = np.exp(-sq4 - sq5)
            g = np.stack([-(x0 - 1.0), -(x1 - 1.0), 2.0 * x2, 2.0 * x3,
                          -2.0 * x4 * e, -2.0 * x5 * e], axis=-1)
        g[(np.isinf(sq4) & np.isfinite(x4)) | (np.isinf(sq5) & np.isfinite(x5))] = np.nan
        return g

    def f_b(x):
        x0, x1, x2, x3, _, _ = x
        s = x0 + x1  # math.sin raises ValueError on inf, where numpy gives nan
        return (-0.5 * (x2 + 1.0) ** 2 - 0.5 * (x3 + 1.0) ** 2
                + (math.sin(s) if math.isfinite(s) else math.nan) - 10.0)

    def grad_f_b(x):
        if isinstance(x, list):
            x0, x1, x2, x3, _, _ = x
            s = x0 + x1
            cc = math.cos(s) if math.isfinite(s) else math.nan
            return [cc, cc, -(x2 + 1.0), -(x3 + 1.0), 0.0, 0.0]
        x0, x1, x2, x3, _, _ = _columns(x)
        with np.errstate(over="ignore", invalid="ignore"):
            cc = np.cos(x0 + x1)
        zero = np.zeros_like(cc)
        return np.stack([cc, cc, -(x2 + 1.0), -(x3 + 1.0), zero, zero], axis=-1)

    def f_c(x):
        _, _, _, _, x4, x5 = x
        return -0.5 * (x4 + 1.0) ** 2 - 1.5 * (x5 - 1.0) ** 2 + 10.0

    def grad_f_c(x):
        if isinstance(x, list):
            _, _, _, _, x4, x5 = x
            return [0.0, 0.0, 0.0, 0.0, -(x4 + 1.0), -3.0 * (x5 - 1.0)]
        _, _, _, _, x4, x5 = _columns(x)
        zero = np.zeros_like(x4)
        with np.errstate(over="ignore"):
            return np.stack([zero, zero, zero, zero, -(x4 + 1.0), -3.0 * (x5 - 1.0)], axis=-1)

    maps = (
        AgentMap(f_a, grad_f_a),
        AgentMap(f_b, grad_f_b),
        AgentMap(f_c, grad_f_c),
    )
    game = quadratic_game([1.0, 1.0, 1.0, 1.0, 1.0, 3.0], [1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
    return replace(game, maps=maps)


def quadratic_game(q_diag, xstar) -> PotentialGame:
    """N-agent game where every individual map equals the shared quadratic."""
    q_diag = np.asarray(q_diag, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if q_diag.shape != xstar.shape or q_diag.size % 2 != 0:
        raise ValueError("q_diag and xstar must both have length 2N")
    if np.any(q_diag <= 0.0):
        raise ValueError("quadratic weights must be positive")

    def potential(x):
        dx = np.asarray(x, dtype=float) - xstar
        return float(-0.5 * np.dot(dx, q_diag * dx))

    def potential_grad(x):
        return -q_diag * (np.asarray(x, dtype=float) - xstar)

    n = q_diag.size // 2
    maps = (AgentMap(potential, potential_grad),) * n
    return PotentialGame(maps, potential, potential_grad, maximizer=xstar)
