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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .dynamics import FieldStack, InputAffineSystem, VectorField, finite_diff_jacobian
from .signals import cosine, sine


@dataclass(frozen=True)
class AgentMap:
    """An individual objective f_i: R^(2N) -> R with optional analytic gradient.

    A value or gradient whose float arithmetic overflows reads nan: Python
    floats raise OverflowError where numpy gives inf, and either way the
    fields built on the map refuse the non-finite value.
    """

    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, xbar: np.ndarray) -> float:
        try:
            return float(self.fn(xbar))
        except OverflowError:
            return math.nan

    def gradient(self, xbar: np.ndarray) -> np.ndarray:
        if self.grad is None:
            return finite_diff_jacobian(lambda t, y: self(y), 0.0, xbar)
        try:
            return np.asarray(self.grad(xbar), dtype=float)
        except OverflowError:
            return np.full(np.shape(xbar), math.nan)


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
            object.__setattr__(self, "maximizer",
                               np.asarray(self.maximizer, dtype=float))

    @property
    def n_agents(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return 2 * self.n_agents

    def potential_gradient(self, xbar: np.ndarray) -> np.ndarray:
        if self.potential_grad is not None:
            return np.asarray(self.potential_grad(xbar), dtype=float)
        return finite_diff_jacobian(lambda t, y: self.potential(y), 0.0, xbar)


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
        if self.c < 0.0:
            raise ValueError("feedback gain c must be nonnegative")
        if self.alpha <= 0.0 or self.h <= 0.0:
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


def _check_params(game: PotentialGame, params,
                  Omega: float | None = None) -> list[AgentParams]:
    """Agent parameters for ``game``; a base angular rate ``Omega`` marks a unicycle."""
    params = list(params)
    if len(params) != game.n_agents:
        raise ValueError(f"need one parameter set per agent: the game has "
                         f"{game.n_agents} agents, got {len(params)}")
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
        self.maps = game.maps
        self.q, self.harmonics = frequency_decomposition([p.a for p in params])
        s = np.sqrt(np.array(self.harmonics, dtype=float))
        self.h = [float(p.h) for p in params]
        self.sc = s * np.array([p.c for p in params])
        self.sa = s * np.array([p.alpha for p in params])
        agents = np.arange(n)
        self.first, self.second, self.washout = 2 * agents, 2 * agents + 1, 1 + agents
        self.sin_rows, self.cos_rows = 1 + 2 * agents, 2 + 2 * agents
        self.filter_jac = -np.diag(self.h)
        # drift row dx_e/dt = w, under the constant basis function 0
        self.layout = np.zeros((basis_size, 1 + 2 * n, 3 * n, 1 + n))
        self.layout[0, 0, 2 * n + agents, self.washout] = 1.0

    def features(self, t, x):
        """[1, w_1, ..., w_N], the washouts formed in floats; calls each agent map once."""
        n2 = 2 * self.n
        xbar = x[:n2]
        return np.array([1.0] + [m(xbar) - h * e for m, h, e
                                 in zip(self.maps, self.h, x[n2:].tolist())])

    def feature_jac(self, t, x):
        """Washout Jacobian (N, 3N); calls each agent gradient once."""
        xbar = x[:2 * self.n]
        grads = np.array([m.gradient(xbar) for m in self.maps])
        return np.concatenate((grads, self.filter_jac), axis=1)

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


def analytic_lie_single_integrator(game: PotentialGame, params) -> VectorField:
    """Closed-form averaged field of the single-integrator architecture.

    Per agent, with g = f(zbar) - z_e*h and (d1, d2) the agent's own block
    of grad f:

        dz1/dt = (c*alpha*d1 - c^2*d2*g) / 2
        dz2/dt = (c*alpha*d2 + c^2*d1*g) / 2
        dz_e/dt = -z_e*h + f(zbar)
    """
    params = _check_params(game, params)
    for m in game.maps:
        if m.grad is None:
            raise ValueError("analytic averaged field needs analytic gradients")
    n = game.n_agents
    dim = 3 * n
    maps = game.maps

    def fn(t, z):
        zbar, z_e = z[:2 * n], z[2 * n:].tolist()
        out = [0.0] * dim
        for i, p in enumerate(params):
            f_val = maps[i](zbar)
            d1, d2 = maps[i].gradient(zbar)[2 * i:2 * i + 2].tolist()
            g = f_val - z_e[i] * p.h
            out[2 * i] = 0.5 * (p.c * p.alpha * d1 - p.c ** 2 * d2 * g)
            out[2 * i + 1] = 0.5 * (p.c * p.alpha * d2 + p.c ** 2 * d1 * g)
            out[2 * n + i] = -z_e[i] * p.h + f_val
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

    def basis(t):
        return np.concatenate(([1.0], np.cos(rates * t), np.sin(rates * t)))

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
    for m in game.maps:
        if m.grad is None:
            raise ValueError("analytic averaged field needs analytic gradients")
    n = game.n_agents
    dim = 3 * n
    maps = game.maps
    rates = [float(p.d) * Omega for p in params]

    def fn(t, z):
        zbar, z_e = z[:2 * n], z[2 * n:].tolist()
        out = [0.0] * dim
        for i, p in enumerate(params):
            f_val = maps[i](zbar)
            d1, d2 = maps[i].gradient(zbar)[2 * i:2 * i + 2].tolist()
            cw, sw = math.cos(rates[i] * t), math.sin(rates[i] * t)
            proj = 0.5 * p.c * p.alpha * (d1 * cw + d2 * sw)
            out[2 * i] = proj * cw
            out[2 * i + 1] = proj * sw
            out[2 * n + i] = -z_e[i] * p.h + f_val
        return np.array(out)

    return VectorField(dim, fn, oscillation_rate=abs(Omega) * max(float(p.d) for p in params))


def unicycle_period(params, Omega: float) -> float:
    """Shared period of the unicycle averaged field."""
    l = math.prod(Fraction(p.d).denominator for p in params)
    return 2.0 * math.pi / abs(Omega) * l


@dataclass(frozen=True)
class CompatibilityReport:
    """Block-gradient agreement between individual maps and the potential."""

    samples: int
    tol: float
    max_defect: float
    per_agent: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.max_defect < self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        per = ", ".join(f"agent {i + 1}: {d:.3e}" for i, d in enumerate(self.per_agent))
        return (f"[{status}] potential compatibility: max block-gradient defect "
                f"{self.max_defect:.3e} over {self.samples} samples (tol {self.tol:g}); {per}")


def check_potential_compatibility(game: PotentialGame, samples: int = 1000,
                                  tol: float = 1e-6, seed: int = 0) -> CompatibilityReport:
    """Measure max over random points in [-3, 3]^(2N) of the own-block gradient defect.

    The gradients are collected per sample; the own-block defects of all
    samples are then reduced at once, so a nan defect reads nan (a FAIL).
    """
    rng = np.random.default_rng(seed)
    n = game.n_agents
    pts = rng.uniform(-3.0, 3.0, size=(samples, game.dim))
    # per sample, the agents' gradients and then the potential's
    grads = np.empty((samples, n + 1, game.dim))
    for s, x in enumerate(pts):
        grads[s] = [m.gradient(x) for m in game.maps] + [game.potential_gradient(x)]
    blocks = grads.reshape(samples, n + 1, n, 2)
    agents = np.arange(n)
    # own[s, i] is agent i's block of grad f_i at sample s, pot[s, i] that of grad F
    own, pot = blocks[:, agents, agents], blocks[:, n]
    per_agent = np.abs(own - pot).max(axis=(0, 2), initial=0.0)
    return CompatibilityReport(samples, tol, float(np.max(per_agent)),
                               tuple(per_agent.tolist()))


@dataclass(frozen=True)
class StationarityReport:
    """Finite-difference gradient norm of the potential at the claimed maximizer."""

    gradient_norm: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.gradient_norm < self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] maximizer stationarity: |grad F| = "
                f"{self.gradient_norm:.3e} (tol {self.tol:g})")


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
    grad = finite_diff_jacobian(lambda t, y: game.potential(y), 0.0, game.maximizer)
    return StationarityReport(float(np.linalg.norm(grad)), tol)


def filter_equilibrium(game: PotentialGame, params, xbar: np.ndarray) -> np.ndarray:
    """Washout-state equilibrium [f_1(xbar)/h_1, ..., f_N(xbar)/h_N]."""
    params = list(params)
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

def three_agent_game() -> PotentialGame:
    """The bundled three-agent benchmark game.

    Agents a, b, c with coupled individual maps and the shared quadratic
    potential F(x) = -(x - x*)^T Q (x - x*) / 2, Q = diag(1,1,1,1,1,3),
    maximizer x* = [1, 1, -1, -1, -1, 1]. Cross terms in the individual maps
    involve only the *other* agents' coordinates, so own-block gradients
    agree with the potential's.

    Each map and gradient takes one (6,) float array, unpacks it once with
    ``tolist`` and computes on Python floats with ``math``: the same bits as
    indexing the array element by element, at a fraction of the cost of
    numpy scalar arithmetic: one unicycle right-hand side at omega = 80
    costs 11.7 us with these maps, 15.4 us with maps on numpy scalars
    (2-core Xeon, Python 3.11.7, numpy 2.4.6).
    """

    def f_a(x):
        x0, x1, x2, x3, x4, x5 = x.tolist()
        return (-0.5 * (x0 - 1.0) ** 2 - 0.5 * (x1 - 1.0) ** 2
                + x2 ** 2 + x3 ** 2 + math.exp(-x4 ** 2 - x5 ** 2) - 10.0)

    def grad_f_a(x):
        x0, x1, x2, x3, x4, x5 = x.tolist()
        e = math.exp(-x4 ** 2 - x5 ** 2)
        return np.array([-(x0 - 1.0), -(x1 - 1.0), 2.0 * x2, 2.0 * x3,
                         -2.0 * x4 * e, -2.0 * x5 * e])

    def f_b(x):
        x0, x1, x2, x3, _, _ = x.tolist()
        return -0.5 * (x2 + 1.0) ** 2 - 0.5 * (x3 + 1.0) ** 2 + math.sin(x0 + x1) - 10.0

    def grad_f_b(x):
        x0, x1, x2, x3, _, _ = x.tolist()
        cc = math.cos(x0 + x1)
        return np.array([cc, cc, -(x2 + 1.0), -(x3 + 1.0), 0.0, 0.0])

    def f_c(x):
        _, _, _, _, x4, x5 = x.tolist()
        return -0.5 * (x4 + 1.0) ** 2 - 1.5 * (x5 - 1.0) ** 2 + 10.0

    def grad_f_c(x):
        _, _, _, _, x4, x5 = x.tolist()
        return np.array([0.0, 0.0, 0.0, 0.0, -(x4 + 1.0), -3.0 * (x5 - 1.0)])

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
