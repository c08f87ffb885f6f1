"""Architecture builders, their analytic averaged fields, and the game checks."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherseek import (AgentMap, AgentParams, PotentialGame,
                        analytic_lie_single_integrator, analytic_lie_unicycle,
                        build_lie_bracket_system, build_single_integrator,
                        build_unicycle, check_maximizer_stationarity,
                        check_potential_compatibility, equilibrium_state,
                        filter_equilibrium, frequency_decomposition,
                        assemble_rhs, quadratic_game, three_agent_game,
                        unicycle_period)
from ditherseek import seekers

RNG = np.random.default_rng(2024)
X0 = np.array([2.0, -2.0, -2.0, 2.0, -1.0, 2.5, 0.0, 0.0, 0.0])


def _params(c=0.3, ratios=(1, 2, 3), d=None):
    ds = d if d is not None else [None] * len(ratios)
    return [AgentParams(c, 1.0, 1.0, a, dd) for a, dd in zip(ratios, ds)]


# ---------------------------------------------------------------------------
# frequency decomposition

def test_decomposition_integer_ratios():
    assert frequency_decomposition([1, 2, 3]) == (1, [1, 2, 3])


def test_decomposition_fractional_ratios():
    q, n = frequency_decomposition([Fraction(1, 2), Fraction(1, 3)])
    assert (q, n) == (6, [3, 2])


def test_decomposition_single_ratio():
    assert frequency_decomposition([Fraction(1)]) == (1, [1])


def test_decomposition_rejects_nonpositive():
    with pytest.raises(ValueError):
        frequency_decomposition([Fraction(1), Fraction(0)])


@given(st.lists(st.fractions(min_value=Fraction(1, 12), max_value=20,
                             max_denominator=12),
                min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_decomposition_exactness(ratios):
    q, harmonics = frequency_decomposition(ratios)
    for a, n in zip(ratios, harmonics):
        # a * omega = n * (omega / q) exactly, in rational arithmetic
        assert Fraction(a) == Fraction(n, q)
        assert n >= 1


# ---------------------------------------------------------------------------
# parameter and game validation

def test_agent_params_validation():
    with pytest.raises(ValueError):
        AgentParams(-0.1, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        AgentParams(0.3, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        AgentParams(0.3, 1.0, -1.0, 1)
    with pytest.raises(ValueError):
        AgentParams(0.3, 1.0, 1.0, Fraction(-1, 2))
    # zero feedback gain is allowed as a diagnostic configuration
    assert AgentParams(0.0, 1.0, 1.0, 1).c == 0.0
    # rationals are stored exactly
    assert AgentParams(0.3, 1.0, 1.0, "3/7").a == Fraction(3, 7)


def test_duplicate_frequency_ratios_rejected():
    game = three_agent_game()
    with pytest.raises(ValueError, match="distinct"):
        build_single_integrator(game, _params(ratios=(1, 2, 2)), 10.0)


def test_shared_angular_rate_ratios_accepted():
    # equal d across agents is fine; only the a's must differ
    game = three_agent_game()
    sys = build_unicycle(game, _params(d=(1, 1, 1)), 1.0, 10.0)
    assert sys.dim == 9


def test_unicycle_requires_d_and_nonzero_Omega():
    game = three_agent_game()
    with pytest.raises(ValueError, match="angular-rate"):
        build_unicycle(game, _params(), 1.0, 10.0)
    with pytest.raises(ValueError, match="Omega"):
        build_unicycle(game, _params(d=(1, 2, 3)), 0.0, 10.0)


# ---------------------------------------------------------------------------
# single integrator

def test_single_integrator_dimension_and_t0_evaluation():
    game = quadratic_game(np.ones(2), np.zeros(2))
    p = [AgentParams(0.4, 1.3, 2.0, 1)]
    sys = build_single_integrator(game, p, omega=9.0)
    assert sys.dim == 3
    rhs = assemble_rhs(sys)
    x = np.array([0.5, -0.3, 0.2])
    # at t=0 the sine channel vanishes and the cosine channel fires:
    # xdot1 = alpha*sqrt(w), xdot2 = -c*(f - x_e*h)*sqrt(w), plus filter drift
    f_val = game.maps[0](x[:2])
    got = rhs(0.0, x)
    sw = math.sqrt(9.0)
    assert got[0] == pytest.approx(1.3 * sw, abs=1e-12)
    assert got[1] == pytest.approx(-0.4 * (f_val - 0.2 * 2.0) * sw, abs=1e-12)
    assert got[2] == pytest.approx(-0.2 * 2.0 + f_val, abs=1e-12)


def test_three_agent_system_dimension():
    sys = build_single_integrator(three_agent_game(), _params(), 10.0)
    assert sys.dim == 9
    assert len(sys.channels) == 6
    assert sys.omega == pytest.approx(10.0)  # integer ratios: q = 1
    harmonics = sorted({s.harmonic for _, s in sys.channels})
    assert harmonics == [1, 2, 3]


def test_fractional_ratios_rescale_base_frequency():
    game = quadratic_game(np.ones(4), np.zeros(4))
    p = [AgentParams(0.3, 1.0, 1.0, Fraction(1, 2)),
         AgentParams(0.3, 1.0, 1.0, Fraction(1, 3))]
    sys = build_single_integrator(game, p, 60.0)
    assert sys.omega == pytest.approx(10.0)  # q = 6
    assert sorted({s.harmonic for _, s in sys.channels}) == [2, 3]


def test_zero_gain_kills_position_bracket_terms():
    game = three_agent_game()
    lie = analytic_lie_single_integrator(game, _params(c=0.0))
    for _ in range(20):
        z = RNG.uniform(-3, 3, 9)
        assert np.max(np.abs(lie(0.0, z)[:6])) == 0.0


def test_cross_builder_equivalence_single_integrator():
    game = three_agent_game()
    params = _params()
    gen = build_lie_bracket_system(build_single_integrator(game, params, 100.0))
    ana = analytic_lie_single_integrator(game, params)
    for _ in range(100):
        z = RNG.uniform(-3, 3, 9)
        t = RNG.uniform(0.0, 10.0)
        assert np.max(np.abs(gen(t, z) - ana(t, z))) < 1e-8


def test_analytic_lie_vanishes_at_equilibrium():
    game = three_agent_game()
    params = _params()
    z_eq = equilibrium_state(game, params)
    lie = analytic_lie_single_integrator(game, params)
    assert np.max(np.abs(lie(0.0, z_eq))) < 1e-12


def test_quadratic_single_agent_closed_form():
    # c = alpha = 1, x_e at its equilibrium: the averaged position field is
    # (xstar - xbar) / 2 blockwise and the filter rate is zero
    xstar = np.array([0.7, -0.4])
    game = quadratic_game(np.ones(2), xstar)
    p = [AgentParams(1.0, 1.0, 1.0, 1)]
    lie = analytic_lie_single_integrator(game, p)
    for _ in range(10):
        xbar = RNG.uniform(-2, 2, 2)
        z = np.concatenate([xbar, filter_equilibrium(game, p, xbar)])
        out = lie(0.0, z)
        assert np.allclose(out[:2], 0.5 * (xstar - xbar), atol=1e-12)
        assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_analytic_lie_requires_analytic_gradients():
    fd_map = AgentMap(lambda x: -float(x[0] ** 2 + x[1] ** 2))
    game = PotentialGame((fd_map,), lambda x: -float(x[0] ** 2 + x[1] ** 2))
    with pytest.raises(ValueError, match="gradient"):
        analytic_lie_single_integrator(game, [AgentParams(0.3, 1.0, 1.0, 1)])


# ---------------------------------------------------------------------------
# unicycle

def test_unicycle_velocity_along_first_axis_at_t0():
    game = three_agent_game()
    sys = build_unicycle(game, _params(d=(1, 2, 3)), 1.0, 80.0)
    assert sys.dim == 9
    x = RNG.uniform(-2, 2, 9)
    for fld, _ in sys.channels:
        v = fld(0.0, x)
        # cos(0) = 1, sin(0) = 0: channel velocity lies along coordinate 1
        assert np.allclose(v[1::2][:3], 0.0, atol=1e-15)


def test_cross_builder_equivalence_unicycle():
    game = three_agent_game()
    params = _params(d=(1, 2, 3))
    gen = build_lie_bracket_system(build_unicycle(game, params, 1.0, 80.0))
    ana = analytic_lie_unicycle(game, params, 1.0)
    for _ in range(100):
        z = RNG.uniform(-3, 3, 9)
        t = RNG.uniform(0.0, 10.0)
        assert np.max(np.abs(gen(t, z) - ana(t, z))) < 1e-8


def test_unicycle_position_rate_vanishes_at_quarter_heading_turn():
    # cos(Omega_i t) = 0 kills both terms of the agent's first coordinate
    game = three_agent_game()
    params = _params(d=(1, 1, 1))
    lie = analytic_lie_unicycle(game, params, 1.0)
    t = math.pi / 2.0
    for _ in range(10):
        z = RNG.uniform(-3, 3, 9)
        assert np.max(np.abs(lie(t, z)[0:6:2])) < 1e-12


def test_unicycle_field_periodicity():
    game = three_agent_game()
    params = _params(d=(1, 2, 3))
    lie = analytic_lie_unicycle(game, params, 1.0)
    T = unicycle_period(params, 1.0)
    assert T == pytest.approx(2.0 * math.pi)
    for _ in range(20):
        z = RNG.uniform(-3, 3, 9)
        t = RNG.uniform(0.0, 10.0)
        assert np.max(np.abs(lie(t + T, z) - lie(t, z))) < 1e-10


def test_unicycle_period_with_fractional_rate_ratios():
    params = [AgentParams(0.3, 1.0, 1.0, 1, Fraction(1, 2)),
              AgentParams(0.3, 1.0, 1.0, 2, Fraction(2, 3))]
    assert unicycle_period(params, 2.0) == pytest.approx(math.pi * 6.0)


def test_unicycle_lyapunov_rate_nonpositive():
    # dV/dt = -grad F . zbar_dot <= 0 pointwise along the averaged field
    game = three_agent_game()
    params = _params(d=(1, 2, 3))
    lie = analytic_lie_unicycle(game, params, 1.0)
    for _ in range(200):
        z = RNG.uniform(-3, 3, 9)
        t = RNG.uniform(0.0, 20.0)
        v_dot = -np.dot(game.potential_gradient(z[:6]), lie(t, z)[:6])
        assert v_dot <= 1e-12


def test_single_integrator_lyapunov_rate_nonpositive():
    game = three_agent_game()
    lie = analytic_lie_single_integrator(game, _params())
    for _ in range(200):
        z = RNG.uniform(-3, 3, 9)
        v_dot = -np.dot(game.potential_gradient(z[:6]), lie(0.0, z)[:6])
        assert v_dot <= 1e-12


# ---------------------------------------------------------------------------
# potential compatibility and filter equilibria

def test_bundled_game_compatibility():
    rep = check_potential_compatibility(three_agent_game(), samples=300, tol=1e-6)
    assert rep.passed
    assert rep.max_defect < 1e-10


def test_single_agent_identity_compatibility():
    game = quadratic_game(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    rep = check_potential_compatibility(game, samples=100, tol=1e-12)
    assert rep.passed


def _stripped_game():
    # the bundled game without the x1_b^2 coupling in the first map
    base = three_agent_game()

    def f_a_stripped(x):
        return (-0.5 * (x[0] - 1.0) ** 2 - 0.5 * (x[1] - 1.0) ** 2
                + x[3] ** 2 + math.exp(-x[4] ** 2 - x[5] ** 2) - 10.0)

    def grad_f_a_stripped(x):  # one point as a list of 6 floats or a batch (S, 6)
        x = np.asarray(x)
        e = np.exp(-x[..., 4] ** 2 - x[..., 5] ** 2)
        return np.stack([-(x[..., 0] - 1.0), -(x[..., 1] - 1.0), np.zeros_like(e),
                         2.0 * x[..., 3], -2.0 * x[..., 4] * e, -2.0 * x[..., 5] * e], axis=-1)

    maps = (AgentMap(f_a_stripped, grad_f_a_stripped),) + base.maps[1:]
    return PotentialGame(maps, base.potential, base.potential_grad, maximizer=base.maximizer)


def _incompatible_game():
    # agent 1 seeks a different maximizer than the potential prescribes
    good = quadratic_game(np.ones(2), np.zeros(2))
    def bad_grad(x):  # one point as a list of 2 floats or a batch (S, 2)
        x = np.asarray(x)
        return np.stack([-2.0 * (x[..., 0] - 1.0), -2.0 * x[..., 1]], axis=-1)

    bad_map = AgentMap(lambda x: -float((x[0] - 1.0) ** 2 + x[1] ** 2), bad_grad)
    return PotentialGame((bad_map,), good.potential, good.potential_grad)


def test_cross_term_in_other_agents_blocks_does_not_matter():
    # dropping the coupling leaves every own-block gradient unchanged, so
    # compatibility still holds
    rep = check_potential_compatibility(_stripped_game(), samples=300, tol=1e-6)
    assert rep.passed


def test_incompatible_game_is_detected():
    rep = check_potential_compatibility(_incompatible_game(), samples=100, tol=1e-6)
    assert not rep.passed


def _finite_difference_game():
    # the bundled game with every agent gradient by central differences
    base = three_agent_game()
    return replace(base, maps=tuple(AgentMap(m.fn) for m in base.maps))


@pytest.mark.parametrize("make_game", [
    three_agent_game, lambda: quadratic_game(np.array([1.0, 2.0]), np.array([0.5, -0.5])),
    _stripped_game, _incompatible_game, _finite_difference_game],
    ids=["bundled", "single_agent", "stripped", "incompatible", "finite_difference"])
def test_compatibility_reduction_equals_the_per_sample_loop(make_game):
    game = make_game()
    samples, seed = 200, 5
    rng = np.random.default_rng(seed)
    per_agent = np.zeros(game.n_agents)
    for x in rng.uniform(-3.0, 3.0, size=(samples, game.dim)):
        pot_grad = game.potential_gradient(x)
        for i, m in enumerate(game.maps):
            block = slice(2 * i, 2 * i + 2)
            defect = np.max(np.abs(m.gradient(x)[block] - pot_grad[block]))
            per_agent[i] = max(per_agent[i], defect)
    worst = float(np.max(per_agent))
    for tol in (1e-6, 1e-12):
        rep = check_potential_compatibility(game, samples=samples, tol=tol, seed=seed)
        assert rep.per_agent == tuple(per_agent.tolist())
        assert rep.max_defect == worst
        assert rep.passed == (worst < tol)
    if make_game is _incompatible_game:
        assert not rep.passed



def test_a_nan_gradient_fails_the_compatibility_check():
    # the defects are reduced at once, so a nan one is not dropped by max()
    good = quadratic_game(np.ones(2), np.zeros(2))
    nan_map = AgentMap(good.potential, lambda x: np.where(x[..., :1] > 0.0, math.nan,
                                                          good.potential_grad(x)))
    rep = check_potential_compatibility(
        PotentialGame((nan_map,), good.potential, good.potential_grad), samples=50)
    assert math.isnan(rep.max_defect) and not rep.passed


def test_a_gradient_that_ignores_the_batch_is_refused():
    # one point's gradient where the check passes a batch of 50 points: numpy
    # would broadcast it over the batch and compare 50 copies of one point
    good = quadratic_game(np.ones(2), np.zeros(2))
    flat = AgentMap(good.potential, lambda x: good.potential_grad(np.zeros(2)))
    with pytest.raises(ValueError, match=r"agent 0 returned shape \(2,\) for points "
                                         r"of shape \(50, 2\)"):
        check_potential_compatibility(
            PotentialGame((flat,), good.potential, good.potential_grad), samples=50)
    with pytest.raises(ValueError, match=r"the potential returned shape \(50, 1\)"):
        check_potential_compatibility(
            PotentialGame(good.maps, good.potential, lambda x: x[:, :1]), samples=50)


@pytest.mark.parametrize("samples", [0, -1, 1.5, True])
def test_compatibility_refuses_samples_that_are_not_a_positive_integer(samples):
    # zero samples would read PASS on no evidence
    with pytest.raises(ValueError, match="samples"):
        check_potential_compatibility(three_agent_game(), samples=samples)


def test_compatibility_refuses_more_samples_than_its_bound():
    # 10**12 samples of the three-agent game would be a (1e12, 6) array of points
    bound = seekers.MAX_COMPATIBILITY_SAMPLES
    for samples in (10**12, bound + 1):
        with pytest.raises(ValueError, match="MAX_COMPATIBILITY_SAMPLES"):
            check_potential_compatibility(three_agent_game(), samples=samples)
    assert check_potential_compatibility(quadratic_game(np.ones(2), np.zeros(2)),
                                         samples=bound).passed


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_game_checks_refuse_a_tolerance_that_is_not_finite_and_positive(tol):
    # an infinite tolerance would pass every game, a zero or nan one fail every game
    with pytest.raises(ValueError, match="tolerance"):
        check_potential_compatibility(three_agent_game(), samples=10, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        check_maximizer_stationarity(three_agent_game(), tol=tol)


@pytest.mark.parametrize("maximizer", [[1.0, 2.0], np.zeros(7), np.zeros((3, 2))],
                         ids=["short", "long", "matrix"])
def test_a_maximizer_that_is_not_one_point_of_the_game_is_refused(maximizer):
    g = three_agent_game()
    with pytest.raises(ValueError, match="maximizer"):
        PotentialGame(g.maps, g.potential, g.potential_grad, maximizer=maximizer)


def test_filter_equilibrium_unit_poles():
    game = three_agent_game()
    params = _params()
    xstar = game.maximizer
    fe = filter_equilibrium(game, params, xstar)
    expected = np.array([-8.0 + math.exp(-2.0), math.sin(2.0) - 10.0, 10.0])
    assert np.allclose(fe, expected, atol=1e-12)


@pytest.mark.parametrize("count", [0, 2, 4])
def test_equilibrium_helpers_refuse_a_parameter_count_other_than_the_agents(count):
    # zip would cut the maps short: two parameter sets gave an (8,) state for 9 states
    game = three_agent_game()
    params = (_params() * 2)[:count]
    message = f"the game has 3 agents, got {count}"
    with pytest.raises(ValueError, match=message):
        filter_equilibrium(game, params, game.maximizer)
    with pytest.raises(ValueError, match=message):
        equilibrium_state(game, params)
    assert equilibrium_state(game, _params()).shape == (9,)


def test_filter_equilibrium_scales_inversely_with_pole():
    game = three_agent_game()
    params = _params()
    doubled = [AgentParams(p.c, p.alpha, 2.0 * p.h, p.a) for p in params]
    x = RNG.uniform(-2, 2, 6)
    assert np.allclose(filter_equilibrium(game, doubled, x),
                       0.5 * filter_equilibrium(game, params, x), atol=1e-12)


def test_bundled_map_gradients_match_finite_differences():
    game = three_agent_game()
    for _ in range(20):
        x = RNG.uniform(-2.5, 2.5, 6)
        for m in game.maps:
            fd = AgentMap(m.fn).gradient(x)  # forced finite differences
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(m.gradient(x) - fd)) / scale < 1e-5


def test_maximizer_stationarity_check():
    rep = check_maximizer_stationarity(three_agent_game(), tol=1e-5)
    assert rep.passed
    shifted = quadratic_game(np.ones(2), np.zeros(2))
    off = PotentialGame(shifted.maps, shifted.potential, shifted.potential_grad,
                        maximizer=np.array([0.5, 0.0]))
    assert not check_maximizer_stationarity(off, tol=1e-5).passed
    with pytest.raises(ValueError, match="maximizer"):
        check_maximizer_stationarity(
            PotentialGame(shifted.maps, shifted.potential))


def test_equilibrium_state_composition():
    game = three_agent_game()
    params = _params()
    z = equilibrium_state(game, params)
    assert z.shape == (9,)
    assert np.allclose(z[:6], game.maximizer)
    assert np.allclose(z[6:], filter_equilibrium(game, params, game.maximizer))
