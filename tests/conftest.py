"""Shared fixtures."""

import pytest

from ditherseek import (AgentParams, ProbeConfig, StepPolicy, build_single_integrator,
                        equilibrium_state, stability_probe, three_agent_game)


@pytest.fixture(scope="session")
def zero_gain_probe():
    """The no-feedback (c = 0) single-integrator probe at delta = 1, omega = 50.

    Acceptance criterion 10 and the probe tests both read this one report;
    computing it takes several seconds, so it is computed once per session.
    """
    game = three_agent_game()
    params0 = [AgentParams(0.0, 1.0, 1.0, a) for a in (1, 2, 3)]
    return stability_probe(
        lambda w: build_single_integrator(game, params0, w),
        equilibrium_state(game, params0),
        ProbeConfig(deltas=[1.0], epsilon=0.5, t_f=10.0, boundary_samples=4, horizon=15.0),
        omegas=[50.0], policy=StepPolicy(max_step=0.01, output_stride=10))
