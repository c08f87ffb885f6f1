"""The probe's direction draw against scipy, its oracle."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from ditherseek import ProbeConfig, VectorField, _qmc, sim, stability_probe


@pytest.mark.parametrize("dim", range(1, _qmc.MAX_DIM + 1))
def test_sobol_points_equal_scipys_bit_for_bit(dim):
    for seed in (0, 7, 2023, 2**40):
        for n in (2, 8, 64, 4096):
            expected = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
            points = _qmc.sobol(n, dim, seed)
            assert points.dtype == expected.dtype and points.shape == expected.shape
            assert np.array_equal(points, expected), (dim, seed, n)


QUANTILE = statistics.NormalDist().inv_cdf  # the probe's quantile step


def _within_8_ulps(u):
    expected = ndtri(u)
    return abs(QUANTILE(u) - expected) <= 8 * math.ulp(expected)


@pytest.mark.parametrize("u", [1e-12, 1.0 - 1e-12, 0.5])
def test_the_quantile_agrees_with_scipys_at_the_clipped_ends_and_the_median(u):
    assert _within_8_ulps(u)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_the_quantile_agrees_with_scipys(u):
    assert _within_8_ulps(u)


def _scipys_directions(count, dim, seed):
    u = np.clip(qmc.Sobol(d=dim, scramble=True, seed=seed).random(count), 1e-12, 1.0 - 1e-12)
    z = ndtri(u)
    dirs = z / np.linalg.norm(z, axis=1, keepdims=True)
    _, first = np.unique(dirs, axis=0, return_index=True)
    return dirs[np.sort(first)]


@pytest.mark.parametrize("dim", [1, 9, 72])
@pytest.mark.parametrize("count", [4, 8, 4096])
@pytest.mark.parametrize("seed", [7, 2023])
def test_probe_directions_match_scipys_draw(dim, count, seed):
    expected = _scipys_directions(count, dim, seed)
    dirs = sim._sphere_directions(count, dim, seed)
    assert dirs.shape == expected.shape
    assert np.abs(dirs - expected).max() <= 1e-15


def test_a_probe_target_past_the_direction_table_is_refused():
    dim = _qmc.MAX_DIM + 1
    with pytest.raises(ValueError, match=f"MAX_DIM = {_qmc.MAX_DIM}"):
        stability_probe(lambda w: VectorField(dim, lambda t, x: -x), np.zeros(dim),
                        ProbeConfig(deltas=[0.1], epsilon=0.5, t_f=1.0), omegas=[10.0])
