"""The probe's direction draw against scipy, its oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from ditherseek import ProbeConfig, VectorField, _qmc, stability_probe


@pytest.mark.parametrize("dim", range(1, _qmc.MAX_DIM + 1))
def test_sobol_points_equal_scipys_bit_for_bit(dim):
    for seed in (0, 7, 2023, 2**40):
        for n in (2, 8, 64, 4096):
            expected = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
            points = _qmc.sobol(n, dim, seed)
            assert points.dtype == expected.dtype and points.shape == expected.shape
            assert np.array_equal(points, expected), (dim, seed, n)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12, exclude_min=True, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_ndtri_agrees_with_scipys(u):
    assert abs(_qmc.ndtri(np.array([u]))[0] - ndtri(u)) <= 4e-15


def test_ndtri_agrees_with_scipys_on_the_clipped_ends_and_the_branch_points():
    u = np.array([1e-12, 1.0 - 1e-12, _qmc._EXPM2, 1.0 - _qmc._EXPM2, 0.5,
                  np.nextafter(_qmc._EXPM2, 1.0), np.nextafter(1.0 - _qmc._EXPM2, 0.0)])
    assert np.abs(_qmc.ndtri(u) - ndtri(u)).max() <= 4e-15


def test_ndtri_refuses_the_far_tail_it_does_not_approximate():
    with pytest.raises(ValueError, match="exp"):
        _qmc.ndtri(np.array([0.5, 1e-15]))


def test_a_probe_target_past_the_direction_table_is_refused():
    dim = _qmc.MAX_DIM + 1
    with pytest.raises(ValueError, match=f"MAX_DIM = {_qmc.MAX_DIM}"):
        stability_probe(lambda w: VectorField(dim, lambda t, x: -x), np.zeros(dim),
                        ProbeConfig(deltas=[0.1], epsilon=0.5, t_f=1.0), omegas=[10.0])
