"""Uniform-grid composite Simpson rules shared by the quadrature paths.

Kept deliberately separate from any closed-form evaluation so that
quadrature results can serve as an independent cross-check.
"""

from __future__ import annotations

import numpy as np


def even_intervals(n: int, minimum: int = 2) -> int:
    """Round an interval count up to the next even integer, at least `minimum`."""
    n = max(int(n), minimum)
    return n if n % 2 == 0 else n + 1


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on uniformly spaced samples (odd point count)."""
    y = np.asarray(y, dtype=float)
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError("simpson_uniform needs an odd number of points >= 3")
    s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
    return float(h / 3.0 * s)


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral at every node of a uniform grid (odd point count).

    Each panel of two intervals is integrated with the quadratic through its
    three nodes; the midpoint value uses the half-panel rule
    h/12 * (5*y0 + 8*y1 - y2).
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError("cumulative_simpson needs an odd number of points >= 3")
    y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
    half = h / 12.0 * (5.0 * y0 + 8.0 * y1 - y2)
    full = h / 3.0 * (y0 + 4.0 * y1 + y2)
    out = np.empty_like(y)
    out[0] = 0.0
    starts = np.concatenate(([0.0], np.cumsum(full)))
    out[1::2] = starts[:-1] + half
    out[2::2] = starts[1:]
    return out


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x). Requires finite positive data."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("slope fit needs at least two points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("slope fit needs finite data")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("slope fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
