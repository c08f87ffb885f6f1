"""Scrambled Sobol points, in numpy.

:func:`sobol` equals ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)
.random(n)`` bit for bit: Joe and Kuo's direction numbers, 30 bits, scipy's
linear matrix scramble and digital shift drawn in scipy's order from
``np.random.default_rng(seed)``, and points in Gray-code order.
``sim._sphere_directions`` maps them through the standard library's normal
quantile, within 7 ulps of scipy's.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

# most dimensions of a draw: the rows of data/sobol_joe_kuo.txt, 3 * seekers.MAX_AGENTS
MAX_DIM = 72

BITS = 30
_MSB_FIRST = 1 << np.arange(BITS - 1, -1, -1, dtype=np.int64)


def _direction_matrix(dim: int) -> np.ndarray:
    """(dim, BITS) direction numbers, column j shifted left by BITS - 1 - j
    (Bratley and Fox's recurrence, ACM TOMS 14, 1988)."""
    text = (resources.files("ditherseek") / "data" / "sobol_joe_kuo.txt").read_text(
        encoding="utf-8")
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    rows = [[1] * BITS]
    for line in lines[1:dim]:
        poly, *row = map(int, line.split())
        s = len(row)  # the polynomial's degree
        # m_j = m_{j-s} ^ (m_{j-s} << s) ^ XOR of (m_{j-k} << k) over the
        # polynomial's inner coefficients a_k = 1, 0 < k < s
        taps = [k for k in range(1, s) if poly >> (s - k) & 1]
        for j in range(s, BITS):
            new = row[j - s] ^ (row[j - s] << s)
            for k in taps:
                new ^= row[j - k] << k
            row.append(new)
        rows.append(row)
    return np.array(rows, dtype=np.int64) * _MSB_FIRST


def sobol(n: int, dim: int, seed: int) -> np.ndarray:
    """The first ``n`` points of a seeded scrambled Sobol sequence in [0, 1)^dim."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"a Sobol draw takes from 1 to MAX_DIM = {MAX_DIM} dimensions, "
                         f"got {dim}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=(dim, BITS), dtype=np.uint32) @ _MSB_FIRST[::-1]
    lower = np.tril(rng.integers(0, 2, size=(dim, BITS, BITS), dtype=np.uint32))
    lower[:, range(BITS), range(BITS)] = 1
    # bit BITS-1-p of a scrambled number is row p of `lower` dot its bits, MSB
    # first: the number is the XOR of the columns of `lower` at its set bits
    columns = _MSB_FIRST @ lower
    bits = (_direction_matrix(dim)[:, :, None] & _MSB_FIRST) != 0
    v = np.bitwise_xor.reduce(np.where(bits, columns[:, None, :], 0), axis=2)
    # point i+1 is point i XOR the column at the lowest zero bit of i
    i = np.arange(n - 1)
    low_zero = np.log2(~i & (i + 1)).astype(int)
    points = np.bitwise_xor.accumulate(np.vstack([shift, v[:, low_zero].T]), axis=0)
    return points * 2.0**-BITS

