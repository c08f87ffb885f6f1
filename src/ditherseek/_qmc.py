"""Scrambled Sobol points and the normal quantile, in numpy.

:func:`sobol` equals ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)
.random(n)`` bit for bit: Joe and Kuo's direction numbers, 30 bits, scipy's
linear matrix scramble and digital shift drawn in scipy's order from
``np.random.default_rng(seed)``, and points in Gray-code order. :func:`ndtri`
is Moshier's Cephes ``ndtri``, the algorithm of ``scipy.special.ndtri``, on
the range a Sobol point can take.
"""

from __future__ import annotations

import math
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


# Cephes ndtri's rational approximations in y - 1/2 (|y - 1/2| < 1/2 - exp(-2))
# and in 1/x, x = sqrt(-2 log y) (exp(-32) < y <= exp(-2)); leading
# coefficients 1 of the denominators are implied. Cephes' third approximation,
# for y <= exp(-32), is not needed here: Sobol points are clipped to [1e-12, 1 - 1e-12]
_EXPM2 = 0.13533528323661269189
_EXPM32 = math.exp(-32.0)
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)


def _horner(x: float, coeffs, monic: bool = False) -> float:
    acc = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _ndtri(y: float) -> float:
    upper = y > 1.0 - _EXPM2
    if upper:
        y = 1.0 - y
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0, True))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    x = x - math.log(x) / x - z * _horner(z, _P1) / _horner(z, _Q1, True)
    return x if upper else -x


def ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each entry of ``u``, all in (exp(-32), 1 - exp(-32)).

    Scalar ``math`` per entry: numpy's vectorised ``log`` can differ from the C
    library's in the last bit, and a draw this small gains nothing from it.
    """
    u = np.asarray(u, dtype=float)
    if not ((u > _EXPM32) & (u < 1.0 - _EXPM32)).all():
        raise ValueError(f"ndtri takes probabilities in (exp(-32), 1 - exp(-32)), got {u}")
    return np.array([_ndtri(y) for y in u.ravel().tolist()]).reshape(u.shape)
