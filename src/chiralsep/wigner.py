"""Exact Wigner 3j symbols and the rotational three-D-matrix integral.

The 3j symbol is evaluated with the Racah sum in exact big-integer
arithmetic (Edmonds, Angular Momentum in Quantum Mechanics, 1957), its
terms summed over one common denominator, and cached per argument tuple.
Invalid couplings (triangle violation, m1 + m2 + m3 != 0) return 0 by
convention.  Only integer angular momenta are supported.

The orientation integral over three rotation matrices reduces to

    I = (-)^(-K_i + M_i + sigma' - sigma) * sqrt((2J_f+1)(2J_i+1))
        * 3j(J_f, 1, J_i; M_f, -sigma, -M_i)
        * 3j(J_f, 1, J_i; K_f, -sigma', -K_i)

which carries all rotational selection rules of the dipole coupling.
`rot_integrals` evaluates it for a whole array of pairs: one cached 3j
lookup per distinct argument tuple, the exact squares combined as integer
numerators and denominators, then one float division and one square root
per pair.  Both integers stay below 2**53, so the division is correctly
rounded and equals the float of the exact rational square.  That holds for
every pair up to J ~ 250; beyond it the products are checked and a pair
that leaves the exact range raises ValueError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: integers below this convert to float64 exactly
EXACT_LIMIT = 2**53


@lru_cache(maxsize=None)
def three_j_exact(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> tuple[int, Fraction]:
    """Exact 3j value as (sign, squared magnitude) with the square a Fraction.

    The symbol equals sign * sqrt(square); both factors are exact.
    """
    if m1 + m2 + m3 != 0:
        return 0, Fraction(0)
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0, Fraction(0)

    f = math.factorial
    # the triangle coefficient times the factorials of j +- m, over (j1 + j2 + j3 + 1)!
    pref = (f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
            * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3))

    # the Racah sum of (-1)^k / den_k as an integer over the common denominator
    ks = range(max(0, j2 - j3 - m1, j1 - j3 + m2), min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1)
    dens = [f(k) * f(j1 + j2 - j3 - k) * f(j1 - m1 - k) * f(j2 + m2 - k)
            * f(j3 - j2 + m1 + k) * f(j3 - j1 - m2 + k) for k in ks]
    common = math.lcm(*dens)
    total = sum(-(common // den) if k % 2 else common // den for k, den in zip(ks, dens))
    if total == 0:
        return 0, Fraction(0)
    phase = (-1) ** (j1 - j2 - m3)
    sign = phase * (1 if total > 0 else -1)
    return sign, Fraction(pref * total * total, f(j1 + j2 + j3 + 1) * common * common)


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for non-negative int64 arrays, refused unless every product is below 2**53."""
    if np.any(a > (EXACT_LIMIT - 1) // np.maximum(b, 1)):
        raise ValueError("3j square exceeds the exact float64 integer range (J too large)")
    return a * b


def _three_j_table(j_f, j_i, x_f, x_i):
    """(sign, numerator, denominator) of 3j(J_f, 1, J_i; x_f, x_i - x_f, -x_i) per entry.

    three_j_exact runs once per distinct argument tuple; the entries find
    their tuple by searchsorted on an integer code of (J_f, J_i, x_f, x_i).
    """
    r = 2 * int(max(j_f.max(), j_i.max())) + 3
    codes = ((j_f * r + j_i) * r + x_f + r // 2) * r + x_i + r // 2
    # distinct codes; plain np.unique takes a hash path that imports numpy.ma (~1 MB)
    keys = np.sort(codes, kind="stable")
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    rows = zip((keys // r**3).tolist(), (keys // r**2 % r).tolist(),
               (keys // r % r - r // 2).tolist(), (keys % r - r // 2).tolist())
    table = [three_j_exact(jf, 1, ji, xf, xi - xf, -xi) for jf, ji, xf, xi in rows]
    num = [square.numerator for _, square in table]
    den = [square.denominator for _, square in table]
    if max(num + den) >= EXACT_LIMIT:
        raise ValueError("3j square exceeds the exact float64 integer range (J too large)")
    sign, num, den = (np.array(a, dtype=np.int64) for a in ([s for s, _ in table], num, den))
    at = np.searchsorted(keys, codes)
    return sign[at], num[at], den[at]


def rot_integrals(final: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Orientation factors <J_f K_f M_f| D^1*_{sigma sigma'} |J_i K_i M_i> of many pairs.

    `final` and `initial` are (J, K, M) integer arrays of shape (3, pairs)
    with |M_f - M_i| <= 1 and |K_f - K_i| <= 1; each pair takes
    sigma = M_f - M_i and sigma' = K_f - K_i, the only helicities for which
    the integral can be nonzero.  Zero 3j symbols give +0.0.
    """
    j_f, k_f, m_f = (np.asarray(a, dtype=np.int64) for a in final)
    j_i, k_i, m_i = (np.asarray(a, dtype=np.int64) for a in initial)
    if len(j_f) == 0:
        return np.zeros(0)
    # the M and K symbols share one table
    sign, num, den = _three_j_table(np.concatenate([j_f, j_f]), np.concatenate([j_i, j_i]),
                                    np.concatenate([m_f, k_f]), np.concatenate([m_i, k_i]))
    p = len(j_f)
    sigma, sigma_p = m_f - m_i, k_f - k_i
    phase = 1 - 2 * ((-k_i + m_i + sigma_p - sigma) % 2)
    square_num = _exact_product(_exact_product((2 * j_f + 1) * (2 * j_i + 1), num[:p]), num[p:])
    square_den = _exact_product(den[:p], den[p:])
    return phase * sign[:p] * sign[p:] * np.sqrt(square_num / square_den)
