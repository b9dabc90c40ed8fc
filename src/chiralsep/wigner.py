"""Exact Wigner 3j symbols and the rotational three-D-matrix integral.

The 3j symbol is evaluated with the Racah sum using exact big-integer
rationals; the only floating-point operation is the final square root.
Invalid couplings (triangle violation, m1 + m2 + m3 != 0) return 0 by
convention.  Only integer angular momenta are supported.

The orientation integral over three rotation matrices reduces to

    I = (-)^(-K_i + M_i + sigma' - sigma) * sqrt((2J_f+1)(2J_i+1))
        * 3j(J_f, 1, J_i; M_f, -sigma, -M_i)
        * 3j(J_f, 1, J_i; K_f, -sigma', -K_i)

which carries all rotational selection rules of the dipole coupling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rotbasis import RotState


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
    # triangle coefficient
    delta = Fraction(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3), f(j1 + j2 + j3 + 1)
    )
    pref = delta * (
        f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )

    kmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    kmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            f(k)
            * f(j1 + j2 - j3 - k)
            * f(j1 - m1 - k)
            * f(j2 + m2 - k)
            * f(j3 - j2 + m1 + k)
            * f(j3 - j1 - m2 + k)
        )
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0, Fraction(0)
    phase = (-1) ** (j1 - j2 - m3)
    sign = phase * (1 if total > 0 else -1)
    return sign, pref * total * total


def rot_integral(final: RotState, initial: RotState, sigma: int, sigma_prime: int) -> float:
    """Orientation factor <J_f K_f M_f| D^1*_{sigma sigma'} |J_i K_i M_i>.

    sigma and sigma_prime are in {-1, 0, 1}.  Nonzero only for
    Delta J in {0, +-1}, M_f = M_i + sigma and K_f = K_i + sigma_prime.
    """
    s1, sq1 = three_j_exact(final.J, 1, initial.J, final.M, -sigma, -initial.M)
    if s1 == 0:
        return 0.0
    s2, sq2 = three_j_exact(final.J, 1, initial.J, final.K, -sigma_prime, -initial.K)
    if s2 == 0:
        return 0.0
    phase = (-1) ** (-initial.K + initial.M + sigma_prime - sigma)
    square = Fraction((2 * final.J + 1) * (2 * initial.J + 1)) * sq1 * sq2
    return phase * s1 * s2 * math.sqrt(square.numerator / square.denominator)
