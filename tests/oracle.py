"""Per-pair reference for the orientation integral and the Rabi frequency.

The package evaluates both over whole arrays of pairs (`wigner.rot_integrals`,
`coupling.rabi_frequency`).  This is the single-pair form in exact
`Fraction` arithmetic, one 3j product and one square root per call, kept as
the oracle the array code must match bit for bit.
"""

import math
from fractions import Fraction

from chiralsep.coupling import DipoleModel, Enantiomer, LaserSpec, UnknownTransitionError
from chiralsep.rotbasis import RotState
from chiralsep.wigner import three_j_exact


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


def rabi_frequency(final, initial, laser: LaserSpec, dipole: DipoleModel,
                   who: Enantiomer = Enantiomer.L, x: float = 0.0) -> complex:
    """Complex Rabi frequency (GHz) for final <- initial at position x.

    `final` and `initial` are LevelIndex-like objects with .vib and .rot.
    """
    pair = (min(final.vib, initial.vib), max(final.vib, initial.vib))
    if pair != tuple(laser.drives):
        raise UnknownTransitionError(f"laser drives {laser.drives}, not {pair}")
    trans = dipole.get(pair)
    field_triple = laser.helicity_triple()
    total = 0j
    for sp, mu in zip((-1, 0, 1), trans.mu):
        if mu == 0:
            continue
        orient = 0j
        for s, amp in zip((-1, 0, 1), field_triple):
            if amp == 0:
                continue
            orient += amp * rot_integral(final.rot, initial.rot, s, sp)
        total += mu * orient
    sign = -1.0 if (who is Enantiomer.R and trans.chiral_sign_flip) else 1.0
    return sign * laser.peak_rabi * laser.beam(x) * total
