"""Complex Rabi frequencies between rotational-vibrational product states.

A coupling factorizes as

    Omega_fi = sum_{sigma'} <v_f|mu_{sigma'}|v_i>
               * sum_{sigma} I(f, i, sigma, sigma') * E_sigma(r)

with I the orientation integral from `wigner`.  Chirality enters as a sign
flip of the vibrational matrix element on flagged transitions, so the
orientation integrals are the same for both enantiomers.
I is nonzero only at sigma = M_f - M_i and sigma' = K_f - K_i, so
`rabi_frequency` gathers that one term per pair, for a whole array of pairs
of one laser in one call; every value equals the single-pair sum over
sigma' and sigma bit for bit.

Helicity convention for the field triples (E_{-1}, E_0, E_{+1}):

    z       (0, 1, 0)
    x       (1/sqrt2, 0, -1/sqrt2)
    y       (i/sqrt2, 0, i/sqrt2)
    sigma+  (0, 0, 1)
    sigma-  (1, 0, 0)

These are pinned here and asserted in the test suite; every loop phase in
the package depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

SQRT2 = math.sqrt(2.0)

#: (E_{-1}, E_0, E_{+1}) per named polarization.
POLARIZATION_TRIPLES = {
    "z": (0.0, 1.0, 0.0),
    "x": (1 / SQRT2, 0.0, -1 / SQRT2),
    "y": (1j / SQRT2, 0.0, 1j / SQRT2),
    "sigma+": (0.0, 0.0, 1.0),
    "sigma-": (1.0, 0.0, 0.0),
}


class Enantiomer(Enum):
    L = "L"
    R = "R"


class UnknownTransitionError(KeyError):
    """The laser's vibrational pair is not declared in the dipole model."""


@dataclass(frozen=True)
class GaussianBeam:
    """Transverse envelope exp(-(x - center)^2 / waist^2)."""

    waist: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        # a waist whose square underflows to 0 would divide by zero in __call__
        if not (math.isfinite(self.waist) and self.waist > 0 and self.waist * self.waist > 0):
            raise ValueError(f"waist: must be finite and positive, with a nonzero square, "
                             f"got {self.waist!r}")

    def __call__(self, x: float) -> float:
        x = float(x)  # a numpy float would warn on overflow instead of raising
        try:
            return math.exp(-((x - self.center) ** 2) / self.waist**2)
        except OverflowError:  # a square past the float range: square the ratio
            r = (x - self.center) / self.waist
            return math.exp(-r * r)


@dataclass(frozen=True)
class LaserSpec:
    """One laser driving the vibrational pair `drives` = (v_i, v_f), v_i < v_f.

    `peak_rabi` is the Rabi frequency scale (GHz) at beam center for a unit
    vibrational matrix element, i.e. the field amplitude with the dipole
    magnitude absorbed.  `rot_offset` is the laser frequency minus the bare
    vibrational gap of the driven pair (GHz); storing the offset rather than
    the absolute frequency keeps designated resonances float-exact.
    """

    drives: tuple[int, int]
    polarization: str | tuple = "z"
    peak_rabi: float = 1.0
    beam: GaussianBeam = field(default_factory=GaussianBeam)
    rot_offset: float = 0.0

    def helicity_triple(self) -> tuple[complex, complex, complex]:
        if isinstance(self.polarization, str):
            try:
                return POLARIZATION_TRIPLES[self.polarization]
            except KeyError:
                raise ValueError(f"unknown polarization {self.polarization!r}") from None
        triple = tuple(complex(c) for c in self.polarization)
        if len(triple) != 3:
            raise ValueError("custom polarization must be a helicity triple")
        return triple

    def __post_init__(self):
        vi, vf = self.drives
        if vi >= vf:
            raise ValueError("drives must be an ordered pair (v_i, v_f) with v_i < v_f")
        self.helicity_triple()


@dataclass(frozen=True)
class DipoleTransition:
    """Vibrational dipole matrix elements for one transition pair."""

    #: molecular spherical components (mu_{-1}, mu_0, mu_{+1}), dimensionless
    #: ratios multiplying the laser's peak_rabi scale.
    mu: tuple[complex, complex, complex] = (0.0, 1.0, 0.0)
    #: whether the matrix element changes sign between enantiomers.
    chiral_sign_flip: bool = True

    def __post_init__(self):
        if all(c == 0 for c in self.mu):
            raise ValueError("a declared transition needs a nonzero dipole component")


@dataclass(frozen=True)
class DipoleModel:
    """Dipole components per declared vibrational pair (v_i, v_f)."""

    transitions: dict[tuple[int, int], DipoleTransition]

    @classmethod
    def z_aligned(cls, pairs=((1, 2), (2, 3), (1, 3)), chiral_sign_flip=True):
        """Dipole along the molecular z-axis (mu_{+-1} = 0) on every pair."""
        return cls({p: DipoleTransition(chiral_sign_flip=chiral_sign_flip) for p in pairs})

    def get(self, pair):
        try:
            return self.transitions[pair]
        except KeyError:
            raise UnknownTransitionError(f"no dipole declared for pair {pair}") from None

    def sign(self, pair, who: Enantiomer) -> float:
        """The enantiomer's sign on the pair's couplings: -1 for R on a
        pair flagged `chiral_sign_flip`, else +1."""
        return -1.0 if who is Enantiomer.R and self.get(pair).chiral_sign_flip else 1.0


def _times(c, z: np.ndarray) -> np.ndarray:
    """c * z per entry (c one complex or one per entry) with Python's complex
    product, one rounding per real operation.

    numpy's own complex multiply may fuse the products, which changes the
    last bit when both factors are fully complex.
    """
    c = np.asarray(c, dtype=complex)
    out = np.empty(len(z), dtype=complex)
    out.real = c.real * z.real - c.imag * z.imag
    out.imag = c.real * z.imag + c.imag * z.real
    return out


def rabi_frequency(final: np.ndarray, initial: np.ndarray, orient: np.ndarray,
                   laser: LaserSpec, dipole: DipoleModel, who: Enantiomer = Enantiomer.L,
                   x: float = 0.0) -> np.ndarray:
    """Complex Rabi frequencies (GHz) of many pairs final <- initial at position x.

    `final` and `initial` are (vib, J, K, M) integer arrays of shape
    (4, pairs) with |M_f - M_i| <= 1 and |K_f - K_i| <= 1 (else ValueError),
    and `orient` is their `wigner.rot_integrals(final[1:], initial[1:])`.
    Every pair must match the laser's driven vibrational pair (either order
    of the matrix element; the value is for absorption f <- i when final vib
    > initial vib).  A pair takes the field at sigma = M_f - M_i and the
    dipole at sigma' = K_f - K_i.  + 0j turns a -0.0 part into 0.0, as the
    single-pair sum from +0 does (a nonzero part ignores a zero's sign).
    """
    final, initial = np.asarray(final), np.asarray(initial)
    pair = tuple(laser.drives)
    lo, hi = np.minimum(final[0], initial[0]), np.maximum(final[0], initial[0])
    if np.any(lo != pair[0]) or np.any(hi != pair[1]):
        raise UnknownTransitionError(f"laser drives {pair}; some pair couples other levels")
    sigma, sigma_p = final[3] - initial[3], final[2] - initial[2]
    if np.any(np.abs(sigma) > 1) or np.any(np.abs(sigma_p) > 1):
        raise ValueError("some pair changes M or K by more than 1")
    field_at = np.array(laser.helicity_triple(), dtype=complex)[sigma + 1]
    mu_at = np.array(dipole.get(pair).mu, dtype=complex)[sigma_p + 1]
    total = _times(mu_at, _times(field_at, orient)) + 0j
    return _times(dipole.sign(pair, who) * laser.peak_rabi * laser.beam(x), total)
