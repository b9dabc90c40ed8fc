"""Complex Rabi frequencies between rotational-vibrational product states.

A coupling factorizes as

    Omega_fi = sum_{sigma'} <v_f|mu_{sigma'}|v_i>
               * sum_{sigma} I(f, i, sigma, sigma') * E_sigma(r)

with I the orientation integral from `wigner`.  Chirality enters as a sign
flip of the vibrational matrix element on flagged transitions.

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

from .wigner import RotIntegralArgs, rot_integral

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

    def __call__(self, x: float) -> float:
        return math.exp(-((x - self.center) ** 2) / self.waist**2)


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


def rabi_frequency(final, initial, laser: LaserSpec, dipole: DipoleModel,
                   who: Enantiomer = Enantiomer.L, x: float = 0.0) -> complex:
    """Complex Rabi frequency (GHz) for final <- initial at position x.

    `final` and `initial` are LevelIndex-like objects with .vib and .rot.
    The pair must match the laser's driven vibrational pair (either order of
    the matrix element; the returned value is for absorption f <- i when
    final.vib > initial.vib).
    """
    pair = (min(final.vib, initial.vib), max(final.vib, initial.vib))
    if pair != tuple(laser.drives):
        raise UnknownTransitionError(
            f"laser drives {laser.drives}, not {pair}"
        )
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
            orient += amp * rot_integral(
                RotIntegralArgs(final.rot, initial.rot, s, sp)
            )
        total += mu * orient
    sign = -1.0 if (who is Enantiomer.R and trans.chiral_sign_flip) else 1.0
    return sign * laser.peak_rabi * laser.beam(x) * total

