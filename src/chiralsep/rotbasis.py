"""Symmetric-top rotational basis |J K M>, energies and thermal states.

The rotational energy is the prolate symmetric-top expression
E(J, K)/h = C*J*(J+1) + (A - C)*K**2 in GHz, independent of M; B enters
no energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import kelvin_to_ghz


class TruncationError(ValueError):
    """Thermal population at the J cutoff exceeds the requested threshold."""


@dataclass(frozen=True, order=True)
class RotState:
    """One |J K M> symmetric-top label."""

    J: int
    K: int
    M: int

    def __post_init__(self):
        if self.J < 0 or abs(self.K) > self.J or abs(self.M) > self.J:
            raise ValueError(f"invalid |J K M> = |{self.J} {self.K} {self.M}>")

    def __str__(self):
        return f"|{self.J} {self.K} {self.M}>"


@dataclass(frozen=True)
class RotorConstants:
    """Rotational constants in GHz, prolate ordering A >= B >= C > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a >= self.b >= self.c > 0):
            raise ValueError("rotational constants must satisfy A >= B >= C > 0")


#: D2S2 constants used throughout the default scenarios.
D2S2 = RotorConstants(a=76.15, b=6.401, c=6.399)


#: the largest jmax a basis may take: 296,310 levels over three vibrational
#: states, at ~0.84 kB a level in assembly (the size grows as jmax**3)
JMAX_CEILING = 41


@dataclass(frozen=True)
class BasisTruncation:
    """Keep all |J K M> with J <= jmax."""

    jmax: int

    def __post_init__(self):
        if self.jmax < 0:
            raise ValueError("jmax must be non-negative")
        if self.jmax > JMAX_CEILING:
            raise ValueError(f"jmax must be at most {JMAX_CEILING}, got {self.jmax}")

    @property
    def size(self):
        j = self.jmax
        return (j + 1) * (2 * j + 1) * (2 * j + 3) // 3


def rot_energy(state: RotState, constants: RotorConstants) -> float:
    """Rotational energy in GHz; M-independent."""
    return constants.c * state.J * (state.J + 1) + (constants.a - constants.c) * state.K**2


def enumerate_basis(trunc: BasisTruncation) -> list[RotState]:
    """All |J K M> with J <= jmax, ascending in (J, K, M)."""
    states = [
        RotState(J, K, M)
        for J in range(trunc.jmax + 1)
        for K in range(-J, J + 1)
        for M in range(-J, J + 1)
    ]
    assert len(states) == trunc.size
    return states


def thermal_rot_state(
    temperature: float,
    constants: RotorConstants,
    trunc: BasisTruncation,
    cutoff_mass: float = 1e-6,
) -> dict[RotState, float]:
    """Boltzmann-weighted diagonal rotational state over the truncated basis.

    Returns a mapping state -> probability (normalized to 1).  T = 0 is an
    exact branch putting all weight on |0 0 0>.  Raises TruncationError if
    the normalized population at J = jmax exceeds `cutoff_mass`.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    basis = enumerate_basis(trunc)
    if temperature == 0:
        return {s: (1.0 if s.J == 0 else 0.0) for s in basis}
    kt = kelvin_to_ghz(temperature)
    weights = [math.exp(-rot_energy(s, constants) / kt) for s in basis]
    z = sum(weights)
    probs = {s: w / z for s, w in zip(basis, weights)}
    edge_mass = sum(p for s, p in probs.items() if s.J == trunc.jmax)
    if edge_mass > cutoff_mass:
        raise TruncationError(
            f"population {edge_mass:.3e} at J = {trunc.jmax} exceeds the cutoff mass "
            f"{cutoff_mass:.1e}"
        )
    return probs
