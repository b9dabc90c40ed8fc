"""Rotational basis, symmetric-top energies and thermal states."""

import math

import pytest

from chiralsep.rotbasis import (
    D2S2,
    BasisTruncation,
    RotorConstants,
    RotState,
    TruncationError,
    enumerate_basis,
    rot_energy,
    thermal_rot_state,
)
from chiralsep.units import kelvin_to_ghz


def test_rot_state_validation():
    RotState(2, -2, 1)
    with pytest.raises(ValueError):
        RotState(1, 2, 0)
    with pytest.raises(ValueError):
        RotState(1, 0, -2)
    with pytest.raises(ValueError):
        RotState(-1, 0, 0)


def test_constants_ordering_enforced():
    with pytest.raises(ValueError):
        RotorConstants(a=1.0, b=2.0, c=0.5)
    with pytest.raises(ValueError):
        RotorConstants(a=3.0, b=2.0, c=0.0)


def test_rot_energy_values():
    assert rot_energy(RotState(0, 0, 0), D2S2) == 0.0
    assert rot_energy(RotState(1, 1, 1), D2S2) == pytest.approx(82.549, abs=1e-12)
    # M-independence
    assert rot_energy(RotState(2, 1, -2), D2S2) == rot_energy(RotState(2, 1, 0), D2S2)
    # K enters quadratically through A - C
    e = rot_energy(RotState(2, 2, 0), D2S2)
    assert e == pytest.approx(D2S2.c * 6 + (D2S2.a - D2S2.c) * 4, abs=1e-12)


def test_basis_enumeration_size_and_order():
    for jmax in range(5):
        trunc = BasisTruncation(jmax)
        basis = enumerate_basis(trunc)
        assert len(basis) == trunc.size
        assert basis == sorted(basis)
    assert BasisTruncation(0).size == 1
    assert BasisTruncation(1).size == 1 + 9
    with pytest.raises(ValueError):
        BasisTruncation(-1)


def test_thermal_state_zero_temperature():
    probs = thermal_rot_state(0.0, D2S2, BasisTruncation(2))
    assert probs[RotState(0, 0, 0)] == 1.0
    assert sum(probs.values()) == 1.0


def test_thermal_state_boltzmann_ratios():
    t = 0.3
    probs = thermal_rot_state(t, D2S2, BasisTruncation(6))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    kt = kelvin_to_ghz(t)
    a, b = RotState(1, 0, 0), RotState(2, 1, 1)
    expected = math.exp(-(rot_energy(b, D2S2) - rot_energy(a, D2S2)) / kt)
    assert probs[b] / probs[a] == pytest.approx(expected, rel=1e-12)


def test_thermal_state_truncation_guard():
    with pytest.raises(TruncationError):
        thermal_rot_state(0.5, D2S2, BasisTruncation(4), cutoff_mass=1e-6)
    probs = thermal_rot_state(0.5, D2S2, BasisTruncation(5), cutoff_mass=1e-6)
    edge = sum(p for s, p in probs.items() if s.J == 5)
    assert edge < 1e-6


def test_thermal_state_rejects_negative_temperature():
    with pytest.raises(ValueError):
        thermal_rot_state(-1.0, D2S2, BasisTruncation(1))
