"""Rabi frequencies, polarization triples and the dipole model."""

import math

import numpy as np
import pytest

from chiralsep.coupling import (
    POLARIZATION_TRIPLES,
    DipoleModel,
    DipoleTransition,
    Enantiomer,
    GaussianBeam,
    LaserSpec,
    UnknownTransitionError,
    rabi_frequency,
)
from chiralsep.hamiltonian import LevelIndex, assemble
from chiralsep.rotbasis import D2S2, BasisTruncation, RotState
from chiralsep.wigner import rot_integrals
from oracle import product_basis

S2 = math.sqrt(2.0)


def quantum_numbers(lvl):
    """(vib, J, K, M) of one level as a one-pair column."""
    return np.array([[lvl.vib, lvl.rot.J, lvl.rot.K, lvl.rot.M]]).T


def rabi(final, initial, laser, dm, **kw):
    """rabi_frequency of the single pair final <- initial."""
    f, i = quantum_numbers(final), quantum_numbers(initial)
    (w,) = rabi_frequency(f, i, rot_integrals(f[1:], i[1:]), laser, dm, **kw)
    return complex(w)


def test_helicity_triples_pinned():
    # the loop phases of the whole package hang on these conventions
    assert POLARIZATION_TRIPLES["z"] == (0.0, 1.0, 0.0)
    assert POLARIZATION_TRIPLES["x"] == (1 / S2, 0.0, -1 / S2)
    assert POLARIZATION_TRIPLES["y"] == (1j / S2, 0.0, 1j / S2)
    assert POLARIZATION_TRIPLES["sigma+"] == (0.0, 0.0, 1.0)
    assert POLARIZATION_TRIPLES["sigma-"] == (1.0, 0.0, 0.0)


def test_laser_spec_validation():
    with pytest.raises(ValueError):
        LaserSpec(drives=(2, 1))
    with pytest.raises(ValueError):
        LaserSpec(drives=(1, 2), polarization="circular")
    custom = LaserSpec(drives=(1, 2), polarization=(0.5, 0.0, 0.5j))
    assert custom.helicity_triple() == (0.5 + 0j, 0j, 0.5j)


def test_gaussian_beam_envelope():
    beam = GaussianBeam(waist=2.0, center=1.0)
    assert beam(1.0) == 1.0
    assert beam(3.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gaussian_beam_past_the_float_range():
    # squares beyond the float range: the ratio is squared instead
    assert GaussianBeam(waist=1e200)(0.0) == 1.0
    assert GaussianBeam(waist=1.0, center=1e200)(0.0) == 0.0
    assert GaussianBeam(waist=1e200, center=1e200)(0.0) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ValueError, match="waist"):
        GaussianBeam(waist=1e-320)  # its square is 0


def test_dipole_model_lookup():
    dm = DipoleModel.z_aligned()
    assert dm.get((1, 2)).mu == (0.0, 1.0, 0.0)
    with pytest.raises(UnknownTransitionError):
        dm.get((1, 4))
    with pytest.raises(ValueError):
        DipoleTransition(mu=(0.0, 0.0, 0.0))


def test_rabi_frequency_reference_value():
    laser = LaserSpec(drives=(1, 2), polarization="x", peak_rabi=1.0)
    dm = DipoleModel.z_aligned()
    f = LevelIndex(2, RotState(1, 1, 1))
    i = LevelIndex(1, RotState(1, 1, 0))
    w = rabi(f, i, laser, dm)
    assert w == pytest.approx(S2 / 4, abs=1e-15)


def test_rabi_frequency_enantiomer_sign_flip():
    laser = LaserSpec(drives=(1, 2), polarization="z", peak_rabi=0.7)
    dm = DipoleModel.z_aligned()
    f = LevelIndex(2, RotState(1, 1, 1))
    i = LevelIndex(1, RotState(1, 1, 1))
    wl = rabi(f, i, laser, dm, who=Enantiomer.L)
    wr = rabi(f, i, laser, dm, who=Enantiomer.R)
    assert wl == pytest.approx(0.7 * 0.5, abs=1e-15)
    assert wr == -wl


def test_rabi_frequency_no_flip_when_unflagged():
    laser = LaserSpec(drives=(1, 2), polarization="z")
    dm = DipoleModel.z_aligned(chiral_sign_flip=False)
    f = LevelIndex(2, RotState(1, 1, 1))
    i = LevelIndex(1, RotState(1, 1, 1))
    assert rabi(f, i, laser, dm, who=Enantiomer.R) == rabi(
        f, i, laser, dm, who=Enantiomer.L
    )


def test_rabi_frequency_beam_envelope_scaling():
    beam = GaussianBeam(waist=1.0, center=0.0)
    laser = LaserSpec(drives=(1, 2), polarization="z", peak_rabi=1.0, beam=beam)
    dm = DipoleModel.z_aligned()
    f = LevelIndex(2, RotState(1, 1, 1))
    i = LevelIndex(1, RotState(1, 1, 1))
    w0 = rabi(f, i, laser, dm, x=0.0)
    w1 = rabi(f, i, laser, dm, x=1.0)
    assert w1 == pytest.approx(w0 * math.exp(-1.0), rel=1e-14)


def test_rabi_frequency_rejects_wrong_pair():
    laser = LaserSpec(drives=(1, 2))
    dm = DipoleModel.z_aligned()
    with pytest.raises(UnknownTransitionError):
        rabi(LevelIndex(3, RotState(0, 0, 0)),
                       LevelIndex(2, RotState(1, 0, 0)), laser, dm)


def test_rabi_frequency_rejects_a_pair_outside_the_helicities():
    # |Delta K| or |Delta M| = 2 has no helicity component to gather
    laser = LaserSpec(drives=(1, 2))
    dm = DipoleModel({(1, 2): DipoleTransition(mu=(1.0, 1.0, 1.0))})
    i = quantum_numbers(LevelIndex(1, RotState(2, 0, 0)))
    for rot in (RotState(2, 2, 0), RotState(2, 0, -2)):
        f = quantum_numbers(LevelIndex(2, rot))
        with pytest.raises(ValueError, match="more than 1"):
            rabi_frequency(f, i, np.ones(1), laser, dm)


def driven_pairs(laser, dm, basis):
    """(final, initial) pairs that `assemble` couples with this one laser."""
    h = assemble([laser], dm, Enantiomer.L, D2S2, BasisTruncation(1), basis=basis)
    return [(h.basis[f], h.basis[i]) for f, i in zip(h.fin, h.ini)]


def test_allowed_transitions_z_from_ground():
    # z light, z dipole: only |2>|1 0 0> is reachable from |1>|0 0 0>
    basis = product_basis(BasisTruncation(1), vibs=(1, 2))
    laser = LaserSpec(drives=(1, 2), polarization="z")
    dm = DipoleModel.z_aligned()
    pairs = driven_pairs(laser, dm, basis)
    from_ground = [f for f, i in pairs if i == LevelIndex(1, RotState(0, 0, 0))]
    assert from_ground == [LevelIndex(2, RotState(1, 0, 0))]
    # every reported pair respects Delta M = 0 and Delta K = 0
    for f, i in pairs:
        assert f.rot.M == i.rot.M and f.rot.K == i.rot.K


def test_allowed_transitions_sigma_plus_raises_m():
    basis = product_basis(BasisTruncation(1), vibs=(1, 2))
    laser = LaserSpec(drives=(1, 2), polarization="sigma+")
    dm = DipoleModel.z_aligned()
    for f, i in driven_pairs(laser, dm, basis):
        assert f.rot.M == i.rot.M + 1
