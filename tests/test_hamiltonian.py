"""Assembly of the interaction-picture coupling matrix."""

import numpy as np
import pytest

from chiralsep.coupling import DipoleModel, Enantiomer, LaserSpec
from chiralsep.hamiltonian import (
    BasisNotClosedError,
    EmptyCouplingError,
    LevelIndex,
    UnsupportedSetupError,
    assemble,
    chirality_permutation,
    chirality_transform,
    detuning_formula,
    product_basis,
)
from chiralsep.rotbasis import D2S2, BasisTruncation, RotState, rot_energy


def lasers(p12, p23, p13, offsets=(0.0, 0.0, 0.0)):
    return [
        LaserSpec(drives=(1, 2), polarization=p12, rot_offset=offsets[0]),
        LaserSpec(drives=(2, 3), polarization=p23, rot_offset=offsets[1]),
        LaserSpec(drives=(1, 3), polarization=p13, rot_offset=offsets[2]),
    ]


DM = DipoleModel.z_aligned()


def test_product_basis_order():
    basis = product_basis(BasisTruncation(1))
    assert len(basis) == 3 * 10
    assert basis[0] == LevelIndex(1, RotState(0, 0, 0))
    assert basis[10].vib == 2
    vibs = [lvl.vib for lvl in basis]
    assert vibs == sorted(vibs)


def test_assemble_hermitian_and_upward():
    h = assemble(lasers("x", "x", "z"), DM, Enantiomer.L, D2S2, BasisTruncation(2))
    m = h.evaluate(0.4)
    assert np.allclose(m, m.conj().T)
    assert np.all(np.diag(m) == 0)
    for f, i, _, _ in h.rows():
        assert f.vib > i.vib


def test_assemble_detunings_from_level_energies():
    off = 0.3
    h = assemble(lasers("z", "z", "z", offsets=(off, 0.0, 0.0)),
                 DM, Enantiomer.L, D2S2, BasisTruncation(1))
    for f, i, _, d in h.rows():
        expected = rot_energy(f.rot, D2S2) - rot_energy(i.rot, D2S2)
        if (i.vib, f.vib) == (1, 2):
            expected -= off
        assert d == pytest.approx(expected, abs=1e-12)


def test_detuning_formula_cross_check():
    # closed form uses B where the energies use C; agreement to the B-C split
    h = assemble(lasers("z", "z", "z"), DM, Enantiomer.L, D2S2, BasisTruncation(2))
    for f, i, _, d in h.rows():
        approx = detuning_formula(f.rot, i.rot, D2S2)
        dj = abs(f.rot.J * (f.rot.J + 1) - i.rot.J * (i.rot.J + 1))
        assert abs(d - approx) <= (D2S2.b - D2S2.c) * dj + 1e-12


def test_assemble_empty_coupling_raises():
    # at jmax = 0 no rotational transition is allowed at all
    with pytest.raises(EmptyCouplingError):
        assemble(lasers("z", "z", "z"), DM, Enantiomer.L, D2S2, BasisTruncation(0))


def test_enantiomer_global_sign():
    hl = assemble(lasers("x", "x", "z"), DM, Enantiomer.L, D2S2, BasisTruncation(1))
    hr = assemble(lasers("x", "x", "z"), DM, Enantiomer.R, D2S2, BasisTruncation(1))
    assert np.array_equal(hl.omega, -hr.omega)
    assert np.array_equal(hl.delta, hr.delta)


def test_evaluate_phase_convention():
    h = assemble(lasers("z", "z", "z"), DM, Enantiomer.L, D2S2, BasisTruncation(1))
    t = 0.23
    m0, mt = h.evaluate(0.0), h.evaluate(t)
    k = h.fin[0], h.ini[0]
    assert mt[k] == pytest.approx(m0[k] * np.exp(-2j * np.pi * h.delta[0] * t), abs=1e-15)


@pytest.mark.parametrize("pols", [("z", "z", "z"), ("x", "x", "x"),
                                  ("x", "x", "z"), ("y", "z", "y"),
                                  ("sigma+", "x", "y")])
def test_chirality_transform_intertwines(pols):
    trunc = BasisTruncation(2)
    hl = assemble(lasers(*pols), DM, Enantiomer.L, D2S2, trunc)
    hr = assemble(lasers(*pols), DM, Enantiomer.R, D2S2, trunc)
    t_mat = chirality_transform(pols, hl.basis)
    assert np.allclose(t_mat.T @ t_mat, np.eye(len(hl.basis)), atol=1e-15)
    for t in (0.0, 0.37, 1.9):
        resid = np.linalg.norm(
            t_mat.conj().T @ hl.evaluate(t) @ t_mat - hr.evaluate(t))
        assert resid < 1e-12, (pols, t, resid)


@pytest.mark.parametrize("pols", [("x", "y", "z"), ("z", "sigma+", "z")])
def test_chirality_transform_unsupported_mixes(pols):
    basis = product_basis(BasisTruncation(1))
    with pytest.raises(UnsupportedSetupError):
        chirality_transform(pols, basis)


def test_chirality_transform_needs_m_closure():
    basis = [LevelIndex(v, RotState(1, 1, 1)) for v in (1, 2, 3)]
    with pytest.raises(ValueError):
        chirality_transform(("z", "z", "z"), basis)


def test_m_closure_error_is_typed():
    basis = [LevelIndex(v, RotState(1, 1, 1)) for v in (1, 2, 3)]
    with pytest.raises(BasisNotClosedError):
        chirality_permutation(("x", "x", "z"), basis)
    # the diagonal transform needs no M-reversed partners
    perm, sign = chirality_permutation(("x", "x", "x"), basis)
    assert list(perm) == [0, 1, 2] and list(sign) == [-1.0, -1.0, -1.0]


def test_assemble_restricted_basis():
    basis = [LevelIndex(v, RotState(1, 1, 1)) for v in (1, 2, 3)]
    h = assemble(lasers("z", "z", "z"), DM, Enantiomer.L, D2S2,
                 BasisTruncation(1), basis=basis)
    assert h.n == 3
    assert len(h.fin) == 3  # the closed loop
    assert np.all(h.delta == 0.0)  # same rotational label on every node
