"""Assembly of the interaction-picture coupling matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralsep.coupling import (
    POLARIZATION_TRIPLES,
    DipoleModel,
    DipoleTransition,
    Enantiomer,
    LaserSpec,
    rabi_frequency,
)
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
from chiralsep.rotbasis import D2S2, BasisTruncation, RotState, enumerate_basis, rot_energy


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


POLARIZATION = st.one_of(
    st.sampled_from(sorted(POLARIZATION_TRIPLES)),
    st.tuples(*[st.sampled_from([0.0, 1.0, -0.5, 1j, 0.3 - 0.4j])] * 3),
)
DIPOLE = st.tuples(*[st.sampled_from([0.0, 1.0, -0.7, 0.5j])] * 3).filter(any)


def brute_force_couplings(lasers, dipole, who, basis, x):
    """(fin, ini, omega, delta) rows of every nonzero pair, or None if a laser couples nothing."""
    rows = []
    for laser in lasers:
        vi, vf = laser.drives
        before = len(rows)
        for f, upper in enumerate(basis):
            for i, lower in enumerate(basis):
                if upper.vib != vf or lower.vib != vi:
                    continue
                w = rabi_frequency(upper, lower, laser, dipole, who, x)
                if w != 0:
                    d = rot_energy(upper.rot, D2S2) - rot_energy(lower.rot, D2S2) - laser.rot_offset
                    rows.append((f, i, w, d))
        if len(rows) == before:
            return None
    return rows


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_assemble_matches_brute_force_pair_enumeration(data):
    jmax = data.draw(st.integers(1, 2), label="jmax")
    trunc = BasisTruncation(jmax)
    pols = data.draw(st.tuples(POLARIZATION, POLARIZATION, POLARIZATION), label="pols")
    offsets = data.draw(st.tuples(*[st.sampled_from([0.0, 0.3, -12.8])] * 3), label="offsets")
    lasers_ = lasers(*pols, offsets=offsets)
    dipole = DipoleModel({pair: DipoleTransition(mu=mu, chiral_sign_flip=flip)
                          for pair, mu, flip in zip(
                              ((1, 2), (2, 3), (1, 3)),
                              data.draw(st.tuples(DIPOLE, DIPOLE, DIPOLE), label="mu"),
                              data.draw(st.tuples(*[st.booleans()] * 3), label="flip"))})
    who = data.draw(st.sampled_from(list(Enantiomer)), label="who")
    x = data.draw(st.sampled_from([0.0, 0.4]), label="x")
    full = product_basis(trunc)
    kind = data.draw(st.sampled_from(["full", "subset", "restricted-loop"]), label="basis")
    if kind == "full":
        basis = full
    elif kind == "subset":
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        basis = data.draw(st.permutations([lvl for lvl, k in zip(full, keep) if k]))
    else:
        rot = data.draw(st.sampled_from(enumerate_basis(trunc)), label="loop rot")
        basis = [LevelIndex(v, rot) for v in (1, 2, 3)]
    expected = brute_force_couplings(lasers_, dipole, who, basis, x)
    if expected is None:
        with pytest.raises(EmptyCouplingError):
            assemble(lasers_, dipole, who, D2S2, trunc, x=x, basis=basis)
        return
    h = assemble(lasers_, dipole, who, D2S2, trunc, x=x, basis=basis)
    fin, ini, omega, delta = zip(*expected)
    assert h.fin.tolist() == list(fin)
    assert h.ini.tolist() == list(ini)
    assert h.omega.tolist() == list(omega)
    assert h.delta.tolist() == list(delta)
