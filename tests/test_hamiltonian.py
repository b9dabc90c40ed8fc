"""Assembly of the interaction-picture coupling matrix."""

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from chiralsep.coupling import (
    POLARIZATION_TRIPLES,
    DipoleModel,
    DipoleTransition,
    Enantiomer,
    LaserSpec,
)
from chiralsep import hamiltonian
from chiralsep.hamiltonian import (
    BasisNotClosedError,
    CouplingMatrix,
    EmptyCouplingError,
    LevelIndex,
    LevelTable,
    UnsupportedSetupError,
    assemble,
    chirality_permutation,
    chirality_transform,
    is_symmetry,
    mirror_permutation,
    product_table,
)
from chiralsep.rotbasis import D2S2, BasisTruncation, RotState, enumerate_basis, rot_energy
from chiralsep.scenarios import _assemble, builtin_config
import oracle
from oracle import product_basis, rabi_frequency


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



def test_product_table_is_the_product_basis_and_names_its_levels():
    for vibs in ((1, 2, 3), (1, 2)):
        for jmax in range(7):
            levels = product_basis(BasisTruncation(jmax), vibs)
            table = product_table(BasisTruncation(jmax), vibs)
            assert table.qn.dtype == np.int64
            assert table.qn.T.tolist() == [[lvl.vib, lvl.rot.J, lvl.rot.K, lvl.rot.M]
                                           for lvl in levels]
            assert table.names.tolist() == [str(lvl) for lvl in levels]
            none = np.empty(0, dtype=int)
            h = CouplingMatrix(table, none, none, none.astype(complex), none.astype(float))
            assert h.basis == levels


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_table_of_any_levels_names_and_finds_them(data):
    # subsets, shuffles and repeated levels; a repeated level is found at
    # its last position, as a dict over the basis would keep it
    full = product_basis(BasisTruncation(data.draw(st.integers(0, 2), label="jmax")))
    levels = data.draw(st.lists(st.sampled_from(full), min_size=1, max_size=40)
                       | st.permutations(full), label="levels")
    none = np.empty(0, dtype=int)
    h = CouplingMatrix(LevelTable.of(levels), none, none, none.astype(complex), none.astype(float))
    assert h.n == len(levels)
    assert h.levels.names.tolist() == [str(lvl) for lvl in levels]
    assert h.basis == tuple(levels)
    for lvl in full:
        if lvl in levels:
            assert h.index(lvl) == max(k for k, x in enumerate(levels) if x == lvl)
        else:
            with pytest.raises(ValueError, match="not in the basis"):
                h.index(lvl)

def test_assemble_hermitian_and_upward():
    h = assemble(lasers("x", "x", "z"), DM, Enantiomer.L, D2S2, BasisTruncation(2))
    m = h.evaluate(0.4)
    assert np.allclose(m, m.conj().T)
    assert np.all(np.diag(m) == 0)
    for f, i in zip(h.fin, h.ini):
        assert h.basis[f].vib > h.basis[i].vib


def test_assemble_detunings_from_level_energies():
    off = 0.3
    h = assemble(lasers("z", "z", "z", offsets=(off, 0.0, 0.0)),
                 DM, Enantiomer.L, D2S2, BasisTruncation(1))
    for f, i, d in zip(h.fin, h.ini, h.delta):
        f, i = h.basis[f], h.basis[i]
        expected = rot_energy(f.rot, D2S2) - rot_energy(i.rot, D2S2)
        if (i.vib, f.vib) == (1, 2):
            expected -= off
        assert d == pytest.approx(expected, abs=1e-12)


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
        chirality_permutation(("x", "x", "z"), LevelTable.of(basis).lookup)
    # the diagonal transform needs no M-reversed partners
    perm, sign = chirality_permutation(("x", "x", "x"), LevelTable.of(basis).lookup)
    assert list(perm) == [0, 1, 2] and list(sign) == [-1.0, -1.0, -1.0]


@settings(max_examples=60, deadline=None)
@given(pols=st.tuples(*[st.sampled_from(["x", "y", "z", "sigma+"])] * 3), data=st.data())
def test_chirality_permutation_matches_per_level_lookup(pols, data):
    # subsets, shuffles and repeated levels of a jmax <= 2 basis
    full = product_basis(BasisTruncation(data.draw(st.integers(0, 2), label="jmax")))
    basis = data.draw(st.lists(st.sampled_from(full), max_size=60)
                      | st.permutations(full), label="basis")
    try:
        expected = oracle.chirality_permutation(pols, basis)
    except (UnsupportedSetupError, BasisNotClosedError) as exc:
        with pytest.raises(type(exc)):
            chirality_permutation(pols, LevelTable.of(basis).lookup)
        return
    perm, sign = chirality_permutation(pols, LevelTable.of(basis).lookup)
    assert perm.tobytes() == expected[0].tobytes()
    assert sign.tobytes() == expected[1].tobytes()


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
    # R may be built on L's table and L on R's: the enantiomers share edges
    other = Enantiomer.R if who is Enantiomer.L else Enantiomer.L
    like = data.draw(st.sampled_from([None, other]), label="like")
    if like is not None:
        like = assemble(lasers_, dipole, like, D2S2, trunc, x=x, basis=basis)
    h = assemble(lasers_, dipole, who, D2S2, trunc, x=x, basis=basis, like=like)
    fin, ini, omega, delta = zip(*expected)
    assert h.fin.tolist() == list(fin)
    assert h.ini.tolist() == list(ini)
    assert h.omega.tolist() == list(omega)
    assert h.delta.tolist() == list(delta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enantiomers_share_edges_and_differ_by_the_flagged_signs(data):
    # the edge-level fact that lets R follow from L: same edges, same
    # detunings, and omega_R = -omega_L exactly on flagged lasers' edges
    trunc = BasisTruncation(data.draw(st.integers(1, 2), label="jmax"))
    pols = data.draw(st.tuples(POLARIZATION, POLARIZATION, POLARIZATION), label="pols")
    flags = data.draw(st.tuples(*[st.booleans()] * 3), label="flip")
    pairs = ((1, 2), (2, 3), (1, 3))
    dipole = DipoleModel({pair: DipoleTransition(mu=mu, chiral_sign_flip=flip)
                          for pair, mu, flip in zip(
                              pairs, data.draw(st.tuples(DIPOLE, DIPOLE, DIPOLE), label="mu"),
                              flags)})
    x = data.draw(st.sampled_from([0.0, 0.4]), label="x")
    try:
        hl = assemble(lasers(*pols), dipole, Enantiomer.L, D2S2, trunc, x=x)
    except EmptyCouplingError:
        with pytest.raises(EmptyCouplingError):
            assemble(lasers(*pols), dipole, Enantiomer.R, D2S2, trunc, x=x)
        return
    hr = assemble(lasers(*pols), dipole, Enantiomer.R, D2S2, trunc, x=x)
    assert hl.fin.tobytes() == hr.fin.tobytes()
    assert hl.ini.tobytes() == hr.ini.tobytes()
    assert hl.delta.tobytes() == hr.delta.tobytes()
    vib = np.array([lvl.vib for lvl in hl.basis])
    flagged = np.zeros(len(hl.fin), dtype=bool)
    for pair, flip in zip(pairs, flags):
        flagged |= flip & (vib[hl.ini] == pair[0]) & (vib[hl.fin] == pair[1])
    assert hr.omega[~flagged].tobytes() == hl.omega[~flagged].tobytes()
    # exact, and bitwise except where a zero real or imaginary part may
    # carry either sign
    assert np.array_equal(hr.omega[flagged], -hl.omega[flagged])
    # R built on L's table is the independent R to the bit, signed zeros
    # included, so its omega is computed with R's sign and not taken as -omega_L
    on_l = assemble(lasers(*pols), dipole, Enantiomer.R, D2S2, trunc, x=x, like=hl)
    for name in ("fin", "ini", "delta", "omega"):
        assert getattr(on_l, name).tobytes() == getattr(hr, name).tobytes(), name
    assert on_l.lookup is hl.lookup and np.shares_memory(on_l.fin, hl.fin)
    # an edge of `like` that R does not couple is dropped by the `omega != 0` rule
    ground = [hl.index(LevelIndex(v, RotState(0, 0, 0))) for v in (2, 1)]  # a 0-0 3j
    padded = replace(hl, **{name: np.append(getattr(hl, name), value) for name, value in
                            zip(("fin", "ini", "omega", "delta", "orient"),
                                (*ground, 0j, 0.0, 0.0))})
    on_padded = assemble(lasers(*pols), dipole, Enantiomer.R, D2S2, trunc, x=x, like=padded)
    for name in ("fin", "ini", "delta", "omega"):
        assert getattr(on_padded, name).tobytes() == getattr(hr, name).tobytes(), name



@pytest.mark.parametrize("name", ["fig5-T0.5K-xxz-groundres", "fig7-1mK-xxz"])
def test_r_on_l_orientation_factors_is_the_independent_r_to_the_byte(name, monkeypatch):
    # R built on L's table takes L's orientation factors, evaluates no 3j
    # table, and is the independently assembled R to the byte, signed zeros
    # included (-omega_L is not: it has other signed zeros)
    config = builtin_config(name)
    hl, hr = _assemble(config, Enantiomer.L), _assemble(config, Enantiomer.R)
    # a table without orientation factors is no `like`: R is built in full
    bare = _assemble(config, Enantiomer.R, replace(hl, orient=None))
    assert bare.levels is not hl.levels and bare.omega.tobytes() == hr.omega.tobytes()
    monkeypatch.setattr(hamiltonian, "rot_integrals", None)  # a call raises TypeError
    on_l = _assemble(config, Enantiomer.R, hl)
    assert on_l.levels is hl.levels
    for field in ("fin", "ini", "omega", "delta", "orient"):
        assert getattr(on_l, field).tobytes() == getattr(hr, field).tobytes(), field
    assert (-hl.omega).tobytes() != hr.omega.tobytes()

def test_two_lasers_on_one_pair_are_assembled_in_full_even_with_like():
    # like's edges of one pair would mix both lasers' edges
    two = [LaserSpec(drives=(1, 2), polarization="x"),
           LaserSpec(drives=(1, 2), polarization="x", peak_rabi=0.5)]
    args = DM, Enantiomer.R, D2S2, BasisTruncation(1)
    hl = assemble(two, DM, Enantiomer.L, D2S2, BasisTruncation(1))
    hr, on_l = assemble(two, *args), assemble(two, *args, like=hl)
    assert len(hr.fin) > len(set(zip(hr.fin.tolist(), hr.ini.tolist())))  # repeated edges
    for name in ("fin", "ini", "delta", "omega"):
        assert getattr(on_l, name).tobytes() == getattr(hr, name).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(pols=st.tuples(*[st.sampled_from(["x", "z"]) | POLARIZATION] * 3),
       mus=st.tuples(*[st.just((0.0, 1.0, 0.0)) | DIPOLE] * 3),
       offsets=st.tuples(*[st.sampled_from([0.0, 0.3, -12.8])] * 3),
       jmax=st.integers(1, 2), bump=st.none() | st.integers(0, 10**6))
# the fig5 setup keeps the (K, M) reversal; a sigma+ laser or a K-odd
# dipole component breaks it
@example(pols=("x", "x", "z"), mus=((0.0, 1.0, 0.0),) * 3, offsets=(0.0, 0.0, 0.0), jmax=2,
         bump=None)
@example(pols=("x", "x", "sigma+"), mus=((0.0, 1.0, 0.0),) * 3, offsets=(0.0, 0.0, 0.0),
         jmax=2, bump=None)
@example(pols=("x", "x", "z"), mus=((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.5j)),
         offsets=(0.0, 0.0, 0.0), jmax=2, bump=None)
def test_mirror_row_check_agrees_with_the_dense_conjugation(pols, mus, offsets, jmax, bump):
    # which polarization mixes and dipoles keep the symmetry is left to the
    # draw, which leans to x, z and the z-aligned dipole so that both outcomes
    # occur.  The same check certifies the chirality map T: H_L onto H_R
    dipole = DipoleModel({pair: DipoleTransition(mu=mu)
                          for pair, mu in zip(((1, 2), (2, 3), (1, 3)), mus)})
    try:
        h, hr = (assemble(lasers(*pols, offsets=offsets), dipole, who, D2S2,
                          BasisTruncation(jmax)) for who in (Enantiomer.L, Enantiomer.R))
    except EmptyCouplingError:
        return
    perm, sign = mirror_permutation(h.lookup)  # the full basis holds every image
    if bump is not None:  # one coupling moved by a relative 2**-40
        omega = h.omega.copy()
        omega[bump % len(omega)] *= 1 + 2.0**-40
        h = replace(h, omega=omega)
    certified = is_symmetry(h, perm, sign)
    event("symmetric" if certified else "not symmetric")
    assert certified == oracle.is_symmetry(h, perm, sign)
    try:
        transform = chirality_permutation(pols, h.lookup)
    except UnsupportedSetupError:
        event("no catalogued T")
        return
    certified = is_symmetry(h, *transform, hr)
    event("T maps L onto R" if certified else "T does not map L onto R")
    assert certified == oracle.is_symmetry(h, *transform, hr)


def test_mirror_needs_every_image_in_the_basis():
    full = product_basis(BasisTruncation(1))
    perm, sign = mirror_permutation(LevelTable.of(full).lookup)
    assert np.array_equal(perm[perm], np.arange(len(full)))
    assert all(full[perm[k]].rot == RotState(lvl.rot.J, -lvl.rot.K, -lvl.rot.M)
               and sign[k] == (-1.0) ** lvl.rot.M for k, lvl in enumerate(full))
    assert mirror_permutation(LevelTable.of([LevelIndex(1, RotState(1, 1, 0))]).lookup) is None
    assert mirror_permutation(LevelTable.of([LevelIndex(1, RotState(0, 0, 0))] * 2).lookup) is None
