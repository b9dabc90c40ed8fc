"""Dressed three-level frames and effective gauge potentials."""

import warnings

import numpy as np
import pytest

import oracle
from chiralsep.coupling import Enantiomer, GaussianBeam, LaserSpec
from chiralsep.dressed import (
    DegenerateFrameWarning,
    DiscontinuousFrameError,
    FieldConfiguration,
    dress,
    dress_field,
    loop_matrix,
    scalar_potential,
    vector_potential,
)


def three_beams(centers=(-0.5, 0.5, 0.0)):
    return [
        LaserSpec(drives=(1, 2), peak_rabi=1.0, beam=GaussianBeam(1.0, centers[0])),
        LaserSpec(drives=(2, 3), peak_rabi=1.0, beam=GaussianBeam(1.0, centers[1])),
        LaserSpec(drives=(1, 3), peak_rabi=1.0, beam=GaussianBeam(1.0, centers[2])),
    ]


def test_loop_matrix_layout():
    m = loop_matrix(1 + 1j, 2.0, 3j)
    assert m[1, 0] == 1 + 1j and m[0, 1] == 1 - 1j
    assert m[2, 1] == 2.0 and m[2, 0] == 3j and m[0, 2] == -3j
    assert np.all(np.diag(m) == 0)


def test_loop_matrix_and_dress_have_their_entries_type():
    real = loop_matrix(np.array([1.0, -0.5]), 2.0, 3)
    assert real.dtype == np.float64 and real.shape == (2, 3, 3)
    assert np.array_equal(real, real.transpose(0, 2, 1))
    assert loop_matrix(1.0, 2.0, 3.0 + 0j).dtype == np.complex128
    assert loop_matrix(np.array([1.0, 0.5j]), 2.0, 3.0).dtype == np.complex128
    # real peaks take the real eigensolver; FieldConfiguration's omegas stay complex
    assert dress((1.0, 0.7, 0.3))[1].dtype == np.float64
    assert dress(np.array([1.0, 0.7, 0.3], dtype=complex))[1].dtype == np.complex128
    cfg = FieldConfiguration.from_lasers(three_beams(), np.linspace(-1, 1, 5))
    assert cfg.omegas.dtype == np.complex128 and dress_field(cfg).eigenvectors.dtype == complex


def test_dress_equal_couplings():
    w = 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFrameWarning)
        vals, vecs = dress((w, w, w))
    assert np.allclose(vals, [-w, -w, 2 * w], atol=1e-14)
    # columns normalized, gauge-fixed: largest component real positive
    for n in range(3):
        assert np.linalg.norm(vecs[:, n]) == pytest.approx(1.0, abs=1e-14)
        k = np.argmax(np.abs(vecs[:, n]))
        assert vecs[k, n].imag == pytest.approx(0.0, abs=1e-14)
        assert vecs[k, n].real > 0


def test_dress_warns_on_degeneracy():
    with pytest.warns(DegenerateFrameWarning):
        dress((1.0, 1.0, 1.0))
    with pytest.warns(DegenerateFrameWarning):
        dress((0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dress((1.0, 0.7, 0.3))  # generic: no warning


def test_dress_field_matches_pointwise_dress():
    grid = np.linspace(-2, 2, 41)
    cfg = FieldConfiguration.from_lasers(three_beams(), grid)
    frame = dress_field(cfg)
    k = 13
    vals, _ = dress(cfg.omegas[k])
    assert np.allclose(frame.eigenvalues[k], vals, atol=1e-14)
    # frame diagonalizes the local loop matrix
    h = loop_matrix(*cfg.omegas[k])
    for n in range(3):
        chi = frame.eigenvectors[k][:, n]
        assert np.linalg.norm(h @ chi - vals[n] * chi) < 1e-13


def test_enantiomer_sign_in_field_configuration():
    grid = np.linspace(-1, 1, 11)
    cl = FieldConfiguration.from_lasers(three_beams(), grid, who=Enantiomer.L)
    cr = FieldConfiguration.from_lasers(three_beams(), grid, who=Enantiomer.R)
    assert np.array_equal(cr.omegas, -cl.omegas)


def test_scalar_potential_sum_rule_with_trap():
    grid = np.linspace(-2, 2, 101)
    frame = dress_field(FieldConfiguration.from_lasers(three_beams(), grid))
    trap = lambda x: 0.25 * x**2
    total = sum(scalar_potential(frame, n, trap=trap) for n in range(3))
    assert np.max(np.abs(total - 3 * trap(grid))) < 1e-12


def test_vector_potential_vanishes_for_real_fields():
    grid = np.linspace(-2, 2, 201)
    frame = dress_field(FieldConfiguration.from_lasers(three_beams(), grid))
    for n in range(3):
        assert np.max(np.abs(vector_potential(frame, n))) < 1e-12


def test_vector_potential_nonzero_for_phase_gradients():
    grid = np.linspace(-2, 2, 201)
    profiles = [lambda x: 0.3 * np.sin(1.7 * x), lambda x: 0.0, lambda x: 0.0]
    frame = dress_field(FieldConfiguration.from_lasers(
        three_beams(), grid, phase_profiles=profiles))
    assert max(np.max(np.abs(vector_potential(frame, n))) for n in range(3)) > 1e-2


def test_vector_potential_rejects_coarse_grids():
    grid = np.linspace(-2, 2, 9)
    frame = dress_field(FieldConfiguration.from_lasers(three_beams(), grid))
    with pytest.raises(DiscontinuousFrameError):
        vector_potential(frame, 0)


def bits(a):
    return np.asarray(a).view(np.int64)


def test_stacked_dress_is_the_per_point_dress_bit_for_bit():
    rng = np.random.default_rng(3)
    omegas = rng.normal(size=(2, 60, 3)) + 1j * rng.normal(size=(2, 60, 3))
    omegas[0, ::5] = omegas[0, ::5].real          # real couplings
    omegas[1, 7] = 0                              # no field: H = 0
    omegas[1, 9] = (0.7, 0.7, 0.7)                # a degenerate pair
    omegas[1, 11] = (0.0, 0.4j, 0.0)              # a decoupled level
    with pytest.warns(DegenerateFrameWarning):
        vals, vecs = dress(omegas)
    assert vals.shape == (2, 60, 3) and vecs.shape == (2, 60, 3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFrameWarning)
        for k in np.ndindex(omegas.shape[:2]):
            ref_vals, ref_vecs = oracle.dress(omegas[k])
            assert np.array_equal(bits(vals[k]), bits(ref_vals)), k
            assert np.array_equal(bits(vecs[k]), bits(ref_vecs)), k
            one_vals, one_vecs = dress(omegas[k])
            assert np.array_equal(bits(one_vals), bits(ref_vals)), k
            assert np.array_equal(bits(one_vecs), bits(ref_vecs)), k


@pytest.mark.parametrize("profiles", [None, [lambda x: 0.3 * np.sin(1.7 * x),
                                             lambda x: 0.0, lambda x: -0.2 * x]])
def test_dress_field_is_the_per_point_gauge_bit_for_bit(profiles):
    cfg = FieldConfiguration.from_lasers(three_beams(), np.linspace(-2, 2, 401),
                                         phase_profiles=profiles)
    frame = dress_field(cfg)
    vals, vecs = oracle.dress_field(cfg)
    assert np.array_equal(bits(frame.eigenvalues), bits(vals))
    assert np.array_equal(bits(frame.eigenvectors), bits(vecs))


def test_dress_field_aligns_a_zero_anchor_with_the_previous_point():
    # the midpoint couples all three levels; the last point couples only
    # 1-2, so branches 0 and 2 there have no component 3, the anchor of
    # some branch at the midpoint
    omegas = np.array([(0.3, 0.5, 0.7), (0.35, 0.45, 0.7j), (0.3, 0.5, 0.7),
                       (0.5, 0.1, 0.05), (1j, 0.0, 0.0)])
    cfg = FieldConfiguration(grid=np.linspace(0, 1, 5), omegas=omegas)
    frame = dress_field(cfg)
    vals, vecs = oracle.dress_field(cfg)
    assert np.array_equal(bits(frame.eigenvectors), bits(vecs))
    anchors = np.argmax(np.abs(vecs[2]), axis=0)
    zero = [n for n in range(3) if vecs[4, anchors[n], n] == 0]
    assert zero  # the fallback ran
    for n in zero:  # and aligned the branch with the previous point
        ov = np.vdot(vecs[3, :, n], vecs[4, :, n])
        assert abs(ov.imag) < 1e-15 and ov.real > 0
