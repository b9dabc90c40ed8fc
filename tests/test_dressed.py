"""Dressed three-level frames and effective gauge potentials."""

import warnings

import numpy as np
import pytest

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
