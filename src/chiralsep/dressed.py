"""Rotationless three-level dressed states and effective gauge potentials.

For three beams driving the 1-2, 2-3 and 1-3 transitions the resonant
internal Hamiltonian at a transverse position x is the 3x3 zero-diagonal
matrix of local Rabi values.  Diagonalizing it on a grid yields dressed
branches; the scalar potential of branch n is its eigenvalue (plus a trap
expectation) and the vector potential is the Berry connection
i <chi_n | d/dx chi_n>, evaluated by central finite differences.  The grid
is diagonalized as one stack of 3x3 matrices, and the gauge is fixed with
array operations over it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import DipoleModel, Enantiomer, LaserSpec

#: relative eigenvalue gap below which `dress` warns of a degenerate frame
GAP_WARN = 1e-9
#: smallest adjacent-point eigenvector overlap `vector_potential` accepts
MIN_OVERLAP = 0.9


class DegenerateFrameWarning(UserWarning):
    """Eigenvalue gap too small for a reliable gauge fixing."""


class DiscontinuousFrameError(RuntimeError):
    """Adjacent-point eigenvector overlap too small for finite differences."""


def loop_matrix(omega12, omega23, omega13) -> np.ndarray:
    """Resonant 3-level loop Hamiltonian with the given Rabi entries; arrays
    of entries (broadcast together) give a stack of shape (..., 3, 3), in
    their type: float64 and symmetric when all are real."""
    o12, o23, o13 = np.broadcast_arrays(omega12, omega23, omega13)
    h = np.zeros(o12.shape + (3, 3), dtype=np.result_type(float, o12, o23, o13))
    h[..., 1, 0], h[..., 2, 1], h[..., 2, 0] = o12, o23, o13
    h[..., 0, 1], h[..., 1, 2], h[..., 0, 2] = o12.conj(), o23.conj(), o13.conj()
    return h


def dress(omegas):
    """Diagonalize the local 3-level loop Hamiltonian at one or many points.

    `omegas` has shape (..., 3): (omega12, omega23, omega13) per point.
    Returns (eigenvalues ascending, shape (..., 3); eigenvectors as
    columns, shape (..., 3, 3)) from one stacked `eigh`, gauge-fixed so the
    largest-magnitude component of each vector (the first on ties) is real
    positive; real omegas take the real eigensolver.  Warns when some
    point's gap is below GAP_WARN times its largest |omega|.
    """
    omegas = np.asarray(omegas)
    vals, vecs = np.linalg.eigh(loop_matrix(omegas[..., 0], omegas[..., 1], omegas[..., 2]))
    scale = np.max(np.abs(omegas), axis=-1)
    if np.any((scale == 0) | (np.min(np.diff(vals), axis=-1) < GAP_WARN * scale)):
        warnings.warn("near-degenerate dressed levels; gauge fixing unreliable",
                      DegenerateFrameWarning, stacklevel=2)
    top = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :], axis=-2)
    phase = np.divide(top, _modulus(top), out=np.ones_like(top), where=top != 0)
    return vals, vecs / phase


def _modulus(z):
    """|z| of a complex array as `abs` gives it for one value; np.abs of a
    complex array can differ from it in the last bit."""
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True)
class FieldConfiguration:
    """Local Rabi values of the three beams sampled on a transverse grid."""

    grid: np.ndarray              # x samples, uniform spacing
    omegas: np.ndarray            # shape (nx, 3): omega12, omega23, omega13

    @classmethod
    def from_lasers(cls, lasers: list[LaserSpec], grid,
                    who: Enantiomer = Enantiomer.L,
                    phase_profiles=None,
                    dipole: DipoleModel | None = None) -> "FieldConfiguration":
        """Evaluate three Gaussian beams on a grid.

        The rotationless reference uses the bare peak Rabi values (no
        orientation factor).  The enantiomer enters as `dipole.sign` on each
        pair's coupling; without a dipole, every pair flips, as for
        `DipoleModel.z_aligned()`.  `phase_profiles`, when given, is a list
        of three callables x -> phase (rad) multiplied onto each beam;
        nonconstant phases generate nonzero Berry connections.
        """
        grid = np.asarray(grid, dtype=float)
        dipole = DipoleModel.z_aligned() if dipole is None else dipole
        by_pair = {tuple(l.drives): l for l in lasers}
        cols = []
        for k, pair in enumerate([(1, 2), (2, 3), (1, 3)]):
            laser = by_pair[pair]
            env = np.array([laser.peak_rabi * laser.beam(x) for x in grid], dtype=complex)
            if phase_profiles is not None:
                env = env * np.exp(1j * np.array([phase_profiles[k](x) for x in grid]))
            cols.append(-env if dipole.sign(pair, who) < 0 else env)
        return cls(grid=grid, omegas=np.stack(cols, axis=1))


@dataclass(frozen=True)
class DressedFrame:
    """Gauge-fixed dressed eigensystem on a grid."""

    grid: np.ndarray              # (nx,)
    eigenvalues: np.ndarray       # (nx, 3), ascending per point
    eigenvectors: np.ndarray      # (nx, 3, 3), columns are branches


def dress_field(config: FieldConfiguration) -> DressedFrame:
    """Diagonalize at every grid point in a smooth deterministic gauge.

    Per branch, one anchor component (the largest at the grid midpoint) is
    made real positive everywhere.  This gauge is a pointwise function of x,
    so the Berry connection it induces is physical and grid-independent; an
    overlap-based parallel transport would instead null the connection by
    construction.  Points where the anchor component vanishes fall back to
    phase alignment with the previous grid point.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFrameWarning)
        vals, vecs = dress(config.omegas)
    anchor = vecs[:, np.argmax(np.abs(vecs[len(config.grid) // 2]), axis=0), np.arange(3)]
    size = _modulus(anchor)
    held = size > 1e-12
    k, n = np.nonzero(held)
    vecs[k, :, n] *= (np.conj(anchor[k, n]) / size[k, n])[:, None]
    for k, n in zip(*np.nonzero(~held)):  # in grid order: k - 1 is already fixed
        if k > 0:
            ov = np.vdot(vecs[k - 1, :, n], vecs[k, :, n])
            if ov != 0:
                vecs[k, :, n] *= np.conj(ov) / abs(ov)
    return DressedFrame(grid=config.grid, eigenvalues=vals, eigenvectors=vecs)


def scalar_potential(frame: DressedFrame, n: int, trap=None) -> np.ndarray:
    """V_n(x) = eps_n(x) + <chi_n|V|chi_n> (trap defaults to zero)."""
    v = frame.eigenvalues[:, n].copy()
    if trap is not None:
        v += np.array([trap(x) for x in frame.grid])
    return v


def vector_potential(frame: DressedFrame, n: int) -> np.ndarray:
    """Berry connection A_n(x) = i <chi_n | d/dx chi_n>, hbar = 1.

    Central differences in the interior, one-sided at the ends.  Real by
    construction for a normalized smooth frame.  Raises
    DiscontinuousFrameError when adjacent points overlap less than
    MIN_OVERLAP.
    """
    vecs = frame.eigenvectors[:, :, n]
    ov = np.abs(np.sum(np.conj(vecs[:-1]) * vecs[1:], axis=1))
    if np.min(ov) < MIN_OVERLAP:
        raise DiscontinuousFrameError(
            f"branch {n}: adjacent eigenvector overlap {np.min(ov):.3f} < {MIN_OVERLAP}"
        )
    dv = np.gradient(vecs, frame.grid, axis=0)
    conn = 1j * np.sum(np.conj(vecs) * dv, axis=1)
    return np.real(conn)
