"""Interaction-picture Hamiltonian over the rotational-vibrational basis.

Couplings and detunings are stored once; the time-dependent Hermitian
matrix carries entries Omega_fi * exp(-i 2 pi Delta_fi t) (GHz, t in ns)
above/below the diagonal per the package phase convention.

Detunings are computed from the full level energies.  Laser frequencies are
stored as offsets from the driven vibrational gap (see LaserSpec), so the
bare vibrational energies cancel and designated resonances are float-exact:
Delta_fi = E_rot(f) - E_rot(i) - rot_offset for an absorption f <- i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import DipoleModel, Enantiomer, LaserSpec, rabi_frequency
from .rotbasis import BasisTruncation, RotorConstants, RotState, enumerate_basis, rot_energy


class EmptyCouplingError(ValueError):
    """A laser drives no allowed transition in the truncated basis."""


class UnsupportedSetupError(ValueError):
    """No catalogued chirality transformation for this polarization mix."""


class BasisNotClosedError(ValueError):
    """The basis lacks the M-reversed partner of some level."""


@dataclass(frozen=True, order=True)
class LevelIndex:
    """Multi-index (vibrational level, |J K M>) of one basis state."""

    vib: int
    rot: RotState

    def __str__(self):
        return f"|{self.vib}>{self.rot}"


def product_basis(trunc: BasisTruncation, vibs=(1, 2, 3)) -> list[LevelIndex]:
    """Ordered product basis, vibrational level major, rotational order minor."""
    rots = enumerate_basis(trunc)
    return [LevelIndex(v, r) for v in vibs for r in rots]


@dataclass(frozen=True)
class CouplingMatrix:
    """All allowed transitions with Rabi frequencies and detunings.

    Entry arrays are aligned: fin[k], ini[k] index into `basis` with
    basis[fin[k]].vib > basis[ini[k]].vib; omega[k] is the absorption
    amplitude Omega_fi in GHz and delta[k] the detuning in GHz.
    """

    basis: tuple[LevelIndex, ...]
    fin: np.ndarray
    ini: np.ndarray
    omega: np.ndarray
    delta: np.ndarray

    @property
    def n(self):
        return len(self.basis)

    def index(self, level: LevelIndex) -> int:
        return self.basis.index(level)

    def evaluate(self, t: float) -> np.ndarray:
        """Dense Hermitian matrix at time t (ns), zero diagonal."""
        h = np.zeros((self.n, self.n), dtype=complex)
        vals = self.omega * np.exp(-2j * np.pi * self.delta * t)
        h[self.fin, self.ini] = vals
        h[self.ini, self.fin] = np.conj(vals)
        return h

    def rows(self):
        """(final, initial, omega, delta) tuples for table dumps."""
        return [
            (self.basis[f], self.basis[i], complex(w), float(d))
            for f, i, w, d in zip(self.fin, self.ini, self.omega, self.delta)
        ]


def assemble(
    lasers: list[LaserSpec],
    dipole: DipoleModel,
    who: Enantiomer,
    constants: RotorConstants,
    trunc: BasisTruncation,
    x: float = 0.0,
    basis: list[LevelIndex] | None = None,
) -> CouplingMatrix:
    """Build the coupling table over the (possibly restricted) product basis.

    Partners of each lower state come from the selection rules: Delta J in
    {0, +-1}, Delta M from the laser's helicities and Delta K from the
    dipole's components, kept when the basis holds them.  Each laser's
    transitions are ordered by (final, initial) basis position.
    """
    if basis is None:
        basis = product_basis(trunc)
    basis = tuple(basis)
    pos = {(lvl.vib, lvl.rot.J, lvl.rot.K, lvl.rot.M): k for k, lvl in enumerate(basis)}
    fin, ini, omega, delta = [], [], [], []
    for laser in lasers:
        vi, vf = laser.drives
        sigmas = [s for s, amp in zip((-1, 0, 1), laser.helicity_triple()) if amp != 0]
        sps = [sp for sp, mu in zip((-1, 0, 1), dipole.get((vi, vf)).mu) if mu != 0]
        pairs = []
        for i, lower in enumerate(basis):
            if lower.vib != vi:
                continue
            r = lower.rot
            for jf in (r.J - 1, r.J, r.J + 1):
                for s in sigmas:
                    for sp in sps:
                        f = pos.get((vf, jf, r.K + sp, r.M + s))
                        if f is not None:
                            pairs.append((f, i))
        pairs.sort()
        count = 0
        for f, i in pairs:
            # exact zeros of the 3j symbols still fall out of rabi
            w = rabi_frequency(basis[f], basis[i], laser, dipole, who, x)
            if w == 0:
                continue
            d = (rot_energy(basis[f].rot, constants) - rot_energy(basis[i].rot, constants)
                 - laser.rot_offset)
            fin.append(f)
            ini.append(i)
            omega.append(w)
            delta.append(d)
            count += 1
        if count == 0:
            raise EmptyCouplingError(
                f"laser driving {laser.drives} couples nothing in the truncated basis"
            )
    return CouplingMatrix(
        basis=basis,
        fin=np.asarray(fin, dtype=int),
        ini=np.asarray(ini, dtype=int),
        omega=np.asarray(omega, dtype=complex),
        delta=np.asarray(delta, dtype=float),
    )


def detuning_formula(final: RotState, initial: RotState, constants: RotorConstants) -> float:
    """Closed-form rotational detuning B(Jf^2-Ji^2+Jf-Ji) + (A-B)(Kf^2-Ki^2).

    Cross-check only: `assemble` computes detunings from the symmetric-top
    energies (which use C in place of B, a ~MHz-scale difference).
    """
    a, b = constants.a, constants.b
    return b * (final.J**2 - initial.J**2 + final.J - initial.J) + (a - b) * (
        final.K**2 - initial.K**2
    )


def _classify_setup(polarizations) -> str:
    pols = set(polarizations)
    if not pols <= set("xyz") | {"sigma+", "sigma-"}:
        raise UnsupportedSetupError(f"uncatalogued polarizations {sorted(pols)}")
    if "z" not in pols:
        return "diag-m"          # x / y / sigma+- only
    if pols <= {"z", "y"}:
        return "mrev-j"          # all-z, or z with y
    if pols <= {"z", "x"}:
        return "mrev-jm"         # z with x (the xxz setup)
    raise UnsupportedSetupError(
        f"no catalogued chirality transformation for mix {sorted(pols)}"
    )


def chirality_permutation(polarizations, basis) -> tuple[np.ndarray, np.ndarray]:
    """The chirality transformation T as a signed permutation (perm, sign).

    T[perm[k], k] = sign[k] and every other entry is zero; see
    `chirality_transform` for the catalogued setups.  Raises
    UnsupportedSetupError for other mixes and BasisNotClosedError when an
    M-reversing T needs a level the basis lacks.
    """
    kind = _classify_setup(polarizations)
    n = len(basis)
    perm = np.arange(n)
    sign = np.empty(n)
    pos = {lvl: k for k, lvl in enumerate(basis)}
    for k, lvl in enumerate(basis):
        r = lvl.rot
        if kind == "diag-m":
            sign[k] = (-1.0) ** r.M
        else:
            img = LevelIndex(lvl.vib, RotState(r.J, r.K, -r.M))
            if img not in pos:
                raise BasisNotClosedError("basis is not closed under M reversal")
            perm[k] = pos[img]
            sign[k] = (-1.0) ** (r.J if kind == "mrev-j" else r.J + r.M)
    return perm, sign


def chirality_transform(polarizations, basis) -> np.ndarray:
    """Rotational unitary T with T^dag H^L(t) T = H^R(t) for all t.

    Supported setups: any mix of x/y/sigma+- lasers (diagonal T with entries
    (-1)^M), z mixed with y or all-z (T|JKM> = (-1)^J |J K -M>), and z mixed
    with x such as the xxz setup (T|JKM> = (-1)^{J+M} |J K -M>).  Raises
    UnsupportedSetupError otherwise, and BasisNotClosedError when the basis
    lacks an M-reversed partner.
    """
    perm, sign = chirality_permutation(polarizations, basis)
    t = np.zeros((len(basis), len(basis)))
    t[perm, np.arange(len(basis))] = sign
    return t


def transform_residual(hl: CouplingMatrix, hr: CouplingMatrix, perm, sign,
                       t: float) -> float:
    """Frobenius norm of T^dag H^L(t) T - H^R(t) for a signed permutation T.

    Computed from the edge lists: conjugation by T moves the L edge (f, i)
    to (inv[f], inv[i]) with the factor sign[inv[f]] * sign[inv[i]].  Both
    tables orient edges by vibrational level, which T preserves, so each
    edge difference appears twice in the Hermitian matrix, and an edge with
    no partner counts in full.
    """
    n = hl.n
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    a, b = inv[hl.fin], inv[hl.ini]
    vals_l = sign[a] * sign[b] * (hl.omega * np.exp(-2j * np.pi * hl.delta * t))
    vals_r = hr.omega * np.exp(-2j * np.pi * hr.delta * t)
    keys, where = np.unique(np.concatenate([a * n + b, hr.fin * n + hr.ini]),
                            return_inverse=True)
    diff = np.zeros(len(keys), dtype=complex)
    np.add.at(diff, where, np.concatenate([vals_l, -vals_r]))
    return float(np.sqrt(2.0) * np.linalg.norm(diff))
