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
from functools import cached_property, reduce

import numpy as np

from . import coupling
from .coupling import DipoleModel, Enantiomer, LaserSpec
from .rotbasis import BasisTruncation, RotorConstants, RotState
from .wigner import rot_integrals


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


class LevelTable:
    """A basis as the (vib, J, K, M) of its levels, `qn`, int64 of shape (4, n).

    A basis lists each level once.  What the run reads of the basis is
    derived from `qn` on first use and kept, and pickles with the table: the
    sorted level codes that `find` searches, and the level names.  R's
    matrix shares L's table.
    """

    def __init__(self, qn):
        self.qn = qn

    @classmethod
    def of(cls, levels):
        """The table of LevelIndex levels, in their order.  Raises ValueError
        naming a level that the list holds twice."""
        table = cls(np.array([(lvl.vib, lvl.rot.J, lvl.rot.K, lvl.rot.M) for lvl in levels],
                             dtype=np.int64).reshape(-1, 4).T)
        twice = np.flatnonzero(table.find(*table.qn) != np.arange(len(levels)))
        if len(twice):  # find gives a repeated level's first position
            raise ValueError(f"{levels[twice[0]]} is listed twice in the basis")
        return table

    @staticmethod
    def _code(q, lo, size):  # mixed radix over the ranges lo .. lo + size - 1
        return reduce(lambda c, x: c * x[2] + (x[0] - x[1]), zip(q, lo, size), 0)

    @cached_property
    def _search(self):
        """(lo, size, codes, order): qn's ranges, the level codes ascending
        and closed by a sentinel above every code, and the levels' positions
        in that order, closed by -1."""
        lo = self.qn.min(axis=1, initial=0)
        size = self.qn.max(axis=1, initial=0) - lo + 1
        codes = self._code(self.qn, lo, size)
        order = np.argsort(codes, kind="stable")
        return lo, size, np.append(codes[order], np.iinfo(np.int64).max), np.append(order, -1)

    def find(self, vib, j, k, m):
        """The basis position of each (vib, J, K, M), or -1 where the basis
        has no such level.  Takes integer arrays, broadcast together, and
        works on integer codes and `searchsorted`, with no per-level object."""
        lo, size, codes, order = self._search
        q = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (vib, j, k, m)))
        inside = np.logical_and.reduce([(x >= low) & (x - low < span)
                                        for x, low, span in zip(q, lo, size)])
        want = np.where(inside, self._code(q, lo, size), -1)  # no code is -1
        at = np.searchsorted(codes, want)
        return np.where(codes[at] == want, order[at], -1)

    @cached_property
    def names(self) -> np.ndarray:
        """str(LevelIndex) of each level, an object array: each distinct
        |J K M> and |vib> is formatted once, then the two are joined."""
        vib, j, k, m = self.qn
        r = 2 * int(np.abs(self.qn[1:]).max(initial=0)) + 1
        code = (j * r + k) * r + m  # one per |J K M>
        order = np.argsort(code, kind="stable")
        first = order[np.diff(code[order], prepend=code[order][:1] - 1) != 0]  # by label
        labels = np.array([f"|{a} {b} {c}>" for a, b, c in zip(*self.qn[1:, first].tolist())],
                          dtype=object)[np.searchsorted(code[first], code)]
        low = int(vib.min(initial=0))
        return np.array([f"|{v}>" for v in range(low, int(vib.max(initial=0)) + 1)],
                        dtype=object)[vib - low] + labels


def product_table(trunc: BasisTruncation, vibs=(1, 2, 3)) -> LevelTable:
    """The product basis, vibrational level major and |J K M> minor in the
    ascending (J, K, M) order of `rotbasis.enumerate_basis`."""
    rot = np.hstack([np.vstack([np.full((1, (2 * j + 1) ** 2), j),
                                np.indices((2 * j + 1,) * 2).reshape(2, -1) - j])
                     for j in range(trunc.jmax + 1)])
    return LevelTable(np.vstack([np.repeat(vibs, rot.shape[1]), np.tile(rot, len(vibs))]))


@dataclass(frozen=True)
class CouplingMatrix:
    """All allowed transitions with Rabi frequencies and detunings.

    Entry arrays are aligned: fin[k], ini[k] index the levels of `levels`,
    the basis's table, with vib[fin[k]] > vib[ini[k]]; omega[k] is the
    absorption amplitude Omega_fi in GHz and delta[k] the detuning in GHz.
    orient[k], kept by `assemble`, is the edge's `rot_integrals` factor,
    which carries no enantiomer sign.
    """

    levels: LevelTable
    fin: np.ndarray
    ini: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    orient: np.ndarray | None = None

    @property
    def n(self):
        return self.levels.qn.shape[1]

    @cached_property
    def basis(self) -> tuple[LevelIndex, ...]:
        """The levels as LevelIndex objects, built for a caller that asks."""
        return tuple(LevelIndex(v, RotState(j, k, m)) for v, j, k, m in self.levels.qn.T.tolist())

    def index(self, level: LevelIndex) -> int:
        """The basis position of level."""
        at = int(self.levels.find(level.vib, level.rot.J, level.rot.K, level.rot.M))
        if at < 0:
            raise ValueError(f"{level} is not in the basis")
        return at

    def evaluate(self, t: float) -> np.ndarray:
        """Dense Hermitian matrix at time t (ns), zero diagonal."""
        h = np.zeros((self.n, self.n), dtype=complex)
        vals = self.omega * np.exp(-2j * np.pi * self.delta * t)
        h[self.fin, self.ini] = vals
        h[self.ini, self.fin] = np.conj(vals)
        return h


def assemble(
    lasers: list[LaserSpec],
    dipole: DipoleModel,
    who: Enantiomer,
    constants: RotorConstants,
    trunc: BasisTruncation,
    x: float = 0.0,
    basis: list[LevelIndex] | None = None,
    like: CouplingMatrix | None = None,
) -> CouplingMatrix:
    """Build the coupling table over the (possibly restricted) product basis.

    Partners of each lower state come from the selection rules: Delta J in
    {0, +-1}, Delta M from the laser's helicities and Delta K from the
    dipole's components, kept when the basis holds them.  Each laser's
    transitions are ordered by (final, initial) basis position, their
    orientation factors (`wigner.rot_integrals`) evaluated once, kept with
    the table as `orient`, and their Rabi frequencies in one
    `coupling.rabi_frequency` call; exact zeros are dropped.

    `like`, this call's table for the other enantiomer: chirality only flips
    the flagged dipole elements' sign, so when the lasers drive distinct
    pairs and like holds `orient`, only omega is computed, from like's
    orientation factors with this enantiomer's sign (-like.omega has other
    signed zeros), on like's level table, edges and delta.
    """
    distinct = len({l.drives for l in lasers}) == len(lasers)
    if like is not None and like.orient is not None and distinct:
        qn, omega = like.levels.qn, np.zeros(len(like.fin), dtype=complex)
        for laser in lasers:  # like's edges of this laser, in like's order
            on = (qn[0, like.ini] == laser.drives[0]) & (qn[0, like.fin] == laser.drives[1])
            omega[on] = coupling.rabi_frequency(qn[:, like.fin[on]], qn[:, like.ini[on]],
                                                like.orient[on], laser, dipole, who, x)
        keep = slice(None) if omega.all() else omega != 0  # views of like's arrays if all kept
        return CouplingMatrix(like.levels, *(a[keep] for a in (like.fin, like.ini, omega,
                                                               like.delta, like.orient)))
    levels = product_table(trunc) if basis is None else LevelTable.of(basis)
    qn = levels.qn
    n = qn.shape[1]
    vib, j, k, m = qn
    # rot_energy of every level, in its operation order
    energy = constants.c * j * (j + 1) + (constants.a - constants.c) * k**2
    # fin, ini, omega, delta and orient, laser by laser
    columns = [[np.empty(0, dtype=dtype)] for dtype in (int, int, complex, float, float)]
    for laser in lasers:
        vi, vf = laser.drives
        sigmas = [s for s, amp in zip((-1, 0, 1), laser.helicity_triple()) if amp != 0]
        sps = [sp for sp, mu in zip((-1, 0, 1), dipole.get((vi, vf)).mu) if mu != 0]
        # candidates (vf, J + dj, K + sigma', M + sigma), axes (lower, dj, sigma, sigma')
        lower, dj, s, sp = np.ix_(np.flatnonzero(vib == vi), (-1, 0, 1), sigmas, sps)
        upper = levels.find(vf, j[lower] + dj, k[lower] + sp, m[lower] + s)
        lower = np.broadcast_to(lower, upper.shape).ravel()
        upper = upper.ravel()
        hit = upper >= 0
        pairs = np.sort(upper[hit] * n + lower[hit], kind="stable")
        f, i = pairs // n, pairs % n
        o = rot_integrals(qn[1:, f], qn[1:, i])
        w = coupling.rabi_frequency(qn[:, f], qn[:, i], o, laser, dipole, who, x)
        keep = w != 0
        if not keep.any():
            raise EmptyCouplingError(
                f"laser driving {laser.drives} couples nothing in the truncated basis"
            )
        f, i = f[keep], i[keep]
        for column, part in zip(columns, (f, i, w[keep], energy[f] - energy[i] - laser.rot_offset,
                                          o[keep])):
            column.append(part)
    return CouplingMatrix(levels, *map(np.concatenate, columns))


def _classify_setup(polarizations) -> str:
    pols = set(polarizations)
    if not pols <= set("xyz") | {"sigma+", "sigma-"}:
        raise UnsupportedSetupError(f"uncatalogued polarizations {sorted(pols, key=str)}")
    if "z" not in pols:
        return "diag-m"          # x / y / sigma+- only
    if pols <= {"z", "y"}:
        return "mrev-j"          # all-z, or z with y
    if pols <= {"z", "x"}:
        return "mrev-jm"         # z with x (the xxz setup)
    raise UnsupportedSetupError(
        f"no catalogued chirality transformation for mix {sorted(pols)}"
    )


def _reversal(levels: LevelTable, k_sign: int):
    """The positions of |v J k_sign*K -M> for the table's levels |v J K M>,
    or None when the table lacks one of them.  The map reverses quantum
    numbers and a basis lists each level once, so it is an involution."""
    vib, j, k, m = levels.qn
    perm = levels.find(vib, j, k_sign * k, -m)
    return None if np.any(perm < 0) else perm


def chirality_permutation(polarizations, levels: LevelTable) -> tuple[np.ndarray, np.ndarray]:
    """The chirality transformation T as a signed permutation (perm, sign).

    T[perm[k], k] = sign[k] and every other entry is zero; see
    `chirality_transform` for the catalogued setups.  `levels` is the
    basis's table.  Raises UnsupportedSetupError for other mixes and
    BasisNotClosedError when an M-reversing T needs a level the basis lacks.
    """
    kind = _classify_setup(polarizations)
    vib, j, k, m = levels.qn
    if kind == "diag-m":
        return np.arange(len(vib)), (-1.0) ** m
    perm = _reversal(levels, 1)
    if perm is None:
        raise BasisNotClosedError("basis is not closed under M reversal")
    return perm, (-1.0) ** (j if kind == "mrev-j" else j + m)


def mirror_permutation(levels: LevelTable) -> tuple[np.ndarray, np.ndarray] | None:
    """The (K, M) reversal S|v J K M> = (-1)^M |v J -K -M> as (perm, sign).

    S[perm[k], k] = sign[k], as in `chirality_permutation`; `levels` is the
    basis's table.  None when some level has no image in the basis.
    D^J_{MK}* = (-1)^{M-K} D^J_{-M,-K} (Zare, Angular Momentum, 1988) makes
    S a symmetry of some laser setups; `is_symmetry` certifies it on a table.
    """
    perm = _reversal(levels, -1)
    return None if perm is None else (perm, (-1.0) ** levels.qn[3])


def _conjugated(h: CouplingMatrix, perm, sign):
    """(codes, factor): conjugation by the signed permutation S moves edge
    (fin, ini) to (inv[fin], inv[ini]), coded inv[fin] * n + inv[ini], with
    omega times factor = sign[inv[fin]] sign[inv[ini]] and the same delta."""
    inv = np.empty(h.n, dtype=int)
    inv[perm] = np.arange(h.n)
    a, b = inv[h.fin], inv[h.ini]
    return a * h.n + b, sign[a] * sign[b]


def is_symmetry(h: CouplingMatrix, perm, sign, image: CouplingMatrix | None = None) -> bool:
    """Whether S^dag H(t) S = image(t) (h's basis; default h) at every t for
    the signed permutation S: the (K, M) reversal on h, or T from H_L to H_R.

    The conjugated rows (`_conjugated`) must equal the image's rows
    exactly, both sorted by (fin, ini): no sample time and no tolerance.
    """
    image = h if image is None else image
    pairs, factor = _conjugated(h, perm, sign)
    want = image.fin * h.n + image.ini
    mapped, table = np.argsort(pairs, kind="stable"), np.argsort(want, kind="stable")
    return (np.array_equal(pairs[mapped], want[table])
            and np.array_equal((factor * h.omega)[mapped], image.omega[table])
            and np.array_equal(h.delta[mapped], image.delta[table]))


def chirality_transform(polarizations, basis) -> np.ndarray:
    """Rotational unitary T with T^dag H^L(t) T = H^R(t) for all t.

    Supported setups: any mix of x/y/sigma+- lasers (diagonal T with entries
    (-1)^M), z mixed with y or all-z (T|JKM> = (-1)^J |J K -M>), and z mixed
    with x such as the xxz setup (T|JKM> = (-1)^{J+M} |J K -M>).  Raises
    UnsupportedSetupError otherwise, and BasisNotClosedError when the basis
    lacks an M-reversed partner, and ValueError when it lists a level twice.
    """
    perm, sign = chirality_permutation(polarizations, LevelTable.of(basis))
    t = np.zeros((len(basis), len(basis)))
    t[perm, np.arange(len(basis))] = sign
    return t


def transform_residual(hl: CouplingMatrix, hr: CouplingMatrix, perm, sign,
                       *times: float) -> float:
    """Largest Frobenius norm of T^dag H^L(t) T - H^R(t) over `times` for a
    signed permutation T; the L and R edges are aligned once for all times.

    Computed from the edge lists, conjugated by `_conjugated`.  Both tables
    orient edges by vibrational level, which T preserves, so each edge
    difference appears twice in the Hermitian matrix, and an edge with no
    partner counts in full.
    """
    pairs, factor = _conjugated(hl, perm, sign)
    keys, where = np.unique(np.concatenate([pairs, hr.fin * hl.n + hr.ini]),
                            return_inverse=True)

    def norm(t):
        vals_l = factor * (hl.omega * np.exp(-2j * np.pi * hl.delta * t))
        vals_r = hr.omega * np.exp(-2j * np.pi * hr.delta * t)
        diff = np.zeros(len(keys), dtype=complex)
        np.add.at(diff, where[:len(vals_l)], vals_l)
        np.subtract.at(diff, where[len(vals_l):], vals_r)
        return float(np.sqrt(2.0) * np.linalg.norm(diff))

    return max(norm(t) for t in times)
