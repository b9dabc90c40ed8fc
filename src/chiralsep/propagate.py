"""Norm-preserving propagation under the time-dependent coupling Hamiltonian.

Two schemes are provided.  The generic stepper applies the exact unitary of
the midpoint-evaluated Hamiltonian per step (eigendecomposition, unitary to
machine precision).  When the detunings are consistent with a per-level
potential f (Delta_fi = f_f - f_i for every edge, which holds whenever the
three laser frequencies close the loop) the interaction picture is mapped
to a static frame and propagated exactly in one eigendecomposition:

    H(t) = U(t) H0 U(t)^dag,  U = diag(e^{-i 2 pi f t})
    psi(t) = U(t) exp(-i 2 pi (H0 - diag(f)) t) psi(0)

Thermal mixtures are handled as weighted ensembles of pure states, each
stored as (member, level, amplitude) triplets: a thermal member of a
diabatic or partially-dressed preparation has one to three nonzero
amplitudes, so no length-n member vector is formed.  The ensemble trace
takes every branch of one enantiomer in one call and makes one spectral
pass per block over the connected components of the coupling graph; it
never forms an n x n matrix.  Each block's static H0 comes from its own
edges, and its eigendecomposition H0 - diag(f) = V diag(eps) V^dag and the
phase matrix p_n(t) = exp(-i 2 pi eps_n t) are shared by all branches.  A
branch's block density matrix rho = sum_k w_k |psi_k><psi_k| comes from one
matrix product over the members whose triplets fall in the block, and

    <H(t)> = sum_nm p_n(t) C_nm conj(p_m(t)),
    C = (V^dag rho V) * (V^dag H0 V)^T,

evaluated for all branches as one matrix product p @ [C_1 | C_2 | ...]
followed by a row sum per branch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CouplingMatrix, LevelIndex


class StepTooLargeError(ValueError):
    """dt does not resolve the fastest frequency in the Hamiltonian."""


class MismatchedGridError(ValueError):
    """Traces to be averaged live on different time grids."""


class DegenerateEigenstateWarning(UserWarning):
    """Adiabatic branch assignment ambiguous near a degeneracy."""


@dataclass(frozen=True)
class PotentialTrace:
    """Time series of <H_int(t)> in units of a reference Rabi frequency."""

    times: np.ndarray        # ns
    values: np.ndarray       # dimensionless (GHz / omega_ref)
    time_average: float

    @classmethod
    def from_values(cls, times, values):
        return cls(times=np.asarray(times), values=np.asarray(values),
                   time_average=float(np.mean(values)))


def max_frequency(h: CouplingMatrix) -> float:
    """Fastest frequency scale max(|Delta|, |Omega|) in GHz."""
    scales = [np.max(np.abs(h.delta), initial=0.0), np.max(np.abs(h.omega), initial=0.0)]
    return float(max(scales))


def default_dt(h: CouplingMatrix) -> float:
    """Largest step resolving the fastest detuning/Rabi scale."""
    f = max_frequency(h)
    return 0.05 if f == 0 else 1.0 / (20.0 * f)


def node_potential(h: CouplingMatrix, tol: float = 1e-10):
    """Per-level potential f with Delta = f_fin - f_ini, or None.

    Solved by spanning-tree assignment over each connected component and
    verified on every edge; returns None when some loop of laser detunings
    does not close.
    """
    n = h.n
    f = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, d in zip(h.fin, h.ini, h.delta):
        adj[a].append((b, -float(d)))
        adj[b].append((a, float(d)))
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v, step in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    f[v] = f[u] + step
                    stack.append(v)
    resid = np.max(np.abs(f[h.fin] - f[h.ini] - h.delta), initial=0.0)
    return f if resid <= tol else None


def components(h: CouplingMatrix) -> list[np.ndarray]:
    """Index sets of the connected components of the coupling graph.

    Components are ordered by their smallest level, each one ascending.
    """
    parent = list(range(h.n))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(h.fin.tolist(), h.ini.tolist()):
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)  # the root is the smallest member
    labels = np.array([root(a) for a in range(h.n)], dtype=int)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def propagate(
    h: CouplingMatrix,
    psi0: np.ndarray,
    t_end: float,
    dt: float | None = None,
    n_out: int = 201,
    method: str = "auto",
):
    """Evolve psi0 over [0, t_end]; returns (times, trajectory).

    `trajectory` has shape (n_out, n).  method: "static" (exact, requires a
    consistent node potential), "midpoint" (per-step unitary of the midpoint
    Hamiltonian), or "auto" (static when available).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.linspace(0.0, t_end, n_out)
    if method not in ("auto", "static", "midpoint"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "static"):
        f = node_potential(h)
        if f is not None:
            return times, _propagate_static(h, psi0, times, f)
        if method == "static":
            raise ValueError("detunings admit no node potential; use midpoint")
    return times, _propagate_midpoint(h, psi0, times, dt)


def _propagate_static(h, psi0, times, f):
    heff = h.evaluate(0.0) - np.diag(f)
    eps, v = np.linalg.eigh(heff)
    c = v.conj().T @ psi0
    out = np.empty((len(times), h.n), dtype=complex)
    for k, t in enumerate(times):
        phi = v @ (np.exp(-2j * np.pi * eps * t) * c)
        out[k] = np.exp(-2j * np.pi * f * t) * phi
    return out


def _propagate_midpoint(h, psi0, times, dt):
    t_end = times[-1]
    if dt is None:
        dt = default_dt(h)
    fmax = max_frequency(h)
    if fmax > 0 and dt > 1.0 / (20.0 * fmax) * (1 + 1e-12):
        raise StepTooLargeError(
            f"dt = {dt} does not resolve 1/(20 * {fmax} GHz)"
        )
    # align steps with the output grid
    n_seg = len(times) - 1
    seg = t_end / n_seg if n_seg else 0.0
    sub = max(1, int(np.ceil(seg / dt))) if seg else 1
    dt = seg / sub if seg else dt
    out = np.empty((len(times), h.n), dtype=complex)
    psi = psi0.copy()
    out[0] = psi
    for k in range(n_seg):
        t = times[k]
        for s in range(sub):
            tm = t + (s + 0.5) * dt
            hm = h.evaluate(tm)
            vals, vecs = np.linalg.eigh(hm)
            psi = vecs @ (np.exp(-2j * np.pi * vals * dt) * (vecs.conj().T @ psi))
        out[k + 1] = psi
    return out


def potential_trace(h: CouplingMatrix, times, trajectory,
                    omega_ref: float = 1.0) -> PotentialTrace:
    """<psi(t)|H(t)|psi(t)> / omega_ref along a trajectory."""
    vals = np.empty(len(times))
    for k, t in enumerate(times):
        raw = np.vdot(trajectory[k], h.evaluate(t) @ trajectory[k])
        if abs(raw.imag) > 1e-12 * max(1.0, abs(raw.real)):
            raise ValueError(f"non-real expectation {raw} of a Hermitian operator")
        vals[k] = raw.real / omega_ref
    return PotentialTrace.from_values(times, vals)


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure states over n levels, stored as nonzero amplitudes.

    Member k has weight weights[k]; triplet j puts amplitude amp[j] on level
    level[j] of member member[j].  Every (member, level) pair appears at most
    once, and no length-n vector is stored.
    """

    n: int
    weights: np.ndarray      # (members,) float
    member: np.ndarray       # (triplets,) int
    level: np.ndarray        # (triplets,) int
    amp: np.ndarray          # (triplets,) complex

    @classmethod
    def from_triplets(cls, n, weights, member, level, amp) -> "Ensemble":
        """From parallel triplet arrays; zero amplitudes are dropped."""
        amp = np.asarray(amp, dtype=complex)
        keep = amp != 0
        return cls(n=n, weights=np.asarray(weights, dtype=float),
                   member=np.asarray(member, dtype=int)[keep],
                   level=np.asarray(level, dtype=int)[keep], amp=amp[keep])

    @classmethod
    def from_members(cls, n, members) -> "Ensemble":
        """From (weight, length-n state vector) pairs."""
        states = np.array([psi for _, psi in members], dtype=complex).reshape(len(members), n)
        member, level = np.nonzero(states)
        return cls.from_triplets(n, [w for w, _ in members], member, level,
                                 states[member, level])

    def members(self) -> list[tuple[float, np.ndarray]]:
        """Dense (weight, state vector) pairs, one per member."""
        states = np.zeros((len(self.weights), self.n), dtype=complex)
        states[self.member, self.level] = self.amp
        return list(zip(self.weights.tolist(), states))


def ensemble_potential_trace(
    h: CouplingMatrix,
    ensembles: dict,
    times,
    omega_ref: float = 1.0,
) -> dict:
    """Weighted-ensemble <H_int(t)> of every branch, without trajectories.

    `ensembles` maps a branch label to its Ensemble; returns the mapping
    branch -> PotentialTrace in the same order.  Mathematically identical to
    propagating each pure member and averaging; uses the static frame and
    the block structure of the coupling graph, with one eigendecomposition
    and one phase matrix per block shared by all branches.  Falls back to
    per-member propagation when no node potential exists.
    """
    times = np.asarray(times, dtype=float)
    for branch, ens in ensembles.items():
        if len(ens.weights) == 0:
            raise ValueError(f"branch {branch}: empty ensemble")
    f = node_potential(h)
    if f is None:
        out = {}
        for branch, ens in ensembles.items():
            traces = []
            for w, psi0 in ens.members():
                _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="midpoint")
                traces.append((w, potential_trace(h, times, traj, omega_ref)))
            out[branch] = ensemble_average(traces)
        return out

    blocks = components(h)
    label = np.empty(h.n, dtype=int)
    local = np.empty(h.n, dtype=int)
    for c, idx in enumerate(blocks):
        label[idx] = c
        local[idx] = np.arange(len(idx))
    edge_block = label[h.fin]
    triplet_block = [label[ens.level] for ens in ensembles.values()]
    totals = np.zeros((len(times), len(ensembles)))
    for c, idx in enumerate(blocks):
        if len(idx) == 1:
            continue  # uncoupled level: zero-diagonal H contributes nothing
        rhos = {}
        for k, ens in enumerate(ensembles.values()):
            sel = np.flatnonzero(triplet_block[k] == c)
            if len(sel) == 0:
                continue
            touch, row = np.unique(ens.member[sel], return_inverse=True)
            sub = np.zeros((len(touch), len(idx)), dtype=complex)
            sub[row, local[ens.level[sel]]] = ens.amp[sel]
            rhos[k] = (sub.T * ens.weights[touch]) @ sub.conj()
        if not rhos:
            continue
        e = np.flatnonzero(edge_block == c)
        a, b = local[h.fin[e]], local[h.ini[e]]
        h0 = np.zeros((len(idx), len(idx)), dtype=complex)
        h0[a, b] = h.omega[e]
        h0[b, a] = np.conj(h.omega[e])
        vals = _block_expectations(h0, f[idx], list(rhos.values()), times)
        # also false for NaN, so a non-finite expectation raises here too
        if not np.max(np.abs(vals.imag)) <= 1e-10 * max(1.0, np.max(np.abs(vals.real))):
            raise ValueError("non-real ensemble expectation of a Hermitian operator")
        totals[:, list(rhos)] += vals.real
    return {branch: PotentialTrace.from_values(times, totals[:, k] / omega_ref)
            for k, branch in enumerate(ensembles)}


def _block_expectations(h0, f, rhos, times) -> np.ndarray:
    """<H(t)> of each block density matrix in `rhos`, shape (times, rhos).

    One eigendecomposition and one phase matrix serve every rho.  The
    (times x rhos*size) intermediates live only inside this call.
    """
    eps, v = np.linalg.eigh(h0 - np.diag(f))
    g_t = (v.conj().T @ h0 @ v).T
    c_all = np.concatenate([(v.conj().T @ rho @ v) * g_t for rho in rhos], axis=1)
    p = np.exp(-2j * np.pi * np.outer(times, eps))
    pc = (p @ c_all).reshape(len(times), len(rhos), len(eps))
    pc *= np.conj(p, out=p)[:, None, :]
    return pc.sum(axis=2)


def prepare_initial(
    mode: str,
    h: CouplingMatrix,
    thermal: dict,
    vib_amplitudes=None,
    gap_warn: float = 1e-9,
) -> Ensemble:
    """Weighted pure-state ensemble for one preparation protocol.

    mode "diabatic": bare states |1>|JKM> with thermal weights.
    mode "adiabatic": eigenvectors of H(0), each thermal bare state mapped
    to its maximum-overlap eigenvector (warns near degeneracies).
    mode "partially-dressed": the vibrational amplitude triple
    `vib_amplitudes` (a rotationless dressed state) tensored with each
    thermal rotational basis state.
    """
    pos = {lvl: k for k, lvl in enumerate(h.basis)}
    weights = [(rot, w) for rot, w in thermal.items() if w > 0]
    ws = [w for _, w in weights]
    if mode == "diabatic":
        level = [pos[LevelIndex(1, rot)] for rot, _ in weights]
        return Ensemble.from_triplets(h.n, ws, np.arange(len(level)), level,
                                      np.ones(len(level)))
    if mode == "partially-dressed":
        if vib_amplitudes is None:
            raise ValueError("partially-dressed preparation needs vib_amplitudes")
        amps = np.asarray(vib_amplitudes, dtype=complex)
        level = [pos[LevelIndex(m + 1, rot)] for rot, _ in weights for m in range(3)]
        return Ensemble.from_triplets(h.n, ws, np.repeat(np.arange(len(weights)), 3),
                                      level, np.tile(amps, len(weights)))
    if mode == "adiabatic":
        vals, vecs = np.linalg.eigh(h.evaluate(0.0))
        scale = max(np.max(np.abs(vals)), 1e-300)
        members = []
        for rot, w in weights:
            bare = pos[LevelIndex(1, rot)]
            n = int(np.argmax(np.abs(vecs[bare, :])))
            gaps = np.abs(vals - vals[n])
            gaps[n] = np.inf
            if np.min(gaps) < gap_warn * scale:
                warnings.warn(
                    f"adiabatic assignment for {rot} near-degenerate; "
                    "resolved by maximal bare-state overlap",
                    DegenerateEigenstateWarning, stacklevel=2,
                )
            members.append((w, vecs[:, n]))
        return Ensemble.from_members(h.n, members)
    raise ValueError(f"unknown preparation mode {mode!r}")


def ensemble_average(traces: list[tuple[float, PotentialTrace]]) -> PotentialTrace:
    """Weighted pointwise mean of traces on a common time grid."""
    if not traces:
        raise ValueError("empty ensemble")
    times = traces[0][1].times
    for _, tr in traces:
        if len(tr.times) != len(times) or np.any(tr.times != times):
            raise MismatchedGridError("traces live on different time grids")
    vals = sum(w * tr.values for w, tr in traces)
    return PotentialTrace.from_values(times, vals)
