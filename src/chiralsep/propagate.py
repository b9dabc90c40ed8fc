"""Norm-preserving propagation under the time-dependent coupling Hamiltonian.

Two schemes are provided.  The generic stepper applies the exact unitary of
the midpoint-evaluated Hamiltonian per step (eigendecomposition, unitary to
machine precision).  When the detunings are consistent with a per-level
potential f (Delta_fi = f_f - f_i for every edge, which holds whenever the
three laser frequencies close the loop) the interaction picture is mapped
to a static frame and propagated exactly in one eigendecomposition:

    H(t) = U(t) H0 U(t)^dag,  U = diag(e^{-i 2 pi f t})
    psi(t) = U(t) exp(-i 2 pi (H0 - diag(f)) t) psi(0)

Thermal mixtures are handled as weighted ensembles of pure states.  The
ensemble trace works block by block over the connected components of the
coupling graph and never forms an n x n matrix: each block's static H0 comes
from its own edges, its density matrix rho = sum_k w_k |psi_k><psi_k| from
one matrix product over the members that touch it, and with H0 - diag(f) =
V diag(eps) V^dag the trace is

    <H(t)> = sum_nm p_n(t) C_nm conj(p_m(t)),  p_n = exp(-i 2 pi eps_n t),
    C = (V^dag rho V) * (V^dag H0 V)^T,

evaluated as a matrix product and a row sum.
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


def ensemble_potential_trace(
    h: CouplingMatrix,
    members: list[tuple[float, np.ndarray]],
    times,
    omega_ref: float = 1.0,
) -> PotentialTrace:
    """Weighted-ensemble <H_int(t)> without storing trajectories.

    Mathematically identical to propagating each pure member and averaging;
    uses the static frame and the block structure of the coupling graph.
    Falls back to per-member propagation when no node potential exists.
    """
    times = np.asarray(times, dtype=float)
    f = node_potential(h)
    if f is None:
        traces = []
        for w, psi0 in members:
            _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="midpoint")
            traces.append((w, potential_trace(h, times, traj, omega_ref)))
        return ensemble_average(traces)

    states = np.array([psi0 for _, psi0 in members], dtype=complex).reshape(len(members), h.n)
    weights = np.array([w for w, _ in members], dtype=float)
    blocks = components(h)
    label = np.empty(h.n, dtype=int)
    local = np.empty(h.n, dtype=int)
    for c, idx in enumerate(blocks):
        label[idx] = c
        local[idx] = np.arange(len(idx))
    edge_block = label[h.fin]
    total = np.zeros(len(times))
    for c, idx in enumerate(blocks):
        if len(idx) == 1:
            continue  # uncoupled level: zero-diagonal H contributes nothing
        sub = states[:, idx]
        touch = np.flatnonzero(np.any(sub != 0, axis=1))
        if len(touch) == 0:
            continue
        sub = sub[touch]
        rho = (sub.T * weights[touch]) @ sub.conj()
        e = np.flatnonzero(edge_block == c)
        a, b = local[h.fin[e]], local[h.ini[e]]
        h0 = np.zeros((len(idx), len(idx)), dtype=complex)
        h0[a, b] = h.omega[e]
        h0[b, a] = np.conj(h.omega[e])
        eps, v = np.linalg.eigh(h0 - np.diag(f[idx]))
        r = v.conj().T @ rho @ v
        g = v.conj().T @ h0 @ v
        c_mat = r * g.T
        p = np.exp(-2j * np.pi * np.outer(times, eps))
        vals = np.sum((p @ c_mat) * p.conj(), axis=1)
        if np.max(np.abs(vals.imag)) > 1e-10 * max(1.0, np.max(np.abs(vals.real))):
            raise ValueError("non-real ensemble expectation of a Hermitian operator")
        total += vals.real
    return PotentialTrace.from_values(times, total / omega_ref)


def prepare_initial(
    mode: str,
    h: CouplingMatrix,
    thermal: dict,
    vib_amplitudes=None,
    gap_warn: float = 1e-9,
) -> list[tuple[float, np.ndarray]]:
    """Weighted pure-state ensemble for one preparation protocol.

    mode "diabatic": bare states |1>|JKM> with thermal weights.
    mode "adiabatic": eigenvectors of H(0), each thermal bare state mapped
    to its maximum-overlap eigenvector (warns near degeneracies).
    mode "partially-dressed": the vibrational amplitude triple
    `vib_amplitudes` (a rotationless dressed state) tensored with each
    thermal rotational basis state.
    """
    members = []
    pos = {lvl: k for k, lvl in enumerate(h.basis)}
    weights = [(rot, w) for rot, w in thermal.items() if w > 0]
    if mode == "diabatic":
        for rot, w in weights:
            psi = np.zeros(h.n, dtype=complex)
            psi[pos[LevelIndex(1, rot)]] = 1.0
            members.append((w, psi))
    elif mode == "partially-dressed":
        if vib_amplitudes is None:
            raise ValueError("partially-dressed preparation needs vib_amplitudes")
        amps = np.asarray(vib_amplitudes, dtype=complex)
        for rot, w in weights:
            psi = np.zeros(h.n, dtype=complex)
            for m in range(3):
                psi[pos[LevelIndex(m + 1, rot)]] = amps[m]
            members.append((w, psi))
    elif mode == "adiabatic":
        vals, vecs = np.linalg.eigh(h.evaluate(0.0))
        scale = max(np.max(np.abs(vals)), 1e-300)
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
            members.append((w, vecs[:, n].astype(complex)))
    else:
        raise ValueError(f"unknown preparation mode {mode!r}")
    return members


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
