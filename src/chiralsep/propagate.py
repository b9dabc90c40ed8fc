"""Norm-preserving propagation under the time-dependent coupling Hamiltonian.

Two schemes are provided.  The generic stepper applies the exact unitary of
the midpoint-evaluated Hamiltonian per step (eigendecomposition, unitary to
machine precision).  When the detunings are consistent with a per-level
potential f (Delta_fi = f_f - f_i for every edge, which holds whenever the
three laser frequencies close the loop) the interaction picture is mapped
to a static frame and propagated exactly in one eigendecomposition:

    H(t) = U(t) H0 U(t)^dag,  U = diag(e^{-i 2 pi f t})
    psi(t) = U(t) exp(-i 2 pi (H0 - diag(f)) t) psi(0)

The run works block by block: `_blocks` splits the coupling graph into its
connected components once, with each level's block and block position and
each block's edges, and the preparation and the trace both work from that.
The same pass solves f, in array rounds over all edges: `components` names
each block by its smallest level (min-label propagation with pointer
jumping, Shiloach & Vishkin, J. Algorithms 3, 57 (1982)), and f grows from
0 there in breadth-first layers.
Thermal mixtures are weighted ensembles of pure states stored as (member,
level, amplitude) triplets, so no length-n member vector is formed; an
adiabatic member is an eigenvector of its bare state's block H(0), so it
lives inside that block.  The ensemble trace takes every branch of one
enantiomer (of both, when `scenarios.run_scenario` maps R onto H_L) in one
call and loops once over the blocks, with no n x n matrix and no per-member
state.  A branch's block density matrix rho = A^T W conj(A), W = diag(w),
is known by its canonical factor (A, w) (`_factor`): a row of A per
thermal member, with at most 3 nonzeros.  Each distinct block trace is
computed once, decided on the factors, by one rule: every block is traced
in its representative, the lower of it and its mirror under the (K, M)
reversal S (`hamiltonian.mirror_permutation`) when S maps the table onto
itself exactly (`hamiltonian.is_symmetry`), else itself; a branch's factor
in the mirror block is moved through S first, and equal factors share one
column.  One of two kernels evolves the distinct factors on the output
grid np.linspace(0, t_end, n), which the trace builds itself:

- static frame: one eigendecomposition H0 - diag(f) = V diag(eps) V^dag
  and G = V^dag H0 V per block; then each factor on its own, with no rho.
  B = A conj(V) gives eigencomponent n the weight w_n = sum_m w_m |B_mn|^2;
  a Schwarz bound 2 sum_{n in D} sqrt(w_n) (|G|^T sqrt(w))_n limits what
  leaving out a set D of components moves any value, and the factor leaves
  out the largest D whose bound stays below half of SCREEN_BUDGET (1e-14
  GHz).  On the kept set K, rho~ = B_K^T W conj(B_K) and the Hermitian
  C = rho~ * G_KK^T = X + iY give, with p_n(t) = exp(-i 2 pi eps_n t) =
  c_n - i s_n, <H(t)> = sum_nm p_n C_nm conj(p_m) = c X c + s X s - 2 c Y s:
  one real product [c; s] @ X, and c @ Y only when Y is nonzero (never for
  real couplings and a real A).  The phases come from ~2 sqrt(n) rows of
  exponentials, and the grid is walked in chunks of whole coarse rows of
  those, up to CHUNK_VALUES values of [c; s] each, so the values are the
  one array of n rows.  No factor's arithmetic depends on another's, and a
  branch with a negative weight turns screening off for itself only, so a
  branch's values are the same, bit for bit, whichever branches share the
  call.  The builtin traces stay within 1e-12 Omega12 of the direct complex
  contraction over all components (at most 5.3e-13, fig7);
- midpoint (no node potential): each factor's rho, evolved on the generic
  stepper's schedule, one eigendecomposition per block and step (solved in
  stacks), rho <- U rho U^dag, with <H(t)> = tr(rho H(t)) at the output times.

Before either kernel, a branch leaves out every block whose whole
contribution, tr(rho_c) ||H_c||, is below the other half of SCREEN_BUDGET;
a block no branch keeps gets no factor, no eigendecomposition and no kernel
(fig5 at jmax 8 keeps 10 of its 34 blocks).

A trace predicts its size before it builds any array and raises
TraceTooLargeError above a fixed ceiling: MAX_TRACE_BYTES for the arrays of
n rows a static trace holds at once, 8 n (1 + 3 branches) bytes (the grid,
the totals, one block's values), MAX_MIDPOINT_STEPS for the midpoint
schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CouplingMatrix, LevelIndex, is_symmetry, mirror_permutation

#: largest change, in GHz, that screening may make to any block's <H(t)>
SCREEN_BUDGET = 1e-14
#: ceilings on one trace, checked before it builds any array
MAX_TRACE_BYTES = 2**30  # the n-row arrays one static trace holds at once
MAX_MIDPOINT_STEPS = 10**6  # steps of the midpoint schedule
#: values of [c; s] in one chunk of the static kernel's grid (at least one
#: coarse row), and entries of the midpoint's step matrices in one stack.
#: Swept over 2**13 to 2**16 for the grid (2-vCPU Xeon, 2 MiB L2, one BLAS
#: thread): kernel times within noise, fig5-j8 peak RSS 39.5 MB at 2**14 up
#: to 41.2 at 2**16, and 2**14 is the least that takes a 3-level block's
#: 2,000 times in one chunk
CHUNK_VALUES = 2**14
#: relative eigenvalue gap below which an adiabatic assignment warns
GAP_WARN = 1e-9
#: bare-state overlaps this close (relative) to the largest count as a tie
TIE_RTOL = 1e-12


class StepTooLargeError(ValueError):
    """dt does not resolve the fastest frequency in the Hamiltonian."""


class MismatchedGridError(ValueError):
    """Traces to be averaged live on different time grids."""


class TraceTooLargeError(ValueError):
    """A trace predicted to exceed MAX_TRACE_BYTES or MAX_MIDPOINT_STEPS.

    `by_grid` is true when the number of output times sets the size, false
    when the length of the time span does.
    """

    def __init__(self, message, by_grid):
        super().__init__(message)
        self.by_grid = by_grid


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

    The potential of `_blocks`: f = 0 at each block's smallest level, grown
    outward one edge per layer and verified on every edge; None when some
    loop of laser detunings does not close within tol.
    """
    return _blocks(h, tol)[4]


def components(h: CouplingMatrix) -> list[np.ndarray]:
    """Index sets of the connected components of the coupling graph.

    Components are ordered by their smallest level, each one ascending.
    Every level starts labelled by itself; each round lowers the label at
    both ends of every edge to the smaller of the two (`np.minimum.at`),
    then jumps each label to its label's label.  A label is always a level
    of its own component and never above the least label within k edges
    after round k, so the labels reach each component's smallest level
    within its diameter, and the loop ends within n rounds.
    """
    label = np.arange(h.n)
    while True:
        prev = label
        label = label.copy()
        np.minimum.at(label, h.fin, label[h.ini])
        np.minimum.at(label, h.ini, label[h.fin])
        label = label[label]
        if np.array_equal(label, prev):
            break
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


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


def _midpoint_schedule(h: CouplingMatrix, times, dt=None) -> tuple[float, int]:
    """(dt, steps per output interval) of the midpoint stepper.

    dt defaults to `default_dt` over the whole table and is shortened so
    that a whole number of steps fills each interval of the output grid.
    """
    if dt is None:
        dt = default_dt(h)
    fmax = max_frequency(h)
    if fmax > 0 and dt > 1.0 / (20.0 * fmax) * (1 + 1e-12):
        raise StepTooLargeError(f"dt = {dt} does not resolve 1/(20 * {fmax} GHz)")
    seg = times[-1] / (len(times) - 1) if len(times) > 1 else 0.0
    steps = max(1, int(np.ceil(seg / dt)))
    return (seg / steps if seg else dt), steps


def _propagate_midpoint(h, psi0, times, dt):
    dt, steps = _midpoint_schedule(h, times, dt)
    out = np.empty((len(times), h.n), dtype=complex)
    psi = psi0.copy()
    out[0] = psi
    for k in range(len(times) - 1):
        t = times[k]
        for s in range(steps):
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


def ensemble_potential_trace(
    h: CouplingMatrix,
    ensembles: dict,
    t_end: float,
    n: int,
    omega_ref: float = 1.0,
) -> dict:
    """Weighted-ensemble <H_int(t)> of every branch on np.linspace(0, t_end, n).

    `ensembles` maps a branch label to its Ensemble; returns the mapping
    branch -> PotentialTrace in the same order, all on one grid of n >= 1
    times, which is built only after the size ceilings are checked.
    Mathematically identical to propagating each pure member and averaging,
    but traces one canonical factor (`_factor`) of the density matrix per
    block and branch: in the static frame when a node potential exists, with
    no rho, else as a rho on the steps of `propagate(method="midpoint")`.
    In either kernel a branch's values do not depend on the other branches.

    Each distinct block trace is computed once, decided on the factors.
    When the (K, M) reversal S (`mirror_permutation`) maps the table onto
    itself exactly (`is_symmetry`), block c is traced in its representative
    p = min(c, S(c)), else in itself.  A branch's triplets in c, mapped
    through S when c != p, give its factor in p's positions: S commutes
    with H(t), so S rho_c S^dag traced in p equals rho_c traced in c.
    Equal factors with equal budgets share one column, so a branch and its
    mirror image share, as do a branch's blocks of a pair.

    Screening moves each value by at most SCREEN_BUDGET (GHz), split in two
    fixed halves.  The block screen serves both kernels: a branch leaves out
    block c when tr(rho_c) ||H_c|| (`_block_bounds`) is below half the
    budget.  The component screen of `_block_expectations` gets the other
    half.  A branch with a negative weight has budget 0, which leaves out
    nothing of it.
    """
    if n < 1:
        raise ValueError(f"a trace needs n >= 1 output times, got {n}")
    for branch, ens in ensembles.items():
        if len(ens.weights) == 0:
            raise ValueError(f"branch {branch}: empty ensemble")
    blocks, label, local, edges, f = _blocks(h)
    # the ceilings are checked before any array of n values is built.  The
    # static trace holds the grid, a row of totals per branch (returned as
    # the values) and one block's values, at most two columns per branch
    need = 8 * n * (1 + 3 * len(ensembles))
    if f is not None and need > MAX_TRACE_BYTES:
        raise TraceTooLargeError(f"the static trace needs {need} bytes of n-row arrays, "
                                 f"more than {MAX_TRACE_BYTES} bytes", by_grid=True)
    if f is None and n - 1 > MAX_MIDPOINT_STEPS:  # at least one step per output interval
        raise TraceTooLargeError(f"the midpoint stepper needs at least {n - 1} steps, "
                                 f"more than {MAX_MIDPOINT_STEPS}", by_grid=True)
    times = np.linspace(0.0, t_end, n)
    if f is None:
        dt, steps = _midpoint_schedule(h, times)
        if steps * (n - 1) > MAX_MIDPOINT_STEPS:
            raise TraceTooLargeError(f"the midpoint stepper needs {steps * (n - 1)} steps, "
                                     f"more than {MAX_MIDPOINT_STEPS}", by_grid=False)
    # a negative weight leaves rho indefinite, where both screening bounds fail
    budget = np.array([SCREEN_BUDGET if np.all(e.weights >= 0) else 0.0
                       for e in ensembles.values()])
    # the block screen spends half the budget, the kernel's component screen the rest
    kept = (budget[:, None] == 0) | ~(_block_bounds(h, ensembles, label, len(blocks))
                                      < budget[:, None] / 2)  # keeps a NaN
    mirror = mirror_permutation(h.lookup)
    if mirror is not None and not is_symmetry(h, *mirror):
        mirror = None
    # each traced block's representative: the lower of it and its mirror block
    rep = {c: c if mirror is None else min(c, int(label[mirror[0][blocks[c][0]]]))
           for c in np.flatnonzero(np.any(kept, axis=0)).tolist()
           if len(blocks[c]) > 1}  # an uncoupled level's zero-diagonal H adds nothing
    triplet_block = [label[ens.level] for ens in ensembles.values()]
    totals = np.zeros((len(ensembles), n))
    for p in sorted(set(rep.values())):
        idx = blocks[p]
        # factors holds each distinct factor's column; col each traced (branch, column)
        factors, col = {}, []
        for c in (c for c in rep if rep[c] == p):
            for k, ens in enumerate(ensembles.values()):
                sel = np.flatnonzero(triplet_block[k] == c) if kept[k, c] else []
                if len(sel) == 0:
                    continue
                lvl, member, amp = ens.level[sel], ens.member[sel], ens.amp[sel]
                if c != p:  # S moves the branch's rho in c into p
                    perm, sign = mirror
                    lvl, amp = perm[lvl], amp * sign[lvl]
                key, factor = _factor(local[lvl], member, amp, ens.weights)
                col.append((k, factors.setdefault((budget[k], key), (len(factors), factor))[0]))
        if not col:
            continue
        subs = []
        for _, (pos, row, amp, w) in factors.values():
            sub = np.zeros((len(w), len(idx)), dtype=complex)
            sub[row, pos] = amp
            subs.append((sub, w))
        if f is None:
            vals = _block_midpoint(edges(p), np.array([(a.T * w) @ a.conj() for a, w in subs]),
                                   times, dt, steps)
        else:
            vals = _block_expectations(_block_matrix(*edges(p), 0.0), f[idx], subs, times,
                                       np.array([b for b, _ in factors]) / 2)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite ensemble expectation")
        for k, j in col:
            totals[k] += vals[:, j]
    totals /= omega_ref
    return {branch: PotentialTrace.from_values(times, totals[k])
            for k, branch in enumerate(ensembles)}


def _factor(pos, member, amp, weights):
    """(key, factor) of one branch's block rho = sum_r w_r a_r a_r^dag.

    factor = (pos, row, amp, w): triplet j puts amp[j] at block position
    pos[j] of row row[j], and row r has weight w[r].  The triplets are in
    position order (member order within a position) and rows are numbered
    by their first triplet; each row is negated, an exact flip that leaves
    rho as it is, where its first amplitude's first nonzero part (real,
    then imaginary) is negative, and -0.0 becomes 0.0.  Equal keys give
    equal factors, and so bitwise-equal traces of them.
    """
    order = np.lexsort((member, pos))
    pos, member, amp = pos[order], member[order], amp[order]
    touch, first, row = np.unique(member, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    row = np.argsort(by_first)[row]  # each member's rank by its first triplet
    lead = amp[first[by_first]]
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    amp = np.where(flip[row], -amp, amp) + 0.0
    w = weights[touch[by_first]] + 0.0
    return (pos.tobytes(), row.tobytes(), amp.tobytes(), w.tobytes()), (pos, row, amp, w)


def _block_bounds(h: CouplingMatrix, ensembles: dict, label, count) -> np.ndarray:
    """tr(rho_c) ||H_c||, the most block c can add to a branch's <H(t)>.

    Shape (branches, blocks).  tr(rho_c) = sum_m w_m ||psi_{m,c}||^2 is one
    bincount per branch; ||H_c(t)|| is at most the block's largest row sum of
    |omega|, at every t.  |tr(rho_c H_c)| <= tr(rho_c) ||H_c|| holds for a
    positive semidefinite rho_c.
    """
    size = np.abs(h.omega)
    rows = np.bincount(h.fin, size, minlength=h.n) + np.bincount(h.ini, size, minlength=h.n)
    norm = np.zeros(count)
    np.maximum.at(norm, label, rows)
    mass = [np.bincount(label[ens.level], ens.weights[ens.member] * np.abs(ens.amp) ** 2,
                        minlength=count) for ens in ensembles.values()]
    return np.array(mass).reshape(-1, count) * norm


def _blocks(h: CouplingMatrix, tol: float = 1e-10):
    """(blocks, label, local, edges, f): the coupling graph by blocks.

    `blocks` are the index sets of `components`; level i sits at position
    local[i] of block label[i]; edges(c) = (size, a, b, omega, delta) holds
    block c's couplings in block-local positions, the leading arguments of
    `_block_matrix`.  edges(c) is built on demand, for the blocks a caller
    visits only.

    f is the node potential (Delta = f_fin - f_ini on every edge), or None
    when some edge misses it by more than tol.  It is 0 at each block's
    smallest level and grows in breadth-first layers: each layer sets every
    unset level one edge from a set one, along the first such edge in edge
    order (edge k, fin -> ini, is step k; ini -> fin is step E + k).  The
    layers stop when no unset level has a set neighbour; each one sets at
    least one level, so there are at most n.
    """
    blocks = components(h)
    sizes = [len(idx) for idx in blocks]
    start = np.cumsum(sizes) - sizes
    order = np.concatenate(blocks)
    label = np.empty(h.n, dtype=int)
    local = np.empty(h.n, dtype=int)
    label[order] = np.repeat(np.arange(len(blocks)), sizes)
    local[order] = np.arange(h.n) - np.repeat(start, sizes)
    edge_block = label[h.fin]

    def edges(c):
        e = np.flatnonzero(edge_block == c)
        return len(blocks[c]), local[h.fin[e]], local[h.ini[e]], h.omega[e], h.delta[e]

    src = np.concatenate((h.fin, h.ini))
    dst = np.concatenate((h.ini, h.fin))
    step = np.concatenate((-h.delta, h.delta))
    f = np.zeros(h.n)
    known = local == 0  # each block's smallest level, at its position 0
    pending = np.flatnonzero(~known[dst])  # steps into unset levels, in order
    while len(e := pending[known[src[pending]]]):
        # the first step into each level: a stable sort by target
        e = e[np.argsort(dst[e], kind="stable")]
        e = e[np.diff(dst[e], prepend=-1) != 0]
        f[dst[e]] = f[src[e]] + step[e]
        known[dst[e]] = True
        pending = pending[~known[dst[pending]]]
    resid = np.max(np.abs(f[h.fin] - f[h.ini] - h.delta), initial=0.0)
    return blocks, label, local, edges, (f if resid <= tol else None)


def _block_matrix(size, a, b, omega, delta, t) -> np.ndarray:
    """Dense block H(t) from its edges (a, b) in block-local positions; for
    t of shape (s, 1), the stack of the s matrices H(t_j)."""
    w = omega * np.exp(-2j * np.pi * delta * t)
    m = np.zeros(w.shape[:-1] + (size, size), dtype=complex)
    m[..., a, b] = w
    m[..., b, a] = np.conj(w)
    return m


def _block_expectations(h0, f, factors, times, budget=SCREEN_BUDGET) -> np.ndarray:
    """<H(t)> of each block rho, given by its factor (A, w); shape (times, factors).

    A factor stands for rho = A^T W conj(A), W = diag(w), and no rho is
    formed.  One eigenframe (`_eigenframe`) serves the block; each factor is
    then traced on its own, so its values do not depend on the others.  With
    H0 - diag(f) = V diag(eps) V^dag and G = V^dag H0 V, B = A conj(V) has
    row m = (V^dag a_m)^T, so rho~ = V^dag rho V = B^T W conj(B), and
    C_nm = rho~_nm G_mn is Hermitian; X = Re C is symmetric and Y = Im C
    antisymmetric.  With c = cos(theta), s = sin(theta), theta_n(t) = 2 pi eps_n t,

        <H(t)> = sum_nm p_n C_nm conj(p_m) = c X c + s X s - 2 c Y s,

    one real product [c; s] @ X, and a second one c @ Y only when Y is
    nonzero.  A block with real couplings has a real V, so B is formed in
    real arithmetic, and Y vanishes, whenever A is real.  C is replaced by
    its Hermitian part; a remainder above 1e-10 max(1, max|C|), or a NaN,
    raises ValueError.

    Screening: a positive semidefinite rho~ has |rho~_nm| <= sqrt(w_n w_m),
    w_n = rho~_nn = sum_m w_m |B_mn|^2 (a non-finite w_n raises ValueError),
    so leaving out the components in a set D (every pair n, m with n or m
    in D) moves each value by at most

        2 sum_{n in D} sqrt(w_n) (|G|^T sqrt(w))_n    (GHz, at every t).

    `_screen` gives each factor the largest D whose bound stays below its
    `budget` (one per factor, or one for all); rho~, C, the phases and the
    products are formed on the kept set only.  The bound fails for a
    negative weight, which needs budget 0 (drops nothing);
    `ensemble_potential_trace` passes half of a factor's budget, and its
    block screen spends the other half.
    On the builtin scenarios the traces stay within 1e-12 Omega12 of the
    unscreened complex contraction.
    The phases come from `_phases`, so the grid must be
    linspace(0, t_end, n).  Each factor walks the grid in chunks of whole
    coarse rows, up to CHUNK_VALUES values of [c; s] each, so only the
    output has n rows; its chunks depend on n and its kept count only.
    """
    eps, v, g = _eigenframe(h0, f)
    n = len(times)
    vals = np.zeros((n, len(factors)))
    budget = np.broadcast_to(budget, len(factors))
    for k, (sub, w) in enumerate(factors):
        b = (sub if np.any(sub.imag) else sub.real) @ v.conj()
        if not np.all(np.isfinite(weights := w @ np.abs(b) ** 2)):
            raise ValueError("non-finite ensemble expectation")
        keep = np.flatnonzero(~_screen(weights, g, budget[k])[0])
        s = len(keep)
        if s == 0:
            continue  # a factor that keeps nothing adds 0
        b = b[:, keep]
        c = ((b.T * w) @ b.conj()) * g[np.ix_(keep, keep)].T
        herm = (c + c.conj().T) / 2
        # also false for NaN, so a non-finite C raises here too
        if not np.max(np.abs(c - herm)) <= 1e-10 * max(1.0, np.max(np.abs(c))):
            raise ValueError("non-real ensemble expectation of a Hermitian operator")
        y = np.any(herm.imag)
        coarse, fine = _phases(times, eps[keep])
        m = len(fine)
        step = max(1, CHUNK_VALUES // (2 * m * s))  # coarse rows per chunk
        for a in range(0, len(coarse), step):
            p = (coarse[a:a + step, None, :] * fine).reshape(-1, s)[:n - a * m]
            rows = slice(a * m, a * m + len(p))
            q = np.concatenate((p.real, p.imag))
            z = np.einsum("tn,tn->t", q @ herm.real, q)
            vals[rows, k] = z[:len(p)] + z[len(p):]
            if y:
                vals[rows, k] += 2 * np.einsum("tn,tn->t", q[:len(p)] @ herm.imag, q[len(p):])
    return vals


def _eigenframe(h0, f):
    """(eps, V, G) with H0 - diag(f) = V diag(eps) V^dag and G = V^dag H0 V.

    V and G are real when h0 is.  V and eps are eigh's, refined by `_refine`.
    """
    if not np.any(h0.imag):
        h0 = h0.real  # real eigh: real V and G
    eps, v = _refine(h0, f, np.linalg.eigh(h0 - np.diag(f))[1])
    return eps, v, v.conj().T @ h0 @ v


def _refine(h0, f, v) -> tuple[np.ndarray, np.ndarray]:
    """(eps, V): eigh's eigenvectors v of H0 - diag(f), re-solved per cluster.

    eigh errs by several ulp of max|f| in the eigenvalues, and in the
    eigenvectors by that over the gap; 2 pi eps t carries both into the
    phases, the second through pairs whose small gap mixes them.  Where the
    spread of f dwarfs the couplings, each column lies mostly on levels of
    one f: columns whose largest entry's f values sit within ||H0|| (its
    largest row sum) of each other form a cluster S, and with that f_S,

        V_S^dag (H0 - diag(f)) V_S = M - f_S,  M = V_S^dag (H0 + diag(f_S - f)) V_S,

    where M is small and formed without rounding at the size of f.  Its
    eigh M = U diag(mu) U^dag gives eps_S = mu - f_S and V_S U.
    """
    lead = f[np.argmax(np.abs(v), axis=0)]
    order = np.argsort(lead, kind="stable")
    cut = np.flatnonzero(np.diff(lead[order]) > np.max(np.sum(np.abs(h0), axis=1))) + 1
    eps, out = np.empty(len(f)), np.empty_like(v)
    for s in np.split(order, cut):
        shift, vs = lead[s[0]], v[:, s]
        mu, u = np.linalg.eigh(vs.conj().T @ (h0 @ vs + (shift - f)[:, None] * vs))
        eps[s] = mu - shift
        out[:, s] = vs @ u
    return eps, out


def _screen(w, g, budget) -> tuple[np.ndarray, float]:
    """(dropped, bound): the components one factor leaves out, shape (s,),
    and the bound on how far that moves its values.

    w is the diagonal of the factor's V^dag rho V and g is G; see
    `_block_expectations`.  The bound of a set D is the sum of
    t_n = 2 sqrt(w_n) (|G|^T sqrt(w))_n over D, so the largest D below the
    budget is a prefix of the t_n in ascending order.  A NaN is never dropped.
    """
    sw = np.sqrt(np.maximum(w, 0.0))  # a negative weight can leave w_n below 0
    t = 2 * sw * (sw @ np.abs(g))
    order = np.argsort(t, kind="stable")  # NaN sorts last
    cum = np.cumsum(t[order])
    count = np.count_nonzero(cum < budget)  # cum never decreases
    return np.argsort(order) < count, float(cum[count - 1]) if count else 0.0


def _phases(times, eps) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, fine): exp(-i 2 pi eps_n t_k) on times = linspace(0, t_end, n), factored.

    With m = ceil(sqrt(n)), row a*m + b of the phases (a row for each time)
    is coarse[a] * fine[b], a coarse row at times[a*m] times a fine row at
    times[b]: (n/m + m) exponentials per level instead of n.  Each product
    is within 4 ulp of max(largest phase, 1) of the direct
    exp(-i 2 pi outer(times, eps)).
    """
    m = math.isqrt(len(times) - 1) + 1
    return (np.exp(-2j * np.pi * np.outer(times[::m], eps)),
            np.exp(-2j * np.pi * np.outer(times[:m], eps)))


def _block_midpoint(edges, rho, times, dt, steps) -> np.ndarray:
    """<H(t)> = tr(rho H(t)) of each stacked block rho, shape (times, rhos).

    Each step applies U = V exp(-i 2 pi lam dt) V^dag, from the midpoint
    H = V diag(lam) V^dag, to every rho as U rho U^dag.  The steps' H do
    not depend on rho: one `eigh` solves a stack of up to CHUNK_VALUES
    entries (at least one H), and rho takes the steps in order, bit for bit
    as with one solve per step.  A column whose imaginary part exceeds
    1e-10 max(1, its largest |real part|), or holds a NaN, raises ValueError.
    """
    out = np.empty((len(times), len(rho)), dtype=complex)
    out[0] = np.sum(rho * _block_matrix(*edges, times[0]).T, axis=(1, 2))
    size, a, b, omega, delta = edges
    total, stack = steps * (len(times) - 1), max(1, CHUNK_VALUES // size**2)
    for start in range(0, total, stack):
        interval, s = np.divmod(np.arange(start, min(start + stack, total)), steps)
        # omega as a (1, E) row: numpy rounds a (1,) times (1, 1) product otherwise
        lam, v = np.linalg.eigh(_block_matrix(size, a, b, omega[None], delta,
                                              (times[interval] + (s + 0.5) * dt)[:, None]))
        u = (v * np.exp(-2j * np.pi * lam * dt)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        for k, last, step in zip(interval.tolist(), (s == steps - 1).tolist(), u):
            rho = step @ rho @ step.conj().T
            if last:  # at times[k + 1]
                out[k + 1] = np.sum(rho * _block_matrix(*edges, times[k + 1]).T, axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(out.real), axis=0))
    if not np.all(np.max(np.abs(out.imag), axis=0) <= 1e-10 * scale):  # false for NaN
        raise ValueError("non-real ensemble expectation of a Hermitian operator")
    return out.real


def prepare_initial(
    mode: str,
    h: CouplingMatrix,
    thermal: dict,
    vib_amplitudes=None,
) -> Ensemble:
    """Weighted pure-state ensemble for one preparation protocol.

    mode "diabatic": bare states |1>|JKM> with thermal weights.
    mode "adiabatic": each thermal bare state mapped to the eigenvector of
    its block's H(0) with the largest overlap; warns when that eigenvalue
    lies within GAP_WARN times the block's largest |eigenvalue| of another
    one of the block.  Overlaps within TIE_RTOL (relative) of the largest
    are a tie, which takes the lowest eigenvalue and warns with the tied
    eigenvalues, so rounding cannot split L from R.
    mode "partially-dressed": the vibrational amplitude triple
    `vib_amplitudes` (a rotationless dressed state) tensored with each
    thermal rotational basis state.
    """
    weights = [(rot, w) for rot, w in thermal.items() if w > 0]
    ws = [w for _, w in weights]
    jkm = np.array([(rot.J, rot.K, rot.M) for rot, _ in weights], dtype=np.int64).reshape(-1, 3)
    find = h.lookup[1]

    def levels(vibs):
        """Basis positions of |vib>|rot>, shape (members, vibs)."""
        pos = find(np.array(vibs)[None, :], *jkm.T[:, :, None])
        missing = np.argwhere(pos < 0)
        if len(missing):
            k, v = missing[0]
            raise KeyError(LevelIndex(vibs[v], weights[k][0]))
        return pos

    if mode == "diabatic":
        level = levels((1,)).ravel()
        return Ensemble.from_triplets(h.n, ws, np.arange(len(level)), level,
                                      np.ones(len(level)))
    if mode == "partially-dressed":
        if vib_amplitudes is None:
            raise ValueError("partially-dressed preparation needs vib_amplitudes")
        amps = np.asarray(vib_amplitudes, dtype=complex)
        return Ensemble.from_triplets(h.n, ws, np.repeat(np.arange(len(weights)), 3),
                                      levels((1, 2, 3)).ravel(), np.tile(amps, len(weights)))
    if mode == "adiabatic":
        blocks, label, local, edges, _ = _blocks(h)
        eig, member, level, amp = {}, [], [], []
        for k, ((rot, _), bare) in enumerate(zip(weights, levels((1,))[:, 0].tolist())):
            c = label[bare]
            if c not in eig:
                eig[c] = np.linalg.eigh(_block_matrix(*edges(c), 0.0))
            vals, vecs = eig[c]
            overlap = np.abs(vecs[local[bare], :])
            # overlaps within TIE_RTOL of the largest tie; eigh sorts vals
            # ascending, so the first tied eigenvector has the lowest eigenvalue
            tied = np.flatnonzero(overlap >= (1.0 - TIE_RTOL) * np.max(overlap))
            n = int(tied[0])
            if len(tied) > 1:
                warnings.warn(
                    f"adiabatic assignment for {rot}: bare-state overlaps tie for "
                    f"eigenvalues {', '.join(f'{vals[t]:.12g}' for t in tied)} GHz; "
                    "took the lowest",
                    DegenerateEigenstateWarning, stacklevel=2,
                )
            gaps = np.abs(vals - vals[n])
            gaps[n] = np.inf
            if np.min(gaps) < GAP_WARN * max(np.max(np.abs(vals)), 1e-300):
                warnings.warn(
                    f"adiabatic assignment for {rot} near-degenerate; "
                    "resolved by maximal bare-state overlap",
                    DegenerateEigenstateWarning, stacklevel=2,
                )
            member += [k] * len(blocks[c])
            level.extend(blocks[c])
            amp.extend(vecs[:, n])
        return Ensemble.from_triplets(h.n, ws, member, level, amp)
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
