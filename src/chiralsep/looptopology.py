"""Spectral sensitivity of closed-loop Hamiltonians to Rabi sign flips.

A zero-diagonal Hermitian matrix of complex Rabi frequencies is viewed as a
weighted adjacency matrix.  Its spectrum changes under negation of a subset
of edges exactly when the subset flips the gauge-invariant phase of some
cycle, i.e. when an odd number of loop edges is negated; sign patterns on
tree-like parts are pure gauge.  `flip_sensitivity` classifies a whole list
of patterns of one Hamiltonian with stacked eigensolves, FLIP_BATCH
patterns at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPECTRUM_CHANGED = "spectrum-changed"
SPECTRUM_UNCHANGED = "spectrum-unchanged"
#: smallest eigenvalue gap of a `random_loop_hamiltonian` draw
MIN_GAP = 1e-6
#: most sign patterns `flip_sensitivity` stacks into one `eigvalsh` call
#: (1024 flipped 20-level matrices are 6.6 MB)
FLIP_BATCH = 1024


class FlipIndeterminateError(RuntimeError):
    """Spectral change below tolerance although a loop phase changed."""


def _edge_key(a, b):
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LoopHamiltonian:
    """n-level Hamiltonian with zero diagonal, stored as a dense matrix.

    The matrix is not changed after construction: its edges, spectrum and
    loop phases are each computed once, on first use.
    """

    matrix: np.ndarray

    @classmethod
    def from_upper(cls, n: int, omegas: dict) -> "LoopHamiltonian":
        """Build from {(i, j): omega} with 0 <= i < j < n."""
        h = np.zeros((n, n), dtype=complex)
        for (i, j), w in omegas.items():
            if not 0 <= i < j < n:
                raise ValueError(f"edge ({i}, {j}) out of range for n = {n}")
            h[i, j] = np.conj(w)
            h[j, i] = w
        return cls(h)

    @property
    def n(self):
        return self.matrix.shape[0]

    def edges(self):
        return list(self._edges)

    @cached_property
    def _edges(self) -> tuple:
        i, j = np.nonzero(np.triu(self.matrix, 1))
        return tuple(zip(i.tolist(), j.tolist()))

    @cached_property
    def _spectrum(self) -> np.ndarray:
        vals = np.linalg.eigvalsh(self.matrix)
        vals.flags.writeable = False
        return vals

    @cached_property
    def _loop_phases(self) -> dict:
        return loop_phases(self)

    def with_flips(self, flips) -> "LoopHamiltonian":
        h = self.matrix.copy()
        for a, b in flips:
            if h[a, b] == 0:
                raise ValueError(f"edge ({a}, {b}) has zero coupling")
            h[a, b] = -h[a, b]
            h[b, a] = -h[b, a]
        return LoopHamiltonian(h)


@dataclass(frozen=True, slots=True)  # a flip-sensitivity draw holds up to 65,535
class SignPattern:
    """Subset of (undirected) edges whose Rabi frequencies are negated."""

    flips: frozenset

    @classmethod
    def of(cls, *edges):
        return cls(frozenset(_edge_key(a, b) for a, b in edges))


def spectrum(h: LoopHamiltonian) -> np.ndarray:
    """Real eigenvalues, ascending; computed once per h and read-only."""
    return h._spectrum


def loop_phases(h: LoopHamiltonian, max_len: int = 8) -> dict[tuple, float]:
    """Gauge-invariant Re[product of couplings] around each simple cycle."""
    cycles = find_loops(h.edges(), max_len=max_len)
    out = {}
    for cyc in cycles:
        prod = 1.0 + 0j
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            prod *= h.matrix[b, a]
        out[tuple(cyc)] = float(np.real(prod))
    return out


def flip_sensitivity(h: LoopHamiltonian, patterns, tol: float = 1e-9) -> list[str]:
    """Classify each sign pattern as spectrum-changed or spectrum-unchanged.

    Returns one classification per pattern, in order.  Raises
    FlipIndeterminateError when a pattern's sorted spectrum agrees with h's
    within tol although the loop-phase product of some cycle changed sign (a
    degenerate coincidence; the caller should retry with perturbed
    couplings), and ValueError for a flipped edge with zero coupling; either
    error is that of the first failing pattern, as a loop over the patterns
    would raise it.  The patterns are taken FLIP_BATCH at a time: their
    flipped matrices go to one stacked `eigvalsh`.  A flip negates each
    cycle product exactly, so a cycle's phase after the flips is -(its
    phase) when an odd number of its edges flip and unchanged otherwise: the
    parities of all (pattern, cycle) pairs are one product of the patterns x
    edges flip mask with the cycle-edge incidence matrix.
    """
    column = {}  # an edge, either way round -> its column in the mask
    for k, (a, b) in enumerate(h._edges):
        column[a, b] = column[b, a] = k
    out = []
    for start in range(0, len(patterns), FLIP_BATCH):
        out += _classify(h, column, patterns[start:start + FLIP_BATCH], tol)
    return out


def _classify(h: LoopHamiltonian, column: dict, patterns, tol: float) -> list[str]:
    """`flip_sensitivity` of one stack of patterns."""
    n_edges = len(h._edges)
    flips = [edge for pattern in patterns for edge in pattern.flips]
    cols = np.array([column.get(edge, -1) for edge in flips], dtype=np.intp)
    rows = np.repeat(np.arange(len(patterns)), [len(pattern.flips) for pattern in patterns])
    count, bad_edge = len(patterns), None
    if np.any(cols < 0):  # the patterns before the first bad one are classified first
        at = int(np.argmax(cols < 0))
        count = rows[at]
        bad_edge = ValueError(f"edge ({flips[at][0]}, {flips[at][1]}) has zero coupling")
    keep = rows < count
    # an edge named both ways round flips back
    mask = np.bincount(rows[keep] * n_edges + cols[keep],
                       minlength=count * n_edges).reshape(count, n_edges) % 2 == 1
    i, j = np.array(h._edges, dtype=np.intp).reshape(-1, 2).T
    stack = np.repeat(h.matrix[None], count, axis=0)
    for a, b in ((i, j), (j, i)):
        stack[:, a, b] = np.where(mask, -h.matrix[a, b], h.matrix[a, b])
    dist = np.max(np.abs(spectrum(h) - np.linalg.eigvalsh(stack)), axis=1)
    changed = dist > tol
    if not changed.all():
        phases = h._loop_phases
        keys, values = list(phases), np.array(list(phases.values()))
        scale = float(np.max(np.abs(values), initial=0.0))
        incidence = np.zeros((len(keys), n_edges), dtype=np.int64)
        for c, key in enumerate(keys):
            incidence[c, [column[a, b] for a, b in zip(key, key[1:] + key[:1])]] = 1
        odd = (mask @ incidence.T) % 2 == 1
        hit = odd & ~changed[:, None] & (2 * np.abs(values) > tol * max(1.0, scale))
        if hit.any():
            p, c = np.argwhere(hit)[0]
            raise FlipIndeterminateError(
                f"loop phase of {keys[c]} changed but spectrum moved only {dist[p]:.2e}")
    if bad_edge is not None:
        raise bad_edge
    return [SPECTRUM_CHANGED if x else SPECTRUM_UNCHANGED for x in changed]


def find_loops(edges, max_len: int = 8) -> list[list]:
    """Deterministically enumerate simple cycles of length 3..max_len.

    `edges` is an iterable of node pairs with mutually comparable nodes, or
    an integer array of shape (edges, 2); self-loops and repeated edges are
    ignored.  Each cycle is rotated/reflected to a canonical node order; the
    list is sorted.

    Triangles alone (max_len 3) are listed by `_triangles`.  Otherwise a
    depth-first search runs from each start node s through nodes > s only,
    so a cycle is found from its smallest node; of its two orientations only
    the one with path[1] < path[-1] is kept, which is the canonical one.
    """
    if max_len == 3:
        return _triangles(edges)
    if isinstance(edges, np.ndarray):
        edges = edges.tolist()
    adj: dict = {}
    for a, b in edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    nbrs = {u: sorted(vs) for u, vs in adj.items()}
    loops = []

    def extend(path):
        start, last = path[0], path[-1]
        if len(path) >= 3 and path[1] < last and start in adj[last]:
            loops.append(list(path))
        if len(path) >= max_len:
            return
        for v in nbrs[last]:
            if v > start and v not in path:
                path.append(v)
                extend(path)
                path.pop()

    for s in nbrs:
        extend([s])
    loops.sort(key=lambda c: (len(c), c))
    return loops


def _triangles(edges) -> list[list]:
    """The canonical 3-cycles [p, q, r], p < q < r, in sorted order.

    A join over sorted edge codes: with the nodes ranked 0..n-1, edge p-q
    (p < q) has the code p n + q.  Each edge p-q, in code order, is paired
    with every higher neighbour r of q by `np.repeat`, and the closing edge
    p-r is looked up by `searchsorted`, so the triangles come out sorted.
    """
    if isinstance(edges, np.ndarray):
        # distinct nodes by sort and neighbour compare: np.unique's hash
        # path imports numpy.ma
        nodes = np.sort(edges, axis=None)
        nodes = nodes[np.diff(nodes, prepend=nodes[:1] - 1) != 0]
        ends = np.searchsorted(nodes, edges.reshape(-1, 2))
    else:
        pairs = [(a, b) for a, b in edges]
        names = sorted({v for pair in pairs for v in pair})
        rank = {v: k for k, v in enumerate(names)}
        ends = np.array([(rank[a], rank[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
        nodes = np.arange(len(names))
    n = len(nodes)
    lo, hi = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1).T
    codes = np.sort(lo * n + hi)
    codes = codes[np.diff(codes, prepend=-1) != 0]  # every code is >= 0
    p, q = np.divmod(codes, n)
    higher = np.bincount(p, minlength=n)  # each node's edges to higher nodes,
    start = np.cumsum(higher) - higher    # which begin at codes[start[node]]
    reps = higher[q]
    first = np.cumsum(reps) - reps
    r = q[np.repeat(start[q] - first, reps) + np.arange(int(np.sum(reps)))]
    p = np.repeat(p, reps)
    closing = p * n + r
    at = np.minimum(np.searchsorted(codes, closing), len(codes) - 1)
    hit = codes[at] == closing
    loops = nodes[np.stack((p, np.repeat(q, reps), r), axis=1)[hit]].tolist()
    if isinstance(edges, np.ndarray):
        return loops
    return [[names[a], names[b], names[c]] for a, b, c in loops]


def random_loop_hamiltonian(n: int, rng: np.random.Generator) -> LoopHamiltonian:
    """Generic n-cycle Hamiltonian: |omega| in [0.5, 1.5], uniform phases.

    Draws are repeated until the spectrum is non-degenerate (gap > MIN_GAP),
    since accidental degeneracies defeat the flip-parity classification.
    """
    ring = [(i, (i + 1) % n) for i in range(n)]
    while True:
        omegas = {
            _edge_key(a, b): rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            for a, b in ring
        }
        h = LoopHamiltonian.from_upper(n, omegas)
        eig = spectrum(h)
        if np.min(np.diff(eig)) > MIN_GAP:
            return h
