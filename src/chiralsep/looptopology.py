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
#: most open paths `find_loops` extends at once (4096 five-node paths with
#: 12 neighbours each grow to 2.4 MB of six-node rows)
LOOP_ROWS = 4096
#: most cycles `find_loops` lists: fig5 at jmax 8 has 973,627 of up to 6
#: levels; the `run` census of the builtin lasers at jmax 41 has 1,256,404
MAX_LOOPS = 2_000_000


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
    list is sorted by length, then node by node.

    One array path expansion lists every length.  Over ranked nodes and the
    sorted directed edge codes u n + v, open paths are int rows, starting
    from the edges p-q, p < q.  A path grows by each neighbour of its last
    node above a floor and not on it: the floor is the start, so a cycle is
    found from its smallest node, and on the closing step (to max_len nodes)
    path[1], so only the canonical orientation path[1] < path[-1] closes.  A
    path closes when `searchsorted` finds its start-last code.  LOOP_ROWS
    paths at most grow at a time, depth first and in order, so each length
    comes out sorted.  More than MAX_LOOPS cycles raise ValueError.
    """
    if isinstance(edges, np.ndarray):
        # distinct nodes by sort and compare (np.unique's hash path imports numpy.ma)
        names = np.sort(edges, axis=None)
        names = names[np.diff(names, prepend=names[:1] - 1) != 0]
        ends = np.searchsorted(names, edges.reshape(-1, 2))
        names = names.tolist()
    else:
        pairs = [(a, b) for a, b in edges]
        names = sorted({v for pair in pairs for v in pair})
        rank = {v: k for k, v in enumerate(names)}
        ends = np.array([(rank[a], rank[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
    nodes = np.fromiter(names, dtype=object, count=len(names))  # cycles share these objects
    n = len(nodes)
    u, v = ends[ends[:, 0] != ends[:, 1]].T
    codes = np.sort(np.concatenate((u * n + v, v * n + u)))
    codes = codes[np.diff(codes, prepend=-1) != 0]  # every code is >= 0
    stop = np.searchsorted(codes, np.arange(1, n + 1) * n)  # u's codes end at stop[u]
    up = codes[codes // n < codes % n]
    stack = [np.stack(np.divmod(up, n), axis=1)] if max_len >= 3 else []
    found = [[] for _ in range(max_len + 1)]  # the cycles of each length, by piece
    count = 0
    while stack:
        paths = stack.pop()
        if len(paths) > LOOP_ROWS:
            stack += [paths[k:k + LOOP_ROWS] for k in reversed(range(0, len(paths), LOOP_ROWS))]
            continue
        width = paths.shape[1] + 1
        last = paths[:, -1]
        lo = codes.searchsorted(last * n + paths[:, 1 if width == max_len else 0], "right")
        reps = stop[last] - lo
        at = (lo - reps.cumsum() + reps).repeat(reps) + np.arange(reps.sum())
        grown = np.concatenate((paths.repeat(reps, axis=0), codes[at, None] % n), axis=1)
        grown = grown[np.logical_and.reduce([col != grown[:, -1] for col in grown.T[1:-1]])]
        closing = grown[:, 0] * n + grown[:, -1]
        hit = codes[np.minimum(codes.searchsorted(closing), len(codes) - 1)] == closing
        found[width].append(grown[hit & (grown[:, 1] < grown[:, -1])])
        count += len(found[width][-1])
        if count > MAX_LOOPS:
            raise ValueError(f"more than {MAX_LOOPS} loops of up to {max_len} nodes")
        if width < min(max_len, n) and len(grown):  # a path of n nodes is a dead end
            stack.append(grown)
    return [c for per in found for part in per for c in nodes[part].tolist()]


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
