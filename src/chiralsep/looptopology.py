"""Spectral sensitivity of closed-loop Hamiltonians to Rabi sign flips.

A zero-diagonal Hermitian matrix of complex Rabi frequencies is viewed as a
weighted adjacency matrix.  Its spectrum changes under negation of a subset
of edges exactly when the subset flips the gauge-invariant phase of some
cycle, i.e. when an odd number of loop edges is negated; sign patterns on
tree-like parts are pure gauge.  A sign pattern is a row of a bool mask
over the edges of h, column k for h.edges()[k]; `flip_sensitivity`
classifies every row of one such mask with stacked eigensolves, FLIP_BATCH
rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    def with_flips(self, flips) -> "LoopHamiltonian":
        h = self.matrix.copy()
        for a, b in flips:
            if h[a, b] == 0:
                raise ValueError(f"edge ({a}, {b}) has zero coupling")
            h[a, b] = -h[a, b]
            h[b, a] = -h[b, a]
        return LoopHamiltonian(h)


def spectrum(h: LoopHamiltonian) -> np.ndarray:
    """Real eigenvalues, ascending; computed once per h and read-only."""
    return h._spectrum


def loop_phases(h: LoopHamiltonian, max_len: int = 8):
    """(cycles, phases): the simple cycles of h as `find_loops` rows and the
    gauge-invariant Re[product of couplings] around each."""
    cycles, ends = _cycles(h._edges, max_len)
    return cycles, np.prod(np.where(cycles >= 0, h.matrix[ends, cycles], 1.0), axis=1).real


@lru_cache(maxsize=64)
def _cycles(edges: tuple, max_len: int):
    """(cycles, ends), read-only: the `find_loops` rows of the edges, listed
    once per edge set (a flip-sensitivity run draws many rings on the same
    edges), and the node ends[c, k] the edge leaving cycles[c, k] goes to."""
    cycles = find_loops(np.array(edges, dtype=np.intp).reshape(-1, 2), max_len=max_len)
    ends = np.where(np.roll(cycles >= 0, -1, axis=1), np.roll(cycles, -1, axis=1), cycles[:, :1])
    cycles.flags.writeable = ends.flags.writeable = False
    return cycles, ends


def flip_sensitivity(h: LoopHamiltonian, flips, tol: float = 1e-9) -> list[str]:
    """Classify each sign pattern as spectrum-changed or spectrum-unchanged.

    `flips` is a bool array of shape (patterns, edges): row p negates the
    couplings of the edges h.edges()[k] with flips[p, k]; any other shape
    raises ValueError.  Returns one classification per row, in order.
    Raises FlipIndeterminateError when a pattern's sorted spectrum agrees
    with h's within tol although the loop-phase product of some cycle
    changed sign (a degenerate coincidence; the caller should retry with
    perturbed couplings); the error is that of the first such pattern, as a
    loop over the patterns would raise it.  The rows are taken FLIP_BATCH at
    a time: their flipped matrices go to one stacked `eigvalsh`.  A flip
    negates each cycle product exactly, so a cycle's phase after the flips
    is -(its phase) when an odd number of its edges flip and unchanged
    otherwise: the parities of all (pattern, cycle) pairs are one XOR over
    each cycle's edges of the rows.
    """
    flips = np.asarray(flips)
    if flips.dtype != bool or flips.ndim != 2 or flips.shape[1] != len(h._edges):
        raise ValueError(f"flips: expected a bool array of shape (patterns, {len(h._edges)}), "
                         f"got {flips.dtype} {flips.shape}")
    return [label for start in range(0, len(flips), FLIP_BATCH)
            for label in _classify(h, flips[start:start + FLIP_BATCH], tol)]


def _classify(h: LoopHamiltonian, flips: np.ndarray, tol: float) -> list[str]:
    """`flip_sensitivity` of one stack of mask rows."""
    i, j = np.array(h._edges, dtype=np.intp).reshape(-1, 2).T
    flipped = np.zeros((len(flips), h.n + 1, h.n + 1), dtype=bool)  # per pattern and entry
    flipped[:, i, j] = flipped[:, j, i] = flips
    stack = np.where(flipped[:, :-1, :-1], -h.matrix, h.matrix)
    dist = np.max(np.abs(spectrum(h) - np.linalg.eigvalsh(stack)), axis=1)
    changed = dist > tol
    if not changed.all():
        cycles, values = loop_phases(h)
        ends = _cycles(h._edges, cycles.shape[1])[1]  # a cache hit: loop_phases listed them
        scale = float(np.max(np.abs(values), initial=0.0))
        # past a cycle's end, the padding -1 reads the last row: never flipped
        odd = np.logical_xor.reduce(flipped[:, cycles, ends], axis=2)
        hit = odd & ~changed[:, None] & (2 * np.abs(values) > tol * max(1.0, scale))
        if hit.any():
            p, c = np.argwhere(hit)[0]
            loop = tuple(cycles[c][cycles[c] >= 0].tolist())
            raise FlipIndeterminateError(
                f"loop phase of {loop} changed but spectrum moved only {dist[p]:.2e}")
    return [SPECTRUM_CHANGED if x else SPECTRUM_UNCHANGED for x in changed]


def find_loops(edges: np.ndarray, max_len: int = 8) -> np.ndarray:
    """Deterministically enumerate simple cycles of length 3..max_len.

    `edges` is an integer array of shape (edges, 2) of non-negative node
    numbers; self-loops and repeated edges are ignored.  The cycles come back
    as the rows of an int array of shape (cycles, max_len), each rotated and
    reflected to a canonical node order and padded with -1 after its last
    node; the rows are sorted by length, then node by node.

    One array path expansion lists every length.  Over the sorted directed
    edge codes u n + v, open paths are int rows, starting from the edges
    p-q, p < q.  A path grows by each neighbour of its last node above a
    floor and not on it: the floor is the start, so a cycle is found from its
    smallest node, and on the closing step (to max_len nodes) path[1], so
    only the canonical orientation path[1] < path[-1] closes.  A path closes
    when `searchsorted` finds its start-last code.  LOOP_ROWS paths at most
    grow at a time, depth first and in order, so each length comes out
    sorted.  More than MAX_LOOPS cycles raise ValueError.
    """
    ends = np.asarray(edges).reshape(-1, 2)
    if ends.dtype.kind not in "iu" or np.any(ends < 0):
        raise ValueError("find_loops: edges are pairs of non-negative ints")
    n = int(ends.max(initial=0)) + 1
    u, v = ends[ends[:, 0] != ends[:, 1]].astype(np.intp).T
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
        closed = grown[hit & (grown[:, 1] < grown[:, -1])]
        found[width].append(np.pad(closed, ((0, 0), (0, max_len - width)), constant_values=-1))
        count += len(closed)
        if count > MAX_LOOPS:
            raise ValueError(f"more than {MAX_LOOPS} loops of up to {max_len} nodes")
        if width < min(max_len, n) and len(grown):  # a path of n nodes is a dead end
            stack.append(grown)
    return np.concatenate([np.full((0, max_len), -1), *(part for per in found for part in per)])


def random_loop_hamiltonian(n: int, rng: np.random.Generator) -> LoopHamiltonian:
    """Generic n-cycle Hamiltonian: |omega| in [0.5, 1.5], uniform phases.

    Draws are repeated until the spectrum is non-degenerate (gap > MIN_GAP),
    since accidental degeneracies defeat the flip-parity classification.
    """
    ring = [(i, (i + 1) % n) for i in range(n)]
    while True:
        omegas = {
            (min(a, b), max(a, b)): rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            for a, b in ring
        }
        h = LoopHamiltonian.from_upper(n, omegas)
        eig = spectrum(h)
        if np.min(np.diff(eig)) > MIN_GAP:
            return h
