"""Spectral sensitivity of closed-loop Hamiltonians to Rabi sign flips.

A zero-diagonal Hermitian matrix of complex Rabi frequencies is viewed as a
weighted adjacency matrix.  Its spectrum changes under negation of a subset
of edges exactly when the subset flips the gauge-invariant phase of some
cycle, i.e. when an odd number of loop edges is negated; sign patterns on
tree-like parts are pure gauge.  A Hamiltonian is its complex (n, n)
matrix.  A sign pattern is a row of a bool mask over the edges of h, column
k for edges(h)[k]; `flip_sensitivity` classifies every row of one such mask
on each of a stack of rings with stacked eigensolves, FLIP_BATCH (ring,
pattern) rows at a time.
"""

from __future__ import annotations

from functools import lru_cache

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
#: longest cycle `find_loops` lists: every path is padded to max_len
#: columns, so max_len 100 took 1.6 GB on fig7 before the MAX_LOOPS refusal
MAX_LOOP_LEN = 12
#: most cycles `find_loops` lists: fig5 at jmax 8 has 973,627 of up to 6
#: levels; the `run` census of the builtin lasers at jmax 41 has 1,256,404
MAX_LOOPS = 2_000_000


class FlipIndeterminateError(RuntimeError):
    """Spectral change below tolerance although a loop phase changed."""


def edges(h: np.ndarray) -> tuple:
    """The (i, j), i < j, of h's nonzero couplings (in any matrix of a stack), in row order."""
    i, j = np.nonzero(h if h.ndim == 2 else np.any(h, axis=0))
    upper = i < j
    return tuple(zip(i[upper].tolist(), j[upper].tolist()))


def spectrum(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues, ascending (of each matrix of a stack)."""
    return np.linalg.eigvalsh(h)


def loop_phases(h: np.ndarray, max_len: int = 8):
    """(cycles, phases): the simple cycles of h as `find_loops` rows and the
    gauge-invariant Re[product of couplings] around each (of each matrix of a stack)."""
    cycles, ends = _cycles(edges(h), max_len)
    # in C order each cycle's couplings are one contiguous row, reduced as
    # for a single matrix: the gather alone would put the stack axis innermost
    links = np.ascontiguousarray(np.where(cycles >= 0, h[..., ends, cycles], 1.0))
    return cycles, np.prod(links, axis=-1).real


@lru_cache(maxsize=64)
def _cycles(pairs: tuple, max_len: int):
    """(cycles, ends), read-only: the `find_loops` rows of the edge pairs,
    listed once per edge set (a flip-sensitivity run draws many rings on the
    same edges), and the node ends[c, k] the edge leaving cycles[c, k] goes to."""
    cycles = find_loops(np.array(pairs, dtype=np.intp).reshape(-1, 2), max_len=max_len)
    ends = np.where(np.roll(cycles >= 0, -1, axis=1), np.roll(cycles, -1, axis=1), cycles[:, :1])
    cycles.flags.writeable = ends.flags.writeable = False
    return cycles, ends


def flip_sensitivity(h: np.ndarray, flips, tol: float = 1e-9) -> list[str]:
    """Classify each sign pattern as spectrum-changed or spectrum-unchanged.

    h is a matrix (n, n) or a stack (draws, n, n) of them on the same edges.
    `flips` is a bool array of shape (patterns, edges): row p negates the
    couplings of the edges edges(h)[k] with flips[p, k]; any other shape
    raises ValueError.  Returns one classification per (draw, pattern),
    draw-major.  Raises FlipIndeterminateError when a pattern's sorted
    spectrum agrees with its draw's within tol although the loop-phase
    product of some cycle changed sign (a degenerate coincidence; the caller
    should retry with perturbed couplings); the error is that of the first
    such (draw, pattern), as a loop over them would raise it.  The (draw,
    pattern) rows are taken FLIP_BATCH at a time: their flipped matrices go
    to one stacked `eigvalsh`.  A flip negates each cycle product exactly,
    so a cycle's phase after the flips is -(its phase) when an odd number of
    its edges flip and unchanged otherwise: the parities of all (row, cycle)
    pairs are one XOR over each cycle's edges of the rows.
    """
    flips, pairs = np.asarray(flips), edges(h)
    if flips.dtype != bool or flips.ndim != 2 or flips.shape[1] != len(pairs):
        raise ValueError(f"flips: expected a bool array of shape (patterns, {len(pairs)}), "
                         f"got {flips.dtype} {flips.shape}")
    hs = h.reshape(-1, *h.shape[-2:])
    total = len(hs) * len(flips)
    return [label for start in range(0, total, FLIP_BATCH) for label in _classify(
        hs, flips, pairs, np.arange(start, min(start + FLIP_BATCH, total)), tol)]


def _classify(hs: np.ndarray, flips: np.ndarray, pairs: tuple, rows: np.ndarray,
              tol: float) -> list[str]:
    """`flip_sensitivity` of the (draw, pattern) rows numbered draw-major."""
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    n = hs.shape[-1]
    draw, pattern = np.divmod(rows, len(flips))
    rings = hs[draw[0]:draw[-1] + 1]
    draw -= draw[0]
    # whether each entry flips, one row per (draw, pattern)
    flipped = np.zeros((len(rows), n + 1, n + 1), dtype=bool)
    flipped[:, i, j] = flipped[:, j, i] = flips[pattern]
    mats = rings[draw]
    vals = spectrum(np.negative(mats, out=mats, where=flipped[:, :-1, :-1]))
    dist = np.max(np.abs(spectrum(rings)[draw] - vals), axis=1)
    changed = dist > tol
    if not changed.all():
        cycles, values = loop_phases(rings)
        ends = _cycles(pairs, cycles.shape[1])[1]  # a cache hit: loop_phases listed them
        scale = np.maximum(1.0, np.max(np.abs(values), axis=1, initial=0.0))
        # past a cycle's end, the padding -1 reads the last row: never flipped
        odd = np.logical_xor.reduce(flipped[:, cycles, ends], axis=2)
        hit = odd & ~changed[:, None] & (2 * np.abs(values) > tol * scale[:, None])[draw]
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
    sorted.  A max_len above MAX_LOOP_LEN, or more than MAX_LOOPS cycles,
    raise ValueError.
    """
    if max_len > MAX_LOOP_LEN:
        raise ValueError(f"cycles of more than {MAX_LOOP_LEN} nodes are not listed, got {max_len}")
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


def random_loop_hamiltonian(n: int, rng: np.random.Generator,
                            size: int | None = None) -> np.ndarray:
    """Generic n-cycle Hamiltonian: |omega| in [0.5, 1.5], uniform phases;
    a stack of `size` of them, shape (size, n, n), when size is given.

    Edge by edge around the ring, the edge between a and a + 1 mod n, with
    ends lo < hi, draws omega (magnitude, then phase) into h[hi, lo] and its
    conjugate into h[lo, hi].  Draws are repeated until the spectrum is
    non-degenerate (gap > MIN_GAP), since accidental degeneracies defeat the
    flip-parity classification.  Each attempt takes 2n doubles, so a stack
    draws the rings it still needs as one block, gap-checks them by one
    stacked eigvalsh and redraws only the rejects: one-ring calls' rings.
    """
    lo, hi = np.sort([np.arange(n), (np.arange(n) + 1) % n], axis=0)
    rings, need = [np.empty((0, n, n), dtype=complex)], 1 if size is None else size
    while need:
        u = rng.uniform(size=(need, n, 2))
        w = (0.5 + u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
        h = np.zeros((need, n, n), dtype=complex)
        h[:, hi, lo], h[:, lo, hi] = w, np.conj(w)
        rings.append(h[np.min(np.diff(spectrum(h)), axis=-1) > MIN_GAP])
        need -= len(rings[-1])
    rings = np.concatenate(rings)
    return rings[0] if size is None else rings
