"""Per-pair and per-level references for array code in the package.
The package evaluates the orientation integral and the Rabi frequency over
whole arrays of pairs (`wigner.rot_integrals`, `coupling.rabi_frequency`).
This is the single-pair form in exact `Fraction` arithmetic, one 3j product
and one square root per call, kept as the oracle the array code must match
bit for bit.  Likewise `chirality_permutation` here looks each M-reversed
level up in a dict over the basis, the reference of the integer-coded
`hamiltonian.chirality_permutation`; `is_symmetry` conjugates the dense
H(t) by a dense signed permutation at sample times and compares it with
its image table, the reference of the exact row check
`hamiltonian.is_symmetry`; and `trace_csv`, `couplings_csv`,
`loops_csv`, `dressed_csv` and `summary_text` format one row or line at a
time, element by element, the references of the column-wise
`scenarios.csv_lines` and `scenarios.keyvalue_lines`.  `components` (a union-find) and
`node_potential` (a depth-first search) walk the coupling graph one edge at
a time, the references of the vectorised labelling and layered potential
of `propagate`, and `members` expands an `Ensemble` into dense state
vectors for the per-member propagation the block trace must match.
`flip_sensitivity` classifies one row of a sign-pattern mask with one
`eigvalsh` of the copy of h that `with_flips` negates edge by edge, the
reference of the stacked `looptopology.flip_sensitivity`, and `flip_table`
writes the `flip-sensitivity` table with it one row at a time, on rings
drawn by `random_loop_hamiltonian` one edge and one attempt at a time, the
reference of the stacked draws of `looptopology.random_loop_hamiltonian`; `from_upper`
builds the loop Hamiltonians the tests classify from their upper couplings.
`dress` and `dress_field` diagonalize and gauge-fix one grid point at a
time, the references of the stacked `dressed.dress` and
`dressed.dress_field`.
`find_loops` lists cycles by a recursive depth-first search, the reference
of the array path expansion of `looptopology.find_loops`, and `loop_phases`
multiplies the couplings around each of them one edge at a time.
`racah_three_j` adds the Racah sum's terms one `Fraction` at a time, the
reference of the common-denominator sum of `wigner.three_j_exact`.
`product_basis` builds the basis one `LevelIndex` at a time, the reference
of the quantum-number table of `hamiltonian.product_table`, and
`block_midpoint` solves the midpoint stepper's steps one `eigh` at a time,
the reference of the stacked solves of `propagate._block_midpoint`.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

import warnings

from chiralsep import dressed, looptopology
from chiralsep.coupling import DipoleModel, Enantiomer, LaserSpec, UnknownTransitionError
from chiralsep.hamiltonian import BasisNotClosedError, LevelIndex, _classify_setup
from chiralsep.looptopology import (SPECTRUM_CHANGED, SPECTRUM_UNCHANGED, FlipIndeterminateError,
                                    edges, spectrum)
from chiralsep.rotbasis import RotState, enumerate_basis
from chiralsep.wigner import three_j_exact


def racah_three_j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> tuple[int, Fraction]:
    """The (sign, square) of `wigner.three_j_exact`, by a Racah sum of
    `Fraction` terms added one at a time."""
    if m1 + m2 + m3 != 0:
        return 0, Fraction(0)
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0, Fraction(0)

    f = math.factorial
    # triangle coefficient
    delta = Fraction(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3), f(j1 + j2 + j3 + 1)
    )
    pref = delta * (
        f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )

    kmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    kmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            f(k)
            * f(j1 + j2 - j3 - k)
            * f(j1 - m1 - k)
            * f(j2 + m2 - k)
            * f(j3 - j2 + m1 + k)
            * f(j3 - j1 - m2 + k)
        )
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0, Fraction(0)
    phase = (-1) ** (j1 - j2 - m3)
    sign = phase * (1 if total > 0 else -1)
    return sign, pref * total * total


def product_basis(trunc, vibs=(1, 2, 3)) -> tuple[LevelIndex, ...]:
    """Ordered product basis, vibrational level major, rotational order minor."""
    return tuple(LevelIndex(v, r) for v in vibs for r in enumerate_basis(trunc))


def block_matrix(size, a, b, omega, delta, t) -> np.ndarray:
    """The dense block H(t) of `propagate._block_matrix` at one time t."""
    w = omega * np.exp(-2j * np.pi * delta * t)
    m = np.zeros((size, size), dtype=complex)
    m[a, b] = w
    m[b, a] = np.conj(w)
    return m


def block_midpoint(edges, rho, times, dt, steps) -> np.ndarray:
    """The complex <H(t)> of `propagate._block_midpoint`, one `eigh` per step."""
    out = np.empty((len(times), len(rho)), dtype=complex)
    for k, t in enumerate(times):
        for s in range(steps if k else 0):  # from times[k - 1] up to t
            lam, v = np.linalg.eigh(block_matrix(*edges, times[k - 1] + (s + 0.5) * dt))
            u = (v * np.exp(-2j * np.pi * lam * dt)) @ v.conj().T
            rho = u @ rho @ u.conj().T
        out[k] = np.sum(rho * block_matrix(*edges, t).T, axis=(1, 2))
    return out


def rot_integral(final: RotState, initial: RotState, sigma: int, sigma_prime: int) -> float:
    """Orientation factor <J_f K_f M_f| D^1*_{sigma sigma'} |J_i K_i M_i>.

    sigma and sigma_prime are in {-1, 0, 1}.  Nonzero only for
    Delta J in {0, +-1}, M_f = M_i + sigma and K_f = K_i + sigma_prime.
    """
    s1, sq1 = three_j_exact(final.J, 1, initial.J, final.M, -sigma, -initial.M)
    if s1 == 0:
        return 0.0
    s2, sq2 = three_j_exact(final.J, 1, initial.J, final.K, -sigma_prime, -initial.K)
    if s2 == 0:
        return 0.0
    phase = (-1) ** (-initial.K + initial.M + sigma_prime - sigma)
    square = Fraction((2 * final.J + 1) * (2 * initial.J + 1)) * sq1 * sq2
    return phase * s1 * s2 * math.sqrt(square.numerator / square.denominator)


def rabi_frequency(final, initial, laser: LaserSpec, dipole: DipoleModel,
                   who: Enantiomer = Enantiomer.L, x: float = 0.0) -> complex:
    """Complex Rabi frequency (GHz) for final <- initial at position x.

    `final` and `initial` are LevelIndex-like objects with .vib and .rot.
    """
    pair = (min(final.vib, initial.vib), max(final.vib, initial.vib))
    if pair != tuple(laser.drives):
        raise UnknownTransitionError(f"laser drives {laser.drives}, not {pair}")
    trans = dipole.get(pair)
    field_triple = laser.helicity_triple()
    total = 0j
    for sp, mu in zip((-1, 0, 1), trans.mu):
        if mu == 0:
            continue
        orient = 0j
        for s, amp in zip((-1, 0, 1), field_triple):
            if amp == 0:
                continue
            orient += amp * rot_integral(final.rot, initial.rot, s, sp)
        total += mu * orient
    sign = -1.0 if (who is Enantiomer.R and trans.chiral_sign_flip) else 1.0
    return sign * laser.peak_rabi * laser.beam(x) * total


def chirality_permutation(polarizations, basis):
    """(perm, sign) of the chirality transformation, one level at a time."""
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


def is_symmetry(h, perm, sign, image=None, times=(0.0, 0.37, 1.9)):
    """Whether T^dag H(t) T == image(t) (h itself by default) exactly at each
    of `times`, with the dense T[perm[k], k] = sign[k]: the reference of
    `hamiltonian.is_symmetry`."""
    image = h if image is None else image
    t_mat = np.zeros((h.n, h.n))
    t_mat[perm, np.arange(h.n)] = sign
    return all(np.array_equal(t_mat.T @ h.evaluate(t) @ t_mat, image.evaluate(t)) for t in times)


def trace_csv(result, branch) -> str:
    """The trace CSV of `scenarios.trace_csv`, one repr per element."""
    omega12 = result.config.omega12_max
    per = result.traces[branch]
    lines = [",".join(["time_ns", "time_in_inverse_Omega12"] + [f"value_{t}" for t in per])]
    for k, t in enumerate(result.times):
        row = [repr(float(t)), repr(float(t * omega12))]
        row += [repr(float(per[tag].values[k])) for tag in per]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def couplings_csv(h) -> str:
    """The coupling table of `scenarios.couplings_csv`, one edge at a time."""
    lines = ["final,initial,omega_re_GHz,omega_im_GHz,delta_GHz"]
    for f, i, w, d in zip(h.fin, h.ini, h.omega, h.delta):
        w = complex(w)
        lines.append(f"{h.basis[f]},{h.basis[i]},{w.real!r},{w.imag!r},{float(d)!r}")
    return "\n".join(lines) + "\n"


def loops_csv(loops) -> str:
    """The loop table of `scenarios.loops_csv`, one loop at a time."""
    lines = ["length,states,same_rotational_label"]
    for cyc in loops:
        same = "true" if len({lvl.rot for lvl in cyc}) == 1 else "false"
        states = " -> ".join(str(lvl) for lvl in cyc)
        lines.append(f"{len(cyc)},{states},{same}")
    return "\n".join(lines) + "\n"


def dressed_csv(frame, grid, omega12) -> str:
    """The `dressed-potentials` table of one dressed frame, one x at a time."""
    vs = [dressed.scalar_potential(frame, n) / omega12 for n in range(3)]
    avs = [dressed.vector_potential(frame, n) for n in range(3)]
    rows = ["x,V_1,V_2,V_3,A_1,A_2,A_3"]
    for k, x in enumerate(grid):
        row = [repr(float(x))]
        row += [repr(float(v[k])) for v in vs]
        row += [repr(float(a[k])) for a in avs]
        rows.append(",".join(row))
    return "\n".join(rows) + "\n"


def keyvalue(val) -> str:
    """The value of a key = value line, as the `timescales` report printed it."""
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def summary_text(result) -> str:
    """The summary of `scenarios.summary_text`, one line at a time."""
    lines = [f"scenario = {result.config.name}"]
    for branch, per in result.traces.items():
        for tag, tr in per.items():
            lines.append(f"time_average_branch{branch}_{tag} = {tr.time_average!r}")
        if {"L", "R"} <= set(per):
            diff = float(np.max(np.abs(per["L"].values - per["R"].values)))
            lines.append(f"max_LR_difference_branch{branch} = {diff!r}")
    lines.append(f"loop_count = {len(result.loops)}")
    if result.isospectrality_residual is not None:
        lines.append(f"isospectrality_residual = {result.isospectrality_residual!r}")
    for key, val in result.timescales.items():
        lines.append(f"{key} = {keyvalue(val)}")
    return "\n".join(lines) + "\n"


def timescales_text(report) -> str:
    """The `timescales` report, one print per key."""
    return "".join(f"{key} = {keyvalue(val)}\n" for key, val in report.items())


def components(h) -> list[np.ndarray]:
    """The blocks of `propagate.components`, by a union-find over the edges."""
    parent = list(range(h.n))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(h.fin.tolist(), h.ini.tolist()):
        ra, rb = root(a), root(b)
        # the root is the smallest member
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb
    labels = np.array([root(a) for a in range(h.n)], dtype=int)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def node_potential(h, tol: float = 1e-10):
    """The f of `propagate.node_potential`, by a depth-first search from
    each component's smallest level, or None when some edge misses it."""
    n = h.n
    f = [0.0] * n
    seen = [False] * n
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, d in zip(h.fin.tolist(), h.ini.tolist(), h.delta.tolist()):
        adj[a].append((b, -d))
        adj[b].append((a, d))
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v, step in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    f[v] = f[u] + step
                    stack.append(v)
    f = np.array(f)
    resid = np.max(np.abs(f[h.fin] - f[h.ini] - h.delta), initial=0.0)
    return f if resid <= tol else None


def members(ens) -> list[tuple[float, np.ndarray]]:
    """Dense (weight, state vector) pairs of an Ensemble, one per member."""
    states = np.zeros((len(ens.weights), ens.n), dtype=complex)
    states[ens.member, ens.level] = ens.amp
    return list(zip(ens.weights.tolist(), states))


def from_upper(n: int, omegas: dict) -> np.ndarray:
    """The n-level Hermitian matrix with h[j, i] = omega for each
    {(i, j): omega}, 0 <= i < j < n, and zero elsewhere."""
    h = np.zeros((n, n), dtype=complex)
    for (i, j), w in omegas.items():
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) out of range for n = {n}")
        h[i, j] = np.conj(w)
        h[j, i] = w
    return h


def with_flips(h, flips) -> np.ndarray:
    """A copy of h with the couplings of the (a, b) in flips negated."""
    h = h.copy()
    for a, b in flips:
        if h[a, b] == 0:
            raise ValueError(f"edge ({a}, {b}) has zero coupling")
        h[a, b] = -h[a, b]
        h[b, a] = -h[b, a]
    return h


def flip_sensitivity(h, row, tol: float = 1e-9) -> str:
    """One mask row's classification, from the spectrum of h with the
    edges edges(h)[k] of its true entries flipped."""
    pattern = {edge for edge, flip in zip(edges(h), row, strict=True) if flip}
    dist = float(np.max(np.abs(spectrum(h) - spectrum(with_flips(h, pattern)))))
    if dist > tol:
        return SPECTRUM_CHANGED
    before = loop_phases(h)
    scale = max((abs(v) for v in before.values()), default=0.0)
    for key, val in before.items():
        flips = sum((min(a, b), max(a, b)) in pattern for a, b in zip(key, key[1:] + key[:1]))
        if flips % 2 and 2 * abs(val) > tol * max(1.0, scale):  # |val - (-val)|
            raise FlipIndeterminateError(
                f"loop phase of {key} changed but spectrum moved only {dist:.2e}"
            )
    return SPECTRUM_UNCHANGED


def random_loop_hamiltonian(n: int, rng: np.random.Generator) -> np.ndarray:
    """One generic n-ring, drawn edge by edge (magnitude, then phase) and
    drawn again until its spectral gap exceeds `looptopology.MIN_GAP`."""
    while True:
        h = np.zeros((n, n), dtype=complex)
        for a in range(n):
            lo, hi = sorted((a, (a + 1) % n))
            w = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            h[hi, lo], h[lo, hi] = w, np.conj(w)
        if np.min(np.diff(spectrum(h))) > looptopology.MIN_GAP:
            return h


def flip_table(sizes, draws, seed, tol: float = 1e-9) -> str:
    """The `flip-sensitivity` CSV, one draw and one sign pattern at a time."""
    lines = ["n,draw,flips,classification"]
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        for draw in range(draws):
            h = random_loop_hamiltonian(n, rng)
            pairs = edges(h)
            for r in range(1, len(pairs) + 1):
                for subset in itertools.combinations(range(len(pairs)), r):
                    row = [k in subset for k in range(len(pairs))]
                    label = ";".join(f"{a}-{b}" for a, b in (pairs[k] for k in subset))
                    lines.append(f"{n},{draw},{label},{flip_sensitivity(h, row, tol)}")
    return "\n".join(lines) + "\n"


def loop_phases(h, max_len: int = 8) -> dict[tuple, float]:
    """Re[product of couplings] around each cycle of `find_loops` below,
    keyed by the cycle's node tuple, one loop and one edge at a time."""
    out = {}
    for cyc in find_loops(edges(h), max_len=max_len):
        prod = 1.0 + 0j
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            prod *= h[b, a]
        out[tuple(cyc)] = float(np.real(prod))
    return out


def dress(omegas):
    """`dressed.dress` of one point: each eigenvector column divided by the
    phase of its largest-magnitude component."""
    o12, o23, o13 = omegas
    h = np.array([[0, np.conj(o12), np.conj(o13)], [o12, 0, np.conj(o23)], [o13, o23, 0]],
                 dtype=complex)
    vals, vecs = np.linalg.eigh(h)
    scale = np.max(np.abs(omegas))
    if scale == 0 or np.min(np.diff(vals)) < dressed.GAP_WARN * scale:
        warnings.warn("near-degenerate dressed levels; gauge fixing unreliable",
                      dressed.DegenerateFrameWarning, stacklevel=2)
    for n in range(3):
        k = np.argmax(np.abs(vecs[:, n]))
        phase = vecs[k, n] / abs(vecs[k, n]) if vecs[k, n] != 0 else 1.0
        vecs[:, n] = vecs[:, n] / phase
    return vals, vecs


def dress_field(config):
    """(eigenvalues, eigenvectors) of `dressed.dress_field`, one point at a time."""
    vals = np.empty((len(config.grid), 3))
    vecs = np.empty((len(config.grid), 3, 3), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dressed.DegenerateFrameWarning)
        for k, om in enumerate(config.omegas):
            vals[k], vecs[k] = dress(om)
    mid = len(config.grid) // 2
    anchors = [int(np.argmax(np.abs(vecs[mid][:, n]))) for n in range(3)]
    for n in range(3):
        a = anchors[n]
        for k in range(len(config.grid)):
            c = vecs[k][a, n]
            if abs(c) > 1e-12:
                vecs[k][:, n] *= np.conj(c) / abs(c)
            elif k > 0:
                ov = np.vdot(vecs[k - 1][:, n], vecs[k][:, n])
                if ov != 0:
                    vecs[k][:, n] *= np.conj(ov) / abs(ov)
    return vals, vecs


def find_loops(edges, max_len: int = 8) -> list[list]:
    """The cycles of `looptopology.find_loops`, by a depth-first search from
    each start node s through nodes > s only, so a cycle is found from its
    smallest node; of its two orientations only the one with
    path[1] < path[-1] is kept, which is the canonical one."""
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
