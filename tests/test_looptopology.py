"""Flip parity of loop spectra and cycle enumeration."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracle
from chiralsep import looptopology, scenarios
from chiralsep.cli import main
from chiralsep.looptopology import (
    SPECTRUM_CHANGED,
    SPECTRUM_UNCHANGED,
    FlipIndeterminateError,
    edges,
    find_loops,
    flip_sensitivity,
    loop_phases,
    random_loop_hamiltonian,
    spectrum,
)


def ring(n, omegas=None):
    if omegas is None:
        omegas = {(i, (i + 1) % n): 1.0 for i in range(n)}
        omegas = {(min(a, b), max(a, b)): w for (a, b), w in omegas.items()}
    return oracle.from_upper(n, omegas)


def rows(h, *patterns):
    """The sign-pattern mask of h with one row per list of flipped edges."""
    return np.array([[e in pattern for e in edges(h)] for pattern in patterns],
                    dtype=bool).reshape(-1, len(edges(h)))


def test_from_upper_is_hermitian():
    h = oracle.from_upper(3, {(0, 1): 1 + 2j, (1, 2): 3j, (0, 2): -1.0})
    assert np.allclose(h, h.conj().T)
    assert h[1, 0] == 1 + 2j
    assert edges(h) == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        oracle.from_upper(2, {(1, 0): 1.0})


def test_equal_coupling_triangle_spectrum():
    w = 0.8
    h = ring(3, {(0, 1): w, (1, 2): w, (0, 2): w})
    assert np.allclose(spectrum(h), [-w, -w, 2 * w], atol=1e-14)


def test_with_flips_negates_both_triangle_entries():
    h = ring(3)
    g = oracle.with_flips(h, [(0, 1)])
    assert g[1, 0] == -h[1, 0]
    assert g[0, 1] == -h[0, 1]
    assert h[0, 1] == 1.0  # h itself is left alone
    with pytest.raises(ValueError):
        oracle.with_flips(h, [(0, 0)])


def test_loop_phase_is_gauge_invariant():
    rng = np.random.default_rng(7)
    h = random_loop_hamiltonian(4, rng)
    cycles, before = loop_phases(h)
    assert cycles.tolist() == [[0, 1, 2, 3, -1, -1, -1, -1]]
    assert before[0] == pytest.approx(np.real(h[1, 0] * h[2, 1] * h[3, 2] * h[0, 3]), abs=1e-12)
    # local phase rotation on node 2: a pure gauge transformation
    u = np.diag([1.0, 1.0, np.exp(0.9j), 1.0])
    g = u.conj().T @ h @ u
    same, after = loop_phases(g)
    assert np.array_equal(same, cycles)
    assert after == pytest.approx(before, abs=1e-12)
    assert np.allclose(spectrum(g), spectrum(h), atol=1e-12)


def test_single_flip_changes_triangle_spectrum():
    h = ring(3)
    assert flip_sensitivity(h, rows(h, [(0, 1)])) == [SPECTRUM_CHANGED]


def test_double_flip_is_gauge_on_triangle():
    h = ring(3)
    assert flip_sensitivity(h, rows(h, [(0, 1), (1, 2)])) == [SPECTRUM_UNCHANGED]


def test_flips_at_one_node_are_gauge_on_every_cycle():
    # the edges at a node flip each cycle through it twice: a gauge
    # transformation, also on the cycles the chord 1-3 adds
    h = ring(4, {(0, 1): 1.0, (1, 2): 0.7j, (2, 3): 1.3, (0, 3): 0.9, (1, 3): 0.5 - 0.2j})
    at_node = np.array([[v in e for e in edges(h)] for v in range(4)])
    assert flip_sensitivity(h, at_node) == [SPECTRUM_UNCHANGED] * 4


@pytest.mark.parametrize("flips", [
    np.ones(3, dtype=bool),          # one row, not a stack of rows
    np.ones((1, 2), dtype=bool),     # a column short
    np.ones((1, 4), dtype=bool),     # a column over
    np.ones((1, 1, 3), dtype=bool),
    np.ones((1, 3), dtype=int),      # not a mask
    [(0, 1)],                        # an edge, not a row over the edges
])
def test_a_mask_of_the_wrong_shape_is_refused(flips):
    with pytest.raises(ValueError, match=r"flips: expected a bool array of shape \(patterns, 3\)"):
        flip_sensitivity(ring(3), flips)
    assert flip_sensitivity(ring(3), np.zeros((0, 3), dtype=bool)) == []


def test_flip_parity_on_random_rings():
    rng = np.random.default_rng(123)
    for n in (3, 4, 5):
        h = random_loop_hamiltonian(n, rng)
        for r in range(1, n + 1):
            for pat in itertools.combinations(edges(h), r):
                [cls] = flip_sensitivity(h, rows(h, pat))
                expected = SPECTRUM_CHANGED if r % 2 else SPECTRUM_UNCHANGED
                assert cls == expected, (n, pat)


def cycle_lists(loops):
    """The cycles of a `find_loops` array as lists, the -1 padding dropped."""
    assert loops.ndim == 2
    return [row[row >= 0].tolist() for row in loops]


def test_find_loops_canonical_and_sorted():
    # triangle plus a pendant edge and a 4-cycle
    edges = np.array([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 2)])
    loops = find_loops(edges, max_len=6)
    assert loops.tolist() == [[0, 1, 2, -1, -1, -1], [2, 3, 4, 5, -1, -1]]
    assert cycle_lists(loops) == sorted(cycle_lists(loops), key=lambda c: (len(c), c))
    # deterministic under edge reordering
    assert np.array_equal(find_loops(edges[::-1], max_len=6), loops)


def brute_force_cycles(edges, max_len):
    """Canonical simple cycles of length 3..max_len by trying every node sequence."""
    adj = {frozenset(e) for e in edges if e[0] != e[1]}
    nodes = sorted({v for e in adj for v in e})
    found = set()
    for k in range(3, max_len + 1):
        for seq in itertools.permutations(nodes, k):
            if all(frozenset(p) in adj for p in zip(seq, seq[1:] + seq[:1])):
                i = seq.index(min(seq))
                rot = seq[i:] + seq[:i]
                found.add(min(rot, rot[:1] + rot[1:][::-1]))
    return found


@given(edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=21),
       max_len=st.integers(3, 6))
def test_find_loops_matches_brute_force(edges, max_len):
    loops = find_loops(np.array(edges, dtype=int).reshape(-1, 2), max_len=max_len)
    assert loops.shape == (len(loops), max_len)
    # the padding trails: a cycle's nodes come first, then -1 to the end
    assert np.all(np.diff(loops < 0, axis=1) >= 0)
    loops = cycle_lists(loops)
    assert {tuple(c) for c in loops} == brute_force_cycles(edges, max_len)
    assert len({tuple(c) for c in loops}) == len(loops)
    assert all(c[0] == min(c) and c[1] < c[-1] for c in loops)
    assert loops == sorted(loops, key=lambda c: (len(c), c))


@st.composite
def graphs(draw):
    """Edge lists on up to 40 nodes, dense enough for triangles, with
    self-loops and repeated edges (either way round)."""
    node = st.integers(0, draw(st.integers(0, 39)))
    edges = draw(st.lists(st.tuples(node, node), max_size=120))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return edges + [(b, a) if k % 2 else (a, b) for k, (a, b) in enumerate(repeats)]


@settings(max_examples=200, deadline=None)
@given(edges=graphs(), max_len=st.integers(3, 6))
def test_triangle_join_matches_the_search(edges, max_len):
    # the path expansion against the oracle's recursive search, cycle for cycle
    got = find_loops(np.array(edges, dtype=int).reshape(-1, 2), max_len=max_len)
    assert cycle_lists(got) == oracle.find_loops(edges, max_len=max_len)
    assert got.shape[1] == max_len


@settings(max_examples=100, deadline=None)
@given(edges=graphs(), max_len=st.integers(3, 6), rows=st.integers(1, 5))
@example(edges=list(itertools.combinations(range(6), 2)), max_len=5, rows=2)  # K6
def test_find_loops_in_pieces_of_a_few_rows(edges, max_len, rows):
    edges = np.array(edges, dtype=int).reshape(-1, 2)
    expected = find_loops(edges, max_len=max_len)
    old = looptopology.LOOP_ROWS
    looptopology.LOOP_ROWS = rows
    try:
        assert np.array_equal(find_loops(edges, max_len=max_len), expected)
    finally:
        looptopology.LOOP_ROWS = old


def test_find_loops_refuses_more_than_the_ceiling(monkeypatch):
    # K5 has 10 triangles, 15 four-cycles and 12 five-cycles
    k5 = np.array(list(itertools.combinations(range(5), 2)))
    monkeypatch.setattr(looptopology, "MAX_LOOPS", 37)
    assert len(find_loops(k5, max_len=5)) == 37
    monkeypatch.setattr(looptopology, "MAX_LOOPS", 36)
    with pytest.raises(ValueError, match="more than 36 loops of up to 5 nodes"):
        find_loops(k5, max_len=5)
    monkeypatch.setattr(looptopology, "LOOP_ROWS", 1)
    with pytest.raises(ValueError, match="more than 36 loops"):
        find_loops(k5, max_len=5)


def test_find_loops_refuses_a_max_len_over_the_ceiling():
    ring = np.array([(k, (k + 1) % 12) for k in range(12)])
    assert find_loops(ring, max_len=looptopology.MAX_LOOP_LEN).tolist() == [list(range(12))]
    for max_len in (looptopology.MAX_LOOP_LEN + 1, 100):
        with pytest.raises(ValueError, match=f"more than 12 nodes are not listed, got {max_len}"):
            find_loops(ring, max_len=max_len)


def test_triangle_join_keeps_the_nodes():
    # node numbers come back as given, gaps and all, not ranked
    edges = np.array([(300, 5), (7, 5), (300, 7), (7, 300), (7, 7), (7, 9)], dtype=np.uint16)
    assert find_loops(edges, max_len=3).tolist() == [[5, 7, 300]]
    for bad in (np.array([[5, -3], [-3, 7], [7, 5]]), np.array([["a", "b"]]),
                np.array([[0.0, 1.0]])):
        with pytest.raises(ValueError, match="pairs of non-negative ints"):
            find_loops(bad, max_len=3)


def test_find_loops_ignores_trees():
    assert find_loops(np.array([(0, 1), (1, 2), (2, 3)])).shape == (0, 8)
    assert find_loops(np.empty((0, 2), dtype=int), max_len=3).shape == (0, 3)


def test_random_loop_hamiltonian_properties():
    rng = np.random.default_rng(0)
    h = random_loop_hamiltonian(5, rng)
    assert edges(h) == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    mags = np.abs([h[b, a] for a, b in edges(h)])
    assert np.all((mags >= 0.5) & (mags <= 1.5))
    assert np.min(np.diff(spectrum(h))) > 1e-6
    # magnitude, then phase, edge by edge around the ring, into the lower triangle
    rng = np.random.default_rng(0)
    omegas = [rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()) for _ in range(5)]
    assert [h[1, 0], h[2, 1], h[3, 2], h[4, 3], h[4, 0]] == omegas
    assert np.array_equal(h, h.conj().T)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 5, 6, 16]), seed=st.integers(0, 2**32 - 1),
       size=st.integers(0, 12), redraw=st.booleans())
@example(n=6, seed=0, size=8, redraw=True)  # a stack with redraws
def test_stacked_ring_draws_match_one_ring_at_a_time(n, seed, size, redraw):
    # every attempt takes 2n doubles, so the stack redraws only its rejects
    # and leaves the stream where one-ring calls would; a gap of 0.3 rejects
    # many rings of up to 6 levels (and almost every 16-level one)
    gap = 0.3 if redraw and n <= 6 else 1e-6
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(looptopology, "MIN_GAP", gap)
        rings = random_loop_hamiltonian(n, rng, size=size)
        expected = [oracle.random_loop_hamiltonian(n, ref) for _ in range(size)]
        one = random_loop_hamiltonian(n, rng), oracle.random_loop_hamiltonian(n, ref)
    assert rings.shape == (size, n, n)
    assert rings.tobytes() == np.array(expected, dtype=complex).reshape(size, n, n).tobytes()
    assert one[0].tobytes() == one[1].tobytes()
    assert rng.uniform() == ref.uniform()


def flip_sensitivity_two_censuses(h, pattern, tol=1e-9):
    """flip_sensitivity with the cycles enumerated again on h with the edges
    of `pattern` flipped."""
    flipped = oracle.with_flips(h, pattern)
    dist = float(np.max(np.abs(spectrum(h) - spectrum(flipped))))
    if dist > tol:
        return SPECTRUM_CHANGED
    (cycles, before), (same, after) = loop_phases(h), loop_phases(flipped)
    assert np.array_equal(cycles, same)
    scale = max(np.abs(before), default=0.0)
    for cyc, val, new in zip(cycle_lists(cycles), before, after):
        if abs(val - new) > tol * max(1.0, scale):
            raise FlipIndeterminateError(
                f"loop phase of {tuple(cyc)} changed but spectrum moved only {dist:.2e}")
    return SPECTRUM_UNCHANGED


def outcome(fn, *args):
    try:
        return fn(*args)
    except FlipIndeterminateError as exc:
        return str(exc)


#: a nonzero complex coupling
WEIGHT = st.builds(lambda r, p: r * np.exp(2j * np.pi * p), st.floats(0.2, 2.0),
                   st.floats(0.0, 1.0))


def ring_with_chords(n, data):
    """A random n-ring with random chords, so a pattern meets several cycles."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chords = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    ring_edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return oracle.from_upper(n, {e: data.draw(WEIGHT) for e in sorted(ring_edges | set(chords))})


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 6), data=st.data(), tol=st.sampled_from([1e-9, 0.5, 1.0, 1.9, 5.0]))
def test_flip_sensitivity_matches_the_flipped_census(n, data, tol):
    h = ring_with_chords(n, data)
    flips = data.draw(st.lists(st.sampled_from(edges(h)), unique=True, min_size=1))
    assert outcome(lambda: flip_sensitivity(h, rows(h, flips), tol)[0]) == \
        outcome(flip_sensitivity_two_censuses, h, flips, tol)


def per_pattern(h, patterns, tol):
    """The oracle's classifications, or the first error's type and text."""
    try:
        return [oracle.flip_sensitivity(h, p, tol) for p in patterns]
    except FlipIndeterminateError as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(3, 6), data=st.data(), tol=st.sampled_from([1e-9, 0.5, 1.0, 1.9, 5.0]),
       batch=st.sampled_from([1, 2, 3, 1024]))
def test_stacked_flip_sensitivity_matches_the_per_pattern_oracle(n, data, tol, batch):
    h = ring_with_chords(n, data)
    width = len(edges(h))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    patterns = np.array(data.draw(st.lists(row, max_size=12)), dtype=bool).reshape(-1, width)
    expected = per_pattern(h, patterns, tol)
    old = looptopology.FLIP_BATCH
    looptopology.FLIP_BATCH = batch
    try:
        got = flip_sensitivity(h, patterns, tol)
    except FlipIndeterminateError as exc:
        got = type(exc), str(exc)
    finally:
        looptopology.FLIP_BATCH = old
    event("indeterminate" if isinstance(expected, tuple) else "classified")
    assert got == expected


def per_draw(rings, patterns, tol):
    """flip_sensitivity of each ring in turn, or the first error's type and text."""
    try:
        return [label for h in rings for label in flip_sensitivity(h, patterns, tol)]
    except FlipIndeterminateError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 6), data=st.data(), tol=st.sampled_from([1e-9, 0.5, 1.0, 1.9, 5.0]),
       batch=st.sampled_from([1, 2, 3, 5, 1024]))
def test_a_stack_of_rings_classifies_as_one_call_per_ring(n, data, tol, batch):
    first = ring_with_chords(n, data)
    more = data.draw(st.integers(0, 3))
    rings = np.array([first] + [oracle.from_upper(n, {e: data.draw(WEIGHT) for e in edges(first)})
                                for _ in range(more)])
    width = len(edges(first))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    patterns = np.array(data.draw(st.lists(row, max_size=8)), dtype=bool).reshape(-1, width)
    old = looptopology.FLIP_BATCH
    looptopology.FLIP_BATCH = batch
    try:
        expected = per_draw(rings, patterns, tol)
        try:
            got = flip_sensitivity(rings, patterns, tol)
        except FlipIndeterminateError as exc:
            got = type(exc), str(exc)
    finally:
        looptopology.FLIP_BATCH = old
    event("indeterminate" if isinstance(expected, tuple) else "classified")
    assert got == expected
    cycles, phases = loop_phases(rings)
    assert phases.shape == (len(rings), len(cycles))
    for h, per_ring in zip(rings, phases):
        assert per_ring.tobytes() == loop_phases(h)[1].tobytes()  # bit for bit


@pytest.mark.parametrize("batch", [7, 20, 1024])
def test_flip_table_matches_the_per_row_oracle(monkeypatch, capsys, batch):
    # with 7 rows a stack, a stack is one 3-ring and a 4- or 5-ring is split;
    # with 20, two 3-rings share a stack
    monkeypatch.setattr(looptopology, "FLIP_BATCH", batch)
    monkeypatch.setattr(scenarios, "CSV_CHUNK_ROWS", 7)
    assert main(["flip-sensitivity", "--sizes", "3,4,5", "--draws", "3", "--seed", "4"]) == 0
    assert capsys.readouterr().out == oracle.flip_table([3, 4, 5], 3, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flip_sensitivity_csv_is_unchanged(seed, capsys):
    # the CSV the two-census classification wrote for these arguments
    assert main(["flip-sensitivity", "--sizes", "3,4,5,6", "--draws", "50",
                 "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "445fd5f4bf6b16774b22007b264f20e1f0b11f6383a8d6ef2e18da0c22dd83ac"


def test_flip_sensitivity_lists_each_rings_cycles_once(monkeypatch, capsys):
    # all draws of one size share the ring's edges: one enumeration a size
    calls = []

    def counted(edges, max_len=8):
        calls.append(len(edges))
        return find_loops(edges, max_len=max_len)

    looptopology._cycles.cache_clear()
    monkeypatch.setattr(looptopology, "find_loops", counted)
    assert main(["flip-sensitivity", "--sizes", "3,4,5,6", "--draws", "50"]) == 0
    assert calls == [3, 4, 5, 6]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_flip_sensitivity_raises_the_first_failing_patterns_error(order):
    # two triangles, each with a weak edge: one flip moves the spectrum by
    # less than tol 0.5 but the loop product, 0.4 or 0.6, by more, so both
    # patterns are indeterminate, each on its own triangle
    h = oracle.from_upper(6, {(0, 1): 2.0, (1, 2): 2.0, (0, 2): 0.1,
                              (3, 4): 2.0, (4, 5): 2.0, (3, 5): 0.15})
    patterns = rows(h, [(0, 1)], [(3, 4)])[list(order)]
    with pytest.raises(FlipIndeterminateError) as got:
        flip_sensitivity(h, patterns, tol=0.5)
    with pytest.raises(FlipIndeterminateError) as expected:
        [oracle.flip_sensitivity(h, p, tol=0.5) for p in patterns]
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"loop phase of {((0, 1, 2), (3, 4, 5))[order[0]]} ")
