"""Propagation, potential traces and ensemble aggregation."""

import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from chiralsep import propagate as propagate_module
from chiralsep import scenarios as scenarios_module
from chiralsep.coupling import DipoleModel, Enantiomer, LaserSpec
from chiralsep.hamiltonian import (CouplingMatrix, EmptyCouplingError, LevelIndex, LevelTable,
                                   assemble, is_symmetry, mirror_permutation)
from chiralsep.propagate import (
    DegenerateEigenstateWarning,
    Ensemble,
    MismatchedGridError,
    PotentialTrace,
    TIE_RTOL,
    StepTooLargeError,
    components,
    default_dt,
    ensemble_average,
    ensemble_potential_trace,
    node_potential,
    potential_trace,
    prepare_initial,
    propagate,
)
from chiralsep.rotbasis import D2S2, BasisTruncation, RotState, thermal_rot_state
from chiralsep.scenarios import (
    _assemble,
    _branch_members,
    builtin_config,
    parse_config,
    run_scenario,
)

MISMATCH_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "mismatch-j1.cfg"


def two_level(omega, delta):
    basis = (LevelIndex(1, RotState(0, 0, 0)), LevelIndex(2, RotState(1, 0, 0)))
    return CouplingMatrix(
        levels=LevelTable.of(basis),
        fin=np.array([1]),
        ini=np.array([0]),
        omega=np.array([omega], dtype=complex),
        delta=np.array([delta], dtype=float),
    )


def from_members(n, members):
    """Ensemble of (weight, length-n state vector) pairs."""
    states = np.array([psi for _, psi in members], dtype=complex).reshape(len(members), n)
    member, level = np.nonzero(states)
    return Ensemble.from_triplets(n, [w for w, _ in members], member, level,
                                  states[member, level])


def triangle(omegas, deltas):
    basis = tuple(LevelIndex(v, RotState(0, 0, 0)) for v in (1, 2, 3))
    return CouplingMatrix(
        levels=LevelTable.of(basis),
        fin=np.array([1, 2, 2]),
        ini=np.array([0, 1, 0]),
        omega=np.asarray(omegas, dtype=complex),
        delta=np.asarray(deltas, dtype=float),
    )


def test_resonant_rabi_oscillation():
    omega = 0.8
    h = two_level(omega, 0.0)
    times, traj = propagate(h, np.array([1.0, 0.0]), t_end=3.0, n_out=301)
    p = np.abs(traj[:, 1]) ** 2
    assert np.max(np.abs(p - np.sin(2 * np.pi * omega * times) ** 2)) < 1e-12
    # full transfer at t = 1/(4 omega) under the 2*pi*f*t phase convention
    _, traj = propagate(h, np.array([1.0, 0.0]), t_end=1 / (4 * omega), n_out=2)
    assert abs(traj[-1, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_detuned_rabi_oscillation():
    omega, delta = 0.6, 0.9
    h = two_level(omega, delta)
    times, traj = propagate(h, np.array([1.0, 0.0]), t_end=5.0, n_out=501)
    omega_r = np.hypot(omega, delta / 2)
    expected = (omega / omega_r) ** 2 * np.sin(2 * np.pi * omega_r * times) ** 2
    assert np.max(np.abs(np.abs(traj[:, 1]) ** 2 - expected)) < 1e-12


def test_midpoint_matches_static():
    h = triangle([0.5, 0.3, 0.2j], [0.4, -0.1, 0.3])
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    times, a = propagate(h, psi0, t_end=4.0, n_out=81, method="static")
    _, b = propagate(h, psi0, t_end=4.0, n_out=81, method="midpoint", dt=2e-4)
    assert np.max(np.abs(a - b)) < 1e-7
    norms = np.linalg.norm(b, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_midpoint_step_guard():
    h = two_level(1.0, 5.0)
    with pytest.raises(StepTooLargeError):
        propagate(h, np.array([1.0, 0.0]), t_end=1.0, method="midpoint", dt=0.05)
    with pytest.raises(ValueError):
        propagate(h, np.array([1.0, 0.0]), t_end=1.0, method="nonsense")


def test_node_potential_existence():
    # detunings closing around the triangle admit a node potential
    h = triangle([0.5, 0.3, 0.2], [0.4, -0.1, 0.3])
    f = node_potential(h)
    assert f is not None
    assert np.allclose(f[h.fin] - f[h.ini], h.delta, atol=1e-12)
    # non-closing loop detunings do not
    h2 = triangle([0.5, 0.3, 0.2], [0.4, -0.1, 0.7])
    assert node_potential(h2) is None
    with pytest.raises(ValueError):
        propagate(h2, np.array([1.0, 0, 0]), t_end=1.0, method="static")


def test_default_dt_resolves_fastest_scale():
    h = two_level(0.2, 3.0)
    assert default_dt(h) == pytest.approx(1 / 60.0)


def test_components_partition():
    basis = tuple(LevelIndex(v, RotState(0, 0, 0)) for v in (1, 2, 3))
    h = CouplingMatrix(levels=LevelTable.of(basis), fin=np.array([1]), ini=np.array([0]),
                       omega=np.array([1.0 + 0j]), delta=np.array([0.0]))
    comps = components(h)
    assert sorted(len(c) for c in comps) == [1, 2]


@st.composite
def coupling_graphs(draw, cycle=False):
    """(levels, edges): chains and cycles over up to 40 levels, which may
    repeat edges; a level no path visits stays isolated.  With cycle=True
    the first edges close a cycle of at least three levels."""
    n = draw(st.integers(3 if cycle else 1, 40))
    path = st.lists(st.integers(0, n - 1), min_size=min(2, n), max_size=min(8, n), unique=True)
    paths = draw(st.lists(st.tuples(path, st.booleans()), max_size=8))
    if cycle:
        paths.insert(0, (draw(path.filter(lambda p: len(p) >= 3)), True))
    edges = []
    for levels, closed in paths:
        edges += list(zip(levels, levels[1:]))
        if closed and len(levels) >= 3:
            edges.append((levels[-1], levels[0]))
    return n, edges


def graph_matrix(n, edges, delta):
    basis = tuple(LevelIndex(1, RotState(j, 0, 0)) for j in range(n))
    fin, ini = np.array(edges, dtype=int).reshape(-1, 2).T
    return CouplingMatrix(levels=LevelTable.of(basis), fin=fin, ini=ini,
                          omega=np.ones(len(edges), dtype=complex),
                          delta=np.asarray(delta, dtype=float).reshape(-1))


@settings(max_examples=200, deadline=None)
@given(graph=coupling_graphs(), data=st.data())
def test_components_and_potential_match_the_edge_walks(graph, data):
    n, edges = graph
    potential = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    h = graph_matrix(n, edges, [potential[a] - potential[b] for a, b in edges])
    blocks, ref = components(h), oracle.components(h)
    assert len(blocks) == len(ref)
    assert all(np.array_equal(idx, want) for idx, want in zip(blocks, ref))
    f, want = node_potential(h), oracle.node_potential(h)
    assert f is not None and want is not None
    assert np.max(np.abs(f[h.fin] - f[h.ini] - h.delta), initial=0.0) <= 1e-10
    assert all(f[idx[0]] == 0.0 for idx in blocks)
    assert np.max(np.abs(f - want)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(graph=coupling_graphs(cycle=True), data=st.data())
def test_an_open_cycle_has_no_potential_in_either_walk(graph, data):
    n, edges = graph
    potential = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    delta = np.array([potential[a] - potential[b] for a, b in edges])
    # the first edge lies on a cycle; this detuning misses it
    delta[0] += data.draw(st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6))
    h = graph_matrix(n, edges, delta)
    assert node_potential(h) is None
    assert oracle.node_potential(h) is None


def test_potential_trace_matches_direct_expectation():
    h = triangle([0.5, 0.3, 0.2j], [0.4, -0.1, 0.3])
    psi0 = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
    times, traj = propagate(h, psi0, t_end=2.0, n_out=41)
    tr = potential_trace(h, times, traj, omega_ref=0.5)
    k = 17
    direct = np.vdot(traj[k], h.evaluate(times[k]) @ traj[k]).real / 0.5
    assert tr.values[k] == pytest.approx(direct, abs=1e-14)
    assert tr.time_average == pytest.approx(np.mean(tr.values), abs=1e-15)


def test_ensemble_trace_equals_weighted_pure_states():
    h = triangle([0.5, 0.3, 0.2j], [0.4, -0.1, 0.3])
    members = [
        (0.25, np.array([1.0, 0.0, 0.0], dtype=complex)),
        (0.75, np.array([0.0, 1.0, 1.0], dtype=complex) / np.sqrt(2)),
    ]
    times = np.linspace(0.0, 3.0, 61)
    fast = ensemble_potential_trace(h, {0: from_members(h.n, members)}, 3.0, 61)[0]
    slow = []
    for w, psi0 in members:
        _, traj = propagate(h, psi0, times[-1], n_out=len(times))
        slow.append((w, potential_trace(h, times, traj)))
    ref = ensemble_average(slow)
    assert np.max(np.abs(fast.values - ref.values)) < 1e-12


def _fig7_block_trace_against_per_member_static(n_times, stride, negative_weight=False):
    config = builtin_config("fig7-1mK-xxz")
    h = _assemble(config, Enantiomer.L)
    assert len(components(h)) > 1
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    times = np.linspace(0.0, config.t_end, n_times)
    omega_ref = config.omega12_max
    ensembles = _branch_members(config, Enantiomer.L, h, thermal)
    # complex amplitudes, so that rho = sum w |psi><psi| needs its conjugate
    amps = np.array([1.0, 1j, -0.5 + 0.5j]) / np.sqrt(2.5)
    ensembles["complex"] = prepare_initial("partially-dressed", h, thermal, vib_amplitudes=amps)
    if negative_weight:  # rho is then indefinite, which the screening bound does not cover
        ens = ensembles["complex"]
        ensembles["complex"] = replace(ens, weights=ens.weights * np.where(
            np.arange(len(ens.weights)) == np.argmax(ens.weights), -1.0, 1.0))
    batched = ensemble_potential_trace(h, ensembles, config.t_end, n_times, omega_ref=omega_ref)
    assert list(batched) == list(ensembles)
    for branch, ens in ensembles.items():
        fast = batched[branch]
        slow = []
        for w, psi0 in oracle.members(ens):
            _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="static")
            slow.append((w, potential_trace(h, times[::stride], traj[::stride], omega_ref)))
        ref = ensemble_average(slow)
        assert np.max(np.abs(fast.values[::stride] - ref.values)) < 1e-12


def test_block_trace_matches_per_member_static_on_fig7():
    _fig7_block_trace_against_per_member_static(41, 1)


def test_block_trace_matches_per_member_static_on_fig7_long_grid():
    # the builtin's 2000 output times reach phases of ~1e5 rad, where the
    # factorised phase matrix carries its largest rounding
    _fig7_block_trace_against_per_member_static(2000, 50)


def test_block_trace_with_a_negative_weight_matches_per_member_static():
    _fig7_block_trace_against_per_member_static(41, 1, negative_weight=True)


def _static_kernel_calls(monkeypatch, config):
    """(h0, f, factors, times) of every static-kernel call of an L and R trace."""
    calls = []
    kernel = propagate_module._block_expectations

    def spy(h0, f, factors, times, *args):
        calls.append((h0, f, factors, times))
        return kernel(h0, f, factors, times, *args)

    monkeypatch.setattr(propagate_module, "_block_expectations", spy)
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    for who in (Enantiomer.L, Enantiomer.R):
        h = _assemble(config, who)
        ensemble_potential_trace(h, _branch_members(config, who, h, thermal), config.t_end,
                                 config.n_times)
    monkeypatch.undo()
    return calls


def test_screen_never_drops_a_nan_weight():
    g = np.ones((2, 2))
    w = np.array([[1.0, 1e-40], [np.nan, 1e-40]])
    screens = [propagate_module._screen(x, g, propagate_module.SCREEN_BUDGET) for x in w]
    dropped = np.array([d for d, _ in screens])
    bound = [b for _, b in screens]
    assert dropped.tolist() == [[False, True], [False, False]]
    assert 0 < bound[0] < propagate_module.SCREEN_BUDGET and bound[1] == 0


@pytest.mark.parametrize("name, jmax", [("fig7-1mK-xxz", None),
                                        ("fig5-T0.5K-xxz-groundres", 4)])
def test_screening_bound_covers_dropped_part(monkeypatch, name, jmax):
    # fig5's 0.5 K population at J = 4 is above the default truncation mass
    config = replace(builtin_config(name, jmax=jmax), truncation_mass=1e-4)
    dropped_somewhere = False
    for h0, f, factors, times in _static_kernel_calls(monkeypatch, config):
        eps, v, g = propagate_module._eigenframe(h0, f)
        # each factor's rho, rotated in full
        rhos = [(a.T * w) @ a.conj() for a, w in factors]
        rot = [v.conj().T @ r @ v for r in rhos]
        screens = [propagate_module._screen(np.diagonal(r).real, g,
                                            propagate_module.SCREEN_BUDGET) for r in rot]
        outer = np.array([d for d, _ in screens])
        bound = np.array([b for _, b in screens])
        assert np.all(bound < propagate_module.SCREEN_BUDGET)
        p = np.exp(-2j * np.pi * np.outer(times, eps))
        dropped = np.empty((len(times), len(rhos)), dtype=complex)
        for k in range(len(rhos)):
            pairs = outer[k][:, None] | outer[k][None, :]  # n in D or m in D
            dropped[:, k] = np.einsum("tn,nm,tm->t", p, np.where(pairs, rot[k] * g.T, 0.0),
                                      p.conj())
        assert np.all(np.abs(dropped) <= bound)
        # the kernel leaves out exactly that part
        screened = propagate_module._block_expectations(h0, f, factors, times)
        full = propagate_module._block_expectations(h0, f, factors, times, budget=0.0)
        assert np.max(np.abs(full - screened - dropped.real)) < 1e-15
        dropped_somewhere |= bool(np.any(np.all(outer, axis=0)))
    assert dropped_somewhere


@pytest.mark.parametrize("name, jmax", [("fig7-1mK-xxz", None),
                                        ("fig5-T0.5K-xxz-groundres", 4)])
def test_block_and_component_bounds_cover_the_screened_part(monkeypatch, name, jmax):
    # each block traced on its own, for each branch, screened and with budget 0
    config = replace(builtin_config(name, jmax=jmax), truncation_mass=1e-4)
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    half = propagate_module.SCREEN_BUDGET / 2
    component_bounds = []
    screen = propagate_module._screen

    def spy(w, g, budget):
        dropped, bound = screen(w, g, budget)
        component_bounds.append(bound)
        return dropped, bound

    def trace(block, branch, ens, budget):
        with monkeypatch.context() as m:
            m.setattr(propagate_module, "SCREEN_BUDGET", budget)
            m.setattr(propagate_module, "_screen", spy)
            return ensemble_potential_trace(block, {branch: ens}, config.t_end,
                                            config.n_times)[branch].values

    skipped = kept = 0
    for who in (Enantiomer.L, Enantiomer.R):
        h = _assemble(config, who)
        blocks, label, _, _, _ = propagate_module._blocks(h)
        members = _branch_members(config, who, h, thermal)
        bounds = propagate_module._block_bounds(h, members, label, len(blocks))
        for c in range(len(blocks)):
            e = np.flatnonzero(label[h.fin] == c)
            block = replace(h, fin=h.fin[e], ini=h.ini[e], omega=h.omega[e], delta=h.delta[e])
            for k, (branch, ens) in enumerate(members.items()):
                component_bounds.clear()
                screened = trace(block, branch, ens, 2 * half)
                bound = sum(component_bounds)
                if bounds[k, c] < half:
                    bound += bounds[k, c]
                    skipped += 1
                else:
                    kept += 1
                full = trace(block, branch, ens, 0.0)
                # plus rounding: the two contract arrays of different shapes
                rounding = 1e-13 * np.max(np.abs(full))
                assert np.max(np.abs(screened - full)) <= bound + rounding
    assert skipped and kept


def test_ensemble_trace_midpoint_fallback():
    # loop detunings that close no node potential force the generic stepper
    h = triangle([0.5, 0.3, 0.2], [0.4, -0.1, 0.7])
    members = [(1.0, np.array([1.0, 0.0, 0.0], dtype=complex))]
    tr = ensemble_potential_trace(h, {0: from_members(h.n, members)}, 1.0, 21)[0]
    times, traj = propagate(h, members[0][1], 1.0, n_out=21, method="midpoint")
    ref = potential_trace(h, times, traj)
    assert np.max(np.abs(tr.values - ref.values)) < 1e-10


def test_prepare_initial_modes():
    h = triangle([0.5, 0.3, 0.2], [0.0, 0.0, 0.0])
    thermal = {RotState(0, 0, 0): 1.0}
    diab = oracle.members(prepare_initial("diabatic", h, thermal))
    assert len(diab) == 1 and diab[0][1][0] == 1.0
    amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    part = oracle.members(prepare_initial("partially-dressed", h, thermal, vib_amplitudes=amps))
    assert np.allclose(part[0][1], [amps[0], amps[1], 0.0])
    adia = oracle.members(prepare_initial("adiabatic", h, thermal))
    vals, vecs = np.linalg.eigh(h.evaluate(0.0))
    overlaps = np.abs(vecs.conj().T @ adia[0][1])
    assert np.max(overlaps) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        prepare_initial("partially-dressed", h, thermal)
    with pytest.raises(ValueError):
        prepare_initial("sudden", h, thermal)


def test_ensemble_average_grid_check():
    a = PotentialTrace.from_values(np.linspace(0, 1, 5), np.zeros(5))
    b = PotentialTrace.from_values(np.linspace(0, 2, 5), np.zeros(5))
    with pytest.raises(MismatchedGridError):
        ensemble_average([(0.5, a), (0.5, b)])
    with pytest.raises(ValueError):
        ensemble_average([])


def test_empty_ensemble_raises():
    h = triangle([0.5, 0.3, 0.2], [0.0, 0.0, 0.0])
    empty = prepare_initial("diabatic", h, {RotState(0, 0, 0): float("nan")})
    with pytest.raises(ValueError, match="empty ensemble"):
        ensemble_potential_trace(h, {"thermal": empty}, 1.0, 5)


@pytest.mark.parametrize("deltas", [[0.4, -0.1, 0.3], [0.4, -0.1, 0.7]],
                         ids=["static", "midpoint"])  # the loop closes, or not
def test_nan_amplitude_raises(deltas):
    h = triangle([0.5, 0.3, 0.2], deltas)
    ens = Ensemble.from_triplets(h.n, [1.0], [0, 0], [0, 1], [1.0, np.nan])
    with pytest.raises(ValueError, match="ensemble expectation"):
        ensemble_potential_trace(h, {0: ens}, 1.0, 5)


def test_non_finite_factor_raises():
    # an infinite amplitude gives infinite screen weights: refused before the screen
    h0 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    factor = (np.array([[np.inf, 1.0]], dtype=complex), np.array([1.0]))
    f = np.array([0.0, 1.0])  # so that V^dag H0 V, and hence C, is not diagonal
    with pytest.raises(ValueError, match="non-finite"):
        propagate_module._block_expectations(h0, f, [factor], np.linspace(0.0, 1.0, 3))


def test_midpoint_kernel_checks_each_column_on_its_own_scale():
    # the second rho is not Hermitian: tr(rho H(t)) = conj(omega(t)), complex at t > 0
    edges = (2, np.array([1]), np.array([0]), np.array([0.5 + 0j]), np.array([0.3]))
    small = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    large = 1e12 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    times = np.linspace(0.0, 1.0, 3)
    for rho in (small[None], np.array([large, small])):
        with pytest.raises(ValueError, match="non-real"):
            propagate_module._block_midpoint(edges, rho, times, 0.05, 10)
    assert propagate_module._block_midpoint(edges, large[None], times, 0.05, 10).dtype == float


@settings(max_examples=60, deadline=None)
@given(size=st.integers(2, 7), rhos=st.integers(1, 3), n=st.integers(1, 6),
       steps=st.integers(1, 5), stack=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
# a one-edge block in stacks of one step: a (1, 1) product that numpy can round
# apart from the per-step loop's (1,) one
@example(size=2, rhos=1, n=2, steps=2, stack=1, seed=1)
def test_stacked_midpoint_steps_are_the_per_step_loop_bit_for_bit(size, rhos, n, steps, stack,
                                                                   seed):
    # stacks of 1 to 12 step matrices (or CHUNK_VALUES' own) end inside
    # output intervals as well as on their ends
    rng = np.random.default_rng(seed)
    a, b = np.tril_indices(size, -1)
    pick = rng.random(len(a)) < 0.6
    omega = rng.normal(size=pick.sum()) + 1j * rng.normal(size=pick.sum())
    edges = (size, a[pick], b[pick], omega, rng.normal(scale=3.0, size=pick.sum()))
    amps = rng.normal(size=(rhos, size, size)) + 1j * rng.normal(size=(rhos, size, size))
    rho = amps @ amps.conj().transpose(0, 2, 1)
    times = np.linspace(0.0, rng.uniform(0.1, 2.0), n)
    dt = (times[-1] / (n - 1) if n > 1 else 0.1) / steps
    expected = oracle.block_midpoint(edges, rho, times, dt, steps)
    old = propagate_module.CHUNK_VALUES
    propagate_module.CHUNK_VALUES = stack * size**2 or old
    try:
        got = propagate_module._block_midpoint(edges, rho, times, dt, steps)
    finally:
        propagate_module.CHUNK_VALUES = old
    assert got.tobytes() == expected.real.tobytes()


def test_branches_with_equal_block_rho_share_one_column(monkeypatch):
    h = triangle([0.5, 0.3, 0.2], [0.0, 0.0, 0.0])
    ens = Ensemble.from_triplets(3, [0.25, 0.75], [0, 1], [0, 1], [1.0, 1.0])
    # the second member negated: the same rho, but with -0.0 where ens's rho has 0.0
    twin = Ensemble.from_triplets(3, [0.25, 0.75], [0, 1], [0, 1], [1.0, complex(-1.0, -0.0)])
    stacked = []
    kernel = propagate_module._block_expectations

    def spy(h0, f, factors, *args):
        stacked.append(len(factors))
        return kernel(h0, f, factors, *args)

    monkeypatch.setattr(propagate_module, "_block_expectations", spy)
    out = ensemble_potential_trace(h, {"a": ens, "copy": ens, "twin": twin}, 1.0, 5)
    assert stacked == [1]
    assert out["a"].values.tobytes() == out["copy"].values.tobytes() \
        == out["twin"].values.tobytes()
    assert np.any(out["a"].values != 0)


def _kernel_work(monkeypatch):
    """[calls, factors] of the static kernel from here on: one call per traced block."""
    seen = [0, 0]
    kernel = propagate_module._block_expectations

    def spy(h0, f, factors, *args):
        seen[0] += 1
        seen[1] += len(factors)
        return kernel(h0, f, factors, *args)

    monkeypatch.setattr(propagate_module, "_block_expectations", spy)
    return seen


def test_factors_that_differ_only_in_their_weights_get_their_own_columns(monkeypatch):
    h = triangle([0.5, 0.3, 0.2], [0.0, 0.0, 0.0])
    ens = Ensemble.from_triplets(3, [0.25, 0.75], [0, 1], [0, 1], [1.0, 1.0])
    swapped = replace(ens, weights=ens.weights[::-1])
    seen = _kernel_work(monkeypatch)
    out = ensemble_potential_trace(h, {"a": ens, "swapped": swapped}, 1.0, 5)
    assert seen == [1, 2]
    alone = ensemble_potential_trace(h, {"swapped": swapped}, 1.0, 5)["swapped"].values
    assert np.array_equal(out["swapped"].values, alone)
    assert np.any(out["a"].values != alone)


@pytest.mark.parametrize("name, blocks, rhos", [("fig5-T0.5K-xxz-groundres", 6, 18),
                                                ("fig7-1mK-xxz", 2, 6)])
def test_mirror_blocks_and_equal_factors_are_traced_once(monkeypatch, name, blocks, rhos):
    # L and R in one call, 3 distinct factors per block among the 6 branches;
    # fig5 keeps 4 mirror pairs and 2 self-mapped blocks, fig7 2 self-mapped ones
    seen = _kernel_work(monkeypatch)
    run_scenario(builtin_config(name))
    assert seen == [blocks, rhos]


def _fig5_j4():
    """fig5 at jmax 4 (H_L, its branches, _blocks): 4 of its 10 kept blocks are
    mirror images of 4 others."""
    config = replace(builtin_config("fig5-T0.5K-xxz-groundres", jmax=4), truncation_mass=1e-4)
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    h = _assemble(config, Enantiomer.L)
    return config, h, _branch_members(config, Enantiomer.L, h, thermal), \
        propagate_module._blocks(h)


def _traced_blocks(h, members, blocks, label):
    """Blocks of more than one level that some branch keeps: all are traced
    when no mirror pair shares."""
    bounds = propagate_module._block_bounds(h, members, label, len(blocks))
    keep = np.any(~(bounds < propagate_module.SCREEN_BUDGET / 2), axis=0)
    return sum(1 for c in np.flatnonzero(keep) if len(blocks[c]) > 1)


def test_a_pair_whose_factors_differ_is_traced_twice(monkeypatch):
    config, h, members, (blocks, label, _, _, _) = _fig5_j4()
    perm, _ = mirror_permutation(h.lookup)
    ens = members[1]
    # the heaviest member on a mirror pair of blocks gets 1.5 times its weight
    # on one of its levels, so only that block's factor changes
    paired = np.flatnonzero(label[ens.level] != label[perm[ens.level]])
    j = paired[np.argmax(ens.weights[ens.member[paired]])]
    moved = replace(ens, amp=np.where(np.arange(len(ens.amp)) == j, np.sqrt(1.5), 1.0) * ens.amp)
    seen = _kernel_work(monkeypatch)
    shared = ensemble_potential_trace(h, {1: ens}, config.t_end, config.n_times)[1].values
    calls, rhos = seen
    assert calls < _traced_blocks(h, {1: ens}, blocks, label)
    out = ensemble_potential_trace(h, {1: moved}, config.t_end, config.n_times)[1].values
    # the pair is still one kernel call, which now traces two rho
    assert seen == [2 * calls, 2 * rhos + 1]
    monkeypatch.undo()
    # the unshared reference: each block traced on a table of its own edges
    for branch, values in ((ens, shared), (moved, out)):
        ref = 0.0
        for c in range(len(blocks)):
            e = np.flatnonzero(label[h.fin] == c)
            block = replace(h, fin=h.fin[e], ini=h.ini[e], omega=h.omega[e], delta=h.delta[e])
            ref = ref + ensemble_potential_trace(block, {1: branch}, config.t_end,
                                                 config.n_times)[1].values
        assert np.max(np.abs(values - ref)) <= 1e-12


def test_a_branch_and_its_mirror_image_share_one_column(monkeypatch):
    # A is branch 1 on the lower block of each mirror pair, B = S A on the
    # upper: both are traced in the lower block, on one rho per pair
    config, h, members, (blocks, label, _, _, _) = _fig5_j4()
    perm, sign = mirror_permutation(h.lookup)
    ens = members[1]
    lower = label[ens.level] < label[perm[ens.level]]
    a = Ensemble.from_triplets(h.n, ens.weights, ens.member[lower], ens.level[lower],
                               ens.amp[lower])
    b = replace(a, level=perm[a.level], amp=a.amp * sign[a.level])
    seen = _kernel_work(monkeypatch)
    out = ensemble_potential_trace(h, {"A": a, "B": b}, config.t_end, config.n_times)
    assert seen == [4, 4]
    assert np.array_equal(out["A"].values, out["B"].values)
    assert np.any(out["A"].values != 0)


def test_the_midpoint_path_shares_mirror_blocks_too(monkeypatch):
    # the non-closing loop at 5 K, where the K = +-1 blocks are populated:
    # 6 kept blocks, 2 of them mirror images of 2 others
    config = replace(parse_config(MISMATCH_CONFIG.read_text().replace("{rot_offset_13}", "0.01")),
                     temperature=5.0, truncation_mass=1.0)
    h = _assemble(config, Enantiomer.L)
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    members = _branch_members(config, Enantiomer.L, h, thermal)
    calls = []
    kernel = propagate_module._block_midpoint

    def spy(edges, rho, *args):
        calls.append(len(rho))
        return kernel(edges, rho, *args)

    monkeypatch.setattr(propagate_module, "_block_midpoint", spy)
    shared = ensemble_potential_trace(h, members, config.t_end, config.n_times)
    assert len(calls) == 4
    calls.clear()
    monkeypatch.setattr(propagate_module, "mirror_permutation", lambda lookup: None)
    unshared = ensemble_potential_trace(h, members, config.t_end, config.n_times)
    assert len(calls) == 6
    for branch in members:
        assert np.max(np.abs(shared[branch].values - unshared[branch].values)) <= 1e-12


@pytest.mark.parametrize("broken", ["omega", "sigma+"])
def test_a_table_the_mirror_does_not_map_onto_itself_traces_every_block(monkeypatch, broken):
    config, h, members, _ = _fig5_j4()
    if broken == "omega":  # one edge inside a mirror pair of blocks, 1 ulp off
        blocks, label, _, _, _ = propagate_module._blocks(h)
        perm, _ = mirror_permutation(h.lookup)
        e = np.flatnonzero(label[h.fin] != label[perm[h.fin]])[0]
        omega = h.omega.copy()
        omega[e] = np.nextafter(omega[e].real, np.inf) + 1j * omega[e].imag
        h = replace(h, omega=omega)
    else:
        lasers = config.lasers[:2] + (replace(config.lasers[2], polarization="sigma+"),)
        config = replace(config, lasers=lasers)
        h = _assemble(config, Enantiomer.L)
        thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                    cutoff_mass=config.truncation_mass)
        members = _branch_members(config, Enantiomer.L, h, thermal)
    assert not is_symmetry(h, *mirror_permutation(h.lookup))
    seen = _kernel_work(monkeypatch)
    ensemble_potential_trace(h, members, config.t_end, config.n_times)
    blocks, label, _, _, _ = propagate_module._blocks(h)
    assert seen[0] == _traced_blocks(h, members, blocks, label)


def test_a_negative_weight_changes_no_other_branch():
    # fig7's partially-dressed branch 1 next to a copy of itself with negated
    # weights, which turns screening off for the copy alone
    config = builtin_config("fig7-1mK-xxz")
    h = _assemble(config, Enantiomer.L)
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    ens = _branch_members(config, Enantiomer.L, h, thermal)[1]
    alone = ensemble_potential_trace(h, {1: ens}, config.t_end, 200)
    stacked = ensemble_potential_trace(h, {1: ens, "negated": replace(ens, weights=-ens.weights)},
                                       config.t_end, 200)
    assert np.array_equal(alone[1].values, stacked[1].values)
    assert np.max(np.abs(stacked["negated"].values + alone[1].values)) <= 1e-14


def test_trace_needs_an_output_time():
    h = triangle([0.5, 0.3, 0.2], [0.4, -0.1, 0.3])
    ens = Ensemble.from_triplets(h.n, [1.0], [0], [0], [1.0])
    with pytest.raises(ValueError, match="n >= 1"):
        ensemble_potential_trace(h, {0: ens}, 1.0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_static_kernel_does_not_depend_on_the_level_order(seed):
    # levels in three detuning clusters far apart next to weak couplings, as
    # in the blocks of a closed loop; the kernel sees them in two orders, as
    # it does an enantiomer traced on its own Hamiltonian and mapped onto
    # the other's
    rng = np.random.default_rng(seed)
    n = 14
    f = np.resize([0.0, 12.798, 38.394], n)
    h0 = np.triu(rng.uniform(-0.1, 0.1, (n, n)) * (rng.random((n, n)) < 0.4), 1)
    h0 = (h0 + h0.T).astype(complex)
    a = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    factor = a.T / np.sqrt(np.trace(a @ a.conj().T).real)
    perm = rng.permutation(n)
    times = np.linspace(0.0, 27.0, 41)
    ulp = np.spacing(np.max(f))
    frames = [propagate_module._eigenframe(h0, f),
              propagate_module._eigenframe(h0[np.ix_(perm, perm)], f[perm])]
    assert np.max(np.abs(np.sort(frames[0][0]) - np.sort(frames[1][0]))) <= ulp
    values = [propagate_module._block_expectations(h0, f, [(factor, np.ones(3))], times,
                                                   budget=0.0),
              propagate_module._block_expectations(h0[np.ix_(perm, perm)], f[perm],
                                                   [(factor[:, perm], np.ones(3))], times,
                                                   budget=0.0)]
    assert np.max(np.abs(values[0] - values[1])) <= 4 * ulp


@pytest.mark.parametrize("n", [1, 2, 97, 100, 101])  # prime, 10**2, 10**2 + 1
def test_factorised_phases_match_direct_exponential(n):
    # fig5's scale: t_end = 40 / Omega12 and block eigenvalues up to ~500 GHz
    times = np.linspace(0.0, 192.24495645495313, n)
    eps = np.concatenate([[0.0, -460.728], np.random.default_rng(n).uniform(-500, 500, 40)])
    direct = np.exp(-2j * np.pi * np.outer(times, eps))
    largest = 2 * np.pi * np.max(np.abs(eps)) * times[-1]
    coarse, fine = propagate_module._phases(times, eps)
    # row a * m + b is coarse[a] * fine[b]
    product = (coarse[:, None, :] * fine).reshape(-1, len(eps))[:n]
    assert product.shape == direct.shape
    assert np.max(np.abs(product - direct)) <= 4 * np.spacing(max(largest, 1.0))


def _clustered_block(n, seed):
    """(h0, f, factors) of a real n-level block with f in three clusters far
    apart next to weak couplings, and the factors of two random rank-3 rho."""
    rng = np.random.default_rng(seed)
    f = np.resize([0.0, 12.798, 38.394], n)
    h0 = np.triu(rng.uniform(-0.1, 0.1, (n, n)) * (rng.random((n, n)) < 0.1), 1)
    h0 = (h0 + h0.T).astype(complex)
    factors = []
    for _ in range(2):
        a = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        factors.append((a.T / np.sqrt(np.trace(a @ a.conj().T).real), np.ones(3)))
    return h0, f, factors


@pytest.mark.parametrize("n", [2000, 200_000])
def test_static_kernel_memory_does_not_grow_with_the_grid_beyond_its_output(n):
    # budget 0 keeps all 120 components.  Past its output (8 n bytes per
    # rho) the kernel holds the eigenframe, the two phase factors and one
    # chunk, at least one coarse row: 1.8 MB at n = 2000, 6.2 MB at 200,000.
    # A workspace for the phases and [c; s] of every time would take
    # 2 (2 n + sqrt(n)) 120 doubles, 7.8 MB at n = 2000
    h0, f, factors = _clustered_block(120, 0)
    times = np.linspace(0.0, 40.0, n)
    tracemalloc.start()
    try:
        vals = propagate_module._block_expectations(h0, f, factors, times, budget=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (n, 2) and np.all(np.isfinite(vals))
    assert peak < 8 * n * len(factors) + 7 * 2**20


def test_a_rho_that_keeps_no_component_adds_zero_and_builds_no_phases(monkeypatch):
    h0, f, (first, second) = _clustered_block(12, 1)
    phased = []
    phases = propagate_module._phases

    def spy(times, eps):
        phased.append(len(eps))
        return phases(times, eps)

    monkeypatch.setattr(propagate_module, "_phases", spy)
    times = np.linspace(0.0, 5.0, 50)
    # a weight of 1e-40 leaves every component far below the screening budget
    vals = propagate_module._block_expectations(h0, f, [(first[0], 1e-40 * first[1]), second],
                                                times)
    assert len(phased) == 1
    assert np.all(vals[:, 0] == 0) and np.any(vals[:, 1] != 0)


@pytest.mark.parametrize("n", [45**2, 45**2 + 1, 2027])  # m^2, m^2 + 1, a prime
def test_static_kernel_chunks_match_the_direct_complex_contraction(monkeypatch, n):
    # three branches on a table with complex (sigma and y) couplings; every
    # static-kernel call, and its phase factors' (coarse rows, fine rows,
    # kept components)
    lasers = [LaserSpec(drives=d, polarization=p, peak_rabi=w, rot_offset=0.0)
              for d, p, w in zip(((1, 2), (2, 3), (1, 3)), ("x", "sigma+", "y"),
                                 (1.3, 0.7, 0.9))]
    trunc = BasisTruncation(3)
    h = assemble(lasers, DipoleModel.z_aligned(), Enantiomer.L, D2S2, trunc)
    assert np.any(h.omega.imag) and node_potential(h) is not None
    ensembles = {
        k: prepare_initial("partially-dressed", h,
                           thermal_rot_state(temperature, D2S2, trunc, cutoff_mass=1.0),
                           vib_amplitudes=amps)
        for k, (temperature, amps) in enumerate([(0.5, (1.0, 0.5j, 0.0)),
                                                 (0.5, (0.3, 0.0, 1.0j)),
                                                 (0.05, (1.0, 1.0, 1.0))])}
    calls, factors = [], []
    kernel, phases = propagate_module._block_expectations, propagate_module._phases

    def kernel_spy(*args):
        calls.append(args)
        return kernel(*args)

    def phases_spy(times, eps):
        coarse, fine = phases(times, eps)
        factors.append((len(coarse), len(fine), len(eps)))
        return coarse, fine

    monkeypatch.setattr(propagate_module, "_block_expectations", kernel_spy)
    monkeypatch.setattr(propagate_module, "_phases", phases_spy)
    batched = ensemble_potential_trace(h, ensembles, 2.0, n)
    monkeypatch.undo()
    single = {k: ensemble_potential_trace(h, {k: ens}, 2.0, n)[k] for k, ens in ensembles.items()}
    for k, trace in batched.items():
        assert np.array_equal(trace.values, single[k].values)
    # the grid splits into several chunks, and on m^2 + 1 and the prime the
    # last coarse row is cut short
    chunks = [-(-coarse // max(1, propagate_module.CHUNK_VALUES // (2 * m * s)))
              for coarse, m, s in factors]
    assert max(chunks) >= 3
    assert all((coarse * m > n) == (n != 45**2) for coarse, m, _ in factors)
    complex_part = False
    for h0, f, factors, times, budget in calls:
        eps, v, g = propagate_module._eigenframe(h0, f)
        p = np.exp(-2j * np.pi * np.outer(times, eps))
        vals = propagate_module._block_expectations(h0, f, factors, times, budget)
        for k, (a, w) in enumerate(factors):
            rot = v.conj().T @ ((a.T * w) @ a.conj()) @ v
            direct = np.einsum("tn,nm,tm->t", p, rot * g.T, p.conj())
            complex_part |= bool(np.any(np.imag(rot * g.T)))
            # each factor's own budget
            bound = propagate_module._screen(np.diagonal(rot).real, g, budget[k])[1]
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(vals[:, k] - direct.real)) <= bound + 1e-12 * scale
    assert complex_part


POLARIZATION = st.sampled_from(["x", "y", "z", "sigma+", "sigma-"])
AMPLITUDE = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@settings(max_examples=15, deadline=None)
@given(
    pols=st.tuples(POLARIZATION, POLARIZATION, POLARIZATION),
    offsets=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3),
    # per-branch temperatures, so that some branches miss blocks others touch
    branches=st.lists(st.tuples(st.sampled_from([0.0, 0.05, 0.5]),
                                st.tuples(AMPLITUDE, AMPLITUDE, AMPLITUDE)),
                      min_size=1, max_size=4),
    jmax=st.integers(1, 2),
)
# branches 2 and 3 share blocks, so a common screen would couple their values
@example(pols=("x", "x", "x"), offsets=(0.0, 0.0), peaks=(1.0, 1.0, 1.0),
         branches=[(0.0, (0j, 0j, 0j)), (0.0, (0j, 0j, 0j)), (0.5, (0j, 0j, 1j)),
                   (0.5, (0j, 0j, 0.5j))], jmax=2)
# a one-GEMM screen over the stacked rho rounded differently from branch 3's
# own and dropped a different 9 of one block's 15 components
@example(pols=("x", "x", "sigma+"), offsets=(0.0, 0.0),
         peaks=(1.4591250050210958, 0.5, 0.421875),
         branches=[(0.0, (0j, 0j, 0j)), (0.0, (0j, 0j, 0j)), (0.5, (0j, 0j, 1j)),
                   (0.5, (0.75j, 0j, 0j))], jmax=2)
def test_batched_trace_matches_per_member_and_single_branch(pols, offsets, peaks, branches,
                                                            jmax):
    trunc = BasisTruncation(jmax)
    # the 1-3 offset closes the loop, so a node potential exists
    rot_offsets = (offsets[0], offsets[1], offsets[0] + offsets[1])
    lasers = [LaserSpec(drives=d, polarization=p, peak_rabi=w, rot_offset=o)
              for d, p, w, o in zip(((1, 2), (2, 3), (1, 3)), pols, peaks, rot_offsets)]
    h = assemble(lasers, DipoleModel.z_aligned(), Enantiomer.L, D2S2, trunc)
    assert node_potential(h) is not None
    ensembles = {
        k: prepare_initial("partially-dressed", h,
                           thermal_rot_state(temperature, D2S2, trunc, cutoff_mass=1.0),
                           vib_amplitudes=amps)
        for k, (temperature, amps) in enumerate(branches)
    }
    times = np.linspace(0.0, 2.0, 21)
    batched = ensemble_potential_trace(h, ensembles, 2.0, 21, omega_ref=0.7)
    for k, ens in ensembles.items():
        slow = []
        for w, psi0 in oracle.members(ens):
            _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="static")
            slow.append((w, potential_trace(h, times, traj, 0.7)))
        assert np.max(np.abs(batched[k].values - ensemble_average(slow).values)) < 1e-12
        single = ensemble_potential_trace(h, {k: ens}, 2.0, 21, omega_ref=0.7)[k].values
        assert np.array_equal(batched[k].values, single)


@settings(max_examples=10, deadline=None)
@given(
    pols=st.tuples(POLARIZATION, POLARIZATION, POLARIZATION),
    offsets=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    mismatch=st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
    peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3),
    jmax=st.integers(1, 2),
    data=st.data(),
)
def test_midpoint_block_trace_matches_per_member_midpoint(pols, offsets, mismatch, peaks, jmax,
                                                          data):
    trunc = BasisTruncation(jmax)
    # the 1-3 offset misses the loop closure, so no node potential exists
    rot_offsets = (offsets[0], offsets[1], offsets[0] + offsets[1] + mismatch)
    lasers = [LaserSpec(drives=d, polarization=p, peak_rabi=w, rot_offset=o)
              for d, p, w, o in zip(((1, 2), (2, 3), (1, 3)), pols, peaks, rot_offsets)]
    h = assemble(lasers, DipoleModel.z_aligned(), Enantiomer.L, D2S2, trunc)
    assume(node_potential(h) is None)  # mixes without three-laser loops close anyway
    # 1-3 branches of 1-3 weighted members, each a superposition of 1-3 levels
    # anywhere in the basis, so that members span several blocks
    member = st.tuples(st.floats(0.1, 1.0),
                       st.lists(st.tuples(st.integers(0, h.n - 1), AMPLITUDE),
                                min_size=1, max_size=3, unique_by=lambda la: la[0]))
    branches = data.draw(st.lists(st.lists(member, min_size=1, max_size=3),
                                  min_size=1, max_size=3))
    ensembles = {}
    for k, members in enumerate(branches):
        triplets = [(m, lvl, a) for m, (_, amps) in enumerate(members) for lvl, a in amps]
        ensembles[k] = Ensemble.from_triplets(h.n, [w for w, _ in members], *zip(*triplets))
    times = np.linspace(0.0, 0.02, 6)
    batched = ensemble_potential_trace(h, ensembles, 0.02, 6, omega_ref=0.7)
    for k, ens in ensembles.items():
        slow = []
        for w, psi0 in oracle.members(ens):
            _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="midpoint")
            slow.append((w, potential_trace(h, times, traj, 0.7)))
        assert np.max(np.abs(batched[k].values - ensemble_average(slow).values)) < 1e-12


def _run_without_dense_or_per_member_path(monkeypatch, config):
    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return record

    for name in ("propagate", "potential_trace", "ensemble_average", "node_potential"):
        monkeypatch.setattr(propagate_module, name, spy(name))
    monkeypatch.setattr(CouplingMatrix, "evaluate", spy("CouplingMatrix.evaluate"))
    # the labelling runs once per trace call, which takes f from the same pass
    labelled, per_trace = [], []
    components, trace = propagate_module.components, scenarios_module.ensemble_potential_trace

    def count_components(h):
        labelled.append(h)
        return components(h)

    def count_per_trace(*args, **kwargs):
        before = len(labelled)
        out = trace(*args, **kwargs)
        per_trace.append(len(labelled) - before)
        return out

    monkeypatch.setattr(propagate_module, "components", count_components)
    monkeypatch.setattr(scenarios_module, "ensemble_potential_trace", count_per_trace)
    result = run_scenario(config)
    assert calls == []
    assert per_trace and per_trace == [1] * len(per_trace)
    assert all(np.all(np.isfinite(tr.values))
               for per in result.traces.values() for tr in per.values())


def test_non_closing_run_takes_no_dense_or_per_member_path(monkeypatch):
    config = parse_config(MISMATCH_CONFIG.read_text().replace("{rot_offset_13}", "0.01"))
    assert node_potential(_assemble(config, Enantiomer.L)) is None
    _run_without_dense_or_per_member_path(monkeypatch, config)


@pytest.mark.parametrize("name, preparation", [
    ("fig5-T0.5K-xxz-groundres", None), ("fig5-T0.5K-xxz-retuned", None),
    ("fig7-1mK-xxz", None), ("restricted-loop", None), ("fig7-1mK-xxz", "adiabatic")])
def test_run_takes_no_dense_or_per_member_path(monkeypatch, name, preparation):
    config = builtin_config(name)
    if preparation is not None:
        config = replace(config, preparation=preparation)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateEigenstateWarning)
        _run_without_dense_or_per_member_path(monkeypatch, config)


def _check_adiabatic_members(h, thermal):
    """Every member lies in its bare state's block, as a unit eigenvector of
    that block's H(0)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateEigenstateWarning)
        ens = prepare_initial("adiabatic", h, thermal)
    blocks = components(h)
    rots = [rot for rot, w in thermal.items() if w > 0]
    assert ens.weights.tolist() == [thermal[rot] for rot in rots]
    h0 = h.evaluate(0.0)
    for k, rot in enumerate(rots):
        bare = h.index(LevelIndex(1, rot))
        idx = next(b for b in blocks if bare in b)
        sel = ens.member == k
        assert set(ens.level[sel].tolist()) <= set(idx.tolist())
        psi = np.zeros(len(idx), dtype=complex)
        psi[np.searchsorted(idx, ens.level[sel])] = ens.amp[sel]
        block = h0[np.ix_(idx, idx)]
        energy = np.vdot(psi, block @ psi).real
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert np.linalg.norm(block @ psi - energy * psi) < 1e-12


@pytest.mark.parametrize("tag", ["L", "R"])
def test_adiabatic_members_are_block_eigenvectors_on_fig7(tag):
    config = builtin_config("fig7-1mK-xxz")
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    _check_adiabatic_members(_assemble(config, Enantiomer(tag)), thermal)


@settings(max_examples=15, deadline=None)
@given(
    pols=st.tuples(POLARIZATION, POLARIZATION, POLARIZATION),
    offsets=st.tuples(*[st.floats(-3, 3)] * 3),
    peaks=st.tuples(*[st.floats(0.1, 2.0)] * 3),
    temperature=st.sampled_from([0.0, 0.05, 0.5]),
    jmax=st.integers(1, 2),
)
def test_adiabatic_members_are_block_eigenvectors(pols, offsets, peaks, temperature, jmax):
    trunc = BasisTruncation(jmax)
    lasers = [LaserSpec(drives=d, polarization=p, peak_rabi=w, rot_offset=o)
              for d, p, w, o in zip(((1, 2), (2, 3), (1, 3)), pols, peaks, offsets)]
    try:
        h = assemble(lasers, DipoleModel.z_aligned(), Enantiomer.L, D2S2, trunc)
    except EmptyCouplingError:
        assume(False)
    _check_adiabatic_members(h, thermal_rot_state(temperature, D2S2, trunc, cutoff_mass=1.0))


def test_adiabatic_overlap_tie_takes_the_lowest_eigenvalue_on_fig7():
    # at jmax 5 the ground state's block has a +-0.0496 GHz pair whose
    # bare-state overlaps agree to rounding; argmax alone split L from R
    config = replace(builtin_config("fig7-1mK-xxz", jmax=5), preparation="adiabatic")
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    ground = [rot for rot, w in thermal.items() if w > 0].index(RotState(0, 0, 0))
    energies = {}
    for who in (Enantiomer.L, Enantiomer.R):
        h = _assemble(config, who)
        with pytest.warns(DegenerateEigenstateWarning) as record:
            ens = prepare_initial("adiabatic", h, thermal)
        assert any("|0 0 0>: bare-state overlaps tie for eigenvalues -0.0496" in str(w.message)
                   and ", 0.0496" in str(w.message) for w in record)
        h0 = h.evaluate(0.0)
        energies[who] = []
        for k in range(len(ens.weights)):
            psi = np.zeros(h.n, dtype=complex)
            psi[ens.level[ens.member == k]] = ens.amp[ens.member == k]
            energies[who].append(np.vdot(psi, h0 @ psi).real)
    assert energies[Enantiomer.L][ground] < 0  # |0 0 0> takes -0.0496 GHz
    assert np.sign(energies[Enantiomer.L]).tolist() == np.sign(energies[Enantiomer.R]).tolist()


def test_adiabatic_blocks_match_dense_preparation_on_fig7():
    # the dense H(0) rule: each bare state's maximum-overlap eigenvector, an
    # overlap tie (within TIE_RTOL) going to the lowest eigenvalue
    config = replace(builtin_config("fig7-1mK-xxz"), preparation="adiabatic")
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)

    def pick(overlap):
        return np.flatnonzero(overlap >= (1.0 - TIE_RTOL) * np.max(overlap))[0]

    for who in (Enantiomer.L, Enantiomer.R):
        h = _assemble(config, who)
        vals, vecs = np.linalg.eigh(h.evaluate(0.0))
        members = [(w, vecs[:, pick(np.abs(vecs[h.index(LevelIndex(1, rot))]))])
                   for rot, w in thermal.items() if w > 0]
        dense = from_members(h.n, members)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateEigenstateWarning)
            blocks = prepare_initial("adiabatic", h, thermal)
        traces = ensemble_potential_trace(h, {"dense": dense, "blocks": blocks}, config.t_end,
                                          config.n_times)
        assert np.max(np.abs(traces["dense"].values - traces["blocks"].values)) < 1e-12
