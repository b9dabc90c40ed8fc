"""Propagation, potential traces and ensemble aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralsep.coupling import DipoleModel, Enantiomer, LaserSpec
from chiralsep.hamiltonian import CouplingMatrix, LevelIndex, assemble
from chiralsep.propagate import (
    Ensemble,
    MismatchedGridError,
    PotentialTrace,
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
from chiralsep.scenarios import _assemble, _branch_members, builtin_config


def two_level(omega, delta):
    basis = (LevelIndex(1, RotState(0, 0, 0)), LevelIndex(2, RotState(1, 0, 0)))
    return CouplingMatrix(
        basis=basis,
        fin=np.array([1]),
        ini=np.array([0]),
        omega=np.array([omega], dtype=complex),
        delta=np.array([delta], dtype=float),
    )


def triangle(omegas, deltas):
    basis = tuple(LevelIndex(v, RotState(0, 0, 0)) for v in (1, 2, 3))
    return CouplingMatrix(
        basis=basis,
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
    h = CouplingMatrix(basis=basis, fin=np.array([1]), ini=np.array([0]),
                       omega=np.array([1.0 + 0j]), delta=np.array([0.0]))
    comps = components(h)
    assert sorted(len(c) for c in comps) == [1, 2]


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
    fast = ensemble_potential_trace(h, {0: Ensemble.from_members(h.n, members)}, times)[0]
    slow = []
    for w, psi0 in members:
        _, traj = propagate(h, psi0, times[-1], n_out=len(times))
        slow.append((w, potential_trace(h, times, traj)))
    ref = ensemble_average(slow)
    assert np.max(np.abs(fast.values - ref.values)) < 1e-12


def test_block_trace_matches_per_member_static_on_fig7():
    config = builtin_config("fig7-1mK-xxz")
    h = _assemble(config, Enantiomer.L)
    assert len(components(h)) > 1
    thermal = thermal_rot_state(config.temperature, config.constants, config.trunc,
                                cutoff_mass=config.truncation_mass)
    times = np.linspace(0.0, config.t_end, 41)
    omega_ref = config.omega12_max
    ensembles = _branch_members(config, Enantiomer.L, h, thermal)
    # complex amplitudes, so that rho = sum w |psi><psi| needs its conjugate
    amps = np.array([1.0, 1j, -0.5 + 0.5j]) / np.sqrt(2.5)
    ensembles["complex"] = prepare_initial("partially-dressed", h, thermal, vib_amplitudes=amps)
    batched = ensemble_potential_trace(h, ensembles, times, omega_ref=omega_ref)
    assert list(batched) == list(ensembles)
    for branch, ens in ensembles.items():
        fast = batched[branch]
        slow = []
        for w, psi0 in ens.members():
            _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="static")
            slow.append((w, potential_trace(h, times, traj, omega_ref)))
        ref = ensemble_average(slow)
        assert np.max(np.abs(fast.values - ref.values)) < 1e-12


def test_ensemble_trace_midpoint_fallback():
    # loop detunings that close no node potential force the generic stepper
    h = triangle([0.5, 0.3, 0.2], [0.4, -0.1, 0.7])
    members = [(1.0, np.array([1.0, 0.0, 0.0], dtype=complex))]
    times = np.linspace(0.0, 1.0, 21)
    tr = ensemble_potential_trace(h, {0: Ensemble.from_members(h.n, members)}, times)[0]
    _, traj = propagate(h, members[0][1], 1.0, n_out=21, method="midpoint")
    ref = potential_trace(h, times, traj)
    assert np.max(np.abs(tr.values - ref.values)) < 1e-10


def test_prepare_initial_modes():
    h = triangle([0.5, 0.3, 0.2], [0.0, 0.0, 0.0])
    thermal = {RotState(0, 0, 0): 1.0}
    diab = prepare_initial("diabatic", h, thermal).members()
    assert len(diab) == 1 and diab[0][1][0] == 1.0
    amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    part = prepare_initial("partially-dressed", h, thermal, vib_amplitudes=amps).members()
    assert np.allclose(part[0][1], [amps[0], amps[1], 0.0])
    adia = prepare_initial("adiabatic", h, thermal).members()
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
        ensemble_potential_trace(h, {"thermal": empty}, np.linspace(0.0, 1.0, 5))


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
    batched = ensemble_potential_trace(h, ensembles, times, omega_ref=0.7)
    for k, ens in ensembles.items():
        slow = []
        for w, psi0 in ens.members():
            _, traj = propagate(h, psi0, times[-1], n_out=len(times), method="static")
            slow.append((w, potential_trace(h, times, traj, 0.7)))
        assert np.max(np.abs(batched[k].values - ensemble_average(slow).values)) < 1e-12
        single = ensemble_potential_trace(h, {k: ens}, times, omega_ref=0.7)[k].values
        assert np.max(np.abs(batched[k].values - single)) <= 1e-14 * np.max(np.abs(single))
