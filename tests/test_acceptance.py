"""End-to-end acceptance gate.

Each test checks one deliverable property of the package at its stated
tolerance and prints a single PASS line on success (run with -s to see
them; a failed assertion is the FAIL line).
"""

import itertools
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chiralsep.coupling import DipoleModel, Enantiomer, GaussianBeam, LaserSpec
from chiralsep.dressed import FieldConfiguration, dress, dress_field, scalar_potential, vector_potential
from chiralsep.hamiltonian import (CouplingMatrix, LevelIndex, LevelTable, assemble,
                                   chirality_transform)
from chiralsep.looptopology import edges, loop_phases, random_loop_hamiltonian, spectrum
from chiralsep.propagate import (Ensemble, _block_midpoint, _midpoint_schedule,
                                 ensemble_potential_trace, potential_trace, propagate)
from chiralsep.rotbasis import D2S2, BasisTruncation, RotState, enumerate_basis
from chiralsep.scenarios import builtin_config, loop_census, run_scenario, _assemble
from chiralsep.units import HARTREE_GHZ, OMEGA12_MAX_GHZ
from chiralsep.wigner import rot_integrals, three_j_exact

import oracle


def xxz_lasers():
    return [
        LaserSpec(drives=(1, 2), polarization="x"),
        LaserSpec(drives=(2, 3), polarization="x"),
        LaserSpec(drives=(1, 3), polarization="z"),
    ]


def test_three_j_matches_independent_exact_oracle():
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational

    t0 = time.time()
    checked = 0
    for j1 in range(7):
        for j2 in range(7):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 6) + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -(m1 + m2)
                        if abs(m3) > j3:
                            continue
                        sign, square = three_j_exact(j1, j2, j3, m1, m2, m3)
                        ref = sympy_wigner.wigner_3j(j1, j2, j3, m1, m2, m3)
                        ref_sq = Fraction(*Rational(ref**2).as_numer_denom())
                        v = float(ref)
                        ref_sign = 0 if v == 0 else (1 if v > 0 else -1)
                        # exact at the rational level
                        assert (sign, square) == (ref_sign, ref_sq), (j1, j2, j3, m1, m2, m3)
                        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s"
    print(f"\n3j exact-rational oracle equivalence ({checked} symbols, "
          f"{elapsed:.1f} s): PASS")


def test_rot_integral_selection_rules_are_exact():
    t0 = time.time()
    basis = enumerate_basis(BasisTruncation(3))
    # every pair a dipole helicity (sigma, sigma') in {-1, 0, 1}^2 can reach
    pairs = [(f, i) for f in basis for i in basis
             if abs(f.M - i.M) <= 1 and abs(f.K - i.K) <= 1]
    vals = rot_integrals(np.array([(f.J, f.K, f.M) for f, _ in pairs]).T,
                         np.array([(i.J, i.K, i.M) for _, i in pairs]).T)
    for (f, i), val in zip(pairs, vals.tolist()):
        s, sp = f.M - i.M, f.K - i.K
        rule = (
            abs(f.J - i.J) <= 1
            and not (f.J == 0 and i.J == 0)
            # zero-lower-row symbols vanish when J_f = J_i
            and not (f.J == i.J and s == 0 and f.M == 0 and i.M == 0)
            and not (f.J == i.J and sp == 0 and f.K == 0 and i.K == 0)
        )
        assert (val != 0) == rule, (f, i, s, sp, val)
        assert val == oracle.rot_integral(f, i, s, sp), (f, i)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\norientation-integral selection rules exhaustive to Jmax=3 "
          f"({elapsed:.1f} s): PASS")


def test_flip_parity_of_loop_spectra():
    worst_odd, worst_even = np.inf, 0.0
    for n in (3, 4, 5, 6):
        rng = np.random.default_rng(1000 + n)
        for _ in range(50):
            h = random_loop_hamiltonian(n, rng)
            base = spectrum(h)
            for r in range(1, n + 1):
                for pat in itertools.combinations(edges(h), r):
                    dist = float(np.max(np.abs(
                        spectrum(oracle.with_flips(h, pat)) - base)))
                    if r % 2:
                        assert dist > 1e-6, (n, pat, dist)
                        worst_odd = min(worst_odd, dist)
                    else:
                        assert dist < 1e-9, (n, pat, dist)
                        worst_even = max(worst_even, dist)
    print(f"\nflip parity on n=3..6 rings, 50 draws each "
          f"(odd >= {worst_odd:.2e}, even <= {worst_even:.2e}): PASS")


@pytest.mark.parametrize("pols", [("z", "z", "z"), ("x", "x", "x"), ("x", "x", "z")])
def test_enantiomer_hamiltonians_are_isospectral(pols):
    trunc = BasisTruncation(2)
    ls = [replace(l, polarization=p) for l, p in zip(xxz_lasers(), pols)]
    dm = DipoleModel.z_aligned()
    hl = assemble(ls, dm, Enantiomer.L, D2S2, trunc)
    hr = assemble(ls, dm, Enantiomer.R, D2S2, trunc)
    t_mat = chirality_transform(pols, hl.basis)
    worst = max(
        float(np.linalg.norm(
            t_mat.conj().T @ hl.evaluate(t) @ t_mat - hr.evaluate(t)))
        for t in (0.0, 0.37, 1.9)
    )
    assert worst < 1e-12
    print(f"\nisospectrality of L/R Hamiltonians for {'-'.join(pols)} "
          f"(residual {worst:.2e}): PASS")


@pytest.mark.parametrize("temperature,jmax", [(0.0, 2), (0.5, 5)])
def test_diabatic_preparation_is_chirality_blind(temperature, jmax):
    cfg = builtin_config("fig5-T0.5K-xxz-groundres", jmax=jmax)
    cfg = replace(cfg, preparation="diabatic", temperature=temperature, n_times=801)
    res = run_scenario(cfg)
    tr = res.traces["thermal"]
    worst = float(np.max(np.abs(tr["L"].values - tr["R"].values)))
    assert worst < 1e-9
    print(f"\ndiabatic L/R trace equality at T={temperature} K "
          f"(sup {worst:.2e} of the 1-2 Rabi scale): PASS")


def test_reference_rabi_frequency_unit_bridge():
    assert OMEGA12_MAX_GHZ == pytest.approx(
        np.sqrt(1000.0) * 1e-9 * HARTREE_GHZ, rel=1e-15)
    assert abs(OMEGA12_MAX_GHZ - 0.2081) < 0.0005
    assert abs(1.0 / OMEGA12_MAX_GHZ - 4.81) < 0.02
    print(f"\nunit bridge: reference Rabi {OMEGA12_MAX_GHZ:.4f} GHz, "
          f"period scale {1 / OMEGA12_MAX_GHZ:.3f} ns: PASS")


def test_rotation_suppresses_chiral_potentials_but_sensitivity_survives():
    res = run_scenario(builtin_config("fig7-1mK-xxz"))
    avgs = {}
    max_diff = 0.0
    for branch, per in res.traces.items():
        for tag, tr in per.items():
            avgs[(branch, tag)] = tr.time_average
        max_diff = max(max_diff, float(np.max(np.abs(
            per["L"].values - per["R"].values))))
    assert all(abs(v) <= 0.1 for v in avgs.values()), avgs
    assert max_diff > 1e-3

    ctrl = run_scenario(builtin_config("restricted-loop"))
    ctrl_avgs = [abs(per["L"].time_average) for per in ctrl.traces.values()]
    assert all(a >= 0.1 for a in ctrl_avgs), ctrl_avgs
    print(f"\nrotational suppression at 1 mK (|avg| <= "
          f"{max(abs(v) for v in avgs.values()):.3f}, control >= "
          f"{min(ctrl_avgs):.2f}, L-R difference {max_diff:.2e}): PASS")


def test_restricted_loop_recovers_scaled_dressed_eigenvalues():
    res = run_scenario(builtin_config("restricted-loop"))
    # time-constant traces
    flat = 0.0
    for per in res.traces.values():
        for tr in per.values():
            flat = max(flat, float(np.max(np.abs(tr.values - tr.values[0]))))
    assert flat < 1e-8
    # equal to the rotationless dressed eigenvalues times the orientation factor
    (orient,) = rot_integrals(np.array([[1, 1, 1]]).T, np.array([[1, 1, 1]]).T)
    assert orient == 0.5
    with pytest.warns(UserWarning):
        rotless, _ = dress((1.0, 1.0, 1.0))
    for tag, sign in (("L", 1.0), ("R", -1.0)):
        got = np.sort([res.traces[b][tag].time_average for b in (1, 2, 3)])
        want = np.sort(sign * orient * rotless)
        assert np.max(np.abs(got - want)) < 1e-8, (tag, got, want)
    print(f"\nrestricted-loop traces constant to {flat:.2e} and equal to "
          f"0.5 x rotationless eigenvalues: PASS")


def test_propagator_against_closed_form_rabi_solutions():
    basis = (LevelIndex(1, RotState(0, 0, 0)), LevelIndex(2, RotState(1, 0, 0)))

    def two_level(omega, delta):
        return CouplingMatrix(levels=LevelTable.of(basis), fin=np.array([1]), ini=np.array([0]),
                              omega=np.array([omega], dtype=complex),
                              delta=np.array([delta], dtype=float))

    psi0 = np.array([1.0, 0.0], dtype=complex)
    # resonant
    h = two_level(0.8, 0.0)
    times, traj = propagate(h, psi0, t_end=6.0, n_out=601)
    err_res = np.max(np.abs(np.abs(traj[:, 1]) ** 2
                            - np.sin(2 * np.pi * 0.8 * times) ** 2))
    # detuned
    h = two_level(0.6, 0.9)
    times, traj = propagate(h, psi0, t_end=6.0, n_out=601)
    om_r = np.hypot(0.6, 0.45)
    err_det = np.max(np.abs(np.abs(traj[:, 1]) ** 2
                            - (0.6 / om_r) ** 2 * np.sin(2 * np.pi * om_r * times) ** 2))
    assert err_res < 1e-8 and err_det < 1e-8

    # generic stepper: norm drift and step-size stability
    _, traj_m = propagate(h, psi0, t_end=6.0, n_out=121, method="midpoint", dt=2e-4)
    drift = np.max(np.abs(np.linalg.norm(traj_m, axis=1) - 1.0))
    assert drift < 1e-9
    times_m = np.linspace(0.0, 6.0, 121)
    tr1 = potential_trace(h, times_m, traj_m)
    _, traj_h = propagate(h, psi0, t_end=6.0, n_out=121, method="midpoint", dt=1e-4)
    tr2 = potential_trace(h, times_m, traj_h)
    step_change = float(np.max(np.abs(tr1.values - tr2.values)))
    assert step_change < 1e-6

    # the kernels a run takes, on the detuned case: <H(t)> = Delta * P_2(t)
    def energy(t):
        return 0.9 * (0.6 / om_r) ** 2 * np.sin(2 * np.pi * om_r * t) ** 2

    one = Ensemble.from_triplets(2, [1.0], [0], [0], [1.0])
    static = ensemble_potential_trace(h, {0: one}, 6.0, 601)[0]
    err_static = float(np.max(np.abs(static.values - energy(static.times))))
    assert err_static < 1e-12
    dt, steps = _midpoint_schedule(h, 6.0, len(times_m), 2e-4)
    edges = (2, h.fin, h.ini, h.omega, h.delta)
    rho = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    midpoint = _block_midpoint(edges, rho, times_m, dt, int(steps))[:, 0]
    err_midpoint = float(np.max(np.abs(midpoint - energy(times_m))))
    assert err_midpoint < 1e-6
    print(f"\npropagator oracle (closed-form err {max(err_res, err_det):.2e}, "
          f"norm drift {drift:.2e}, dt-halving {step_change:.2e}, static trace "
          f"{err_static:.2e}, block midpoint {err_midpoint:.2e}): PASS")


def test_gauge_potential_numerics():
    def frame_on(npts, profiles=None):
        grid = np.linspace(-2, 2, npts)
        lasers = [
            LaserSpec(drives=(1, 2), peak_rabi=1.0, beam=GaussianBeam(1.0, -0.5)),
            LaserSpec(drives=(2, 3), peak_rabi=1.0, beam=GaussianBeam(1.0, 0.5)),
            LaserSpec(drives=(1, 3), peak_rabi=1.0, beam=GaussianBeam(1.0, 0.0)),
        ]
        return dress_field(FieldConfiguration.from_lasers(
            lasers, grid, phase_profiles=profiles))

    # real fields: zero Berry connection at the default grid
    frame = frame_on(401)
    a_real = max(np.max(np.abs(vector_potential(frame, n))) for n in range(3))
    assert a_real < 1e-6

    # second-order convergence under grid refinement
    profiles = [lambda x: 0.3 * np.sin(1.7 * x),
                lambda x: 0.4 * np.cos(1.3 * x),
                lambda x: 0.0]
    f_c = frame_on(101, profiles)
    f_m = frame_on(201, profiles)
    f_r = frame_on(1601, profiles)
    idx = np.arange(1, 100)
    ratios = []
    for n in range(3):
        a_c = vector_potential(f_c, n)[idx]
        a_m = vector_potential(f_m, n)[2 * idx]
        a_r = vector_potential(f_r, n)[16 * idx]
        ratios.append(np.max(np.abs(a_c - a_r)) / np.max(np.abs(a_m - a_r)))
    assert all(3.5 < r < 4.5 for r in ratios), ratios

    # eigenvalue sum rule: scalar potentials add up to the trap trace
    trap = lambda x: 0.25 * x**2
    total = sum(scalar_potential(frame, n, trap=trap) for n in range(3))
    sum_resid = float(np.max(np.abs(total - 3 * trap(frame.grid))))
    assert sum_resid < 1e-10
    print(f"\ngauge potentials (real-field A {a_real:.1e}, refinement ratios "
          f"{min(ratios):.2f}-{max(ratios):.2f}, sum rule {sum_resid:.1e}): PASS")


def test_ground_state_has_no_triangle_but_generic_states_do():
    # cycles through the rotational ground level involve only J <= 1 states
    # (the two adjoining edges each allow Delta J = +-1 from J = 0), so the
    # Jmax = 2 basis contains every candidate triangle.
    cfg = builtin_config("fig7-1mK-xxz", jmax=2)
    ground = LevelIndex(1, RotState(0, 0, 0))
    pols = ("x", "y", "z", "sigma+", "sigma-")
    for combo in itertools.product(pols, repeat=3):
        lasers = [replace(l, polarization=p)
                  for l, p in zip(cfg.lasers, combo)]
        h = assemble(lasers, cfg.dipole, Enantiomer.L, cfg.constants, cfg.trunc)
        tri = [cyc for cyc in loop_census(h, max_len=3)
               if ground in [h.basis[i] for i in cyc]]
        assert tri == [], (combo, tri)

    # all-z: a generic start |J K M> with K, M != 0 sits on a triangle whose
    # three nodes carry the same rotational label
    allz = [replace(l, polarization="z") for l in cfg.lasers]
    h = assemble(allz, cfg.dipole, Enantiomer.L, cfg.constants, cfg.trunc)
    start = LevelIndex(1, RotState(1, 1, 1))
    levels = [[h.basis[i] for i in cyc] for cyc in loop_census(h, max_len=3)]
    tri = [cyc for cyc in levels if start in cyc and len({lvl.rot for lvl in cyc}) == 1]
    assert tri, "no same-label triangle through a generic start"
    print(f"\nloop census: no triangle through the rotational ground state "
          f"(125 polarization combos), same-label triangle for generic "
          f"all-z starts: PASS")
