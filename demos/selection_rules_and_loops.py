"""Why rotation opens the closed coupling loop for cold molecules.

Each laser changes the rotational quantum numbers according to its
polarization (Delta M = helicity, Delta K set by the molecular dipole
orientation, Delta J = 0, +-1 with J = 0 -> 0 forbidden).  Starting from
the rotational ground state the three lasers can therefore never return
to the initial state after one round trip: no 3-loop closes, and the
loop interference that separates enantiomers is lost.  Generic rotational
states under z-polarized light do close a loop.
"""

from chiralsep.coupling import Enantiomer
from chiralsep.hamiltonian import LevelIndex, assemble
from chiralsep.rotbasis import RotState
from chiralsep.scenarios import builtin_config, loop_census


def main():
    cfg = builtin_config("fig7-1mK-xxz", jmax=2)
    ground = LevelIndex(1, RotState(0, 0, 0))

    print("transitions driven from |1>|0 0 0> by the x-x-z setup:")
    basis = [ground] + [LevelIndex(2, r) for r in
                        (RotState(1, 0, -1), RotState(1, 0, 0), RotState(1, 0, 1))]
    laser = cfg.lasers[0]
    h = assemble([laser], cfg.dipole, Enantiomer.L, cfg.constants, cfg.trunc, basis=basis)
    for f, i, _, _ in h.rows():
        print(f"  {i} -> {f}   (polarization {laser.polarization})")

    h = assemble(cfg.lasers, cfg.dipole, Enantiomer.L, cfg.constants, cfg.trunc)
    tri = [cyc for cyc in loop_census(h, max_len=3) if ground in cyc]
    print(f"\n3-loops through the rotational ground state (x-x-z): {len(tri)}")

    from dataclasses import replace

    allz = [replace(l, polarization="z") for l in cfg.lasers]
    h = assemble(allz, cfg.dipole, Enantiomer.L, cfg.constants, cfg.trunc)
    start = LevelIndex(1, RotState(1, 1, 1))
    tri = [cyc for cyc in loop_census(h, max_len=3)
           if start in cyc and len({lvl.rot for lvl in cyc}) == 1]
    print(f"same-label 3-loops through |1>|1 1 1> (all z): {len(tri)}")
    for cyc in tri:
        print("  " + " -> ".join(str(lvl) for lvl in cyc))


if __name__ == "__main__":
    main()
