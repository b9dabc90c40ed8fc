"""Parity of Rabi sign flips on closed coupling loops.

A closed loop of couplings carries a gauge-invariant phase.  Negating an
even number of loop couplings can be absorbed into level phases and leaves
the spectrum alone; negating an odd number (e.g. the global sign flip
between enantiomers on a 3-loop) moves the eigenvalues.  This script
classifies every sign pattern on random rings and tabulates the result.
"""

import numpy as np

from chiralsep.looptopology import edges, flip_sensitivity, random_loop_hamiltonian, spectrum


def main():
    rng = np.random.default_rng(42)
    print(f"{'n':>3} {'flips':>6} {'classification':>20} {'spectral move':>15}")
    for n in (3, 4, 5):
        h = random_loop_hamiltonian(n, rng)
        base = spectrum(h)
        i, j = np.array(edges(h)).T
        # one representative pattern per flip count r: the first r edges,
        # row r - 1 of a lower-triangular mask
        classes = flip_sensitivity(h, np.tri(len(i), dtype=bool))
        for r, cls in enumerate(classes, start=1):
            flipped = h.copy()
            flipped[i[:r], j[:r]] *= -1
            flipped[j[:r], i[:r]] *= -1
            move = np.max(np.abs(spectrum(flipped) - base))
            print(f"{n:>3} {r:>6} {cls:>20} {move:>15.3e}")
    print("\nodd flip counts change the spectrum, even ones are pure gauge")


if __name__ == "__main__":
    main()
