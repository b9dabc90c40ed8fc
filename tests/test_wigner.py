"""Exact 3j symbols and the orientation integral."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle
from chiralsep.rotbasis import RotState
from chiralsep.wigner import rot_integrals, three_j_exact


def three_j(*args):
    """The 3j symbol as a float, from its exact sign and square."""
    sign, square = three_j_exact(*args)
    return sign * math.sqrt(square)


# hand-checked / independently computed reference values
THREE_J_CASES = [
    ((1, 1, 0, 0, 0, 0), -math.sqrt(3) / 3),
    ((1, 1, 2, 1, -1, 0), math.sqrt(30) / 30),
    ((2, 1, 1, 1, 0, -1), -math.sqrt(10) / 10),
    ((2, 1, 2, 0, 0, 0), 0.0),       # odd j-sum with zero lower row
    ((3, 1, 2, 2, -1, -1), -math.sqrt(42) / 21),
    ((2, 1, 3, -2, 1, 1), math.sqrt(105) / 105),
    ((0, 0, 0, 0, 0, 0), 1.0),
]


@pytest.mark.parametrize("args,expected", THREE_J_CASES)
def test_three_j_reference_values(args, expected):
    assert three_j(*args) == pytest.approx(expected, abs=1e-15)


def test_three_j_exact_is_rational():
    sign, square = three_j_exact(1, 1, 2, 1, -1, 0)
    assert sign == 1
    assert square == Fraction(1, 30)


def test_three_j_invalid_couplings_are_zero():
    # m-sum rule
    assert three_j(1, 1, 1, 1, 1, 1) == 0.0
    # triangle violation
    assert three_j(0, 1, 3, 0, 0, 0) == 0.0


def test_three_j_column_swap_symmetry():
    # swapping two columns multiplies by (-1)^(j1+j2+j3)
    for (j1, j2, j3, m1, m2, m3), _ in THREE_J_CASES:
        a = three_j(j1, j2, j3, m1, m2, m3)
        b = three_j(j2, j1, j3, m2, m1, m3)
        assert b == pytest.approx((-1.0) ** (j1 + j2 + j3) * a, abs=1e-15)


def test_three_j_orthogonality():
    # sum over m1, m2 of (2j3+1) 3j^2 equals 1 per allowed m3, i.e. 2j3+1
    j1, j2 = 2, 2
    for j3 in range(0, 5):
        total = 0.0
        for m1 in range(-j1, j1 + 1):
            for m2 in range(-j2, j2 + 1):
                m3 = -(m1 + m2)
                if abs(m3) > j3:
                    continue
                total += (2 * j3 + 1) * three_j(j1, j2, j3, m1, m2, m3) ** 2
        assert total == pytest.approx(2 * j3 + 1, abs=1e-12)


ROT_CASES = [
    (((1, 0, 0), (0, 0, 0), 0, 0), math.sqrt(3) / 3),
    (((1, 1, 1), (1, 1, 1), 0, 0), 0.5),
    (((2, 1, 1), (1, 1, 1), 0, 0), math.sqrt(15) / 10),
    (((1, 1, 1), (0, 0, 0), 1, 1), math.sqrt(3) / 3),
    (((2, 1, 0), (1, 0, -1), 1, 1), math.sqrt(5) / 10),
    # Delta J = 0 with a zero lower row in the second symbol
    (((1, 0, 1), (1, 0, 0), 1, 0), 0.0),
]


def rot_integral(final, initial):
    """rot_integrals of the single pair final <- initial, as (J, K, M) tuples."""
    (val,) = rot_integrals(np.array([final]).T, np.array([initial]).T)
    return float(val)


@pytest.mark.parametrize("args,expected", ROT_CASES)
def test_rot_integral_reference_values(args, expected):
    f, i, s, sp = args
    assert (s, sp) == (f[2] - i[2], f[1] - i[1])  # the helicities the pair implies
    val = rot_integral(f, i)
    assert val == pytest.approx(expected, abs=1e-15)
    assert val == oracle.rot_integral(RotState(*f), RotState(*i), s, sp)


def test_rot_integral_selection_rules():
    # Delta J = 2
    assert rot_integral((3, 1, 1), (1, 1, 1)) == 0.0
    # Delta J = 0 with a zero lower row in the M symbol, then in the K symbol
    assert rot_integral((2, 1, 0), (2, 1, 0)) == 0.0
    assert rot_integral((2, 0, 1), (2, 0, 1)) == 0.0
    # J = 0 to J = 0
    assert rot_integral((0, 0, 0), (0, 0, 0)) == 0.0


def test_rot_integrals_match_the_per_pair_oracle_at_large_j():
    pairs = [((j + dj, k + dk, j - 1 + dm), (j, k, j - 1))
             for j in (40, 200) for k in (0, j // 2, j)
             for dj in (-1, 0, 1) for dk in (-1, 0, 1) for dm in (-1, 0, 1)
             if max(abs(k + dk), abs(j - 1 + dm)) <= j + dj]
    vals = rot_integrals(np.array([f for f, _ in pairs]).T, np.array([i for _, i in pairs]).T)
    for (f, i), val in zip(pairs, vals.tolist()):
        ref = oracle.rot_integral(RotState(*f), RotState(*i), f[2] - i[2], f[1] - i[1])
        assert val == ref, (f, i)


def test_rot_integrals_refuse_squares_beyond_exact_float_integers():
    # at J = 10^4 the product of the two 3j denominators passes 2**53
    final = np.array([[10_001], [0], [0]])
    initial = np.array([[10_000], [0], [0]])
    with pytest.raises(ValueError, match="exact float64"):
        rot_integrals(final, initial)
    assert rot_integral((1001, 0, 0), (1000, 0, 0)) == oracle.rot_integral(
        RotState(1001, 0, 0), RotState(1000, 0, 0), 0, 0)


def test_three_j_common_denominator_sum_matches_the_fraction_sum():
    # every symbol with j1 <= 8, j2 <= 6 and m3 = -m1 - m2 within j3
    symbols = [(j1, j2, j3, m1, m2, -m1 - m2) for j1 in range(9) for j2 in range(7)
               for j3 in range(abs(j1 - j2), j1 + j2 + 1) for m1 in range(-j1, j1 + 1)
               for m2 in range(-j2, j2 + 1) if abs(m1 + m2) <= j3]
    assert len(symbols) == 24871
    for args in symbols:
        assert three_j_exact.__wrapped__(*args) == oracle.racah_three_j(*args), args
