"""Wave-profile coefficient tables, dispersion relation and the collision point."""

from fractions import Fraction

import numpy as np
import pytest

from stokes_isola import floquet
from stokes_isola.stokes import (
    _A_TABLE,
    _P_TABLE,
    A_FLOAT,
    MAX_ORDER,
    MU_STAR,
    OMEGA_STAR,
    P_FLOAT,
    omega,
)


class TestTables:
    def test_order_one(self):
        assert Fraction(*_P_TABLE[1, 1]) == Fraction(-2)
        assert Fraction(*_A_TABLE[1, 1]) == Fraction(-2)

    def test_order_two(self):
        assert Fraction(*_P_TABLE[2, 0]) == Fraction(3)
        assert Fraction(*_A_TABLE[2, 0]) == Fraction(4)
        assert Fraction(*_P_TABLE[2, 2]) == Fraction(-2)
        assert Fraction(*_A_TABLE[2, 2]) == Fraction(-2)

    def test_order_three(self):
        assert Fraction(*_P_TABLE[3, 1]) == Fraction(3)
        assert Fraction(*_A_TABLE[3, 1]) == Fraction(4)
        assert Fraction(*_P_TABLE[3, 3]) == Fraction(-3)
        assert Fraction(*_A_TABLE[3, 3]) == Fraction(-3)

    def test_order_four(self):
        assert Fraction(*_P_TABLE[4, 0]) == Fraction(1, 4)
        assert Fraction(*_A_TABLE[4, 0]) == Fraction(-2)
        assert Fraction(*_P_TABLE[4, 2]) == Fraction(4)
        assert Fraction(*_A_TABLE[4, 2]) == Fraction(4)
        assert Fraction(*_P_TABLE[4, 4]) == Fraction(-16, 3)
        assert Fraction(*_A_TABLE[4, 4]) == Fraction(-16, 3)

    def test_parity_gaps_are_zero(self):
        # each order n only carries harmonics of the same parity as n
        assert P_FLOAT[2, 1] == 0
        assert A_FLOAT[3, 0] == 0
        assert P_FLOAT[3, 2] == 0
        assert A_FLOAT[4, 1] == 0
        assert P_FLOAT[1, 0] == 0
        for n, k in P_FLOAT:
            if (k - n) % 2:
                assert P_FLOAT[n, k] == A_FLOAT[n, k] == 0.0
                assert (n, abs(k)) not in _P_TABLE and (n, abs(k)) not in _A_TABLE

    def test_out_of_support_is_zero(self):
        assert (2, 4) not in _P_TABLE and (2, 4) not in P_FLOAT
        assert (1, 3) not in _A_TABLE and (1, 3) not in A_FLOAT
        assert (4, 6) not in _P_TABLE and (4, -6) not in P_FLOAT
        assert all(0 <= k <= n <= MAX_ORDER for n, k in (*_P_TABLE, *_A_TABLE))

    def test_negative_harmonic_symmetric(self):
        for n in range(1, MAX_ORDER + 1):
            for kappa in range(0, n + 1):
                assert P_FLOAT[n, -kappa] == P_FLOAT[n, kappa]
                assert A_FLOAT[n, -kappa] == A_FLOAT[n, kappa]

    def test_float_views_hold_every_harmonic_of_every_order(self):
        keys = [(n, k) for n in range(1, MAX_ORDER + 1) for k in range(-n, n + 1)]
        assert list(P_FLOAT) == list(A_FLOAT) == keys
        for exact, view in ((_P_TABLE, P_FLOAT), (_A_TABLE, A_FLOAT)):
            assert {(n, abs(k)) for (n, k), c in view.items() if c} == set(exact)
            for (n, k), c in exact.items():
                # an int ratio in lowest terms, its float view correctly rounded
                assert Fraction(*c).as_integer_ratio() == c and all(type(x) is int for x in c)
                assert view[n, k] == view[n, -k] == float(Fraction(*c))


class TestDispersion:
    def test_resonant_pair_collides(self):
        assert omega(0, -1, 0.25) == pytest.approx(0.75, abs=1e-15)
        assert omega(2, +1, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_collision_point_is_a_collision_of_the_flat_dispersion(self):
        # 1/4, 3/4 and sqrt(1/4), sqrt(9/4) are exact in binary
        assert omega(0, -1, MU_STAR) == omega(2, +1, MU_STAR) == OMEGA_STAR
        assert floquet.CENTER == 1j * OMEGA_STAR

    def test_generic_value(self):
        # omega_j^sigma(mu) = j + mu - sigma*sqrt(|j + mu|)
        assert omega(1, +1, 0.25) == pytest.approx(1.25 - np.sqrt(1.25), abs=1e-15)
        assert omega(-1, -1, 0.25) == pytest.approx(-0.75 + np.sqrt(0.75), abs=1e-15)

