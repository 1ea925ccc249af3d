"""Wave-profile coefficient tables, dispersion relation and the collision point."""

from fractions import Fraction

import numpy as np
import pytest

from stokes_isola import floquet
from stokes_isola.stokes import (
    A_FLOAT,
    MAX_ORDER,
    MU_STAR,
    OMEGA_STAR,
    P_FLOAT,
    a_coeff,
    omega,
    p_coeff,
)


class TestTables:
    def test_order_one(self):
        assert p_coeff(1, 1) == Fraction(-2)
        assert a_coeff(1, 1) == Fraction(-2)

    def test_order_two(self):
        assert p_coeff(2, 0) == Fraction(3)
        assert a_coeff(2, 0) == Fraction(4)
        assert p_coeff(2, 2) == Fraction(-2)
        assert a_coeff(2, 2) == Fraction(-2)

    def test_order_three(self):
        assert p_coeff(3, 1) == Fraction(3)
        assert a_coeff(3, 1) == Fraction(4)
        assert p_coeff(3, 3) == Fraction(-3)
        assert a_coeff(3, 3) == Fraction(-3)

    def test_order_four(self):
        assert p_coeff(4, 0) == Fraction(1, 4)
        assert a_coeff(4, 0) == Fraction(-2)
        assert p_coeff(4, 2) == Fraction(4)
        assert a_coeff(4, 2) == Fraction(4)
        assert p_coeff(4, 4) == Fraction(-16, 3)
        assert a_coeff(4, 4) == Fraction(-16, 3)

    def test_parity_gaps_are_zero(self):
        # each order n only carries harmonics of the same parity as n
        assert p_coeff(2, 1) == 0
        assert a_coeff(3, 0) == 0
        assert p_coeff(3, 2) == 0
        assert a_coeff(4, 1) == 0
        assert p_coeff(1, 0) == 0

    def test_out_of_support_is_zero(self):
        assert p_coeff(2, 4) == 0
        assert a_coeff(1, 3) == 0
        assert p_coeff(4, 6) == 0

    def test_negative_harmonic_symmetric(self):
        for n in range(1, MAX_ORDER + 1):
            for kappa in range(0, n + 1):
                assert p_coeff(n, -kappa) == p_coeff(n, kappa)
                assert a_coeff(n, -kappa) == a_coeff(n, kappa)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            p_coeff(5, 1)
        with pytest.raises(ValueError):
            a_coeff(0, 0)

    def test_float_views_hold_every_harmonic_of_every_order(self):
        keys = [(n, k) for n in range(1, MAX_ORDER + 1) for k in range(-n, n + 1)]
        assert list(P_FLOAT) == list(A_FLOAT) == keys
        for n, k in keys:
            assert P_FLOAT[n, k] == float(p_coeff(n, k))
            assert A_FLOAT[n, k] == float(a_coeff(n, k))
            if (k - n) % 2:
                assert P_FLOAT[n, k] == A_FLOAT[n, k] == 0.0


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

