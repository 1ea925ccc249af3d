"""Wave-profile coefficient tables, dispersion relation, collision bookkeeping."""

from fractions import Fraction

import numpy as np
import pytest

from stokes_isola.basis import Mode
from stokes_isola.entanglement import is_pole
from stokes_isola.stokes import (
    MAX_ORDER,
    a_coeff,
    collision_frequency,
    eval_profile,
    omega,
    p_coeff,
    rational_sqrt,
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


class TestEvalProfile:
    def test_frozen_value(self):
        assert eval_profile("a", 0.1, 0.0, order=2) == pytest.approx(-0.2, abs=1e-15)

    def test_order_zero_vanishes(self):
        x = np.linspace(0.0, 2 * np.pi, 7)
        assert np.all(eval_profile("p", 0.3, x, order=0) == 0.0)

    def test_vectorized_matches_scalar(self):
        x = np.linspace(0.0, 2 * np.pi, 11)
        vec = eval_profile("p", 0.07, x, order=4)
        scalars = np.array([eval_profile("p", 0.07, float(t), order=4) for t in x])
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=1e-15)

    def test_two_pi_periodic(self):
        x = 0.731
        for which in ("p", "a"):
            lhs = eval_profile(which, 0.1, x, order=4)
            rhs = eval_profile(which, 0.1, x + 2 * np.pi, order=4)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_profile("q", 0.1, 0.0, order=2)
        with pytest.raises(ValueError):
            eval_profile("p", 0.1, 0.0, order=7)


class TestDispersion:
    def test_resonant_pair_collides(self):
        assert omega(0, -1, 0.25) == pytest.approx(0.75, abs=1e-15)
        assert omega(2, +1, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_generic_value(self):
        # omega_j^sigma(mu) = j + mu - sigma*sqrt(|j + mu|)
        assert omega(1, +1, 0.25) == pytest.approx(1.25 - np.sqrt(1.25), abs=1e-15)
        assert omega(-1, -1, 0.25) == pytest.approx(-0.75 + np.sqrt(0.75), abs=1e-15)


class TestExactArithmetic:
    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(0)) == Fraction(0)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(49, 36)) == Fraction(7, 6)


class TestCollisionFrequency:
    def test_even_orders(self):
        # p = 2n: mu = 1/4, harmonics n^2 - n and n^2 + n
        col = collision_frequency(2)
        assert (col.mu, col.k, col.k_prime) == (Fraction(1, 4), 0, 2)
        assert col.omega_star == Fraction(3, 4)
        col = collision_frequency(4)
        assert (col.mu, col.k, col.k_prime) == (Fraction(1, 4), 2, 6)

    def test_odd_orders(self):
        # p = 2n + 1: mu = 0, harmonics n^2 and (n + 1)^2
        col = collision_frequency(3)
        assert (col.mu, col.k, col.k_prime) == (Fraction(0), 1, 4)
        col = collision_frequency(5)
        assert (col.mu, col.k, col.k_prime) == (Fraction(0), 4, 9)

    def test_branches_actually_collide(self):
        for p in range(2, 7):
            col = collision_frequency(p)
            assert is_pole(Mode(col.k, -1), col.mu, col.omega_star)
            assert is_pole(Mode(col.k_prime, +1), col.mu, col.omega_star)

    def test_rejects_degenerate_order(self):
        with pytest.raises(ValueError):
            collision_frequency(1)
