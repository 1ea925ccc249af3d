"""Closed-form isola: critical curves, discriminant, eigenvalues, criterion."""

import math
import random

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from stokes_isola import closed_forms
from stokes_isola.instability import (
    critical_curves,
    discriminant,
    eigenvalues,
    ellipse,
    instability_criterion,
    max_growth_rate,
    stokes_beta_sequence,
    trace_shift,
)
from stokes_isola.jets import ReducedJet, assemble_reduced_jet

JET = assemble_reduced_jet()


def _synthetic(beta1=0.0, beta2=0.0, beta3=0.0, **kw) -> ReducedJet:
    base = dict(
        alpha1=JET.alpha1, gamma1=JET.gamma1,
        alpha2=JET.alpha2, gamma2=JET.gamma2,
        beta1=beta1, beta2=beta2, beta3=beta3,
    )
    base.update(kw)
    return ReducedJet(**base)


class TestDegenerateOnly:
    """Only beta1 = 0 is modelled: a jet with an order-eps^2 gap is refused,
    not sized with the quartic formulas."""

    @pytest.mark.parametrize("formula", [
        lambda jet: critical_curves(jet),
        lambda jet: discriminant(jet, 0.0, 0.1),
        lambda jet: eigenvalues(jet, 0.25, 0.1),
        lambda jet: max_growth_rate(jet, 0.1),
        lambda jet: ellipse(jet, 0.1),
    ], ids=["critical_curves", "discriminant", "eigenvalues", "max_growth_rate", "ellipse"])
    def test_rejects_nonzero_beta1(self, formula):
        with pytest.raises(ValueError, match="beta1"):
            formula(_synthetic(beta1=0.5, beta2=-0.1))

    def test_accepts_rounding_level_beta1(self):
        jet = _synthetic(beta1=1e-13, beta2=JET.beta2, beta3=JET.beta3)
        assert max_growth_rate(jet, 0.1) == max_growth_rate(JET, 0.1)


class TestCriticalCurves:
    def test_center_curve_coefficients(self):
        curves = critical_curves(JET)
        coef = curves.mu0.coef
        assert coef[0] == pytest.approx(0.25, abs=1e-15)
        assert coef[1] == pytest.approx(0.0, abs=1e-15)
        assert coef[2] == pytest.approx(closed_forms.MU0_EPS2, abs=1e-12)

    def test_band_edges_quartic(self):
        curves = critical_curves(JET)
        assert curves.nu_plus(1.0) == pytest.approx(-closed_forms.NU_EPS4, abs=1e-12)
        assert curves.nu_minus(1.0) == pytest.approx(closed_forms.NU_EPS4, abs=1e-12)
        assert curves.nu_plus.degree() == 4

    def test_ordering_and_width(self):
        curves = critical_curves(JET)
        for eps in (0.0, 0.05, 0.1, 0.15):
            assert curves.nu_plus(eps) <= 0 <= curves.nu_minus(eps)
        assert curves.width(0.1) == pytest.approx(2 * closed_forms.NU_EPS4 * 0.1**4, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.002, 0.005, 0.02, 0.06, 0.19])
    def test_width_keeps_its_digits(self, eps):
        # subtracting the two band edges would cancel two values near 1/4 (4e-6 relative at 0.002)
        exact = 111 * math.sqrt(3) / 512 * eps**4
        assert abs(critical_curves(JET).width(eps) - exact) <= 1e-13 * exact

    def test_requires_nonzero_T1(self):
        with pytest.raises(ValueError):
            critical_curves(_synthetic(alpha1=1.0, gamma1=-1.0))


class TestDiscriminant:
    def test_probed_coefficients(self):
        # D(nu, eps) = (4107/65536) eps^8 - (16/9) nu^2 - (37/128) nu eps^6
        d_eps8 = discriminant(JET, 0.0, 1.0)
        d_nu2 = discriminant(JET, 1.0, 0.0)
        d_cross = discriminant(JET, 1.0, 1.0) - d_eps8 - d_nu2
        assert d_eps8 == pytest.approx(closed_forms.D_EPS8, abs=1e-12)
        assert d_nu2 == pytest.approx(closed_forms.D_NU2, abs=1e-12)
        assert d_cross == pytest.approx(closed_forms.D_NU_EPS6, abs=1e-12)

    def test_vanishes_on_band_edges_through_eps8(self):
        # composing D with the edge curves must cancel every power up to
        # eps^8; the eps^10 cross term is the expected truncation leftover
        curves = critical_curves(JET)
        x = Polynomial([0.0, 1.0])
        for nu in (curves.nu_plus, curves.nu_minus):
            composed = (
                4.0 * JET.beta3_eff**2 * x**8
                - JET.T1**2 * nu**2
                + 8.0 * JET.beta2 * JET.beta3_eff * nu * x**6
            )
            for k, c in enumerate(composed.coef[:9]):
                assert abs(c) <= 1e-12, (k, c)
            assert abs(composed.coef[10]) > 1e-12  # truncation order marker

    def test_accepts_arrays(self):
        nu = np.linspace(-1e-5, 1e-5, 7)
        d = discriminant(JET, nu, 0.08)
        assert d.shape == nu.shape

    def test_sign_structure(self):
        eps = 0.08
        curves = critical_curves(JET)
        assert discriminant(JET, 0.0, eps) > 0.0
        assert discriminant(JET, 2.0 * curves.nu_minus(eps), eps) < 0.0


class TestTraceShift:
    def test_coefficients(self):
        assert trace_shift(JET, 0.0, 0.0) == pytest.approx(1.5, abs=1e-15)
        assert trace_shift(JET, 1.0, 0.0) - 1.5 == pytest.approx(8.0 / 3.0, rel=1e-14)
        # the eps^2 trace coefficient is twice the imaginary-center slope
        assert trace_shift(JET, 0.0, 1.0) - 1.5 == pytest.approx(
            2.0 * closed_forms.IM_CENTER_EPS2, abs=1e-12
        )


class TestEigenvalues:
    def test_pair_sum_is_purely_imaginary(self):
        rng = random.Random(99)
        for _ in range(500):
            eps = rng.uniform(0.0, 0.15)
            mu = 0.25 + rng.uniform(-0.05, 0.05)
            pair = eigenvalues(JET, mu, eps)
            assert abs((pair.lambda_plus + pair.lambda_minus).real) <= 1e-15

    def test_pair_product_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            eps = rng.uniform(0.0, 0.15)
            mu = 0.25 + rng.uniform(-0.05, 0.05)
            nu = mu - (0.25 - JET.T2 / JET.T1 * eps**2)
            d = float(discriminant(JET, nu, eps))
            s = float(trace_shift(JET, nu, eps))
            pair = eigenvalues(JET, mu, eps)
            got = pair.lambda_plus * pair.lambda_minus
            want = -(s * s + d) / 4.0
            assert got.real == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert abs(got.imag) <= 1e-15 * max(1.0, abs(want))

    def test_imaginary_midpoint_curve(self):
        rng = random.Random(13)
        for _ in range(100):
            eps = rng.uniform(0.0, 0.15)
            mu = 0.25 + rng.uniform(-0.05, 0.05)
            nu = mu - (0.25 - JET.T2 / JET.T1 * eps**2)
            pair = eigenvalues(JET, mu, eps)
            mid = 0.5 * (pair.lambda_plus + pair.lambda_minus).imag
            want = 0.75 + (4.0 / 3.0) * nu + closed_forms.IM_CENTER_EPS2 * eps**2
            assert mid == pytest.approx(want, abs=1e-14)

    def test_regimes(self):
        eps = 0.08
        curves = critical_curves(JET)
        center = float(curves.mu0(eps))
        inside = eigenvalues(JET, center, eps)
        assert inside.regime == "inside-isola"
        assert inside.lambda_plus.real > 0.0
        assert inside.lambda_plus.real == pytest.approx(-inside.lambda_minus.real, abs=1e-18)

        outside = eigenvalues(JET, center + 3.0 * float(curves.nu_minus(eps)), eps)
        assert outside.regime == "outside"
        assert outside.lambda_plus.real == 0.0
        assert outside.lambda_minus.real == 0.0

    def test_collision_regime_without_truncation_leftover(self):
        # with beta2 = 0 the band edges are exact discriminant roots
        jet = _synthetic(beta3=closed_forms.BETA3_EFF, alpha2=0.0, gamma2=0.0)
        eps = 0.1
        curves = critical_curves(jet)
        mu_edge = float(curves.mu0(eps) + curves.nu_plus(eps))
        pair = eigenvalues(jet, mu_edge, eps)
        assert pair.regime == "collision"
        assert pair.lambda_plus == pair.lambda_minus

    def test_concave_growth_inside_isola(self):
        for eps in (0.05, 0.1):
            curves = critical_curves(JET)
            lo = 0.9 * float(curves.nu_plus(eps))
            hi = 0.9 * float(curves.nu_minus(eps))
            center = float(curves.mu0(eps))
            mus = center + np.linspace(lo, hi, 41)
            re = np.array([eigenvalues(JET, float(m), eps).lambda_plus.real for m in mus])
            assert np.all(re > 0.0)
            d2 = np.diff(re, 2)
            assert np.all(d2 <= 1e-10)

    def test_vertical_tangency_at_band_edge(self):
        # along the isola the real part changes ever faster relative to the
        # imaginary part as the band edge is approached
        eps = 0.05
        curves = critical_curves(JET)
        center = float(curves.mu0(eps))
        nu_hi = float(curves.nu_minus(eps))
        span = nu_hi - float(curves.nu_plus(eps))
        ratios = []
        for t_a, t_b in ((0.2, 0.1), (0.05, 0.025), (0.0125, 0.00625)):
            pa = eigenvalues(JET, center + nu_hi - t_a * span, eps)
            pb = eigenvalues(JET, center + nu_hi - t_b * span, eps)
            assert pa.regime == pb.regime == "inside-isola"
            dx = pa.lambda_plus.real - pb.lambda_plus.real
            dy = pa.lambda_plus.imag - pb.lambda_plus.imag
            ratios.append(abs(dx / dy))
        assert ratios[0] < ratios[1] < ratios[2]


class TestGrowthRate:
    def test_peak_value_and_location(self):
        eps = 0.1
        rate = max_growth_rate(JET, eps)
        assert rate.re_max == pytest.approx(closed_forms.BETA3_EFF * eps**4, rel=1e-12)
        assert rate.nu_re == pytest.approx(closed_forms.NU_RE_EPS6 * eps**6, rel=1e-12)

    def test_peak_dominates_samples(self):
        eps = 0.08
        rate = max_growth_rate(JET, eps)
        curves = critical_curves(JET)
        center = float(curves.mu0(eps))
        nus = np.linspace(float(curves.nu_plus(eps)), float(curves.nu_minus(eps)), 101)
        res = [eigenvalues(JET, center + float(n), eps).lambda_plus.real for n in nus]
        # the sampled maximum cannot exceed the closed-form peak by more than
        # the eps^10 truncation leftover
        assert max(res) <= rate.re_max * (1.0 + 1e-2)
        assert max(res) >= rate.re_max * 0.99


class TestEllipse:
    def test_stokes_parameters(self):
        eps = 0.1
        ell = ellipse(JET, eps)
        assert ell.center_im == pytest.approx(0.75 + closed_forms.IM_CENTER_EPS2 * eps**2, abs=1e-12)
        assert ell.semi_re == pytest.approx(closed_forms.BETA3_EFF * eps**4, rel=1e-12)
        assert ell.semi_im == pytest.approx(2.0 * closed_forms.BETA3_EFF * eps**4, rel=1e-12)
        assert ell.axis_ratio == pytest.approx(closed_forms.AXIS_RATIO, abs=1e-12)

    def test_degenerates_to_point_at_zero_amplitude(self):
        ell = ellipse(JET, 0.0)
        assert (ell.semi_re, ell.semi_im) == (0.0, 0.0)
        assert ell.center_im == pytest.approx(0.75, abs=1e-15)

    def test_rejects_equal_diagonal_slopes(self):
        with pytest.raises(ValueError):
            ellipse(_synthetic(alpha1=1.0, gamma1=1.0), 0.1)

    def test_eigenvalues_trace_the_ellipse(self):
        eps = 0.06
        ell = ellipse(JET, eps)
        curves = critical_curves(JET)
        center = float(curves.mu0(eps))
        for t in np.linspace(0.15, 0.85, 9):
            nu = float(curves.nu_plus(eps)) + t * (
                float(curves.nu_minus(eps)) - float(curves.nu_plus(eps))
            )
            lam = eigenvalues(JET, center + nu, eps).lambda_plus
            q = (lam.real / ell.semi_re) ** 2 + (
                (lam.imag - ell.center_im) / ell.semi_im
            ) ** 2
            # the truncation leftover perturbs the curve at relative order eps^2
            assert q == pytest.approx(1.0, abs=0.05)


class TestCriterion:
    def test_stokes_wave_is_order_four(self):
        betas = stokes_beta_sequence(JET)
        assert len(betas) == 3
        assert instability_criterion(betas) == "unstable-at-order-4"

    def test_synthetic_order_two(self):
        assert instability_criterion((1.0, 0.0, 0.0)) == "unstable-at-order-2"

    def test_stable_sequence(self):
        assert instability_criterion((0.0, 0.0, 0.0)) == "stable-to-order-3"

    def test_tolerance_respected(self):
        assert instability_criterion((1e-15, 0.0, 1e-3)) == "unstable-at-order-4"
        assert instability_criterion((1e-15,), tol=1e-16) == "unstable-at-order-2"

    def test_beta_sequence_values(self):
        b1, b2, b3 = stokes_beta_sequence(JET)
        assert b1 == pytest.approx(0.0, abs=1e-13)
        assert b2 == 0.0
        assert b3 == pytest.approx(closed_forms.BETA3_EFF, abs=1e-12)
