"""Closed-form 2x2 model: the `Isola` record, its D, trace and eigenvalues, criterion."""

import math
import random

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from stokes_isola import closed_forms
from stokes_isola.instability import (
    instability_criterion,
    isola,
    stokes_beta_sequence,
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

    def test_rejects_nonzero_beta1(self):
        with pytest.raises(ValueError, match="beta1"):
            isola(_synthetic(beta1=0.5, beta2=-0.1), 0.1)

    def test_accepts_rounding_level_beta1(self):
        jet = _synthetic(beta1=1e-13, beta2=JET.beta2, beta3=JET.beta3)
        assert isola(jet, 0.1) == isola(JET, 0.1)


class TestCriticalCurves:
    """The band fields of `Isola`: center curve mu0 and edges nu_plus, nu_minus."""

    def test_center_curve_coefficients(self):
        # mu0 = 1/4 + c2*eps^2: the constant at eps = 0, no odd part, c2 at eps = 1
        assert isola(JET, 0.0).mu0 == pytest.approx(0.25, abs=1e-15)
        assert isola(JET, 1.0).mu0 - isola(JET, -1.0).mu0 == pytest.approx(0.0, abs=1e-15)
        assert isola(JET, 1.0).mu0 - 0.25 == pytest.approx(closed_forms.MU0_EPS2, abs=1e-12)

    def test_band_edges_quartic(self):
        assert isola(JET, 1.0).nu_plus == pytest.approx(-closed_forms.NU_EPS4, abs=1e-12)
        assert isola(JET, 1.0).nu_minus == pytest.approx(closed_forms.NU_EPS4, abs=1e-12)
        # a factor 2 is exact in binary: a pure quartic gains exactly 16
        e = 0.1
        assert isola(JET, 2 * e).nu_plus == 16 * isola(JET, e).nu_plus

    def test_ordering_and_width(self):
        for eps in (0.0, 0.05, 0.1, 0.15):
            band = isola(JET, eps)
            assert band.nu_plus <= 0 <= band.nu_minus
        assert isola(JET, 0.1).width == pytest.approx(2 * closed_forms.NU_EPS4 * 0.1**4, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.002, 0.005, 0.02, 0.06, 0.19])
    def test_width_keeps_its_digits(self, eps):
        # subtracting the two band edges would cancel two values near 1/4 (4e-6 relative at 0.002)
        exact = 111 * math.sqrt(3) / 512 * eps**4
        assert abs(isola(JET, eps).width - exact) <= 1e-13 * exact

    def test_requires_nonzero_T1(self):
        with pytest.raises(ValueError):
            isola(_synthetic(alpha1=1.0, gamma1=-1.0), 0.1)


class TestDiscriminant:
    def test_probed_coefficients(self):
        # D(nu, eps) = (4107/65536) eps^8 - (16/9) nu^2 - (37/128) nu eps^6
        d_eps8 = isola(JET, 1.0).discriminant(0.0)
        d_nu2 = isola(JET, 0.0).discriminant(1.0)
        d_cross = isola(JET, 1.0).discriminant(1.0) - d_eps8 - d_nu2
        assert d_eps8 == pytest.approx(closed_forms.D_EPS8, abs=1e-12)
        assert d_nu2 == pytest.approx(closed_forms.D_NU2, abs=1e-12)
        assert d_cross == pytest.approx(closed_forms.D_NU_EPS6, abs=1e-12)

    def test_vanishes_on_band_edges_through_eps8(self):
        # composing D with the edge curves must cancel every power up to
        # eps^8; the eps^10 cross term is the expected truncation leftover
        unit = isola(JET, 1.0)
        x = Polynomial([0.0, 1.0])
        for nu in (unit.nu_plus * x**4, unit.nu_minus * x**4):
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
        d = isola(JET, 0.08).discriminant(nu)
        assert d.shape == nu.shape

    def test_sign_structure(self):
        eps = 0.08
        th = isola(JET, eps)
        assert th.discriminant(0.0) > 0.0
        assert th.discriminant(2.0 * th.nu_minus) < 0.0


class TestTraceShift:
    def test_coefficients(self):
        assert isola(JET, 0.0).trace(0.0) == pytest.approx(1.5, abs=1e-15)
        assert isola(JET, 0.0).trace(1.0) - 1.5 == pytest.approx(8.0 / 3.0, rel=1e-14)
        # the eps^2 trace coefficient is twice the imaginary-center slope
        assert isola(JET, 1.0).trace(0.0) - 1.5 == pytest.approx(
            2.0 * closed_forms.IM_CENTER_EPS2, abs=1e-12
        )


class TestEigenvalues:
    def test_pair_sum_is_purely_imaginary(self):
        rng = random.Random(99)
        for _ in range(500):
            eps = rng.uniform(0.0, 0.15)
            mu = 0.25 + rng.uniform(-0.05, 0.05)
            th = isola(JET, eps)
            pair = th.eigenvalues(mu - th.mu0)
            assert abs((pair.lambda_plus + pair.lambda_minus).real) <= 1e-15

    def test_pair_product_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            eps = rng.uniform(0.0, 0.15)
            mu = 0.25 + rng.uniform(-0.05, 0.05)
            th = isola(JET, eps)
            nu = mu - th.mu0
            d = th.discriminant(nu)
            s = th.trace(nu)
            pair = th.eigenvalues(nu)
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
            pair = isola(JET, eps).eigenvalues(nu)
            mid = 0.5 * (pair.lambda_plus + pair.lambda_minus).imag
            want = 0.75 + (4.0 / 3.0) * nu + closed_forms.IM_CENTER_EPS2 * eps**2
            assert mid == pytest.approx(want, abs=1e-14)

    def test_regimes(self):
        eps = 0.08
        band = isola(JET, eps)
        inside = band.eigenvalues(0.0)
        assert inside.regime == "inside-isola"
        assert inside.lambda_plus.real > 0.0
        assert inside.lambda_plus.real == pytest.approx(-inside.lambda_minus.real, abs=1e-18)

        outside = band.eigenvalues(3.0 * band.nu_minus)
        assert outside.regime == "outside"
        assert outside.lambda_plus.real == 0.0
        assert outside.lambda_minus.real == 0.0

    def test_collision_regime_without_truncation_leftover(self):
        # with beta2 = 0 the band edges are exact discriminant roots
        jet = _synthetic(beta3=closed_forms.BETA3_EFF, alpha2=0.0, gamma2=0.0)
        eps = 0.1
        band = isola(jet, eps)
        pair = band.eigenvalues(band.nu_plus)
        assert pair.regime == "collision"
        assert pair.lambda_plus == pair.lambda_minus

    def test_small_amplitude_peak_is_inside_the_isola(self):
        # D peaks at 4*beta3_eff^2*eps^8 = 1.6e-15 at eps = 0.02: a collision
        # window fixed in absolute terms would swallow the whole isola
        eps = 0.02
        th = isola(JET, eps)
        pair = th.eigenvalues(th.nu_re)
        assert pair.regime == "inside-isola"
        assert pair.lambda_plus.real == pytest.approx(th.re_max, rel=1e-6)

    def test_concave_growth_inside_isola(self):
        for eps in (0.05, 0.1):
            band = isola(JET, eps)
            lo = 0.9 * band.nu_plus
            hi = 0.9 * band.nu_minus
            nus = np.linspace(lo, hi, 41)
            re = np.array([band.eigenvalues(float(n)).lambda_plus.real for n in nus])
            assert np.all(re > 0.0)
            d2 = np.diff(re, 2)
            assert np.all(d2 <= 1e-10)

    def test_vertical_tangency_at_band_edge(self):
        # along the isola the real part changes ever faster relative to the
        # imaginary part as the band edge is approached
        eps = 0.05
        band = isola(JET, eps)
        nu_hi = band.nu_minus
        span = nu_hi - band.nu_plus
        ratios = []
        for t_a, t_b in ((0.2, 0.1), (0.05, 0.025), (0.0125, 0.00625)):
            pa = band.eigenvalues(nu_hi - t_a * span)
            pb = band.eigenvalues(nu_hi - t_b * span)
            assert pa.regime == pb.regime == "inside-isola"
            dx = pa.lambda_plus.real - pb.lambda_plus.real
            dy = pa.lambda_plus.imag - pb.lambda_plus.imag
            ratios.append(abs(dx / dy))
        assert ratios[0] < ratios[1] < ratios[2]


class TestGrowthRate:
    """The peak fields of `Isola`: re_max at nu_re."""

    def test_peak_value_and_location(self):
        eps = 0.1
        rate = isola(JET, eps)
        assert rate.re_max == pytest.approx(closed_forms.BETA3_EFF * eps**4, rel=1e-12)
        assert rate.nu_re == pytest.approx(closed_forms.NU_RE_EPS6 * eps**6, rel=1e-12)

    def test_peak_dominates_samples(self):
        eps = 0.08
        rate = isola(JET, eps)
        nus = np.linspace(rate.nu_plus, rate.nu_minus, 101)
        res = [rate.eigenvalues(float(n)).lambda_plus.real for n in nus]
        # the sampled maximum cannot exceed the closed-form peak by more than
        # the eps^10 truncation leftover
        assert max(res) <= rate.re_max * (1.0 + 1e-2)
        assert max(res) >= rate.re_max * 0.99


class TestEllipse:
    """The ellipse fields of `Isola`: im_center, semi-axes re_max and semi_im."""

    def test_stokes_parameters(self):
        eps = 0.1
        ell = isola(JET, eps)
        assert ell.im_center == pytest.approx(0.75 + closed_forms.IM_CENTER_EPS2 * eps**2, abs=1e-12)
        assert ell.re_max == pytest.approx(closed_forms.BETA3_EFF * eps**4, rel=1e-12)
        assert ell.semi_im == pytest.approx(2.0 * closed_forms.BETA3_EFF * eps**4, rel=1e-12)
        assert ell.axis_ratio == pytest.approx(closed_forms.AXIS_RATIO, abs=1e-12)

    def test_degenerates_to_point_at_zero_amplitude(self):
        ell = isola(JET, 0.0)
        assert (ell.re_max, ell.semi_im) == (0.0, 0.0)
        assert ell.im_center == pytest.approx(0.75, abs=1e-15)

    def test_rejects_equal_diagonal_slopes(self):
        with pytest.raises(ValueError):
            isola(_synthetic(alpha1=1.0, gamma1=1.0), 0.1)

    def test_eigenvalues_trace_the_ellipse(self):
        eps = 0.06
        ell = isola(JET, eps)
        for t in np.linspace(0.15, 0.85, 9):
            nu = ell.nu_plus + t * (ell.nu_minus - ell.nu_plus)
            lam = ell.eigenvalues(float(nu)).lambda_plus
            q = (lam.real / ell.re_max) ** 2 + (
                (lam.imag - ell.im_center) / ell.semi_im
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
