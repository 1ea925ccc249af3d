"""Truncated Fourier eigenvalue oracle: exactness, symmetry, isola extraction."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from stokes_isola import closed_forms, floquet
from stokes_isola.floquet import (
    TrackingFailure,
    _pick_pair,
    build,
    convergence_check,
    measure_isola,
    spectrum,
    trace_isola,
)
from stokes_isola.instability import critical_curves, ellipse
from stokes_isola.jets import assemble_reduced_jet
from stokes_isola.stokes import omega

JET = assemble_reduced_jet()


class TestBuild:
    def test_shape_and_metadata(self):
        op = build(0.25, 0.05, N=16)
        assert op.matrix.shape == (66, 66)
        assert (op.mu, op.eps, op.N, op.stokes_order) == (0.25, 0.05, 16, 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build(0.25, 0.05, N=4)
        with pytest.raises(ValueError):
            build(0.25, 0.05, N=16, stokes_order=5)
        with pytest.raises(ValueError):
            build(0.25, -0.01, N=16)

    def test_flat_matrix_is_block_diagonal(self):
        op = build(0.3, 0.0, N=8)
        d = 2 * 8 + 1
        m = op.matrix
        # off-diagonal Toeplitz bands vanish at zero amplitude
        for blk_r in range(2):
            for blk_c in range(2):
                block = m[blk_r * d:(blk_r + 1) * d, blk_c * d:(blk_c + 1) * d]
                off = block - np.diag(np.diag(block))
                assert np.max(np.abs(off)) == 0.0


class TestFlatExactness:
    @pytest.mark.parametrize("mu", [0.1, 0.25, 0.4])
    def test_eigenvalues_match_dispersion(self, mu):
        N = 32
        op = build(mu, 0.0, N=N)
        eigs = scipy.linalg.eigvals(op.matrix)
        worst = 0.0
        for j in range(-N, N + 1):
            for sigma in (1, -1):
                target = 1j * omega(j, sigma, mu)
                worst = max(worst, np.min(np.abs(eigs - target)))
        assert worst <= 1e-12


class TestReversibilitySymmetry:
    @pytest.mark.parametrize("eps,N", [(0.05, 32), (0.1, 64), (0.0, 16)])
    def test_spectral_symmetry_identity(self, eps, N):
        op = build(0.25, eps, N=N)
        d = 2 * N + 1
        s = np.concatenate([np.ones(d), -np.ones(d)])
        m = op.matrix
        residual = np.max(np.abs(s[:, None] * m * s[None, :] + np.conj(m)))
        assert residual <= 1e-10

    def test_spectrum_closed_under_reflection(self):
        op = build(0.2475, 0.08, N=24)
        eigs = scipy.linalg.eigvals(op.matrix)
        for lam in eigs[:40]:
            assert np.min(np.abs(eigs - (-np.conj(lam)))) <= 1e-9


class TestSpectrumTracking:
    def test_tracked_pair_near_collision(self):
        sample = spectrum(build(0.25, 0.05, N=32))
        lp, lm = sample.tracked_pair
        assert abs(lp - 0.75j) <= 0.2
        assert abs(lm - 0.75j) <= 0.2
        assert sample.re_max == pytest.approx(max(lp.real, lm.real), abs=1e-18)

    def test_pair_sum_is_purely_imaginary(self):
        for mu, eps in ((0.24, 0.05), (0.25, 0.08), (0.2475, 0.06)):
            sample = spectrum(build(mu, eps, N=32))
            lp, lm = sample.tracked_pair
            assert abs((lp + lm).real) <= 1e-9

    def test_failure_away_from_collision(self):
        with pytest.raises(TrackingFailure):
            spectrum(build(0.55, 0.0, N=16))

    def test_trace_isola_records_failures(self):
        points = trace_isola(0.0, [0.2475, 0.55], N=16)
        assert points[0].error is None
        assert points[0].lambda_plus is not None
        assert points[1].error is not None
        assert points[1].lambda_plus is None


class TestConvergence:
    def test_rows_and_deltas(self):
        rows = convergence_check(0.2475, 0.06, [16, 24, 32])
        assert [r.N for r in rows] == [16, 24, 32]
        assert rows[0].delta is None
        assert rows[1].delta is not None
        # the wave data has four harmonics; truncation error is tiny already
        assert rows[-1].delta <= 1e-10


class TestIsolaMeasurement:
    def test_geometry_at_moderate_amplitude(self):
        eps = 0.06
        meas = measure_isola(eps, N=32)
        assert meas.mu_left < meas.mu_at_max < meas.mu_right
        assert meas.mu_width > 0.0

        curves = critical_curves(JET)
        ell = ellipse(JET, eps)
        re_theory = ell.semi_re
        assert meas.re_max == pytest.approx(re_theory, rel=0.25)
        assert meas.im_center == pytest.approx(ell.center_im, abs=5e-4)
        assert meas.mu_width == pytest.approx(curves.width(eps), rel=0.15)
        # the measured center sits close to the predicted center curve
        assert meas.mu_at_max == pytest.approx(float(curves.mu0(eps)), abs=5e-4)

    def test_quartic_growth_scaling(self):
        eps_grid = np.array([0.04, 0.06, 0.08, 0.10])
        res = np.array([measure_isola(float(e), N=32).re_max for e in eps_grid])
        slope, intercept = np.polyfit(np.log(eps_grid), np.log(res), 1)
        assert abs(slope - 4.0) <= 0.3
        assert abs(intercept - math.log(closed_forms.BETA3_EFF)) <= 0.4

    def test_error_shrinks_with_amplitude(self):
        rel = []
        for eps in (0.08, 0.04):
            meas = measure_isola(eps, N=32)
            rel.append(abs(meas.re_max - closed_forms.BETA3_EFF * eps**4) / (closed_forms.BETA3_EFF * eps**4))
        assert rel[1] < rel[0]


class TestShiftInvertSolver:
    """The tracked pair from the shift-invert solve against the pair picked
    from the full dense spectrum."""

    @staticmethod
    def _dense_pair(op):
        return _pick_pair(scipy.linalg.eigvals(op.matrix), 0.75j, 0.2)

    @pytest.fixture(scope="class")
    def isola_mu(self):
        """(center, width) of the measured isola per amplitude; eps = 0 has
        only the collision point itself."""
        out = {0.0: (0.25, 0.0)}
        for eps in (0.05, 0.1, 0.19):
            meas = measure_isola(eps, N=32)
            out[eps] = (meas.mu_at_max, meas.mu_width)
        return out

    @pytest.mark.parametrize("N", [16, 32, 64])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.19])
    @pytest.mark.parametrize("where", ["inside", "outside"])
    def test_agrees_with_dense_spectrum(self, isola_mu, N, eps, where):
        center, width = isola_mu[eps]
        mu = center if where == "inside" else center + 3 * width + 1e-3
        op = build(mu, eps, N=N)
        lp, lm = spectrum(op).tracked_pair
        dp, dm = self._dense_pair(op)
        assert abs(lp - dp) <= 1e-12
        assert abs(lm - dm) <= 1e-12
        if where == "inside" and eps > 0:
            assert lp.real > 1e-3 * closed_forms.BETA3_EFF * eps**4   # split pair
        if where == "outside":
            assert abs(lp.real) <= 1e-12                          # imaginary pair

    def test_failure_matches_dense(self):
        op = build(0.55, 0.0, N=16)
        with pytest.raises(TrackingFailure) as dense:
            self._dense_pair(op)
        with pytest.raises(TrackingFailure) as shifted:
            spectrum(op)
        assert str(shifted.value) == str(dense.value)

    def test_shift_on_an_eigenvalue(self):
        # eps = 0, mu = 1/4 puts the flat double eigenvalue exactly on 0.75i
        lp, lm = spectrum(build(0.25, 0.0, N=16)).tracked_pair
        assert abs(lp - 0.75j) <= 1e-12
        assert abs(lm - 0.75j) <= 1e-12

    @pytest.mark.parametrize(
        "error",
        [
            scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], []),
            RuntimeError("Factor is exactly singular"),   # on both shifts tried
        ],
    )
    def test_solver_error_is_tracking_failure(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", failing)
        with pytest.raises(TrackingFailure, match="shift-invert"):
            spectrum(build(0.25, 0.05, N=16))

    def test_deterministic(self):
        op = build(0.2475, 0.06, N=32)
        first = spectrum(op).tracked_pair
        assert all(spectrum(op).tracked_pair == first for _ in range(3))


class TestIsolaSearchCost:
    @pytest.mark.parametrize("eps", [0.02, 0.06, 0.12, 0.19])
    def test_solves_per_measurement(self, monkeypatch, eps):
        calls = []
        solve = floquet.spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(floquet, "spectrum", counted)
        measure_isola(eps, N=32)
        assert len(calls) <= 30

    #: (re_max, mu_width, im_center, mu_at_max) from the dense full-spectrum
    #: search (scipy.linalg.eigvals per sample, Brent on the whole half
    #: windows), scipy 1.17.1 with OpenBLAS.
    DENSE_SEARCH = {
        0.04: (3.1582824675972384e-07, 9.448044329396499e-07, 0.7472421495089018, 0.2485719359205368),
        0.06: (1.5729993669212587e-06, 4.688798490276591e-06, 0.7437722157144173, 0.24677805691057428),
        0.08: (4.875911145222535e-06, 1.4460034617302941e-05, 0.738870112055532, 0.24424953163998028),
    }

    @pytest.mark.parametrize("eps", [0.04, 0.06, 0.08])
    def test_matches_dense_search(self, eps):
        re_max, width, im_center, mu_at_max = self.DENSE_SEARCH[eps]
        meas = measure_isola(eps, N=32)
        assert meas.re_max == pytest.approx(re_max, rel=1e-7, abs=0)
        assert meas.mu_width == pytest.approx(width, rel=1e-7, abs=0)
        assert meas.im_center == pytest.approx(im_center, rel=0, abs=1e-10)
        assert meas.mu_at_max == pytest.approx(mu_at_max, rel=0, abs=1e-10)
