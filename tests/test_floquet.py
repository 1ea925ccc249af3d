"""Truncated Fourier eigenvalue oracle: exactness, symmetry, isola extraction."""

import math
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stokes_isola import closed_forms, floquet, instability, jets
from stokes_isola.floquet import (
    TrackingFailure,
    _pick_pair,
    build,
    convergence_check,
    measure_isola,
    spectrum,
    trace_isola,
)
from stokes_isola.instability import isola
from stokes_isola.jets import assemble_reduced_jet
from stokes_isola.stokes import A_FLOAT, P_FLOAT, omega

JET = assemble_reduced_jet()
#: Predicted isola center at eps = 0.2.
MU0_020 = isola(JET, 0.2).mu0


def _real_form(m):
    """R of T m T^-1 = i*R, T = diag(I, i*I): the real matrix the solves
    work on, derived from the dense ``m``, whose real part must vanish."""
    t = np.repeat([1, 1j], m.shape[0] // 2)
    scaled = t[:, None] * m / t
    assert np.all(scaled.real == 0.0)
    return scaled.imag


class TestBuild:
    def test_shape_and_metadata(self):
        op = build(0.25, 0.05, N=16)
        assert op.matrix.shape == (66, 66)
        assert (op.mu, op.eps, op.N, op.stokes_order) == (0.25, 0.05, 16, 4)
        assert build(0.25, 0.05, N=np.int64(16), stokes_order=np.int32(4)).matrix.shape == (66, 66)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build(0.25, 0.05, N=4)
        with pytest.raises(ValueError):
            build(0.25, 0.05, N=16, stokes_order=5)
        with pytest.raises(ValueError):
            build(0.25, -0.01, N=16)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(N=16.5), "N"), (dict(N=16.0), "N"), (dict(N=16, stokes_order=2.5), "stokes_order"),
    ])
    def test_rejects_non_integer_sizes(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build(0.25, 0.05, **kwargs)

    @pytest.mark.parametrize("mu,eps,name", [
        (0.25, math.nan, "eps"), (0.25, math.inf, "eps"),
        (math.nan, 0.05, "mu"), (-math.inf, 0.05, "mu"),
    ])
    def test_rejects_non_finite_arguments(self, mu, eps, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build(mu, eps, N=16)

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


class TestBuildCache:
    @staticmethod
    def _uncached(mu, eps, N, order):
        """The assembly `build` performs, with nothing shared between calls."""
        dim = 2 * N + 1
        d = np.arange(-N, N + 1, dtype=float) + mu
        p_toeplitz = np.zeros((dim, dim))
        a_toeplitz = np.zeros((dim, dim))
        for table, toeplitz in ((P_FLOAT, p_toeplitz), (A_FLOAT, a_toeplitz)):
            for (n, kappa), c in table.items():
                if n <= order and c != 0:
                    toeplitz += 0.5 * eps**n * c * np.eye(dim, k=-kappa)
        eye = np.eye(dim)
        m00 = 1j * (d[:, None] * (eye + p_toeplitz))
        m01 = np.diag(np.abs(d)).astype(complex)
        m10 = -(eye + a_toeplitz).astype(complex)
        m11 = 1j * ((eye + p_toeplitz) * d[None, :])
        return np.block([[m00, m01], [m10, m11]])

    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize("order", range(5))
    def test_bit_identical_to_uncached_assembly(self, N, order):
        for eps in (0.0, 0.06, 0.19):
            for mu in (0.1, 0.2475, 0.25, 0.6):
                ref = self._uncached(mu, eps, N, order)
                got = build(mu, eps, N, order).matrix
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()     # signed zeros too

    def test_writing_a_matrix_leaves_the_next_build_alone(self):
        first = build(0.2475, 0.08, N=16)
        clean = first.matrix.copy()
        first.matrix[:] = 7.0
        assert np.array_equal(build(0.2475, 0.08, N=16).matrix, clean)
        assert np.array_equal(build(0.25, 0.08, N=16).matrix, self._uncached(0.25, 0.08, 16, 4))

    def test_cached_parts_are_read_only(self):
        build(0.25, 0.05, N=16)
        for part in floquet._toeplitz_parts(0.05, 16, 4):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 0.0


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

    def test_trace_through_the_collision_point(self):
        """Flat water at mu = 1/4 has the double eigenvalue 0.75i, so a
        solve continued from the first point starts its shift exactly at
        the pair's midpoint.  Every point is tracked, on the exact pair
        i*(mu + sqrt(mu)) and i*(2 + mu - sqrt(2 + mu))."""
        grid = [0.25, 0.2501, 0.25]
        points = trace_isola(0.0, grid)
        assert [p.error for p in points] == [None] * 3
        for p, mu in zip(points, grid):
            assert abs(p.lambda_plus - 1j * (mu + math.sqrt(mu))) <= 1e-12
            assert abs(p.lambda_minus - 1j * (2 + mu - math.sqrt(2 + mu))) <= 1e-12


class TestPairLabels:
    """`_pick_pair` puts the larger real part in lambda+ for a split pair and
    the larger imaginary part for a purely imaginary one, however small the
    split and whatever the noise on the other component."""

    @pytest.mark.parametrize("lp,lm", [
        # an exactly reversible split pair, split far below 1e-12
        (1e-14 + 0.7j, -1e-14 + 0.7j),
        # an exactly imaginary pair
        (0.76j, 0.74j),
        # a dense solve's pair 1e-9 in mu outside an isola edge at eps 0.12
        (-8.8e-13 + 0.7245029j, 8.8e-13 + 0.7245025j),
        # a dense solve's split pair with noise on its imaginary parts
        (1.8e-7 + 0.7245025707147j, -1.8e-7 + 0.7245025707149j),
    ])
    def test_labels(self, lp, lm):
        for eigs in ([lm, lp, 2.0j], (lp, 0.0, lm), np.array([lm, 2.0j, lp])):
            assert _pick_pair(eigs, 0.0) == (lp, lm)

    def test_dense_labels_match_the_banded_solve_at_the_edges(self):
        """At eps 0.12, 1e-12 to 1e-7 in mu either side of both edges, the
        dense pair, whose components carry noise up to 4e-11, is labelled
        as the banded solve's, which carries none: the same two
        eigenvalues in the same order, to 1e-9."""
        eps = 0.12
        meas = measure_isola(eps)
        for edge in (meas.mu_left, meas.mu_right):
            for k in range(-24, -13):
                for side in (-1, 1):
                    op = build(edge + side * 10.0 ** (k / 2), eps)
                    dense = _pick_pair(scipy.linalg.eigvals(op.matrix), eps)
                    banded = spectrum(op).tracked_pair
                    assert abs(dense[0] - banded[0]) <= 1e-9
                    assert abs(dense[1] - banded[1]) <= 1e-9


class TestConvergence:
    def test_rows_and_deltas(self):
        rows = convergence_check(0.2475, 0.06, [16, 24, 32])
        assert [r.N for r in rows] == [16, 24, 32]
        assert rows[0].delta is None
        assert rows[1].delta is not None
        # the wave data has four harmonics; truncation error is tiny already
        assert rows[-1].delta <= 1e-10

    @pytest.mark.parametrize("ladder", [[16, 16], [24, 16], [12, 24, 16]])
    def test_ladder_must_refine(self, monkeypatch, ladder):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the ladder was checked")

        monkeypatch.setattr(floquet, "build", no_solve)
        with pytest.raises(ValueError, match=re.escape(f"N ladder {ladder} does not refine")):
            convergence_check(0.246778, 0.06, ladder)

    def test_ladder_of_non_integers_is_rejected(self):
        # truncating 16.5 and 24.9 would label the rows N = 16 and 24
        with pytest.raises(ValueError, match="N must be an integer, got 16.5"):
            convergence_check(0.246778, 0.06, [16.5, 24.9])


class TestIsolaMeasurement:
    def test_geometry_at_moderate_amplitude(self):
        eps = 0.06
        meas = measure_isola(eps, N=32)
        assert meas.mu_left < meas.mu_at_max < meas.mu_right
        assert meas.mu_width > 0.0

        # each bound is about twice the measured residual (N = 32, one BLAS
        # thread): -1.57e-5, -3.0%, -3.7% and -4.0e-5
        th = isola(JET, eps)
        assert meas.re_max == pytest.approx(th.re_max, rel=0.06)
        assert meas.im_center == pytest.approx(th.im_center, abs=8e-5)
        assert meas.mu_width == pytest.approx(th.width, rel=0.075)
        # the measured peak sits close to the predicted one
        assert meas.mu_at_max == pytest.approx(th.mu_at_max, abs=3e-5)

    def test_quartic_growth_scaling(self):
        eps_grid = np.array([0.04, 0.06, 0.08, 0.10])
        res = np.array([measure_isola(float(e), N=32).re_max for e in eps_grid])
        slope, intercept = np.polyfit(np.log(eps_grid), np.log(res), 1)
        assert abs(slope - 4.0) <= 0.3
        assert abs(intercept - math.log(closed_forms.BETA3_EFF)) <= 0.4

    def test_third_order_wave_data_has_the_leading_order_isola(self):
        # the one order-4 catalog row, beta3.theta, is 0: truncating the wave
        # data at order 3 moves the isola by O(eps^2) relative, not away
        dev = {
            eps: measure_isola(eps, N=32, stokes_order=3).re_max
            / isola(JET, eps).re_max - 1.0
            for eps in (0.02, 0.04)
        }
        assert abs(dev[0.02]) <= 0.02
        assert dev[0.04] / dev[0.02] == pytest.approx(4.0, abs=0.2)

    def test_deterministic(self):
        first, second = measure_isola(0.06), measure_isola(0.06)
        assert first == second
        assert repr(first) == repr(second)                 # bit for bit

    def test_error_shrinks_with_amplitude(self):
        rel = []
        for eps in (0.08, 0.04):
            meas = measure_isola(eps, N=32)
            rel.append(abs(meas.re_max - closed_forms.BETA3_EFF * eps**4) / (closed_forms.BETA3_EFF * eps**4))
        assert rel[1] < rel[0]

    @pytest.mark.parametrize("eps", [0.2, 0.25])
    def test_large_amplitude_in_the_default_window(self, eps):
        meas, wide = measure_isola(eps), measure_isola(eps, window_scale=2.0)
        assert meas.re_max == pytest.approx(wide.re_max, rel=1e-9, abs=0)
        assert meas.mu_at_max == pytest.approx(wide.mu_at_max, rel=0, abs=1e-12)

    def test_search_loads_no_scipy_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import stokes_isola, stokes_isola.cli; "
            "stokes_isola.floquet.measure_isola(0.06); "
            "sys.exit('scipy.optimize' in sys.modules)"
        )
        subprocess.run([sys.executable, "-c", code, str(src)], check=True)


class TestShiftInvertSolver:
    """The tracked pair from the shift-invert solve against the pair picked
    from the full dense spectrum."""

    @staticmethod
    def _dense_pair(op):
        return _pick_pair(scipy.linalg.eigvals(op.matrix), op.eps)

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

    def test_singular_factor_is_tracking_failure(self, monkeypatch):
        calls = []

        def singular(ab, kl, ku, **kwargs):
            calls.append(kwargs)
            return ab, None, 1                    # info > 0: U has an exact zero pivot

        monkeypatch.setattr(floquet._lapack(), "dgbtrf", singular)
        with pytest.raises(TrackingFailure, match=r"shift-invert.* tried, 0\.75j, 0\.750000001j$"):
            spectrum(build(0.25, 0.05, N=16))
        assert len(calls) == 2                    # the nudged shift was tried too

    def test_iteration_cap_is_tracking_failure(self, monkeypatch):
        monkeypatch.setattr(floquet, "_MAX_ITER", 2)
        with pytest.raises(TrackingFailure, match="shift-invert"):
            spectrum(build(0.25, 0.05, N=16))

    @pytest.mark.parametrize("mu", [MU0_020, MU0_020 + 0.02])
    def test_block_leads_with_the_pair(self, mu):
        """The returned block is orthonormal, and its first two columns span
        the pair's invariant subspace (their Rayleigh quotient has the
        tracked pair for eigenvalues), inside and outside the isola, also
        when the start block has its columns reversed: that solve converges
        in one iteration, so only the final rotation puts the pair first."""
        op = build(mu, 0.2, N=32)
        cold = spectrum(op)
        reversed_start = cold._replace(block=cold.block[:, ::-1].copy())
        for sample in (cold, spectrum(op, start=reversed_start)):
            q = sample.block
            assert np.abs(q.conj().T @ q - np.eye(floquet._BLOCK)).max() <= 1e-14
            u = np.vstack((q[0::2, :2], -1j * q[1::2, :2]))           # M's frame, block order
            mu_ = op.matrix @ u
            h = u.conj().T @ mu_
            assert np.linalg.norm(mu_ - u @ h) <= 1e-12 * np.linalg.norm(mu_)
            ritz = np.linalg.eigvals(h)
            for lam in sample.tracked_pair:
                assert np.min(np.abs(ritz - lam)) <= 1e-12

    def test_deterministic(self):
        op = build(0.2475, 0.06, N=32)
        first = spectrum(op).tracked_pair
        assert all(spectrum(op).tracked_pair == first for _ in range(3))

    def test_full_disk_is_diagnosed(self, monkeypatch):
        """A disk holding as many eigenvalues as the block has columns stalls
        the spare columns; the cap reports that, not a bare non-convergence."""
        op = build(0.25, 0.05)
        dense = scipy.linalg.eigvals(op.matrix)
        assert np.sum(np.abs(dense - 0.75j) <= 0.65) >= floquet._BLOCK
        monkeypatch.setattr(floquet, "RADIUS", 0.65)
        with pytest.raises(TrackingFailure, match=f"at least {floquet._BLOCK} eigenvalues"):
            spectrum(op)

    def test_three_in_the_disk_is_tracking_failure(self):
        eigs = np.array([0.75j, 0.7j + 1e-3, 0.7j - 1e-3, 0.1j])
        with pytest.raises(TrackingFailure, match=r"^3 eigenvalue\(s\) within 0.2 of 0.75j; need 2$"):
            _pick_pair(eigs, 0.0)


class TestDiskCoverage:
    """Every eigenvalue of the default tracking disk, against the full dense
    spectrum, on a seeded grid of (mu, eps, N) that crosses the disk's edge."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(20280)
        points = []
        for _ in range(120):
            mu, eps = rng.uniform(0.1, 0.45), rng.uniform(0.0, 0.25)
            op = build(mu, eps, int(rng.choice([16, 24, 32, 48, 64])))
            points.append((op, scipy.linalg.eigvals(op.matrix)))
        return points

    def test_no_disk_eigenvalue_is_missed(self, grid):
        """Each solve returns every dense eigenvalue of the disk and fails
        only where the disk holds fewer than two, never for a full block."""
        failures = 0
        for op, dense in grid:
            disk = dense[np.abs(dense - floquet._disk_center(op.eps)) <= 0.2]
            sample, err = TestBandedSolve._outcome(lambda: spectrum(op))
            assert (err is None) == (disk.size >= 2), err
            if err is None:
                for lam in disk:
                    assert np.min(np.abs(sample.eigenvalues - lam)) <= 1e-12
            else:
                assert "at least" not in err
                failures += 1
        assert 10 <= failures <= len(grid) - 10


class TestIsolaSearchCost:
    @pytest.mark.parametrize("eps", [0.02, 0.06, 0.12, 0.19])
    def test_solves_per_measurement(self, monkeypatch, eps):
        calls = []
        solve = floquet.spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(floquet, "spectrum", counted)
        meas = measure_isola(eps, N=32)
        assert len(calls) == meas.solves == 4

    def test_mean_solves_per_measurement(self):
        """Over 40 seeded amplitudes in [0.02, 0.19) a search averages at
        most 4 solves."""
        rng = random.Random(7)
        solves = [measure_isola(rng.uniform(0.02, 0.19)).solves for _ in range(40)]
        assert statistics.mean(solves) <= 4.0

    @staticmethod
    def _count_solves_and_iterations(monkeypatch):
        """Lists that grow by one per `floquet.spectrum` call, per `dgbtrs`
        call while one runs (one subspace iteration) and per `dgbtrs` call
        outside every solve (the pair series' own) while ``monkeypatch``
        holds."""
        solves, iterations, series, running = [], [], [], []
        solve, inverse = floquet.spectrum, floquet._lapack().dgbtrs

        def counted_solve(*args, **kwargs):
            solves.append(args)
            running.append(args)
            try:
                return solve(*args, **kwargs)
            finally:
                running.pop()

        def counted_inverse(*args, **kwargs):
            (iterations if running else series).append(args)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(floquet, "spectrum", counted_solve)
        monkeypatch.setattr(floquet._lapack(), "dgbtrs", counted_inverse)
        return solves, iterations, series

    @pytest.mark.parametrize("eps", [0.06, 0.12, 0.19])
    def test_iterations_per_solve(self, monkeypatch, eps):
        """Continued solves take at most 3.5 subspace iterations on average
        (2.2-2.5 here; cold ones take 6.0-8.1 at these amplitudes)."""
        solves, iterations, _ = self._count_solves_and_iterations(monkeypatch)
        measure_isola(eps, N=32)
        assert len(solves) <= len(iterations) <= 3.5 * len(solves)

    def test_series_inverse_calls(self, monkeypatch):
        """The pair series' own `dgbtrs` calls, outside every solve, average
        at most 20 per search over the 40 seeded amplitudes of
        `test_mean_solves_per_measurement` (9.8 here), so that its cost
        stays in view beside the solves' iterations."""
        _, _, series = self._count_solves_and_iterations(monkeypatch)
        rng = random.Random(7)
        for _ in range(40):
            measure_isola(rng.uniform(0.02, 0.19))
        assert 0 < len(series) <= 20 * 40

    @pytest.mark.parametrize("eps", [0.02, 0.06, 0.12, 0.19])
    def test_iterations_per_trace_solve(self, monkeypatch, eps):
        """Without the measurement's series, the trace over the `isola`
        command's grid (25 points over three measured widths about the
        peak) solves once, cold, at its first point and reads the rest off
        that solve's pair series: 1 `floquet.spectrum` call, 1-3
        `dgbtrf` calls (the solve's shift, a re-shift and the series'
        shift) and at most 40 `dgbtrs` calls in all (9-34 here: 6-9
        iterations and 3-25 series calls; 25 continued solves took 32-83)."""
        meas = measure_isola(eps, N=32)
        grid = TestSeriesTrace.default_grid(meas)
        solves, iterations, series = self._count_solves_and_iterations(monkeypatch)
        factors = []
        factor = floquet._lapack().dgbtrf

        def counted_factor(*args, **kwargs):
            factors.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(floquet._lapack(), "dgbtrf", counted_factor)
        points = trace_isola(eps, grid, N=32)
        assert all(p.error is None for p in points)
        assert len(solves) == 1
        assert 1 <= len(factors) <= 3
        assert 1 <= len(iterations) and len(iterations) + len(series) <= 40

    #: (re_max, mu_width, im_center, mu_at_max) from dense eigenvalues alone
    #: (scipy.linalg.eigvals and `_pick_pair` per sample): the vertex of the
    #: least-squares parabola through the pair's gap^2 at 13 points within
    #: +-0.3 half-widths, refitted once about it, and the edges by Brent's
    #: method on the dense gap^2; scipy 1.17.1 with OpenBLAS.
    DENSE_SEARCH = {
        0.04: (3.158282450930796e-07, 9.448044191173732e-07, 0.7472421495064817, 0.24857193591872542),
        0.06: (1.5729993700892604e-06, 4.688798495966484e-06, 0.74377221559658, 0.24677805682235202),
        0.08: (4.875911215849701e-06, 1.4460034623742235e-05, 0.738870110430877, 0.24424953042518993),
    }

    @pytest.mark.parametrize("eps", [0.04, 0.06, 0.08])
    def test_matches_dense_search(self, eps):
        re_max, width, im_center, mu_at_max = self.DENSE_SEARCH[eps]
        meas = measure_isola(eps, N=32)
        assert meas.re_max == pytest.approx(re_max, rel=1e-7, abs=0)
        assert meas.mu_width == pytest.approx(width, rel=1e-7, abs=0)
        assert meas.im_center == pytest.approx(im_center, rel=0, abs=1e-10)
        assert meas.mu_at_max == pytest.approx(mu_at_max, rel=0, abs=1e-10)


class TestIsolaSearchFailures:
    """Each diagnosed failure of `measure_isola` raises ValueError with its
    own message."""

    def test_step_leaves_the_window(self):
        with pytest.raises(ValueError, match="leaves the window"):
            measure_isola(0.06, window_scale=1e-3)

    @staticmethod
    def _with_discriminant(monkeypatch, change):
        """Every D series that `measure_isola` reads, passed through ``change``."""
        disc = floquet._discriminant
        monkeypatch.setattr(floquet, "_discriminant", lambda b: change(disc(b)))

    def test_curvature_not_negative(self, monkeypatch):
        """D convex at the series' vertex: no isola is resolved."""
        self._with_discriminant(monkeypatch, lambda d: [-c for c in d])
        with pytest.raises(ValueError, match=r"no isola resolved .* at the series' vertex D -.*d2D/dmu2 [0-9]"):
            measure_isola(0.06)

    def test_no_sign_change_at_an_edge(self, monkeypatch):
        """A check solve inside the isola reads D > 0."""
        monkeypatch.setattr(floquet, "_CHECK_ULPS", -10**9)
        with pytest.raises(ValueError, match="no sign change of D at the left edge"):
            measure_isola(0.06)

    def test_iteration_cap(self, monkeypatch):
        """A pair series whose terms are still above the tail at the order
        cap raises, naming the order, the term and the reach."""
        monkeypatch.setattr(floquet, "_SERIES_ORDERS", 1)
        with pytest.raises(ValueError, match=r"pair series .* did not converge by order 1: term .* at reach 2\.592e-05"):
            measure_isola(0.06)

    @pytest.mark.parametrize("eps,scale,name", [
        (math.nan, 8.0, "eps"), (math.inf, 8.0, "eps"), (0.06, math.nan, "window_scale"),
    ])
    def test_non_finite_argument(self, monkeypatch, eps, scale, name):
        monkeypatch.setattr(floquet, "spectrum", None)        # no solve is attempted
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            measure_isola(eps, window_scale=scale)

    @pytest.mark.parametrize("eps,scale,message", [
        (-0.06, 8.0, "eps must be nonnegative, got -0.06"),
        (0.0, 8.0, "eps must be positive, got 0.0: flat water has no isola"),
        (0.06, 0.0, "window_scale must be positive, got 0.0"),
        (0.06, -8.0, "window_scale must be positive, got -8.0"),
    ])
    def test_argument_out_of_range(self, monkeypatch, eps, scale, message):
        """A negative eps or a window_scale that is not positive would invert
        or close the window, and eps = 0 is flat water, with no isola; each
        is named before any solve."""
        monkeypatch.setattr(floquet, "spectrum", None)        # no solve is attempted
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure_isola(eps, window_scale=scale)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(eps=st.floats(0.005, 0.4), N=st.sampled_from([16, 24, 32, 48, 64]))
    def test_every_amplitude_measures_or_is_diagnosed(self, eps, N):
        """No amplitude ends in an undiagnosed exception or a malformed isola,
        and every measurement takes exactly 4 solves."""
        try:
            meas = measure_isola(eps, N=N)
        except (TrackingFailure, ValueError):
            return
        assert meas.mu_left < meas.mu_at_max < meas.mu_right
        assert meas.re_max > 0
        assert meas.solves == 4

    def test_non_integer_truncation(self):
        with pytest.raises(ValueError, match="N must be an integer, got 24.5"):
            measure_isola(0.06, N=24.5)

    @pytest.mark.parametrize("N,message", [
        ("32", "N must be an integer, got '32'"),
        (None, "N must be an integer, got None"),
        (0, "N must be at least 8, got 0"),
    ])
    def test_truncation_refused_before_any_solve(self, monkeypatch, N, message):
        """`build` checks N first: no start block, LAPACK call or solve runs."""
        for name in ("spectrum", "_start_block", "_lapack"):
            monkeypatch.setattr(floquet, name, None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure_isola(0.06, N=N)

    @pytest.mark.parametrize("eps", [1e-300, 1e-42, 1e-20, 1e-9, 1e-5])
    def test_tiny_amplitude(self, eps):
        """At eps 1e-5 and below the pair series stops at order 1, before D
        has a curvature; below eps ~ 5e-9 the first solve's start pair also
        rounds to the shift 0.75 itself.  Each ends in the diagnosis, which
        names the order and no nan."""
        with pytest.raises(ValueError, match="no isola resolved .* series stopped at order 1") as info:
            measure_isola(eps)
        assert "nan" not in str(info.value)

    @pytest.mark.parametrize("eps", [2e-4, 3e-4])
    def test_isola_narrower_than_the_check_solves(self, eps):
        """An isola at most 2*_CHECK_ULPS ulp of mu wide (25 and 106 ulp
        here) has D at its rounding floor, and its width would be up to 15%
        off: it is refused."""
        with pytest.raises(ValueError, match=r"no isola resolved .* ulp of mu, is at most 128$"):
            measure_isola(eps)

    @pytest.mark.parametrize("eps", [5e-4, 1e-3])
    def test_narrow_isola_still_measures(self, eps):
        """845 and 13537 ulp wide: the width within 0.07% of the closed form's."""
        meas = measure_isola(eps)
        assert meas.mu_width == pytest.approx(isola(JET, eps).width, rel=1e-3)
        assert meas.solves == 4

    def test_no_isola_resolved(self, monkeypatch):
        """D <= 0 at the series' vertex: no isola is resolved."""
        self._with_discriminant(monkeypatch, lambda d: [-1.0, *d[1:]])
        with pytest.raises(ValueError, match="no isola resolved .* at the series' vertex D -1.000e"):
            measure_isola(0.06)

    def test_no_isola_at_the_vertex_solve(self, monkeypatch):
        """A vertex solve whose pair is not split (gap^2 <= 0): no isola is
        resolved, and no edge is solved for."""
        solves = []

        def unsplit(op, start=None):
            sample = spectrum(op, start=start)
            solves.append(sample)
            if len(solves) < 2:
                return sample
            centre = 0.5 * sum(sample.tracked_pair)
            return sample._replace(tracked_pair=(centre, centre))

        monkeypatch.setattr(floquet, "spectrum", unsplit)
        with pytest.raises(ValueError, match=r"no isola resolved .* max pair gap\^2 0\.000e\+00"):
            measure_isola(0.06)
        assert len(solves) == 2


class TestSeriesReach:
    """The vertex and edges are read only within the reach of a series:
    where the first series falls short, they come from the series about the
    vertex solve, and an edge beyond that one's reach too is refused."""

    @staticmethod
    def _bisected_width(meas):
        """The isola's width from its edges bisected on the sign of D,
        each from a banded solve started at the vertex solve."""
        eps, N, order = meas.eps, meas.N, meas.stokes_order
        vertex = spectrum(build(meas.mu_at_max, eps, N, order))

        def disc(mu):
            op = build(mu, eps, N, order)
            return floquet._pair_series(op, spectrum(op, start=vertex), 0.0)[2][0]

        edges = []
        for side in (-1, 1):
            inside, outside = meas.mu_at_max, meas.mu_at_max + 2 * side * meas.mu_width
            assert disc(inside) > 0 >= disc(outside)
            while (mid := 0.5 * (inside + outside)) not in (inside, outside):
                inside, outside = (mid, outside) if disc(mid) > 0 else (inside, mid)
            edges.append(inside)
        return edges[1] - edges[0]

    @staticmethod
    def _within_reach(meas):
        reach = floquet._REACH * meas.eps**4
        return all(abs(mu - meas.series[0]) <= reach for mu in (meas.mu_left, meas.mu_at_max, meas.mu_right))

    @pytest.mark.parametrize("eps", [0.12, 0.19])
    def test_first_order_profile_matches_bisection(self, eps):
        """At stokes_order 1 the first series' edges lie 25.5 and 9.8
        reaches out, 0.40% and 9.0e-5 too wide; read off the series about
        the vertex, the width is the bisected one, in the same 4 solves."""
        meas = measure_isola(eps, stokes_order=1)
        assert self._within_reach(meas) and meas.solves == 4
        assert meas.mu_width == pytest.approx(self._bisected_width(meas), rel=1e-9, abs=0)

    @pytest.mark.parametrize("scale", [0.8, 1.2])
    def test_wrong_start_is_accurate_or_diagnosed(self, monkeypatch, scale):
        """With `closed_forms.MU0_EPS2` off by 20% each of the 40 seeded
        amplitudes measures the width and re_max of the unscaled search
        within 1e-8 relative, its vertex within 1e-8 widths and its
        im_center within 1e-12, or is diagnosed.  The first series reads
        the vertex up to 128 reaches out, and the width 5.1% off."""
        rng = random.Random(7)
        amplitudes = [rng.uniform(0.02, 0.19) for _ in range(40)]
        reference = [measure_isola(eps) for eps in amplitudes]
        assert all(self._within_reach(meas) and meas.series[0] != meas.mu_at_max for meas in reference)
        monkeypatch.setattr(closed_forms, "MU0_EPS2", scale * closed_forms.MU0_EPS2)
        for eps, ref in zip(amplitudes, reference):
            try:
                meas = measure_isola(eps)
            except (TrackingFailure, ValueError):
                continue
            assert self._within_reach(meas) and meas.solves == 4
            assert meas.mu_width == pytest.approx(ref.mu_width, rel=1e-8, abs=0)
            assert meas.re_max == pytest.approx(ref.re_max, rel=1e-8, abs=0)
            assert meas.mu_at_max == pytest.approx(ref.mu_at_max, rel=0, abs=1e-8 * ref.mu_width)
            assert meas.im_center == pytest.approx(ref.im_center, rel=0, abs=1e-12)

    def test_edge_beyond_the_vertex_series_is_refused(self, monkeypatch):
        """A reach of 0.1 eps^4, under the isola's half-width, leaves the
        edges beyond the reach of every series."""
        monkeypatch.setattr(floquet, "_REACH", 0.1)
        with pytest.raises(ValueError, match=r"no isola resolved .* an edge lies 1\.\d+ reaches .* reach 1\.296e-06$"):
            measure_isola(0.06)


class TestFollowingDisk:
    """The tracking disk follows the pair (`floquet._disk_center`): at large
    amplitude the pair sits near 3/4 - (55/32)*eps^2, where a disk fixed
    at 0.75j held one eigenvalue of it and 21 of these 300 seeded
    searches failed."""

    @pytest.fixture(scope="class")
    def measured(self):
        rng = random.Random(5)
        return [measure_isola(rng.uniform(0.005, 0.305)) for _ in range(300)]

    def test_every_amplitude_and_its_trace_track_the_pair(self, measured):
        """Each of the 300 amplitudes measures, and the `isola` command's
        25-point trace over three widths about it loses no point."""
        for meas in measured:
            width = 3.0 * meas.mu_width
            grid = np.linspace(meas.mu_at_max - width / 2, meas.mu_at_max + width / 2, 25).tolist()
            points = trace_isola(meas.eps, grid, start=meas)
            assert [p.error for p in points] == [None] * 25, meas.eps

    @pytest.mark.parametrize("scale", [0.5, 0.8, 1.2, 1.5, 2.0])
    def test_wrong_centre_is_accurate_or_diagnosed(self, monkeypatch, measured, scale):
        """With `closed_forms.IM_CENTER_EPS2` scaled, which moves both the
        disk and the first solve's guess of the pair, every third amplitude
        measures its unscaled search within 1e-5 relative, or is diagnosed:
        never a wrong pair."""
        monkeypatch.setattr(closed_forms, "IM_CENTER_EPS2", scale * closed_forms.IM_CENTER_EPS2)
        for ref in measured[::3]:
            try:
                meas = measure_isola(ref.eps)
            except (TrackingFailure, ValueError):
                continue
            for name in ("mu_at_max", "re_max", "im_center", "mu_width"):
                assert getattr(meas, name) == pytest.approx(getattr(ref, name), rel=1e-5, abs=0), (ref.eps, name)


class TestReducedDiscriminant:
    """The pair series' order-0 and order-1 D coefficients, D and dD/dmu of
    the tracked pair's 2x2 reduction, against the full dense spectrum, on a
    seeded grid of eps and of mu within 3 isola widths of the vertex, so the
    pair is split at some points and not at others."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(20260)
        points = []
        for _ in range(40):
            meas = measure_isola(rng.uniform(0.02, 0.19))
            points.append((meas.mu_at_max + rng.uniform(-3, 3) * meas.mu_width, meas))
        return points

    @staticmethod
    def _reduced(mu, eps):
        op = build(mu, eps)
        return floquet._pair_series(op, spectrum(op), 0.0)[2][:2]

    @staticmethod
    def _dense_reduced(m):
        """D of the 2x2 reduction of the dense matrix ``m`` on the dense
        pair's eigenvectors: V their orthonormal basis, W = J*V and
        B = (W^H V)^-1 W^H M V.  Sharper than the dense pair's own gap^2,
        whose error reaches 1e-7 of the peak on this grid."""
        lam, vectors = scipy.linalg.eig(m)
        pair = np.flatnonzero(np.abs(lam - floquet.CENTER) <= floquet.RADIUS)
        assert pair.size == 2
        v = np.linalg.qr(vectors[:, pair])[0]
        half = m.shape[0] // 2
        wh = np.vstack((v[half:], -v[:half])).conj().T
        b = np.linalg.solve(wh @ v, wh @ (m @ v))
        return ((b[0, 0] - b[1, 1]) ** 2 + 4 * b[0, 1] * b[1, 0]).real

    def test_matches_dense_pair_gap(self, grid):
        inside = 0
        for mu, meas in grid:
            disc, _ = self._reduced(mu, meas.eps)
            reference = self._dense_reduced(build(mu, meas.eps).matrix)
            assert abs(disc - reference) <= 1e-7 * 4 * meas.re_max**2
            inside += meas.mu_left < mu < meas.mu_right
        assert 0 < inside < len(grid)

    def test_slope_matches_central_differences(self, grid):
        for mu, meas in grid:
            h = 1e-3 * meas.mu_width
            _, slope = self._reduced(mu, meas.eps)
            upper, lower = self._reduced(mu + h, meas.eps)[0], self._reduced(mu - h, meas.eps)[0]
            assert slope == pytest.approx((upper - lower) / (2 * h), rel=1e-4)


class TestPairSeries:
    """The pair series about a cold solve at mu0 - 1.2 eps^4, reach 2 eps^4,
    against the order-0 D of an independent cold solve at the measured
    vertex, both edges and 1.5 widths either side of the vertex."""

    @pytest.mark.parametrize("eps", [0.02, 0.06, 0.12, 0.19])
    def test_matches_cold_solves(self, eps):
        """Within 1e-7 of D_max = 4 re_max^2 (2.2e-8 at eps 0.02, where
        D_max is 1.6e-15, and 2.0e-12 at 0.19)."""
        meas = measure_isola(eps)
        mu_s = isola(JET, eps).mu0 - 1.2 * eps**4
        op = build(mu_s, eps)
        _, _, disc, u = floquet._pair_series(op, spectrum(op), 2 * eps**4)
        assert len(u) == len(disc) - 1 >= 2
        width = meas.mu_width
        for mu in (meas.mu_at_max, meas.mu_left, meas.mu_right,
                   meas.mu_at_max - 1.5 * width, meas.mu_at_max + 1.5 * width):
            cold = build(mu, eps)
            reference = floquet._pair_series(cold, spectrum(cold), 0.0)[2][0]
            assert floquet._horner(disc, mu - mu_s)[0] == pytest.approx(reference, rel=0, abs=1e-7 * 4 * meas.re_max**2)


class TestSeriesTrace:
    """`trace_isola` reading the pair off the series of its last solve,
    against an independent cold solve at every point."""

    @staticmethod
    def default_grid(meas):
        """The `isola` command's grid: 25 points over three measured widths
        about the peak."""
        width = 3.0 * meas.mu_width
        return np.linspace(meas.mu_at_max - width / 2, meas.mu_at_max + width / 2, 25)

    @staticmethod
    def bound(eps):
        """4e-12 * (0.02/eps)^2: the worst seen against cold solves on the
        default grid is 1.4e-12 at eps 0.02, 8.5e-14 at 0.06, 2.4e-14 at
        0.12 and 6.3e-15 at 0.19 from a series about the grid's first
        point, and 9.8e-13, 6.6e-14, 8.6e-15 and 4.5e-15 from the
        search's own series.  A cold solve is itself no sharper there: at
        eps 0.02 it reads up to 6.5e-13 off a 34-digit reference, where
        the series reads 4.6e-13."""
        return 4e-12 * (0.02 / eps) ** 2

    @staticmethod
    def _traced(monkeypatch, eps, grid, start=None):
        """The trace, from ``start`` if given, the solves it made (True for
        one continued from an earlier solve) and the greatest distance of
        its pair from a cold solve's at any point.  Every point's pair must
        sum to a purely imaginary number bit for bit, and off the isola
        have real parts +0.0."""
        warm = []
        solve = floquet.spectrum

        def recorded(op, start=None):
            warm.append(start is not None)
            return solve(op, start=start)

        monkeypatch.setattr(floquet, "spectrum", recorded)
        points = trace_isola(eps, grid, start=start)
        monkeypatch.undo()
        worst = 0.0
        for p, mu in zip(points, grid):
            assert p.error is None and p.mu == mu
            assert (p.lambda_plus + p.lambda_minus).real == 0.0
            if p.lambda_plus.imag != p.lambda_minus.imag:
                assert math.copysign(1.0, p.lambda_plus.real) == math.copysign(1.0, p.lambda_minus.real) == 1.0
                assert p.lambda_plus.real == 0.0
            lp, lm = spectrum(build(mu, eps)).tracked_pair
            worst = max(worst, abs(p.lambda_plus - lp), abs(p.lambda_minus - lm))
        return points, warm, worst

    @pytest.mark.parametrize("eps", [0.02, 0.06, 0.12, 0.19])
    def test_default_grid_matches_cold_solves(self, monkeypatch, eps):
        """One solve, at the first point, serves the whole grid, whose middle
        third, 7-9 points, lies inside the isola."""
        points, warm, worst = self._traced(monkeypatch, eps, self.default_grid(measure_isola(eps)))
        assert warm == [False]
        assert worst <= self.bound(eps)
        assert 7 <= sum(p.lambda_plus.real > 0.0 for p in points) <= 9

    @pytest.mark.parametrize("eps", [0.02, 0.06, 0.12, 0.19])
    def test_default_grid_from_the_measurement(self, monkeypatch, eps):
        """Started from `measure_isola`'s result, as the `isola` command
        starts it, the trace reads the whole default grid off the search's
        own series about mu0 - 1.2 eps^4 and solves nothing."""
        meas = measure_isola(eps)
        points, warm, worst = self._traced(monkeypatch, eps, self.default_grid(meas), start=meas)
        assert warm == []
        assert worst <= self.bound(eps)
        assert 7 <= sum(p.lambda_plus.real > 0.0 for p in points) <= 9

    @pytest.mark.parametrize("eps", [0.06, 0.12])
    def test_wide_grid_solves_again(self, monkeypatch, eps):
        """A grid ten widths wide, about 3.5 eps^4, outruns the series'
        reach of 2 eps^4: the trace solves again, continuing the last
        solve, and reads the rest off the new series."""
        meas = measure_isola(eps)
        width = 10.0 * meas.mu_width
        grid = np.linspace(meas.mu_at_max - width / 2, meas.mu_at_max + width / 2, 41)
        points, warm, worst = self._traced(monkeypatch, eps, grid)
        assert len(warm) >= 2 and warm == [False] + [True] * (len(warm) - 1)
        assert worst <= self.bound(eps)

    @pytest.mark.parametrize("eps", [0.06, 0.12])
    def test_grid_leaving_the_measurement_series(self, monkeypatch, eps):
        """A grid from the peak to twenty widths above it, about 7 eps^4,
        starts within reach of the measurement's series and leaves it: the
        points within reach take no solve, the first beyond it is solved
        cold and the trace goes on as without ``start``.  (The ten-width
        grid above lies within reach of it at these amplitudes.)"""
        meas = measure_isola(eps)
        grid = np.linspace(meas.mu_at_max, meas.mu_at_max + 20.0 * meas.mu_width, 41)
        read = sum(abs(mu - meas.series[0]) <= floquet._REACH * eps**4 for mu in grid)
        points, warm, worst = self._traced(monkeypatch, eps, grid, start=meas)
        assert 0 < read < len(grid)
        assert len(warm) >= 2 and warm == [False] + [True] * (len(warm) - 1)
        assert worst <= self.bound(eps)

    @pytest.mark.parametrize("change", [
        dict(eps=0.0600000001), dict(N=24), dict(stokes_order=3),
    ])
    def test_mismatched_start_is_rejected_before_any_solve(self, monkeypatch, change):
        meas = measure_isola(0.06)
        monkeypatch.setattr(floquet, "spectrum", None)        # no solve is attempted
        kwargs = {"eps": 0.06, "N": 32, "stokes_order": 4, **change}
        with pytest.raises(ValueError, match="start measured at eps=0.06, N=32, stokes_order=4: need "):
            trace_isola(mu_grid=self.default_grid(meas), start=meas, **kwargs)

    def test_series_that_does_not_converge(self, monkeypatch):
        """With no series converging, every point is solved, each continued
        from the one before, as cold solves read it."""
        grid = self.default_grid(measure_isola(0.06))
        monkeypatch.setattr(floquet, "_SERIES_ORDERS", 1)
        points, warm, worst = self._traced(monkeypatch, 0.06, grid)
        assert warm == [False] + [True] * 24
        assert worst <= 1e-12


class TestBandedSolve:
    """The banded shift-invert solve against the full dense spectrum on a
    seeded grid of (mu, eps, N) that crosses the tracking disk's edge, so
    about half the points fail."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(20240)
        points = []
        for _ in range(60):
            op = build(rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.25), int(rng.choice([8, 16, 24, 32])))
            points.append((op, scipy.linalg.eigvals(op.matrix)))
        return points

    @staticmethod
    def _outcome(solve):
        try:
            return solve(), None
        except TrackingFailure as exc:
            return None, str(exc)

    def test_pair_and_failures_match_dense(self, grid):
        failures = 0
        for op, dense in grid:
            dense_pair, dense_err = self._outcome(lambda: _pick_pair(dense, op.eps))
            sample, err = self._outcome(lambda: spectrum(op))
            assert err == dense_err
            if err is None:
                assert abs(sample.tracked_pair[0] - dense_pair[0]) <= 1e-12
                assert abs(sample.tracked_pair[1] - dense_pair[1]) <= 1e-12
            else:
                failures += 1
        assert 10 <= failures <= len(grid) - 10

    def test_eigenvalues_are_converged_and_cover_the_disk(self, grid):
        for op, dense in grid:
            eigs = floquet._shift_invert(op)[0]
            assert eigs.size >= 2
            for lam in eigs:
                assert np.min(np.abs(dense - lam)) <= 1e-12
            for lam in dense[np.abs(dense - 0.75j) <= 0.2]:
                assert np.min(np.abs(eigs - lam)) <= 1e-12

    @pytest.mark.parametrize("N,order", [(8, 0), (16, 2), (32, 4)])
    def test_band_holds_every_nonzero(self, N, order):
        m = build(0.2475, 0.19, N, order).matrix
        n = m.shape[0]
        k = np.arange(n)
        interleaved = (k % 2) * (n // 2) + k // 2
        p = m[np.ix_(interleaved, interleaved)]
        kl = 2 * order + 1
        outside = np.abs(k[:, None] - k[None, :]) > kl
        assert np.all(p[outside] == 0)
        assert np.any(p[np.abs(k[:, None] - k[None, :]) == kl] != 0)


class TestOperatorParts:
    """The band and the products the solves take from the Toeplitz parts,
    against the real form of the dense matrix (`_real_form`), on a seeded
    grid of (mu, eps, N, order)."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(20270)
        return [
            build(rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.25), int(rng.choice([8, 16, 32])), order)
            for _ in range(8)
            for order in range(5)
        ]

    @staticmethod
    def _gathered_band(m, order):
        """LAPACK band storage of ``m`` in interleaved order, entry by entry."""
        n, kl = m.shape[0], 2 * order + 1
        interleaved = [(k % 2) * (n // 2) + k // 2 for k in range(n)]
        band = np.zeros((3 * kl + 1, n), dtype=m.dtype, order="F")
        for j in range(n):
            for i in range(max(0, j - kl), min(n, j + kl + 1)):
                band[2 * kl + i - j, j] = m[interleaved[i], interleaved[j]]
        return band

    def test_band_is_bit_identical_to_the_matrix(self, grid):
        for op in grid:
            band, gathered = floquet._band(op), self._gathered_band(_real_form(op.matrix), op.stokes_order)
            assert band.flags.f_contiguous
            assert band.tobytes(order="F") == gathered.tobytes(order="F")

    def test_reduction_matches_the_matrix(self, grid):
        """The pair series' order-0 and order-1 D coefficients, from the
        products with R and dR/dmu taken from the Toeplitz parts, against
        the real form of the dense matrix on a random orthonormal U, with R
        shifted by 0.75 before the projection; dR/dmu is the exact
        difference quotient of R over a step of mu that keeps every
        j + mu's sign, since R is linear in mu there."""
        rng = np.random.default_rng(20271)
        for op in grid:
            n = op.matrix.shape[0]
            block = np.linalg.qr(rng.standard_normal((n, floquet._BLOCK)))[0]
            u = np.vstack((block[0::2, :2], block[1::2, :2]))        # block order
            real = _real_form(op.matrix)
            slope = (_real_form(build(op.mu + 1e-3, op.eps, op.N, op.stokes_order).matrix) - real) / 1e-3
            wt = np.vstack((u[n // 2 :], u[: n // 2])).T
            b = np.linalg.solve(wt @ u, wt @ real @ u)
            c = np.linalg.solve(wt @ u, wt @ slope @ u)
            disc = -((b[0, 0] - b[1, 1]) ** 2 + 4 * b[0, 1] * b[1, 0])
            rate = -(2 * (b[0, 0] - b[1, 1]) * (c[0, 0] - c[1, 1]) + 4 * (c[0, 1] * b[1, 0] + b[0, 1] * c[1, 0]))
            sample = floquet.SpectrumSample((), (0.75j, 0.75j), block)
            got = floquet._pair_series(op, sample, 0.0)[2]
            scale = np.linalg.norm(b) ** 2 * np.linalg.cond(wt @ u)
            assert got[0] == pytest.approx(disc, rel=0, abs=1e-12 * scale)
            assert got[1] == pytest.approx(rate, rel=0, abs=1e-12 * scale * (1 + np.linalg.norm(c)))

    def test_search_and_trace_never_form_the_matrix(self, monkeypatch):
        def formed(op):
            raise AssertionError("dense matrix formed")

        monkeypatch.setattr(floquet.DiscretizedOperator, "matrix", property(formed))
        meas = measure_isola(0.06)
        points = trace_isola(0.06, [meas.mu_left, meas.mu_at_max, meas.mu_right])
        assert all(p.error is None for p in points)
        with pytest.raises(AssertionError, match="dense matrix formed"):
            build(0.25, 0.06).matrix

    def test_search_and_trace_never_eigensolve(self, monkeypatch):
        """The trace reads its pairs off the series of tr B and D in closed
        form: no dense eigensolver runs, not even on a 2x2 matrix."""
        def eigensolve(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvals", eigensolve)
        monkeypatch.setattr(scipy.linalg, "eigvals", eigensolve)
        meas = measure_isola(0.06)
        points = trace_isola(0.06, TestSeriesTrace.default_grid(meas))
        assert len(points) == 25 and all(p.error is None for p in points)

    def test_search_and_trace_run_no_closed_form_route(self, monkeypatch):
        """The oracle starts from the hand-written `closed_forms` table: with
        the term ledger, the jet and the isola record raising wherever the
        package binds them, the search and the default trace still run, to
        the same results."""
        meas = measure_isola(0.06)
        grid = TestSeriesTrace.default_grid(meas)
        points = trace_isola(0.06, grid)

        def closed_form_route(*args, **kwargs):
            raise AssertionError("closed-form route called")

        route = (jets.assemble_reduced_jet, jets._ledger, instability.isola)
        for module in [m for key, m in sys.modules.items() if key.partition(".")[0] == "stokes_isola"]:
            for name, value in list(vars(module).items()):
                if any(value is f for f in route):
                    monkeypatch.setattr(module, name, closed_form_route)
        with pytest.raises(AssertionError, match="closed-form route called"):
            jets.assemble_reduced_jet()
        assert measure_isola(0.06) == meas
        assert trace_isola(0.06, grid) == points


class TestWarmStart:
    """Solves continued from a cold sample at a nearby mu, against the full
    dense spectrum, on a seeded grid of (mu, eps, N) points whose start
    sample, at mu + delta, tracks the pair."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(20250)
        points = []
        while len(points) < 60:
            mu, eps = rng.uniform(0.1, 0.45), rng.uniform(0.0, 0.25)
            N, delta = int(rng.choice([8, 16, 24, 32])), rng.uniform(-0.03, 0.03)
            try:
                start = spectrum(build(mu + delta, eps, N))
            except TrackingFailure:
                continue
            op = build(mu, eps, N)
            points.append((op, start, scipy.linalg.eigvals(op.matrix)))
        return points

    def test_pair_and_failures_match_dense(self, grid):
        failures = 0
        for op, start, dense in grid:
            dense_pair, dense_err = TestBandedSolve._outcome(lambda: _pick_pair(dense, op.eps))
            sample, err = TestBandedSolve._outcome(lambda: spectrum(op, start=start))
            assert err == dense_err
            if err is None:
                assert abs(sample.tracked_pair[0] - dense_pair[0]) <= 1e-12
                assert abs(sample.tracked_pair[1] - dense_pair[1]) <= 1e-12
            else:
                failures += 1
        assert 2 <= failures <= len(grid) - 40

    def test_eigenvalues_are_converged_and_cover_the_disk(self, grid):
        for op, start, dense in grid:
            eigs, block = floquet._shift_invert(op, start)
            assert not block.flags.writeable
            for lam in eigs:
                assert np.min(np.abs(dense - lam)) <= 1e-12
            for lam in dense[np.abs(dense - 0.75j) <= 0.2]:
                assert np.min(np.abs(eigs - lam)) <= 1e-12

    def test_tracked_pairs_are_exactly_reversible(self, monkeypatch, grid):
        """Every tracked pair is symmetric under lambda -> -conj(lambda) bit
        for bit, and every block is real: the solves of this grid, cold and
        continued, those of `measure_isola` at eps = 0.06 and of a 25-point
        trace over three of its widths, and that trace's points, read off
        its series.  A split pair shares its imaginary part; an unsplit one
        has real parts +0.0."""
        samples = []
        solve = floquet.spectrum

        def recorded(*args, **kwargs):
            samples.append(solve(*args, **kwargs))
            return samples[-1]

        for op, start, _ in grid:
            samples.append(start)
            for begin in (None, start):
                samples.append(TestBandedSolve._outcome(lambda: spectrum(op, start=begin))[0])
        monkeypatch.setattr(floquet, "spectrum", recorded)
        meas = measure_isola(0.06)
        width = 3.0 * meas.mu_width
        points = trace_isola(0.06, np.linspace(meas.mu_at_max - width / 2, meas.mu_at_max + width / 2, 25))
        assert len(points) == 25 and all(p.error is None for p in points)
        samples = [s for s in samples if s is not None]
        pairs = [s.tracked_pair for s in samples] + [(p.lambda_plus, p.lambda_minus) for p in points]
        split = 0
        for lp, lm in pairs:
            assert (lp + lm).real == 0.0
            if lp.imag == lm.imag:
                split += lp.real > 0.0
            else:
                assert lp.real == lm.real == 0.0
                assert math.copysign(1.0, lp.real) == math.copysign(1.0, lm.real) == 1.0
        assert 10 <= split <= len(pairs) - 10
        assert all(s.block.dtype == np.float64 for s in samples)

    def test_shift_landing_on_an_eigenvalue(self):
        """A long step (to the left window edge of `measure_isola` at this
        eps) whose first shift lands 4e-7 from an eigenvalue.  Until the
        shift moves, rounding holds the other eigenvalue in the disk at a
        relative residual near 5e-13, above `_TOL`."""
        eps = 0.14183985139010924
        start = spectrum(build(0.22003137218862653, eps, 32))
        op = build(0.20925303255023298, eps, 32)
        cold = spectrum(op).tracked_pair
        assert abs(floquet._toward_pair(0.75j, *start.tracked_pair) - cold[0]) <= 1e-6
        warm = spectrum(op, start=start).tracked_pair
        assert abs(warm[0] - cold[0]) <= 1e-12
        assert abs(warm[1] - cold[1]) <= 1e-12

    @pytest.mark.parametrize("eps,chain,mu", [
        # the re-shift, 1e-3 short of the midpoint of a pair split by 2e-3,
        # would land on an eigenvalue
        (0.17543832460207331, [0.22353512683478868], 0.22258780426354066),
        # the first shift lands 1.3e-6 from an eigenvalue, with the pair's
        # midpoint less than twice the gap away (two steps of an isola trace)
        (0.24528255893056056, [0.1899025746978994, 0.19011046786840763], 0.19031836103891586),
    ])
    def test_shift_kept_clear_of_the_pair(self, eps, chain, mu):
        """The start continues along ``chain`` (the first solve cold)."""
        start = None
        for m in chain:
            start = spectrum(build(m, eps, 32), start=start)
        op = build(mu, eps, 32)
        cold = spectrum(op).tracked_pair
        warm = spectrum(op, start=start).tracked_pair
        assert abs(warm[0] - cold[0]) <= 1e-12
        assert abs(warm[1] - cold[1]) <= 1e-12

    def test_start_of_another_size_is_rejected(self):
        start = spectrum(build(0.25, 0.05, N=16))
        with pytest.raises(ValueError, match="start block"):
            spectrum(build(0.25, 0.05, N=24), start=start)

    @staticmethod
    def _cold(eps, mu):
        try:
            return spectrum(build(mu, eps, 32)).tracked_pair, None
        except TrackingFailure as exc:
            return None, str(exc)

    @pytest.mark.parametrize("eps,grid", [
        # from the isola's center across the lower edge of the disk and back
        (0.2, [MU0_020 - 0.01 * k for k in range(12)] + [MU0_020]),
        # out to mu = 0.55, where the pair has left the disk, and back
        (0.06, [0.2 + 0.05 * k for k in range(8)] + [0.25]),
    ])
    def test_trace_matches_cold_solves(self, monkeypatch, eps, grid):
        warm = []
        solve = floquet.spectrum

        def recorded(*args, start=None, **kwargs):
            warm.append(start is not None)
            return solve(*args, start=start, **kwargs)

        monkeypatch.setattr(floquet, "spectrum", recorded)
        points = trace_isola(eps, grid, N=32)
        monkeypatch.undo()
        errors = [p.error for p in points]
        assert None in errors and any(errors)
        # each point continues the previous one unless that one failed
        assert warm == [False] + [e is None for e in errors[:-1]]
        for p, mu in zip(points, grid):
            pair, err = self._cold(eps, mu)
            assert p.error == err
            if err is None:
                assert abs(p.lambda_plus - pair[0]) <= 1e-12
                assert abs(p.lambda_minus - pair[1]) <= 1e-12
        assert points[-1].error is None and points[-2].error is not None
