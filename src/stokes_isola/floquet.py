"""Truncated Fourier eigenvalue oracle for the linearized water-wave problem.

Independent cross-check of the closed-form isola: discretize the linearized
operator at Bloch exponent mu on the exponential basis e^{ijx}, j = -N..N,
truncate, and find the few eigenvalues of the resulting matrix nearest the
collision frequency by a shift-invert solve.  Nothing from the reduced-jet
machinery enters here except the amplitude expansion of the Stokes profiles
themselves.

In the two-component frame the operator reads

    [ (d/dx + i*mu) o (1 + p_eps)      |D + mu|        ]
    [ -(1 + a_eps)                     (1 + p_eps) o (d/dx + i*mu) ]

so the (j', j) block carries the exponential Fourier coefficients of the
profiles at wavenumber j' - j (the cosine coefficients halved), and at
eps = 0 the spectrum is exactly {i*(j + mu -+ sqrt|j + mu|)}.

The discretized matrix M satisfies S M S = -conj(M) with S = diag(+1) on the
first component block and diag(-1) on the second, entry for entry; hence the
spectrum is symmetric under lambda -> -conj(lambda) up to solver noise, and
the two eigenvalues tracked near i*omega* = 0.75i sum to (nearly) a purely
imaginary number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse.linalg
from scipy.optimize import brentq, minimize_scalar

from .stokes import MAX_ORDER, a_coeff, p_coeff
from .jets import assemble_reduced_jet
from .instability import critical_curves

__all__ = [
    "DiscretizedOperator",
    "SpectrumSample",
    "SpectrumPoint",
    "ConvergenceRow",
    "IsolaMeasurement",
    "TrackingFailure",
    "build",
    "spectrum",
    "trace_isola",
    "convergence_check",
    "measure_isola",
]

DEFAULT_N = 32
DEFAULT_CENTER = 0.75j
DEFAULT_TRACKING_RADIUS = 0.2

#: Eigenvalues returned by the shift-invert solve.  The tracking disk never
#: holds more than two, so with a third the disk count of `_pick_pair` is the
#: same as over the full spectrum.
_NEAREST = 4
#: Offset of the retried shift when the first one is an exact eigenvalue.
_SHIFT_NUDGE = 1e-9


class TrackingFailure(RuntimeError):
    """Fewer than two eigenvalues found in the tracking disk, or the
    shift-invert solve for them failed."""


@dataclass(frozen=True)
class DiscretizedOperator:
    """Dense truncation of the linearized operator at fixed (mu, eps)."""

    mu: float
    eps: float
    N: int
    stokes_order: int
    matrix: np.ndarray


@functools.lru_cache(maxsize=64)
def _exp_coeffs(which: str, eps: float, order: int) -> tuple[tuple[int, float], ...]:
    """Exponential Fourier coefficients of a profile through ``eps**order``,
    as (kappa, coefficient) pairs sorted by kappa: the coefficient of
    e^{i*kappa*x} is half the cosine-series coefficient, uniformly in kappa
    (the constant term is stored halved in the tables)."""
    table = p_coeff if which == "p" else a_coeff
    out: dict[int, float] = {}
    for n in range(1, order + 1):
        scale = 0.5 * eps**n
        for kappa in range(-n, n + 1):
            c = table(n, kappa)
            if c != 0:
                out[kappa] = out.get(kappa, 0.0) + scale * float(c)
    return tuple(sorted(out.items()))


def build(
    mu: float,
    eps: float,
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
) -> DiscretizedOperator:
    """Assemble the dense 2(2N+1) x 2(2N+1) truncation.

    Harmonics run j = -N..N; rows/columns 0..2N hold the first component,
    2N+1..4N+1 the second.  ``N`` below 8 would foul the tracking window
    and is rejected; ``stokes_order`` is the truncation order of the
    profile expansion, 0..4.
    """
    if N < 8:
        raise ValueError(f"N must be at least 8, got {N}")
    if not 0 <= stokes_order <= MAX_ORDER:
        raise ValueError(f"stokes_order must be in 0..{MAX_ORDER}, got {stokes_order}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    dim = 2 * N + 1
    harmonics = np.arange(-N, N + 1, dtype=float)
    d = harmonics + mu

    p_toeplitz = np.zeros((dim, dim))
    a_toeplitz = np.zeros((dim, dim))
    for kappa, c in _exp_coeffs("p", eps, stokes_order):
        p_toeplitz += c * np.eye(dim, k=-kappa)
    for kappa, c in _exp_coeffs("a", eps, stokes_order):
        a_toeplitz += c * np.eye(dim, k=-kappa)

    eye = np.eye(dim)
    m00 = 1j * (d[:, None] * (eye + p_toeplitz))
    m01 = np.diag(np.abs(d)).astype(complex)
    m10 = -(eye + a_toeplitz).astype(complex)
    m11 = 1j * ((eye + p_toeplitz) * d[None, :])

    matrix = np.block([[m00, m01], [m10, m11]])
    return DiscretizedOperator(mu=mu, eps=eps, N=N, stokes_order=stokes_order, matrix=matrix)


@dataclass(frozen=True)
class SpectrumSample:
    """The eigenvalues of one truncation nearest the tracking center, with
    the collision pair singled out; ``re_max`` is the larger real part of
    the pair."""

    eigenvalues: np.ndarray
    tracked_pair: tuple[complex, complex]
    re_max: float


def _pick_pair(
    eigs: np.ndarray, center: complex, radius: float
) -> tuple[complex, complex]:
    near = eigs[np.abs(eigs - center) <= radius]
    if near.size < 2:
        raise TrackingFailure(
            f"{near.size} eigenvalue(s) within {radius} of {center}; need 2"
        )
    if near.size > 2:
        # prefer the unstable pair; fall back to proximity, then Im for ties
        order = np.lexsort(
            (near.imag, np.abs(near - center), -np.abs(near.real))
        )
        near = near[order[:2]]
    z0, z1 = near.tolist()
    # order by real part when the pair is split, by imaginary part when it
    # is (numerically) purely imaginary, so the labels are stable
    if abs(z0.real - z1.real) > 1e-12:
        lp, lm = (z0, z1) if z0.real > z1.real else (z1, z0)
    else:
        lp, lm = (z0, z1) if z0.imag >= z1.imag else (z1, z0)
    return lp, lm


def _nearest_eigenvalues(matrix: np.ndarray, center: complex) -> np.ndarray:
    """The `_NEAREST` eigenvalues of ``matrix`` closest to ``center``, by
    shift-invert Arnoldi from a fixed start vector (so repeated calls agree
    bit for bit).  A shift that is itself an eigenvalue makes the sparse LU
    exactly singular; it is retried once, moved off by `_SHIFT_NUDGE`."""
    a = scipy.sparse.csc_matrix(matrix)
    v0 = np.ones(a.shape[0], dtype=complex)
    for shift in (center, center + _SHIFT_NUDGE):
        try:
            return scipy.sparse.linalg.eigs(
                a, k=_NEAREST, sigma=shift, v0=v0, tol=0, return_eigenvectors=False
            )
        except scipy.sparse.linalg.ArpackError as exc:
            raise TrackingFailure(f"shift-invert solve near {center} failed: {exc}") from exc
        except RuntimeError as exc:  # splu: "Factor is exactly singular"
            singular = exc
    raise TrackingFailure(f"shift-invert solve near {center} failed: {singular}") from singular


def spectrum(
    op: DiscretizedOperator,
    center: complex = DEFAULT_CENTER,
    radius: float = DEFAULT_TRACKING_RADIUS,
) -> SpectrumSample:
    """The few eigenvalues of ``op`` nearest ``center`` (shift-invert solve)
    plus the pair tracked among them.

    Raises `TrackingFailure` when fewer than two eigenvalues lie in the
    tracking disk or the solve fails; with more than two, the two with
    largest |Re| (then closest to center) are taken.
    """
    eigs = _nearest_eigenvalues(op.matrix, center)
    pair = _pick_pair(eigs, center, radius)
    re_max = max(pair[0].real, pair[1].real)
    return SpectrumSample(eigenvalues=eigs, tracked_pair=pair, re_max=re_max)


@dataclass(frozen=True)
class SpectrumPoint:
    """One mu-sample of an isola trace; ``error`` is set when tracking failed."""

    mu: float
    lambda_plus: Optional[complex]
    lambda_minus: Optional[complex]
    re_max: Optional[float]
    error: Optional[str] = None


def trace_isola(
    eps: float,
    mu_grid: Sequence[float],
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
    radius: float = DEFAULT_TRACKING_RADIUS,
) -> list[SpectrumPoint]:
    """Tracked eigenvalue pair across a grid of Floquet exponents.

    Per-sample tracking failures are recorded in the output rather than
    raised, so one bad sample cannot kill a sweep.
    """
    points: list[SpectrumPoint] = []
    for mu in mu_grid:
        try:
            sample = spectrum(build(mu, eps, N, stokes_order), radius=radius)
            lp, lm = sample.tracked_pair
            points.append(SpectrumPoint(float(mu), lp, lm, sample.re_max))
        except TrackingFailure as exc:
            points.append(SpectrumPoint(float(mu), None, None, None, error=str(exc)))
    return points


@dataclass(frozen=True)
class ConvergenceRow:
    """One truncation size in a refinement study; ``delta`` is the absolute
    change of the tracked pair against the previous row (None for the first)."""

    N: int
    lambda_plus: complex
    lambda_minus: complex
    delta: Optional[float]


def convergence_check(
    mu: float,
    eps: float,
    N_list: Sequence[int],
    stokes_order: int = MAX_ORDER,
) -> list[ConvergenceRow]:
    """Cauchy-difference table of the tracked pair under N-refinement."""
    rows: list[ConvergenceRow] = []
    prev: Optional[tuple[complex, complex]] = None
    for n in N_list:
        sample = spectrum(build(mu, eps, int(n), stokes_order))
        lp, lm = sample.tracked_pair
        delta = None
        if prev is not None:
            delta = max(abs(lp - prev[0]), abs(lm - prev[1]))
        rows.append(ConvergenceRow(int(n), lp, lm, delta))
        prev = (lp, lm)
    return rows


@dataclass(frozen=True)
class IsolaMeasurement:
    """Isola geometry extracted from the truncated eigenvalue problem alone."""

    eps: float
    N: int
    mu_at_max: float
    re_max: float
    im_center: float
    mu_left: float
    mu_right: float

    @property
    def mu_width(self) -> float:
        return self.mu_right - self.mu_left


def _pair_gap_squared(mu: float, eps: float, N: int, stokes_order: int) -> tuple[float, float]:
    """(lambda+ - lambda-)^2 of the tracked pair (real up to solver noise),
    and the midpoint's imaginary part.  Positive inside the isola, negative
    outside, with a single interior maximum."""
    sample = spectrum(build(mu, eps, N, stokes_order))
    lp, lm = sample.tracked_pair
    gap2 = (lp - lm) ** 2
    return gap2.real, 0.5 * (lp + lm).imag


#: Samples within this many peak heights below zero feed the edge parabola;
#: farther ones see the higher-order terms of the pair gap.
_FIT_DEPTH = 100.0
#: Half-size of an edge bracket, as a fraction of the estimated width.
_BRACKET_FRAC = 0.02


def _edge_estimates(
    samples: dict[float, tuple[float, float]], mu_at_max: float, gap2_max: float
) -> Optional[tuple[float, float]]:
    """Both isola edges from the parabola through the peak and two more of
    the samples solved so far; None when it does not open downward.

    The squared gap is, to leading order, the discriminant of the reduced
    2x2 block: a quadratic in mu.  The two samples are the ones farthest
    from the peak among those at most `_FIT_DEPTH` peak heights below zero
    (farther ones see the higher-order terms), else the nearest beyond that
    depth.  The vertex is not assumed at the peak, which the bounded search
    pins only to about 4e-9 in mu."""

    def rank(mu: float) -> tuple[bool, float]:
        distance = abs(mu - mu_at_max)
        deep = samples[mu][0] < -_FIT_DEPTH * gap2_max
        return deep, distance if deep else -distance

    others = sorted((mu for mu in samples if mu != mu_at_max), key=rank)
    if len(others) < 2:
        return None
    # gap^2 - gap2_max = t * (b + c * t), t = mu - mu_at_max, through both
    (t1, g1), (t2, g2) = ((mu - mu_at_max, samples[mu][0] - gap2_max) for mu in others[:2])
    c = (g2 / t2 - g1 / t1) / (t2 - t1)
    b = g1 / t1 - c * t1
    if c >= 0:
        return None
    root = math.sqrt(b * b - 4.0 * c * gap2_max)
    return mu_at_max + (-b + root) / (2 * c), mu_at_max + (-b - root) / (2 * c)


def measure_isola(
    eps: float,
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
    window_scale: float = 8.0,
) -> IsolaMeasurement:
    """Locate and measure the isola near mu = 1/4 without the closed form.

    The only theory input is the search window: mu0(eps) +- window_scale*eps^3,
    generous by orders of magnitude against the O(eps^4) isola width but well
    clear of neighboring collisions.  Inside it, the squared pair gap is
    maximized (bounded scalar minimization), giving the peak growth rate
    re_max = sqrt(max gap^2)/2.  The two sign changes are the isola's
    mu-extent, pinned by Brent's method on small brackets around the edges
    of a parabola through the peak search's samples (each bracket checked
    for a sign change, else the half window on that side).  Every mu is
    solved once per call.

    Raises `TrackingFailure` if the pair cannot be followed, ValueError if
    the isola is not resolved in the window (max gap^2 <= 0).
    """
    jet = assemble_reduced_jet()
    mu0 = float(critical_curves(jet).mu0(eps))
    half = window_scale * eps**3
    lo, hi = mu0 - half, mu0 + half
    solved: dict[float, tuple[float, float]] = {}

    def solve(mu: float) -> tuple[float, float]:
        if mu not in solved:
            solved[mu] = _pair_gap_squared(mu, eps, N, stokes_order)
        return solved[mu]

    def gap2(mu: float) -> float:
        return solve(mu)[0]

    res = minimize_scalar(
        lambda mu: -gap2(mu), bounds=(lo, hi), method="bounded", options={"xatol": 1e-13}
    )
    mu_at_max = float(res.x)
    gap2_max, im_center = solve(mu_at_max)
    if gap2_max <= 0:
        raise ValueError(
            f"no isola resolved for eps={eps}, N={N}: max pair gap^2 = {gap2_max:.3e}"
        )
    re_max = 0.5 * math.sqrt(gap2_max)

    if gap2(lo) >= 0 or gap2(hi) >= 0:
        raise ValueError(
            f"window [{lo}, {hi}] does not bracket the isola for eps={eps}"
        )
    estimates = _edge_estimates(solved, mu_at_max, gap2_max)

    def edge(side: int, a: float, b: float) -> float:
        if estimates is not None:
            d = _BRACKET_FRAC * (estimates[1] - estimates[0])
            near_a = max(a, estimates[side] - d)
            near_b = min(b, estimates[side] + d)
            if near_a < near_b and gap2(near_a) * gap2(near_b) < 0:
                a, b = near_a, near_b
        return float(brentq(gap2, a, b, xtol=1e-16, rtol=8.9e-16))

    return IsolaMeasurement(
        eps=eps,
        N=N,
        mu_at_max=mu_at_max,
        re_max=re_max,
        im_center=im_center,
        mu_left=edge(0, lo, mu_at_max),
        mu_right=edge(1, mu_at_max, hi),
    )
