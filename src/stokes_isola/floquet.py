"""Truncated Fourier eigenvalue oracle for the linearized water-wave problem.

Independent cross-check of the closed-form isola: discretize the linearized
operator at Bloch exponent mu on the exponential basis e^{ijx}, j = -N..N,
truncate, and find the few eigenvalues of the resulting matrix nearest the
collision frequency by a shift-invert solve: a banded LU of its real form R
(below; banded once the two components are interleaved) and block subspace
iteration, started from a fixed block or, along a search in mu, from the
pair's invariant subspaces at the two nearest solves, which extrapolate it
linearly in mu.  The tracked pair is the two eigenvalues in the fixed disk
of radius `RADIUS` = 0.2 about `CENTER` = i*omega* = 0.75i; any other count
there is a `TrackingFailure`.  The isola search fits one least-squares
model of the discriminant of the tracked pair's 2x2 symplectic reduction,
taken from the converged block, to every solve from the closed form's
mu0(eps); the model places each step to its vertex and the start of
Newton's method at each edge: 5-12 solves (7.0 on average over 40 seeded
amplitudes in [0.02, 0.19)) of 2.4-2.9 subspace iterations each at N = 32.
Both work from the operator's Toeplitz parts, built once per amplitude,
never forming the dense matrix.
Importing the module loads neither numpy nor scipy.  numpy loads on first
use (the Toeplitz parts, the dense matrix, a solve), and scipy's LAPACK
wrappers on the first solve.

In the two-component frame the operator reads

    [ (d/dx + i*mu) o (1 + p_eps)      |D + mu|        ]
    [ -(1 + a_eps)                     (1 + p_eps) o (d/dx + i*mu) ]

so the (j', j) block carries the exponential Fourier coefficients of the
profiles at wavenumber j' - j (the cosine coefficients halved), and at
eps = 0 the spectrum is exactly {i*(j + mu -+ sqrt|j + mu|)}.

The discretized matrix M satisfies S M S = -conj(M), S = diag(I, -I), so its
spectrum is symmetric under lambda -> -conj(lambda).  With T = diag(I, i*I),
T M T^-1 = i*R, R = [[d*P, -|d|], [-A, P*d]] real (P = 1 + p_eps,
A = 1 + a_eps, d = j + mu): each eigenvalue is lambda = i*r, r real or one
of a conjugate pair.  The solves work on R in real arithmetic, so the
tracked pair sums to a purely imaginary number exactly, and an unsplit
pair has real parts 0.0.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .stokes import A_FLOAT, MAX_ORDER, OMEGA_STAR, P_FLOAT
from .jets import assemble_reduced_jet
from .instability import isola

if TYPE_CHECKING:
    import numpy as np

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
#: The tracking disk: the collision pair is the two eigenvalues within
#: `RADIUS` of `CENTER` = i*omega*.
CENTER = 1j * OMEGA_STAR
RADIUS = 0.2

#: Columns of the shift-invert block: the tracked pair plus two spare, which
#: speed the iteration's convergence.  They do not make the solve resolve
#: every eigenvalue of a wider disk; a disk holding as many eigenvalues as
#: the block has columns is diagnosed at the cap.
_BLOCK = 4
#: Relative residual at which a Ritz pair counts as converged.
_TOL = 1e-13
#: Ritz values this far outside the tracking disk must converge too, so that
#: none of the disk's eigenvalues is still outside it when the solve stops.
_MARGIN = 0.05
#: Iterations before the solve gives up.
_MAX_ITER = 50
#: Once the two nearest Ritz pairs reach this residual, the shift moves once
#: to `_RESHIFT_GAP` from them (`_toward_pair`); a continued solve starts
#: there from the earlier pair.  Not onto the midpoint: near an isola edge the
#: pair is nearly defective, and a shift within its split swamps the rest of
#: the block with spurious Ritz values, in the disk, that never converge.
_RESHIFT_TOL = 1e-2
_RESHIFT_GAP = 1e-3
#: Offset of the retried shift when the first one is an exact eigenvalue.
_SHIFT_NUDGE = 1e-9
#: An iteration of `measure_isola` stops at a step, or on an edge a predicted
#: step, of this many ulp of mu or fewer; after `_MAX_STEPS` it raises ValueError.
_STEP_ULPS = 4
_MAX_STEPS = 16
#: Where the model's start of an edge's Newton iteration shows no sign change
#: of D, the iteration runs again from this fraction of the half-width beyond
#: the parabola's root, so its steps approach the edge from outside (D is
#: concave), where D reads negative above the solver's noise.
_EDGE_MARGIN = 1e-3


class TrackingFailure(RuntimeError):
    """Other than two eigenvalues found in the tracking disk, or the
    shift-invert solve for them failed."""


class _ArgumentError(ValueError):
    """An argument rejected before any solve; every other ValueError of
    this module is a search that failed."""


@dataclass(frozen=True)
class DiscretizedOperator:
    """Truncation of the linearized operator at fixed (mu, eps); ``matrix``,
    dense and in block order (`build`), is assembled on first access."""

    mu: float
    eps: float
    N: int
    stokes_order: int

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        import numpy as np

        d = np.arange(-self.N, self.N + 1, dtype=float) + self.mu
        p_part, a_part = _toeplitz_parts(self.eps, self.N, self.stokes_order)
        m00 = 1j * (d[:, None] * p_part)
        m01 = np.diag(np.abs(d)).astype(complex)
        m10 = -a_part.astype(complex)
        m11 = 1j * (p_part * d[None, :])
        return np.block([[m00, m01], [m10, m11]])


def _exp_coeffs(which: str, eps: float, order: int) -> tuple[tuple[int, float], ...]:
    """Exponential Fourier coefficients of a profile through ``eps**order``,
    as (kappa, coefficient) pairs sorted by kappa: the coefficient of
    e^{i*kappa*x} is half the cosine-series coefficient, uniformly in kappa
    (the constant term is stored halved in the tables)."""
    out: dict[int, float] = {}
    for (n, kappa), c in (P_FLOAT if which == "p" else A_FLOAT).items():
        if n <= order and c != 0:
            out[kappa] = out.get(kappa, 0.0) + 0.5 * eps**n * c
    return tuple(sorted(out.items()))


@functools.lru_cache(maxsize=2)
def _toeplitz_parts(eps: float, N: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``1 + p_eps`` and ``1 + a_eps`` as read-only (2N+1)-square Toeplitz
    matrices: the mu-independent parts of the operator, shared by every
    solve of one search.  Each coefficient of harmonic kappa is added along
    its diagonal, row - column = kappa, a strided view of the flat array."""
    import numpy as np

    dim = 2 * N + 1
    parts = []
    for which in ("p", "a"):
        part = np.eye(dim)
        for kappa, c in _exp_coeffs(which, eps, order):
            first = kappa * dim if kappa >= 0 else -kappa    # flat index of its first entry
            part.reshape(-1)[first :: dim + 1][: dim - abs(kappa)] += c
        part.flags.writeable = False
        parts.append(part)
    return tuple(parts)


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise _ArgumentError(f"{name} must be finite, got {value}")


def _check_integer(**values: int) -> None:
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise _ArgumentError(f"{name} must be an integer, got {value!r}") from None


def build(
    mu: float,
    eps: float,
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
) -> DiscretizedOperator:
    """The 2(2N+1)-square truncation at (mu, eps), its matrix formed on first
    use: harmonics j = -N..N, rows/columns 0..2N the first component,
    2N+1..4N+1 the second.  ``N`` below 8 would foul the tracking window;
    ``stokes_order``, the order of the profile expansion, is 0..4.  Raises
    ValueError for these, a non-integer N or stokes_order (numpy integers
    pass), a negative eps and a non-finite mu or eps."""
    _check_integer(N=N, stokes_order=stokes_order)
    if N < 8:
        raise _ArgumentError(f"N must be at least 8, got {N}")
    if not 0 <= stokes_order <= MAX_ORDER:
        raise _ArgumentError(f"stokes_order must be in 0..{MAX_ORDER}, got {stokes_order}")
    _check_finite(mu=mu, eps=eps)
    if eps < 0:
        raise _ArgumentError(f"eps must be nonnegative, got {eps}")
    return DiscretizedOperator(mu=mu, eps=eps, N=N, stokes_order=stokes_order)


@dataclass(frozen=True)
class SpectrumSample:
    """The eigenvalues of one truncation that the shift-invert solve
    converged near `CENTER`, nearest first, with the collision pair singled
    out.  ``eigenvalues`` holds the two nearest `CENTER` and any other Ritz
    value that converged, often nothing else; the solve does not promise
    every eigenvalue of the tracking disk.  ``block`` is the read-only real
    orthonormal block the solve converged on in R's frame (the module
    docstring), `_BLOCK` (four) columns, rows in interleaved order
    (`_band_layout`), pair first: its first two columns span the tracked
    pair's invariant subspace.  A solve at a nearby mu can start from it
    (`spectrum`'s ``start``); it takes no part in comparisons or the repr."""

    eigenvalues: np.ndarray
    tracked_pair: tuple[complex, complex]
    block: np.ndarray = field(repr=False, compare=False)


def _pick_pair(eigs: np.ndarray) -> tuple[complex, complex]:
    """The two eigenvalues of ``eigs`` in the tracking disk, else `TrackingFailure`."""
    near = eigs[abs(eigs - CENTER) <= RADIUS]
    if near.size != 2:
        raise TrackingFailure(f"{near.size} eigenvalue(s) within {RADIUS} of {CENTER}; need 2")
    z0, z1 = near.tolist()
    # order by real part when the pair is split, by imaginary part when it
    # is (numerically) purely imaginary, so the labels are stable
    if abs(z0.real - z1.real) > 1e-12:
        lp, lm = (z0, z1) if z0.real > z1.real else (z1, z0)
    else:
        lp, lm = (z0, z1) if z0.imag >= z1.imag else (z1, z0)
    return lp, lm


@functools.lru_cache(maxsize=8)
def _band_layout(N: int, order: int) -> tuple[np.ndarray, ...]:
    """The (N, order)-only index layout of `_band_parts`, read-only.  In
    interleaved order (harmonic-major, component-minor) the matrix has
    kl = 2*order + 1 sub- and superdiagonals; entry (r, c) goes to flat index
    c*(3*kl + 1) + 2*kl + r - c of the transposed LAPACK band.  Returned: the
    band and flat Toeplitz-part indices of R's -(1 + a_eps) entries, the same
    and each one's j for the d*P entries, the band indices of the -|d| ones."""
    import numpy as np

    dim, kl = 2 * N + 1, 2 * order + 1
    k = np.arange(2 * dim)
    i, j = np.nonzero(np.abs(k[:, None] - k) <= kl)
    dst = j * (3 * kl + 1) + 2 * kl + i - j
    (hi, ci), (hj, cj) = divmod(i, 2), divmod(j, 2)
    src = hi * dim + hj
    low, lin, diag = (ci == 1) & (cj == 0), ci == cj, (ci == 0) & (cj == 1) & (hi == hj)
    layout = dst[low], src[low], dst[lin], src[lin], np.where(ci == 0, hi, hj)[lin], dst[diag]
    for part in layout:
        part.flags.writeable = False
    return layout


@functools.lru_cache(maxsize=2)
def _band_parts(eps: float, N: int, order: int) -> tuple[np.ndarray, ...]:
    """The mu-independent parts of `_band`, read-only: the band holding the
    -(1 + a_eps) entries; the indices of the d*P entries, each one's j and
    P; those of the -|d| entries, j ascending (`_band_layout`)."""
    import numpy as np

    p_part, a_part = _toeplitz_parts(eps, N, order)
    low, a_src, lin, p_src, harmonic, diag = _band_layout(N, order)
    base = np.zeros(2 * (2 * N + 1) * (6 * order + 4))    # n*(3*kl + 1)
    base[low] = -a_part.take(a_src)
    p_lin = p_part.take(p_src)
    base.flags.writeable = p_lin.flags.writeable = False
    return base, lin, harmonic, p_lin, diag


def _band(op: DiscretizedOperator) -> np.ndarray:
    """R (the module docstring) as the Fortran-ordered LAPACK band of `_band_parts`."""
    import numpy as np

    base, lin, harmonic, p_lin, diag = _band_parts(op.eps, op.N, op.stokes_order)
    d = np.arange(-op.N, op.N + 1, dtype=float) + op.mu
    flat = base.copy()
    flat[lin] = d[harmonic] * p_lin
    flat[diag] = -np.abs(d)
    return flat.reshape(2 * d.size, -1).T


@functools.lru_cache(maxsize=8)
def _start_block(n: int) -> np.ndarray:
    """The fixed start of the subspace iteration: the orthonormalized real
    columns cos, then sin, of sqrt(2)*c*k, k = 0..n-1, c = 1.._BLOCK/2."""
    import numpy as np
    from scipy.linalg.lapack import dgeqrf, dorgqr

    phases = np.sqrt(2.0) * np.outer(np.arange(n), np.arange(1, _BLOCK // 2 + 1))
    q = dorgqr(*dgeqrf(np.hstack((np.cos(phases), np.sin(phases))))[:2])[0]
    q.flags.writeable = False
    return q


def _toward_pair(shift: complex, lam0: complex, lam1: complex) -> Optional[complex]:
    """A shift `_RESHIFT_GAP` from the pair ``lam0``, ``lam1`` on the side of
    ``shift``: short of their midpoint, or short of the nearer one where that
    point lies within half the gap of it.  None when ``shift`` is within
    twice the gap of the midpoint and at least half the gap from both."""
    away = shift - 0.5 * (lam0 + lam1)
    near = min(lam0, lam1, key=lambda lam: abs(shift - lam))
    if abs(away) <= 2 * _RESHIFT_GAP and abs(shift - near) >= 0.5 * _RESHIFT_GAP:
        return None
    target = shift - away * (1 - _RESHIFT_GAP / abs(away))
    near = min(lam0, lam1, key=lambda lam: abs(target - lam))
    if abs(target - near) < 0.5 * _RESHIFT_GAP:
        target = near + (shift - near) * (_RESHIFT_GAP / abs(shift - near))
    return target


def _shift_invert(
    op: DiscretizedOperator, start: SpectrumSample | Sequence[SpectrumSample] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of ``op`` converged near `CENTER` by block
    shift-invert subspace iteration on a banded LU, nearest first, and the
    real orthonormal block they converged on, rotated so that its first
    two columns span the invariant subspace of the two nearest.

    It works on R (the module docstring), banded with 2*stokes_order + 1
    sub- and superdiagonals in interleaved order, at real shifts about
    omega*: eigenvalues r of R are lambda = i*r.  ``R - shift`` is factored
    by `dgbtrf` from `_band`.  A block of `_BLOCK` columns, four: the pair
    plus two spare, goes through the inverse once per step, followed by a
    Rayleigh-Ritz step (`dgeev`); a Ritz value nu of the inverse gives
    r = shift + 1/nu, a conjugate pair of them with its Ritz vector's real
    and imaginary parts, kept adjacent by a stable sort on the distance
    to omega*, which they share.  The iteration stops when every Ritz value
    within `RADIUS` + `_MARGIN` of omega*, and the two nearest, have
    relative residual |(R - shift)^-1 v - nu v| / |nu| at most `_TOL`, and
    returns every Ritz value that meets it.  Only eigenvalues that the block
    has turned toward are counted: a third eigenvalue of the disk that no
    column resolves can be missed, so the spare columns speed convergence
    but do not guarantee the disk count.  When all four Ritz values lie that
    close, the spare columns stall, and the solve fails at `_MAX_ITER`
    saying so.

    Without ``start`` the block starts fixed (so repeated calls agree bit
    for bit) and the shift at omega*.  ``start`` is a sample at a nearby
    mu of a matrix of the same size, or two, nearest first; the block then
    starts from the orthonormalized first two columns of each (all four of
    one alone), so that with two the Rayleigh-Ritz step extrapolates the
    pair's subspace linearly in mu, and the shift near the nearest one's
    pair (`_toward_pair`).  Once the two nearest have loosely
    converged (`_RESHIFT_TOL`), the shift moves once if it is far from their
    midpoint or near one of them: within about 1e-6 of an eigenvalue, it
    keeps the other Ritz values in the disk from converging.  A shift that
    is an eigenvalue makes the LU exactly singular; the next is tried:
    omega*, then omega* moved up by `_SHIFT_NUDGE`.
    """
    import numpy as np
    from scipy.linalg.lapack import dgbtrf, dgbtrs, dgeev, dgeqrf, dorgqr

    band = _band(op)
    n = band.shape[1]
    center = float(OMEGA_STAR)
    shifts = [center, center + _SHIFT_NUDGE]
    starts = (start,) if isinstance(start, SpectrumSample) else tuple(start or ())
    if not starts:
        q = _start_block(n)
    else:
        shapes = [s.block.shape for s in starts]
        if len(starts) > 2 or any(shape != (n, _BLOCK) for shape in shapes):
            raise _ArgumentError(f"start blocks {shapes}: need one or two of {(n, _BLOCK)} for a {n}-square matrix")
        q = dorgqr(*dgeqrf(np.hstack([s.block[:, : _BLOCK // len(starts)] for s in starts]))[:2])[0]
        warm = _toward_pair(center, *(-1j * lam for lam in starts[0].tracked_pair))
        if warm is not None:
            shifts.insert(0, warm.real)
    kl = 2 * op.stokes_order + 1

    def factor(shift: float):
        ab = band.copy(order="F")
        ab[2 * kl] -= shift
        lu, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
        return (shift, lu, piv) if info == 0 else None

    factored = next(filter(None, map(factor, shifts)), None)
    if factored is None:
        tried = ", ".join(str(1j * s) for s in shifts)
        raise TrackingFailure(
            f"shift-invert solve near {CENTER} failed: banded LU exactly singular at every shift tried, {tried}"
        )
    shift, lu, piv = factored
    reshift = True
    for _ in range(_MAX_ITER):
        x = dgbtrs(lu, kl, kl, q, piv)[0]
        h = q.T @ x
        wr, wi, _, y, _ = dgeev(h, compute_vl=0)
        r = (x - q @ h) @ y
        sq = np.add.reduce(r * r, 0).tolist()
        lams = (shift + 1.0 / (wr + 1j * wi)).tolist()
        ritz = []
        for k, (lam, re, im) in enumerate(zip(lams, wr.tolist(), wi.tolist())):
            # a conjugate pair's columns, its real then imaginary part, share a residual
            e = sq[k] + sq[k + 1] if im > 0 else sq[k] + sq[k - 1] if im < 0 else sq[k]
            ritz.append((lam, math.sqrt(e) / math.hypot(re, im)))
        order = sorted(range(_BLOCK), key=lambda k: abs(lams[k] - center))
        ritz = [ritz[k] for k in order]
        need = [k < 2 or abs(lam - center) <= RADIUS + _MARGIN for k, (lam, _) in enumerate(ritz)]
        if all(e <= _TOL for (_, e), needed in zip(ritz, need) if needed):
            q = q @ dorgqr(*dgeqrf(y[:, order])[:2])[0]    # the Ritz vectors' real basis, nearest first
            q.flags.writeable = False
            return 1j * np.array([lam for lam, e in ritz if e <= _TOL]), q
        if reshift and ritz[0][1] <= _RESHIFT_TOL and ritz[1][1] <= _RESHIFT_TOL:
            reshift = False
            target = _toward_pair(shift, ritz[0][0], ritz[1][0])
            moved = None if target is None else factor(target.real)
            if moved is not None:
                shift, lu, piv = moved
        q = dorgqr(*dgeqrf(x)[:2])[0]
    if all(need):
        raise TrackingFailure(
            f"shift-invert solve near {CENTER} failed: at least {_BLOCK} eigenvalues, "
            f"as many as the block has columns, lie within {RADIUS} + {_MARGIN} of it"
        )
    raise TrackingFailure(
        f"shift-invert solve near {CENTER} failed: no convergence in {_MAX_ITER} iterations"
    )


def spectrum(
    op: DiscretizedOperator, start: SpectrumSample | Sequence[SpectrumSample] | None = None
) -> SpectrumSample:
    """The eigenvalues of ``op`` converged near `CENTER` by the banded
    shift-invert solve (`_shift_invert`), plus the pair tracked among them:
    the two within `RADIUS` of `CENTER`.

    ``start``, a sample at a nearby mu of a matrix of the same size and
    ``stokes_order``, or two, nearest first, continues those solves; it
    changes the iterations, not the stopping rule, and one of another size
    or more than two raise ValueError.

    Raises `TrackingFailure` when other than two of the converged
    eigenvalues lie in the tracking disk or the solve fails.
    """
    eigs, block = _shift_invert(op, start)
    return SpectrumSample(eigenvalues=eigs, tracked_pair=_pick_pair(eigs), block=block)


@dataclass(frozen=True)
class SpectrumPoint:
    """One mu-sample of an isola trace; ``error`` is set when tracking failed."""

    mu: float
    lambda_plus: Optional[complex]
    lambda_minus: Optional[complex]
    error: Optional[str] = None


def trace_isola(
    eps: float,
    mu_grid: Sequence[float],
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
) -> list[SpectrumPoint]:
    """Tracked eigenvalue pair (`spectrum`) across a grid of Floquet exponents.

    Each sample continues the solves of the previous two samples, or one
    (`spectrum`'s ``start``); the first, and any after a failure, starts cold.
    Per-sample tracking failures are recorded in the output rather than
    raised, so one bad sample cannot kill a sweep.
    """
    points: list[SpectrumPoint] = []
    previous: list[SpectrumSample] = []    # the last two solved, latest first
    for mu in mu_grid:
        try:
            sample = spectrum(build(mu, eps, N, stokes_order), start=previous or None)
            previous = [sample, *previous[:1]]
            lp, lm = sample.tracked_pair
            points.append(SpectrumPoint(float(mu), lp, lm))
        except TrackingFailure as exc:
            previous = []
            points.append(SpectrumPoint(float(mu), None, None, error=str(exc)))
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
    """Cauchy-difference table of the tracked pair under N-refinement.
    Raises ValueError unless each N is an integer (`build`) and exceeds the
    one before."""
    ladder = list(N_list)
    if any(a >= b for a, b in zip(ladder, ladder[1:])):
        raise _ArgumentError(f"N ladder {ladder} does not refine: each N must exceed the one before")
    rows: list[ConvergenceRow] = []
    prev: Optional[tuple[complex, complex]] = None
    for n in ladder:
        sample = spectrum(build(mu, eps, n, stokes_order))
        lp, lm = sample.tracked_pair
        delta = None if prev is None else max(abs(lp - prev[0]), abs(lm - prev[1]))
        rows.append(ConvergenceRow(n, lp, lm, delta))
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
    #: Shift-invert solves the search took.
    solves: int = field(compare=False, repr=False)

    @property
    def mu_width(self) -> float:
        return self.mu_right - self.mu_left


def _reduced_discriminant(op: DiscretizedOperator, sample: SpectrumSample) -> tuple[float, float]:
    """The discriminant D = (lambda+ - lambda-)^2 of the tracked pair's 2x2
    symplectic reduction, and dD/dmu.

    The first two columns of the converged block, a real basis of the
    pair's invariant subspace of R (`_shift_invert`), are U = [u1; u2]; no
    Schur form is taken.  swap*R is symmetric, swap = [[0, I], [I, 0]], so
    W = swap*U spans the pair's left subspace: B = (W^T U)^-1 W^T R U, and
    the same with the exact dR/dmu = [[P, -diag(sign(d))], [0, P]] is
    dB/dmu up to a similarity.  An error of U outside the subspace enters B
    only at second order, even where the nearly defective pair leaves its
    Ritz vectors nearly parallel.  B's eigenvalues are r = -i*lambda, so
    D = -((b11 - b22)^2 + 4*b12*b21) (tr^2 - 4*det cancels).

    The products come from the Toeplitz parts P = 1 + p_eps, A = 1 + a_eps
    and d = j + mu, not from ``op.matrix``, P in one product with
    [u1, u2, d*u2].  With t = P u1 - sign(d)*u2 and k = P (d*u2) - A u1,
    R U = [d*t ; k] and dR/dmu U = [t ; P u2], so W^T R U =
    (d*u2)^T t + u1^T k and W^T dR/dmu U = u2^T t + u1^T P u2; t and k are
    summed entry by entry before the projection, so that their large terms
    cancel there."""
    import numpy as np

    p_part, a_part = _toeplitz_parts(op.eps, op.N, op.stokes_order)
    d = (np.arange(-op.N, op.N + 1, dtype=float) + op.mu)[:, None]
    u = sample.block[:, :2].reshape(-1, 4)                    # [u1 | u2], de-interleaved
    u1, u2 = u[:, :2], u[:, 2:]
    v = np.hstack((u, d * u2))
    pv = p_part @ v                                           # [P u1 | P u2 | P (d*u2)]
    t = pv[:, :2] - np.sign(d) * u2
    # u2^T t, u2^T u1 and (d*u2)^T t; u1^T k and u1^T P u2
    (y11, y12, s11, s12), (y21, y22, s21, s22), (x11, x12, _, _), (x21, x22, _, _) = (
        v[:, 2:].T @ np.hstack((t, u1))).tolist()
    (k11, k12, p11, p12), (k21, k22, p21, p22) = (u1.T @ np.hstack((pv[:, 4:] - a_part @ u1, pv[:, 2:4]))).tolist()
    g11, g12, g22 = 2 * s11, s12 + s21, 2 * s22              # W^T U, symmetric
    det = g11 * g22 - g12 * g12

    def reduced(m11: float, m12: float, m21: float, m22: float) -> tuple[float, ...]:
        """(W^T U)^-1 [[m11, m12], [m21, m22]], row by row."""
        return ((g22 * m11 - g12 * m21) / det, (g22 * m12 - g12 * m22) / det,
                (g11 * m21 - g12 * m11) / det, (g11 * m22 - g12 * m12) / det)

    b11, b12, b21, b22 = reduced(x11 + k11, x12 + k12, x21 + k21, x22 + k22)    # W^T R U
    c11, c12, c21, c22 = reduced(y11 + p11, y12 + p12, y21 + p21, y22 + p22)    # W^T dR/dmu U
    split, split1 = b11 - b22, c11 - c22
    disc = split**2 + 4 * b12 * b21
    slope = 2 * split * split1 + 4 * (c12 * b21 + b12 * c21)
    return -disc, -slope


def _horner(c: Sequence[float], t: float) -> tuple[float, float]:
    """The polynomial sum c_k t^k and its derivative at ``t``."""
    v = dv = 0.0
    for ck in reversed(c):
        v, dv = v * t + ck, dv * t + v
    return v, dv


def _newton_root(c: Sequence[float], t: float) -> float:
    """The root of the polynomial sum c_k t^k that Newton's method reaches
    from ``t``; nan if the derivative vanishes on the way."""
    for _ in range(16):
        v, dv = _horner(c, t)
        s = v / dv if dv else math.nan
        t -= s
        if not abs(s) > 1e-15 * abs(t):
            break
    return t


def _model(
    anchor: tuple[float, float, float], points: Sequence[tuple[float, Optional[float], float]], scale: float
) -> tuple[list[float], list[float]]:
    """Least-squares models of D about ``anchor``, a (mu, D, dD/dmu) solve:
    the coefficients c_k of the cubic and of the quartic
    p(t) = sum c_k t^k, t = (mu - anchor mu)/scale, that take D and
    scale*dD/dmu at the anchor exactly and fit them at the other
    ``points`` by least squares, both from one QR factorization; a point
    whose D is None fits the slope alone.  Exact at the anchor, a step
    from it converges to ulps as Newton's does.  Where the other points
    determine fewer coefficients, both models keep only those."""
    import numpy as np
    from scipy.linalg.lapack import dgeqrf

    mu0, d0, s0 = anchor[0], anchor[1], scale * anchor[2]
    rows = []
    for mu, d, slope in points:
        if mu != mu0:
            t = (mu - mu0) / scale
            if d is not None:
                rows.append([t * t, t**3, t**4, d - d0 - s0 * t])
            rows.append([2 * t, 3 * t * t, 4 * t**3, scale * slope - s0])
    r = dgeqrf(np.array(rows))[0].tolist()    # R of [A | b]: R[:k, :k] c = R[:k, 3], k unknowns

    def fit(k: int) -> list[float]:
        c = [0.0] * min(k, len(rows))
        for i in reversed(range(len(c))):
            c[i] = (r[i][3] - sum(r[i][j] * c[j] for j in range(i + 1, len(c)))) / r[i][i]
        return [d0, s0, *c]

    return fit(2), fit(3)


def _edge_start(
    vertex: tuple[float, float, float], points: Sequence[tuple[float, float, float]], half: float, side: int
) -> float:
    """Where an edge's Newton iteration starts: beyond the root on ``side``
    of the quartic model of D about the ``vertex`` solve (`_model`, fitted
    to D and dD/dmu at ``points``, in units of the half-width ``half``) by
    twice its distance from the cubic's root and 16 ulp, so that the solve
    there reads D <= 0 and Newton's next step is a few ulp."""
    r3, r4 = (_newton_root(c, float(side)) for c in _model(vertex, points, half))
    return vertex[0] + (r4 + 2 * side * abs(r4 - r3)) * half + 16 * side * math.ulp(vertex[0])


def measure_isola(
    eps: float,
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
    window_scale: float = 8.0,
) -> IsolaMeasurement:
    """Locate and measure the isola near mu = 1/4 without the closed form.

    The only theory inputs are the start mu0(eps), the pair's imaginary part
    there and the window every solve must lie in, mu0 +- window_scale*eps^3:
    generous against the O(eps^4) isola width but clear of neighboring
    collisions.  Each solve gives the pair's discriminant D
    (`_reduced_discriminant`), positive exactly inside the isola and nearly
    quadratic in mu.  Solves at mu0 - 1.2 eps^4 and a quarter eps^4 below
    give its curvature D'' < 0: the vertex lies 1.2-2.6 eps^4 below mu0 at
    every amplitude measured (eps 0.005-0.29), so they sit near it.  Every
    later step comes from one least-squares model of D, a quartic in mu anchored
    exactly at one solve (`_model`).  Fitted to dD/dmu at every solve so far
    and anchored at the latest, its vertex places each step to the vertex
    mu_at_max, where the pair gives re_max = sqrt(max gap^2)/2 and
    im_center.  Fitted to D and dD/dmu and anchored at mu_at_max, its roots
    place each edge's Newton iteration on D to start just outside the edge
    (`_edge_start`), so that one solve there reads D <= 0 and Newton's next
    step is a few ulp.  An iteration stops at a step of a few ulp or one no
    shorter than the last (noise); an edge's also stops, unsolved, at a
    point whose next step, predicted from the step s to it as (D''/2D')*s^2,
    is a few ulp.  An edge counts only if a solve of its iteration at or
    beyond it reads D <= 0; where none does, or the model's start is off the
    window, the iteration runs again from
    mu_at_max -+ (1 + `_EDGE_MARGIN`)*sqrt(-2*D/D''), just outside the
    parabola's root.  The first solve starts its shift beside the closed
    form's pair; each later one continues those at the two nearest mu
    solved (`spectrum`'s ``start``).

    Raises `TrackingFailure` if the pair cannot be followed, ValueError if a
    solve would leave the window, the curvature is not negative, an
    iteration takes more than `_MAX_STEPS` steps, no isola is resolved
    (max gap^2 <= 0) or an edge shows no sign change of D, and before any
    solve if eps <= 0 (flat water has no isola), window_scale <= 0 or
    either is not finite.
    """
    _check_finite(eps=eps, window_scale=window_scale)
    if eps < 0:
        raise _ArgumentError(f"eps must be nonnegative, got {eps}")
    if eps == 0:
        raise _ArgumentError(f"eps must be positive, got {eps}: flat water has no isola")
    if window_scale <= 0:
        raise _ArgumentError(f"window_scale must be positive, got {window_scale}")
    theory = isola(assemble_reduced_jet(), eps)
    mu0, guess = theory.mu0, 1j * theory.im_center
    half = window_scale * eps**3
    lo, hi = mu0 - half, mu0 + half
    samples: dict[float, tuple[SpectrumSample, float, float]] = {}

    def solve(mu: float) -> tuple[SpectrumSample, float, float]:
        if mu not in samples:
            if not lo <= mu <= hi:
                raise ValueError(f"step to {mu!r} leaves the window [{lo!r}, {hi!r}] for eps={eps}")
            op = build(mu, eps, N, stokes_order)
            start = [samples[m][0] for m in sorted(samples, key=lambda m: abs(m - mu))[:2]]
            # the first solve: the fixed block, its shift beside the closed form's pair
            sample = spectrum(op, start=start or SpectrumSample((), (guess, guess), _start_block(4 * N + 2)))
            samples[mu] = (sample, *_reduced_discriminant(op, sample))
        return samples[mu]

    def iterate(path: list[float], step: Callable[..., tuple[float, float]], what: str) -> list[float]:
        previous = math.inf
        for _ in range(_MAX_STEPS):
            s, following = step(path)
            if abs(s) <= _STEP_ULPS * math.ulp(path[-1]) or abs(s) >= abs(previous):
                return path
            path.append(path[-1] + s)
            if following <= _STEP_ULPS * math.ulp(path[-1]):
                return path
            previous = s
        raise ValueError(f"{what} search for eps={eps} took more than {_MAX_STEPS} steps")

    def vertex_step(path: list[float]) -> tuple[float, float]:
        slopes = [(mu, None, slope) for mu, (_, _, slope) in samples.items()]
        quartic = _model((path[-1], *solve(path[-1])[1:]), slopes, h)[1]
        slope = [k * c for k, c in enumerate(quartic)][1:]
        t = _newton_root(slope, 0.0)
        return (t * h if _horner(slope, t)[1] < 0 else math.inf), math.inf    # not concave: noise

    def newton(path: list[float]) -> tuple[float, float]:
        _, d, slope = solve(path[-1])
        s = -d / slope
        return s, abs(0.5 * curvature / slope) * s * s

    mu1, h = mu0 - 1.2 * eps**4, -0.25 * eps**4
    curvature = (solve(mu1 + h)[2] - solve(mu1)[2]) / h
    if not curvature < 0:
        raise ValueError(f"curvature of D at mu={mu1!r} is not negative for eps={eps}")
    mu_at_max = iterate([mu1, mu1 + h], vertex_step, "vertex")[-1]
    vertex, d_max, slope_max = solve(mu_at_max)
    lp, lm = vertex.tracked_pair
    gap2_max = ((lp - lm) ** 2).real
    if gap2_max <= 0 or d_max <= 0:
        raise ValueError(
            f"no isola resolved for eps={eps}, N={N}: max pair gap^2 {gap2_max:.3e}, D {d_max:.3e}"
        )
    spread = math.sqrt(-2.0 * d_max / curvature)

    def edge(side: int, name: str) -> float:
        points = [(mu, d, slope) for mu, (_, d, slope) in samples.items()]
        model = _edge_start((mu_at_max, d_max, slope_max), points, spread, side)
        starts = [model] if lo <= model <= hi else []
        for start in starts + [mu_at_max + side * (1 + _EDGE_MARGIN) * spread]:
            path = iterate([start], newton, f"{name} edge")
            if any(side * (mu - path[-1]) >= 0 and samples[mu][1] <= 0 for mu in path if mu in samples):
                return path[-1]
        raise ValueError(f"no sign change of D at the {name} edge for eps={eps}")

    mu_left, mu_right = edge(-1, "left"), edge(1, "right")
    return IsolaMeasurement(
        eps=eps,
        N=N,
        mu_at_max=mu_at_max,
        re_max=0.5 * math.sqrt(gap2_max),
        im_center=0.5 * (lp + lm).imag,
        mu_left=mu_left,
        mu_right=mu_right,
        solves=len(samples),
    )
