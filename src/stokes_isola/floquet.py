"""Truncated Fourier eigenvalue oracle for the linearized water-wave problem.

Independent cross-check of the closed-form isola: discretize the linearized
operator at Bloch exponent mu on the exponential basis e^{ijx}, j = -N..N,
truncate, and find the few eigenvalues of the resulting matrix nearest the
collision frequency by a shift-invert solve: a banded LU of its real form R
(below; banded once the two components are interleaved) and block subspace
iteration, started from a fixed block or from one earlier solve at a
nearby mu.  The tracked pair is the two eigenvalues in the disk of radius
`RADIUS` = 0.2 that follows the pair (`_disk_center`); any other count
there is a `TrackingFailure`.  The pair is i*tr(B)/2 +- sqrt(D)/2 for its
2x2 symplectic reduction B, split exactly where the discriminant D is
positive.  The isola measurement takes the Taylor series in mu of tr B and
D from one solve near `closed_forms`' mu0(eps) and reads the vertex and
both edges off D within its reach, else off the series about the vertex
solve: four solves of 2.3 subspace iterations each on average at N = 32
(40 seeded amplitudes in [0.02, 0.19)).  The isola trace reads
the pair off such a series wherever one reaches, with no eigensolve;
started from the measurement, it reads the `isola` command's grid off the
search's own series and solves nothing.  Both work from the operator's
Toeplitz parts, built once per amplitude, never the dense matrix.
Importing the module loads neither numpy nor scipy; numpy loads on first
use, and scipy's LAPACK extension on the first solve (`_lapack`), never the
`scipy.linalg` package.

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

import cmath
import contextlib
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from . import closed_forms as cf
from .stokes import A_FLOAT, MAX_ORDER, MU_STAR, OMEGA_STAR, P_FLOAT

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
#: The first shift of a cold solve, i*omega*; the disk's centre at eps = 0.
CENTER = 1j * OMEGA_STAR
#: The tracking disk: the collision pair is the two eigenvalues within
#: `RADIUS` of `_disk_center`.
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
#: `_pair_series` stops at the first order whose term max|B_k| * reach^k is
#: at most `_SERIES_TAIL`, and raises ValueError if none is by `_SERIES_ORDERS`;
#: `measure_isola` and `trace_isola` take reach = `_REACH` * eps^4.
_SERIES_TAIL = 2e-18
_SERIES_ORDERS = 24
_REACH = 2.0
#: Each edge's check solve in `measure_isola` lies this many ulp of mu beyond
#: it; an isola at most twice as wide is refused, its width unresolved.
_CHECK_ULPS = 64


class TrackingFailure(RuntimeError):
    """Other than two eigenvalues found in the tracking disk, or the
    shift-invert solve for them failed."""


class _ArgumentError(ValueError):
    """An argument rejected before any solve; every other ValueError of
    this module is a search that failed."""


class DiscretizedOperator(
    NamedTuple("DiscretizedOperator", [("mu", float), ("eps", float), ("N", int), ("stokes_order", int)])
):
    """Truncation of the linearized operator at fixed (mu, eps); ``matrix``,
    dense and in block order (`build`), is assembled on first access and
    kept on the instance."""

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        import numpy as np

        d = np.arange(-self.N, self.N + 1, dtype=float) + self.mu
        p_part, a_part = _toeplitz_parts(self.eps, self.N, self.stokes_order)
        return np.block([[1j * (d[:, None] * p_part), np.diag(np.abs(d))], [-a_part.astype(complex), 1j * (p_part * d)]])


@functools.lru_cache(maxsize=2)
def _toeplitz_parts(eps: float, N: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``1 + p_eps`` and ``1 + a_eps`` as read-only (2N+1)-square Toeplitz
    matrices: the mu-independent parts of the operator, shared by every
    solve of one search.  Each is one gather by harmonic kappa = row - column
    from its coefficients of e^{i*kappa*x}, half the cosine-series ones
    (the tables store the constant term halved), through ``eps**order``."""
    import numpy as np

    dim = 2 * N + 1
    kappa = np.subtract.outer(np.arange(dim), np.arange(dim)) + 2 * N
    parts = []
    for table in (P_FLOAT, A_FLOAT):
        coeffs = np.zeros(2 * dim - 1)
        for (n, k), c in table.items():
            if n <= order and c != 0:
                coeffs[k + 2 * N] += 0.5 * eps**n * c
        coeffs[2 * N] += 1.0
        part = coeffs.take(kappa)
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
    pass), a negative eps, a non-finite mu or eps, and an eps whose
    eps**`MAX_ORDER`, a factor of the profiles, overflows."""
    _check_integer(N=N, stokes_order=stokes_order)
    if N < 8:
        raise _ArgumentError(f"N must be at least 8, got {N}")
    if not 0 <= stokes_order <= MAX_ORDER:
        raise _ArgumentError(f"stokes_order must be in 0..{MAX_ORDER}, got {stokes_order}")
    _check_finite(mu=mu, eps=eps)
    if eps < 0:
        raise _ArgumentError(f"eps must be nonnegative, got {eps}")
    try:
        math.pow(eps, MAX_ORDER)
    except OverflowError:
        raise _ArgumentError(f"eps must be small enough that eps**{MAX_ORDER} is finite, got {eps}") from None
    return DiscretizedOperator(mu=mu, eps=eps, N=N, stokes_order=stokes_order)


class SpectrumSample(NamedTuple):
    """The eigenvalues of one truncation that the shift-invert solve
    converged near `CENTER`, nearest first, with the collision pair singled
    out.  ``eigenvalues`` holds the two nearest `CENTER` and any other Ritz
    value that converged, often nothing else; the solve does not promise
    every eigenvalue of the tracking disk.  ``block`` is the read-only real
    orthonormal block the solve converged on in R's frame (the module
    docstring), `_BLOCK` (four) columns, rows in interleaved order
    (`_band_layout`), pair first: its first two columns span the tracked
    pair's invariant subspace.  A solve at a nearby mu can start from it
    (`spectrum`'s ``start``)."""

    eigenvalues: np.ndarray
    tracked_pair: tuple[complex, complex]
    block: np.ndarray


def _disk_center(eps: float) -> complex:
    """The centre of the tracking disk at amplitude ``eps``: the pair's
    position to order eps^2, i*(omega* + `IM_CENTER_EPS2`*eps^2), which is
    also `measure_isola`'s guess of the pair.  The pair drifts down by about
    (55/32)*eps^2, so a disk fixed at i*omega* loses one of it near
    eps = 0.29."""
    return 1j * (OMEGA_STAR + cf.IM_CENTER_EPS2 * eps**2)


def _pick_pair(eigs: Sequence[complex], eps: float) -> tuple[complex, complex]:
    """The two eigenvalues of ``eigs`` in the tracking disk at amplitude
    ``eps``, else `TrackingFailure`, in descending order of the part in
    which they differ more: the real part for a split pair, the imaginary
    part for a purely imaginary one, with no threshold that noise or a tiny
    split can cross."""
    center = _disk_center(eps)
    near = [z for z in eigs if abs(z - center) <= RADIUS]
    if len(near) != 2:
        raise TrackingFailure(f"{len(near)} eigenvalue(s) within {RADIUS} of {center}; need 2")
    z0, z1 = near
    part = operator.attrgetter("real" if abs(z0.real - z1.real) > abs(z0.imag - z1.imag) else "imag")
    return tuple(sorted((z0, z1), key=part, reverse=True))


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


@functools.cache
def _lapack():
    """scipy's LAPACK extension module, the seam of every LAPACK call here
    (`dgbtrf`, `dgbtrs`, `dgeev`, `dgeqrf`, `dorgqr`).  It is loaded from its
    file after ``import scipy``, without importing the `scipy.linalg` package,
    which takes longer than a cold `isola` command's solves; the extension
    registers itself under its own name, so its routines are the very
    objects that `scipy.linalg.lapack` exposes."""
    import importlib.machinery
    import importlib.util
    import os

    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.exists(path):
            break
    else:
        raise ImportError(f"no LAPACK extension _flapack in {folder}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=8)
def _start_block(n: int) -> np.ndarray:
    """The fixed start of the subspace iteration: the orthonormalized real
    columns cos, then sin, of sqrt(2)*c*k, k = 0..n-1, c = 1.._BLOCK/2."""
    import numpy as np

    lapack = _lapack()
    phases = np.sqrt(2.0) * np.outer(np.arange(n), np.arange(1, _BLOCK // 2 + 1))
    q = lapack.dorgqr(*lapack.dgeqrf(np.hstack((np.cos(phases), np.sin(phases))))[:2])[0]
    q.flags.writeable = False
    return q


def _toward_pair(shift: complex, lam0: complex, lam1: complex) -> Optional[complex]:
    """A shift `_RESHIFT_GAP` from the pair ``lam0``, ``lam1`` on the side of
    ``shift``: short of their midpoint, or short of the nearer one where that
    point lies within half the gap of it; the gap up from ``shift`` when it
    is the midpoint.  None when ``shift`` is within twice the gap of the
    midpoint and at least half the gap from both."""
    away = shift - 0.5 * (lam0 + lam1)
    near = min(lam0, lam1, key=lambda lam: abs(shift - lam))
    if abs(away) <= 2 * _RESHIFT_GAP and abs(shift - near) >= 0.5 * _RESHIFT_GAP:
        return None
    target = shift - away * (1 - _RESHIFT_GAP / abs(away)) if away else shift + _RESHIFT_GAP
    near = min(lam0, lam1, key=lambda lam: abs(target - lam))
    if abs(target - near) < 0.5 * _RESHIFT_GAP:
        target = near + (shift - near) * (_RESHIFT_GAP / abs(shift - near))
    return target


def _factor(op: DiscretizedOperator, shift: float) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """The banded LU of R - ``shift`` (`_band`, `dgbtrf`): the solve
    x -> (R - shift)^-1 x on it (`dgbtrs`), and `dgbtrf`'s info, nonzero
    where the LU is exactly singular."""
    lapack, kl = _lapack(), 2 * op.stokes_order + 1
    ab = _band(op)
    ab[2 * kl] -= shift
    lu, piv, info = lapack.dgbtrf(ab, kl, kl, overwrite_ab=1)
    return lambda x: lapack.dgbtrs(lu, kl, kl, x, piv)[0], info


def _shift_invert(op: DiscretizedOperator, start: Optional[SpectrumSample] = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of ``op`` converged near `CENTER` by block
    shift-invert subspace iteration on a banded LU, nearest first, and the
    real orthonormal block they converged on, rotated so that its first
    two columns span the invariant subspace of the two nearest.

    It works on R (the module docstring), banded with 2*stokes_order + 1
    sub- and superdiagonals in interleaved order, at real shifts about
    omega* = -i*`CENTER`: eigenvalues r of R are lambda = i*r.  R - shift is
    factored by `_factor`.  A block of `_BLOCK` columns: the pair plus two
    spare, goes through the inverse once per step, followed by a
    Rayleigh-Ritz step (`dgeev`); a Ritz value nu of the inverse gives
    r = shift + 1/nu, a conjugate pair of them with its Ritz vector's real
    and imaginary parts, kept adjacent by a stable sort on the distance
    to omega*, which they share.  The iteration stops when every Ritz value
    within `RADIUS` + `_MARGIN` of the disk's centre (`_disk_center`), and
    the two nearest omega*, have relative residual
    |(R - shift)^-1 v - nu v| / |nu| at most `_TOL`, and returns every
    Ritz value that meets it: only eigenvalues that the block
    has turned toward are counted (`_BLOCK`).  When all four Ritz values lie
    that close, the spare columns stall, and the solve fails at `_MAX_ITER`
    saying so.

    Without ``start`` the block starts fixed (so repeated calls agree bit
    for bit) and the shift at omega*.  ``start`` is a sample at a nearby
    mu of a matrix of the same size: the block starts from its block and
    the shift near its pair (`_toward_pair`).  Once the two nearest have
    loosely converged (`_RESHIFT_TOL`), the shift moves once if it is far
    from their midpoint or near one of them: within about 1e-6 of an
    eigenvalue, it keeps the other Ritz values in the disk from converging.
    A shift that is an eigenvalue makes the LU exactly singular; the next
    is tried: omega*, then omega* moved up by `_SHIFT_NUDGE`.
    """
    import numpy as np

    lapack = _lapack()
    n = 4 * op.N + 2
    center, disk = CENTER.imag, _disk_center(op.eps).imag
    shifts = [center, center + _SHIFT_NUDGE]
    if start is None:
        q = _start_block(n)
    else:
        if start.block.shape != (n, _BLOCK):
            raise _ArgumentError(f"start block {start.block.shape}: need {(n, _BLOCK)} for a {n}-square matrix")
        q = lapack.dorgqr(*lapack.dgeqrf(start.block)[:2])[0]
        warm = _toward_pair(center, *(-1j * lam for lam in start.tracked_pair))
        if warm is not None:
            shifts.insert(0, warm.real)
    for shift in shifts:
        solve, info = _factor(op, shift)
        if info == 0:
            break
    else:
        tried = ", ".join(str(1j * s) for s in shifts)
        raise TrackingFailure(
            f"shift-invert solve near {CENTER} failed: banded LU exactly singular at every shift tried, {tried}"
        )
    reshift = True
    for _ in range(_MAX_ITER):
        x = solve(q)
        h = q.T @ x
        wr, wi, _, y, _ = lapack.dgeev(h, compute_vl=0)
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
        need = [k < 2 or abs(lam - disk) <= RADIUS + _MARGIN for k, (lam, _) in enumerate(ritz)]
        if all(e <= _TOL for (_, e), needed in zip(ritz, need) if needed):
            q = q @ lapack.dorgqr(*lapack.dgeqrf(y[:, order])[:2])[0]    # the Ritz vectors' real basis, nearest first
            q.flags.writeable = False
            return 1j * np.array([lam for lam, e in ritz if e <= _TOL]), q
        if reshift and ritz[0][1] <= _RESHIFT_TOL and ritz[1][1] <= _RESHIFT_TOL:
            reshift = False
            target = _toward_pair(shift, ritz[0][0], ritz[1][0])
            if target is not None and (moved := _factor(op, target.real))[1] == 0:
                shift, solve = target.real, moved[0]
        q = lapack.dorgqr(*lapack.dgeqrf(x)[:2])[0]
    if all(need):
        raise TrackingFailure(
            f"shift-invert solve near {CENTER} failed: at least {_BLOCK} eigenvalues, "
            f"as many as the block has columns, lie within {RADIUS} + {_MARGIN} of {1j * disk}"
        )
    raise TrackingFailure(
        f"shift-invert solve near {CENTER} failed: no convergence in {_MAX_ITER} iterations"
    )


def spectrum(op: DiscretizedOperator, start: Optional[SpectrumSample] = None) -> SpectrumSample:
    """The eigenvalues of ``op`` converged near `CENTER` by the banded
    shift-invert solve (`_shift_invert`), plus the pair tracked among them:
    the two within `RADIUS` of `_disk_center` at ``op.eps``.

    ``start``, a sample at a nearby mu of a matrix of the same size and
    ``stokes_order``, continues its solve; one of another size raises ValueError.

    Raises `TrackingFailure` when other than two of the converged
    eigenvalues lie in the tracking disk or the solve fails.
    """
    eigs, block = _shift_invert(op, start)
    return SpectrumSample(eigenvalues=eigs, tracked_pair=_pick_pair(eigs.tolist(), op.eps), block=block)


class SpectrumPoint(NamedTuple):
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
    start: Optional[IsolaMeasurement] = None,
) -> list[SpectrumPoint]:
    """Tracked eigenvalue pair across a grid of Floquet exponents.

    A point within `_REACH` * eps^4 of the last solve reads the pair off its
    series (`_pair_series`): i*(s + tr B/2) +- sqrt(D)/2 there, the
    principal root, which `_pick_pair` checks against the disk.  Any other
    point is solved (`spectrum`) from the last solve, or cold at the first
    point and after a failure; a series expands about it when the next
    point lies within reach and it converges.  Tracking failures are
    recorded per point, not raised, so one bad point cannot kill a sweep.

    ``start``, a `measure_isola` result, lends the trace its series about
    the search's first solve, so that points within reach of it take no
    solve; it must be measured at this eps, N and stokes_order, else
    ValueError before any solve.
    """
    if start is not None and (start.eps, start.N, start.stokes_order) != (eps, N, stokes_order):
        raise _ArgumentError(
            f"start measured at eps={start.eps}, N={start.N}, stokes_order={start.stokes_order}: "
            f"need eps={eps}, N={N}, stokes_order={stokes_order}"
        )
    reach = _REACH * eps**4
    points: list[SpectrumPoint] = []
    sample = None    # the last solve, None at the start and after a failure
    series = None if start is None else start.series    # (mu, s, T_k, D_k) about it or about ``start``'s
    for mu, following in zip(mu_grid, [*mu_grid[1:], math.inf]):
        try:
            if series is not None and abs(mu - series[0]) <= reach:
                trace, disc = (_horner(c, mu - series[0])[0] for c in series[2:])
                mid, half = 1j * (series[1] + 0.5 * trace), 0.5 * cmath.sqrt(disc)
                lp, lm = _pick_pair((mid + half, mid - half), eps)
            else:
                op = build(mu, eps, N, stokes_order)
                sample, series = spectrum(op, start=sample), None
                lp, lm = sample.tracked_pair
                if abs(following - mu) <= reach:
                    with contextlib.suppress(ValueError):    # no convergence: the next point is solved
                        series = (mu, *_pair_series(op, sample, reach)[:3])
            points.append(SpectrumPoint(float(mu), lp, lm))
        except TrackingFailure as exc:
            sample = series = None
            points.append(SpectrumPoint(float(mu), None, None, error=str(exc)))
    return points


class ConvergenceRow(NamedTuple):
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
    for n in ladder:
        lp, lm = spectrum(build(mu, eps, n, stokes_order)).tracked_pair
        delta = max(abs(lp - rows[-1].lambda_plus), abs(lm - rows[-1].lambda_minus)) if rows else None
        rows.append(ConvergenceRow(n, lp, lm, delta))
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
    stokes_order: int = field(compare=False, repr=False)
    #: (mu_s, s, T_k, D_k): the search's pair series about its first solve
    #: at mu_s, or about its vertex solve where the first one's does not
    #: reach the isola (`_pair_series`), which `trace_isola` can start from.
    series: tuple = field(compare=False, repr=False)

    @property
    def mu_width(self) -> float:
        return self.mu_right - self.mu_left


def _pair_series(
    op: DiscretizedOperator, sample: SpectrumSample, reach: float
) -> tuple[float, list[float], list[float], list[np.ndarray]]:
    """Taylor coefficients in mu about ``op``'s mu of the tracked pair's 2x2
    symplectic reduction B and invariant subspace U, from ``sample``, a
    converged solve of ``op``: the shift s = tr(B(op.mu))/2 and the lists of
    the coefficients of tr B and of its discriminant D (`_discriminant`),
    k = 0..K (B_0 less s*I), and of U_k, rows interleaved like the block's,
    k = 0..K-1.  The pair is i*(s + tr B/2) +- sqrt(D)/2.  K is the first
    order whose term max|B_k| * ``reach``^k is at most `_SERIES_TAIL`;
    ValueError if that is past `_SERIES_ORDERS`.

    R = R0 + (mu - op.mu)*R1 near 1/4, where no j + mu changes sign:
    R1 = [[P, -diag(sign(d))], [0, P]].  U0, the block's first two columns,
    spans the pair's invariant subspace; swap*R is symmetric,
    swap = [[0, I], [I, 0]], so W = swap*U0 spans its left subspace.  With
    W^T U = G = W^T U0 and Q = I - U0 G^-1 W^T, R U = U B gives
    B_0 = G^-1 W^T R0 U0, B_k = G^-1 W^T R1 U_(k-1) and
    (R0 - s) U_k - U_k (B_0 - s) = Q (sum_(j=1..k-1) U_j B_(k-j) - R1 U_(k-1)),
    solved by the fixed point U_k <- Q (R0 - s)^-1 (rhs + U_k (B_0 - s)) on
    one banded LU at s until a step, times reach^(k+1), is at most the tail
    or no shorter than the last.  An error of U0 outside the subspace enters
    B_0 only at second order, even where the pair is nearly defective.

    The products come from the Toeplitz parts P = 1 + p_eps, A = 1 + a_eps
    and d = j + mu, not from ``op.matrix``: with U = [u1; u2],
    R1 U = [t; P u2], t = P u1 - sign(d)*u2, and R0 U0 = [d*t; P (d*u2) - A u1],
    less sigma*U0 for the sample's pair sigma, each summed entry by entry
    before the projection, so that their large terms cancel there and
    B_0 - s carries no rounding of sigma.  G^-1 is taken on floats."""
    import numpy as np

    p_part, a_part = _toeplitz_parts(op.eps, op.N, op.stokes_order)
    d = (np.arange(-op.N, op.N + 1, dtype=float) + op.mu)[:, None]
    sign = np.sign(d)
    u0 = np.ascontiguousarray(sample.block[:, :2])             # rows interleaved
    wt = u0.reshape(-1, 4)[:, [2, 3, 0, 1]].reshape(-1, 2).T    # W^T = (swap*U0)^T
    (g11, g12), (_, g22) = (wt @ u0).tolist()
    det = g11 * g22 - g12 * g12
    g_inv = np.array([[g22, -g12], [-g12, g11]]) / det

    def r1_times(x: np.ndarray, px: np.ndarray) -> np.ndarray:
        """R1 x, interleaved, from x and P [x1 | x2] (de-interleaved)."""
        return np.hstack((px[:, :2] - sign * x.reshape(-1, 4)[:, 2:], px[:, 2:4])).reshape(-1, 2)

    u1, u2 = u0.reshape(-1, 4)[:, :2], u0.reshape(-1, 4)[:, 2:]
    pv = p_part @ np.hstack((u1, u2, d * u2))                 # [P u1 | P u2 | P (d*u2)]
    r1u = r1_times(u0, pv)
    t = r1u.reshape(-1, 4)[:, :2]
    # (R0 - sigma) U0, sigma at the pair: B_0's small part comes without the rounding of sigma
    sigma = 0.5 * (sample.tracked_pair[0] + sample.tracked_pair[1]).imag
    r0u = np.hstack((d * t, pv[:, 4:] - a_part @ u1)).reshape(-1, 2) - sigma * u0
    b0 = g_inv @ (wt @ r0u)
    half = 0.5 * np.trace(b0)
    b, u, shift = [b0 - half * np.eye(2)], [u0], sigma + half
    solve = None
    for k in range(1, _SERIES_ORDERS + 1):
        b.append(g_inv @ (wt @ r1u))
        term = float(np.abs(b[k]).max()) * reach**k
        if term <= _SERIES_TAIL:
            return shift, [float(bk.trace()) for bk in b], _discriminant(b), u
        if k == _SERIES_ORDERS:
            raise ValueError(
                f"pair series at mu={op.mu!r} for eps={op.eps} did not converge by order {k}: "
                f"term {term:.3e} at reach {reach:.3e}"
            )
        if solve is None:    # exactly singular: nan terms, no convergence
            solve = _factor(op, shift)[0]
        rhs = sum((u[j] @ b[k - j] for j in range(1, k)), -r1u)
        rhs -= u0 @ (g_inv @ (wt @ rhs))
        x, last = np.zeros_like(rhs), math.inf
        while True:
            y = solve(rhs + x @ b[0])
            y -= u0 @ (g_inv @ (wt @ y))
            step, x = float(np.abs(y - x).max()), y
            if not last > step * reach ** (k + 1) > _SERIES_TAIL:
                break
            last = step * reach ** (k + 1)
        u.append(x)
        r1u = r1_times(x, p_part @ x.reshape(-1, 4))


def _discriminant(b: Sequence[np.ndarray]) -> list[float]:
    """The Taylor coefficients of D = (lambda+ - lambda-)^2 =
    -((b11 - b22)^2 + 4*b12*b21) (tr^2 - 4*det cancels; B's eigenvalues are
    r = -i*lambda) from those of B, through the same order."""
    b11, b12, b21, b22 = zip(*(bk.ravel().tolist() for bk in b))
    split = [x - y for x, y in zip(b11, b22)]
    return [-sum(split[j] * split[k - j] + 4 * b12[j] * b21[k - j] for j in range(k + 1)) for k in range(len(b))]


def _horner(c: Sequence, t: float) -> tuple:
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


def measure_isola(
    eps: float,
    N: int = DEFAULT_N,
    stokes_order: int = MAX_ORDER,
    window_scale: float = 8.0,
) -> IsolaMeasurement:
    """Locate and measure the isola near mu = 1/4 without the closed form.

    The only theory inputs are `closed_forms`' start mu0 = 1/4 + `MU0_EPS2`
    eps^2, the pair's imaginary part 3/4 + `IM_CENTER_EPS2` eps^2 there and
    the window every solve must lie in, mu0 +- window_scale*eps^3:
    generous against the O(eps^4) isola width but clear of neighboring
    collisions.  D = (lambda+ - lambda-)^2 of the pair's 2x2 reduction is
    positive exactly inside the isola.  Four solves, with no iteration: one
    at mu_s = mu0 - 1.2 eps^4 (the vertex lies 1.2-2.6 eps^4 below mu0 at
    every amplitude measured, eps 0.005-0.29), its shift beside the closed
    form's pair, gives the series of tr B and D about mu_s (`_pair_series`,
    reach 2 eps^4).  Newton's method on D's polynomial gives the vertex
    mu_at_max, the root of dD/dmu, and each edge, a root of D, from the
    parabola's roots about it.  A solve at mu_at_max gives
    re_max = sqrt(gap^2)/2 and im_center.  Where the vertex or an edge lies
    beyond the reach of mu_s, the vertex, the edges, re_max and im_center
    are read again off the series about that solve, which becomes the
    measurement's ``series``.  A check solve `_CHECK_ULPS` beyond each edge
    must read D <= 0.

    Raises `TrackingFailure` if the pair cannot be followed, ValueError if a
    solve would leave the window, the series does not converge, no isola is
    resolved (the series stops before order 2, D at its vertex is <= 0 or
    not concave there, gap^2 <= 0 at the vertex solve, an edge lies beyond
    the reach of the series about the vertex, or the edges at most
    2*`_CHECK_ULPS` ulp of mu apart, where D is at its rounding floor) or an
    edge's check solve reads D > 0, and before any solve if `build` rejects
    eps, N or stokes_order, eps = 0 (flat water has no isola), or
    window_scale is not positive and finite.
    """
    import numpy as np

    build(MU_STAR, eps, N, stokes_order)    # every solve's arguments, checked before any solve
    _check_finite(window_scale=window_scale)
    if eps == 0:
        raise _ArgumentError(f"eps must be positive, got {eps}: flat water has no isola")
    if window_scale <= 0:
        raise _ArgumentError(f"window_scale must be positive, got {window_scale}")
    mu0, guess = MU_STAR + cf.MU0_EPS2 * eps * eps, (_disk_center(eps),) * 2
    half = window_scale * eps**3
    lo, hi = mu0 - half, mu0 + half
    mu_s, reach = mu0 - 1.2 * eps**4, _REACH * eps**4
    solved: list[SpectrumSample] = []

    def solve(mu: float, start: Optional[SpectrumSample] = None) -> tuple[DiscretizedOperator, SpectrumSample]:
        """The solve at ``mu`` from ``start``, else from the series there:
        U, the first block's spare columns and the pair at i*(s + tr B/2)."""
        if not lo <= mu <= hi:
            raise ValueError(f"step to {mu!r} leaves the window [{lo!r}, {hi!r}] for eps={eps}")
        if start is None:
            pair = 1j * (shift + 0.5 * _horner(traces, mu - series[0])[0])
            start = SpectrumSample((), (pair, pair), np.hstack((_horner(u, mu - series[0])[0], solved[0].block[:, 2:])))
        op = build(mu, eps, N, stokes_order)
        solved.append(spectrum(op, start=start))
        return op, solved[-1]

    def read(disc: list[float]) -> tuple[float, float, float]:
        """D's vertex and its roots on either side, in reaches from the
        series' centre, from D's Taylor coefficients there."""
        disc = [c * reach**k for k, c in enumerate(disc)]    # in t = (mu - centre)/reach
        slope = [k * c for k, c in enumerate(disc)][1:]
        t_max = _newton_root(slope, 0.0)
        d_max, curvature = _horner(disc, t_max)[0], _horner(slope, t_max)[1]
        if not (d_max > 0 and curvature < 0):
            raise ValueError(
                f"no isola resolved for eps={eps}, N={N}: at the series' vertex D {d_max:.3e}, "
                f"d2D/dmu2 {curvature / reach**2:.3e}"
            )
        spread = math.sqrt(-2.0 * d_max / curvature)
        return t_max, *(_newton_root(disc, t_max + side * spread) for side in (-1, 1))

    # the first solve: the fixed block, its shift beside the closed form's pair
    shift, traces, disc, u = _pair_series(*solve(mu_s, SpectrumSample((), guess, _start_block(4 * N + 2))), reach)
    if len(disc) < 3:
        raise ValueError(
            f"no isola resolved for eps={eps}, N={N}: the pair series stopped at order {len(disc) - 1}, "
            "before D has a curvature"
        )
    series = (mu_s, shift, traces, disc)
    t_max, *edges = read(disc)
    mu_at_max = mu_s + t_max * reach
    lp, lm = (vertex := solve(mu_at_max))[1].tracked_pair
    gap2_max, im_center = ((lp - lm) ** 2).real, 0.5 * (lp + lm).imag
    if gap2_max <= 0:
        raise ValueError(f"no isola resolved for eps={eps}, N={N}: max pair gap^2 {gap2_max:.3e}")
    if not all(abs(t) <= 1.0 for t in (t_max, *edges)):    # read beyond the reach: read again about the vertex
        shift, traces, disc, u = _pair_series(*vertex, reach)
        series, (t_max, *edges) = (mu_at_max, shift, traces, disc), read(disc)
        if not all(abs(t) <= 1.0 for t in edges):
            raise ValueError(
                f"no isola resolved for eps={eps}, N={N}: an edge lies {max(map(abs, edges)):.3g} reaches "
                f"from the series about the vertex, beyond its reach {reach:.3e}"
            )
        mu_at_max, offset = mu_at_max + t_max * reach, t_max * reach
        gap2_max, im_center = _horner(disc, offset)[0], float(shift + 0.5 * _horner(traces, offset)[0])
    mu_left, mu_right = (series[0] + t * reach for t in edges)
    if (ulps := (mu_right - mu_left) / math.ulp(mu_at_max)) <= 2 * _CHECK_ULPS:
        raise ValueError(
            f"no isola resolved for eps={eps}, N={N}: width {mu_right - mu_left:.3e}, "
            f"{ulps:.0f} ulp of mu, is at most {2 * _CHECK_ULPS}"
        )
    for mu, side, name in ((mu_left, -1, "left"), (mu_right, 1, "right")):
        beyond = mu + side * _CHECK_ULPS * math.ulp(mu)
        d = _pair_series(*solve(beyond), 0.0)[2][0]
        if d > 0:
            raise ValueError(f"no sign change of D at the {name} edge for eps={eps}: D {d:.3e} at mu={beyond!r}")
    return IsolaMeasurement(
        eps=eps,
        N=N,
        mu_at_max=mu_at_max,
        re_max=0.5 * math.sqrt(gap2_max),
        im_center=im_center,
        mu_left=mu_left,
        mu_right=mu_right,
        solves=len(solved),
        stokes_order=stokes_order,
        series=series,
    )
