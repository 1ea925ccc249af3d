"""Mode-coupling coefficients, residue calculus, and resolvent-chain algebra.

This is the computational kernel behind the reduced 2x2 matrix: every
matrix entry is a finite sum of products

    (coupling coefficients along a path of harmonics) x (a residue factor),

where the residue factor is a contour integral of a product of resolvents
of the flat operator around the collision frequency i*omega*.

Basis.  For ``j + mu != 0`` the mode ``(j, sigma)`` labels the eigenvector

    f_j^sigma(mu) = (2*Omega_j)^(-1/2) * ( -sqrt(sigma)*Omega_j , sqrt(-sigma) ) e^{i j x},

with the branch convention sqrt(+1) = 1, sqrt(-1) = i.  The vectors are
normalized so that the complex symplectic pairing

    W(f, g) = f[1]*conj(g[0]) - f[0]*conj(g[1])      (same harmonic j)

equals -i on (+,+) diagonal pairs, +i on (-,-) pairs, and 0 otherwise.

The reversibility involution acts on a single-harmonic component vector
(c1, c2) as (conj(c1), -conj(c2)); the basis vectors are eigenvectors of it
with sign sigma.  The vectors themselves are never formed: the coupling
coefficients of `ent_coeff` are their pairings in closed form.

Grading convention.  A jet index ``(i, n)`` labels the coefficient of
``delta^i * eps^n`` in the expansion of the operator's self-adjoint part,
where ``delta`` is the Floquet offset ``mu - 1/4`` and ``eps`` the wave
amplitude.  The three nonzero families of couplings through the computed
order are:

* ``(1, 0)``: diagonal in the harmonic (kappa = 0),
      sqrt(sigma)*conj(sqrt(sigma')) / (2*Omega_j)
          * ( sigma*sigma'*s_j - (sigma + sigma') * Omega_j )

* ``(0, n)``, n = 1..4, kappa = n (mod 2), |kappa| <= n:
      (1/4) * sqrt(sigma)*conj(sqrt(sigma')) * sqrt(Omega_{j+k} Omega_j)
          * ( a_n[k] - sigma p_n[k] Omega_j s_j - sigma' p_n[k] Omega_{j+k} s_{j+k} )

* ``(1, n)``, n = 1..3, kappa = n (mod 2), |kappa| <= n:
      -(1/4) * sqrt(sigma)*conj(sqrt(sigma')) * p_n[k]
          * ( sigma*Omega_{j+k} + sigma'*Omega_j ) / sqrt(Omega_j Omega_{j+k})

with ``Omega_j = sqrt(|j + 1/4|)`` and ``s_j = sign(j + 1/4)``.  All other
jet indices couple to zero at this order.  Coefficients obey the conjugation
symmetry  conj(c[(i,n),k](j -> j+k, s -> s')) = c[(i,n),-k](j+k -> j, s' -> s).

Poles.  The flat frequency of a mode equals omega* only for the resonant
pair (0,-), (2,+) (the proof is at `RESONANT_MODES`), so a mode is a pole of
the residue iff it lies in `RESONANT_MODES`, the same set P0 projects onto.

Chains.  ``chain_apply(ops, source)`` implements

    P[B_q, ..., B_1] f_source  =  sum over intermediate branch signs of
        (prod_s sigma_s) * (prod_s coupling_s) * R(all modes on the path)

where ``ops[0]`` acts *first* (note: printed operator products act right to
left, so transcriptions must be reversed into application order), each op is
a pair ``(JetIndex, kappa)``, and the residue ``R`` spans the source, every
intermediate, and the final mode of the path.  The source is a basis mode or,
by linearity, a coefficient vector.  An optional projector
restricts the final mode to the resonant pair P0 = {(0,-), (2,+)} or its
complement.  ``bracket(op, left, right)`` is the one pairing primitive:
( B_op left , right ) for basis modes or coefficient vectors on either side.
Each path is walked once per process: `_paths` extends the table of a chain's
prefix by its last op, each path carrying its product of sign*coupling and its
residue state.  Couplings, gaps and modes are cached on plain ints on first use.
"""

from __future__ import annotations

import functools
import math
from typing import Literal, NamedTuple, Optional, Sequence, Union

from .stokes import A_FLOAT, MAX_ORDER, MU_STAR, OMEGA_STAR, P_FLOAT, omega

__all__ = [
    "Mode",
    "JetIndex",
    "ent_coeff",
    "residue",
    "residue_contour",
    "chain_apply",
    "bracket",
]

#: The circle and the trapezoid nodes of `residue_contour`.
_CONTOUR_RADIUS = 0.125
_CONTOUR_NODES = 4096


class Mode(NamedTuple("Mode", [("j", int), ("sigma", int)])):
    """A Fourier harmonic ``j`` together with a branch sign ``sigma``."""

    __slots__ = ()

    def __new__(cls, j: int, sigma: int) -> Mode:
        if sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
        return super().__new__(cls, j, sigma)

    @classmethod
    def _make(cls, iterable) -> Mode:  # `_replace` builds through `_make`: check there too
        return cls(*iterable)

    def __repr__(self) -> str:  # compact: (2,+) instead of Mode(j=2, sigma=1)
        return f"({self.j},{'+' if self.sigma > 0 else '-'})"


#: Branch convention sqrt(+1) = 1, sqrt(-1) = i.
_SQRT_SIGMA = {1: 1.0 + 0.0j, -1: 1j}

#: The two modes whose flat frequencies collide at omega* = 3/4: the poles
#: of `residue`, and the only modes with flat frequency omega* at mu* = 1/4.
#: Proof.  Let s = sqrt|j + 1/4| > 0, so omega_j^sigma = j + 1/4 - sigma*s.
#: For j >= 0, j + 1/4 = s^2 and the condition reads s^2 - sigma*s = 3/4,
#: whose positive root is s = 3/2 for sigma = +1 (j = 2) and s = 1/2 for
#: sigma = -1 (j = 0).  For j < 0, j + 1/4 = -s^2 and it reads
#: s^2 + sigma*s + 3/4 = 0, which has no real root (discriminant -2).
RESONANT_MODES: tuple[Mode, Mode] = (Mode(0, -1), Mode(2, +1))

Projector = Optional[Literal["P0", "Q0"]]


class JetIndex(NamedTuple("JetIndex", [("mu_order", int), ("eps_order", int)])):
    """Bidegree ``(mu_order, eps_order)`` of an operator jet."""

    __slots__ = ()

    def __new__(cls, mu_order: int, eps_order: int) -> JetIndex:
        if mu_order not in (0, 1):
            raise ValueError(f"mu_order must be 0 or 1, got {mu_order!r}")
        if not (0 <= eps_order <= MAX_ORDER):
            raise ValueError(f"eps_order must be in 0..{MAX_ORDER}, got {eps_order!r}")
        if (mu_order, eps_order) == (0, 0):
            raise ValueError("(0, 0) is the flat operator, not a jet direction")
        return super().__new__(cls, mu_order, eps_order)

    @classmethod
    def _make(cls, iterable) -> JetIndex:  # `_replace` builds through `_make`: check there too
        return cls(*iterable)


ChainOp = tuple[JetIndex, int]


def _omega_cap(j: int) -> tuple[float, int]:
    """Omega_j and s_j at mu*; j + mu* is never 0 for an integer j."""
    r = j + MU_STAR
    return math.sqrt(abs(r)), (1 if r > 0 else -1)


def ent_coeff(ell: JetIndex, kappa: int, source: Mode, target_sigma: int) -> complex:
    """Coupling coefficient of jet ``ell`` from ``source`` to ``(source.j + kappa, target_sigma)``.

    Evaluated at mu = 1/4; exactly zero whenever ``(ell, kappa)`` lies
    outside the supported families described in the module docstring.
    """
    if target_sigma not in (1, -1):
        raise ValueError(f"target_sigma must be +1 or -1, got {target_sigma!r}")
    return _coeff(ell.mu_order, ell.eps_order, kappa, source.j, source.sigma, target_sigma)


@functools.cache
def _coeff(i: int, n: int, kappa: int, j: int, sg: int, sg_t: int) -> complex:
    """`ent_coeff` on plain ints: jet (i, n), source (j, sg), target sigma sg_t."""
    phase = _SQRT_SIGMA[sg] * _SQRT_SIGMA[sg_t].conjugate()

    if (i, n) == (1, 0):
        if kappa != 0:
            return 0j
        om, s = _omega_cap(j)
        return phase / (2.0 * om) * (sg * sg_t * s - (sg + sg_t) * om)

    if not (1 <= n <= (MAX_ORDER if i == 0 else 3)) or abs(kappa) > n or (kappa - n) % 2 != 0:
        return 0j
    om_s, s_s = _omega_cap(j)
    om_t, s_t = _omega_cap(j + kappa)
    p = P_FLOAT[n, kappa]
    if i == 0:
        return 0.25 * phase * math.sqrt(om_t * om_s) * (A_FLOAT[n, kappa] - sg * p * om_s * s_s - sg_t * p * om_t * s_t)
    return -0.25 * phase * (sg * om_t + sg_t * om_s) * p / math.sqrt(om_s * om_t)


# ---------------------------------------------------------------- residues


#: Residue state of a path prefix: (pole count, product of 1/(omega_m - omega*),
#: sum of 1/(omega_m - omega*)), the last two over the non-poles in path order.
_EMPTY = (0, 1.0, 0.0)


@functools.cache
def _gap(j: int, sigma: int) -> Optional[float]:
    """omega_m - omega* of the mode (j, sigma), or None for a pole."""
    return None if Mode(j, sigma) in RESONANT_MODES else omega(j, sigma, MU_STAR) - OMEGA_STAR


def _step(state: Sequence, j: int, sigma: int) -> tuple[int, float, float]:
    """The residue state of a path extended by the mode (j, sigma)."""
    npoles, prod, inv = state
    r = _gap(j, sigma)
    return (npoles + 1, prod, inv) if r is None else (npoles, prod / r, inv + 1.0 / r)


def _factor(state: Sequence, length: int) -> float:
    """The residue of a path of ``length`` modes from its state (`residue`)."""
    npoles, prod, inv = state
    if npoles == 0 or npoles == length >= 2:
        return 0.0
    if npoles > 2:
        raise ValueError(f"{npoles} poles on a path of {length} modes: not covered by the case analysis")
    return prod if npoles == 1 else -inv * prod


def residue(modes: Sequence[Mode]) -> float:
    """Contour-integral factor for a path of ``q+1`` modes at mu = 1/4.

    Equals (-i)^q/(2 pi i) * integral over a small circle around i*omega* of
    the product of the q+1 resolvent factors 1/(lambda - i*omega_m).  Real,
    and invariant under permutations of the modes.  Case analysis:

    * no pole on the path: 0;
    * exactly one pole: product of 1/(omega_m - omega*) over the others;
    * exactly two poles, path longer than 2: -(sum of 1/(omega_m - omega*))
      * (product of 1/(omega_m - omega*)) over the others;
    * every mode a pole (path length >= 2): 0;
    * three or more poles on a longer path: outside the supported case
      analysis (raises ValueError).

    The modes fold by `_step` into the state that `_factor` reads, as in `chain_apply`.
    """
    if len(modes) == 0:
        raise ValueError("residue needs at least one mode")
    state = _EMPTY
    for m in modes:
        state = _step(state, m.j, m.sigma)
    return _factor(state, len(modes))


def residue_contour(modes: Sequence[Mode]) -> complex:
    """Brute-force trapezoid evaluation of the defining contour integral.

    Independent numerical check of `residue`: `_CONTOUR_NODES` nodes on the
    circle of radius `_CONTOUR_RADIUS` about i*omega*.  Every flat frequency
    other than the resonant pair's lies at least 0.618 from omega* (the
    nearest is (1,+)), so the circle encloses exactly `RESONANT_MODES`.
    """
    import numpy as np

    q = len(modes) - 1
    unit = np.exp(2j * math.pi / _CONTOUR_NODES * np.arange(_CONTOUR_NODES))
    lam = 1j * OMEGA_STAR + _CONTOUR_RADIUS * unit
    denom = np.prod([lam - 1j * omega(m.j, m.sigma, MU_STAR) for m in modes], axis=0)
    # (1/(2 pi i)) * sum of dlam/denom with dlam = i * radius * unit * 2 pi/nodes
    return complex((-1j) ** q * _CONTOUR_RADIUS * np.mean(unit / denom))


# ----------------------------------------------------------- chain algebra


def project(vec: dict[Mode, complex], projector: Projector) -> dict[Mode, complex]:
    """Restrict a coefficient vector to the resonant pair (``"P0"``), its
    complement (``"Q0"``), or pass it through (None)."""
    if projector is None:
        return dict(vec)
    if projector == "P0":
        return {m: c for m, c in vec.items() if m in RESONANT_MODES}
    if projector == "Q0":
        return {m: c for m, c in vec.items() if m not in RESONANT_MODES}
    raise ValueError(f"projector must be 'P0', 'Q0' or None, got {projector!r}")


#: The one `Mode` per (j, sigma) that `chain_apply` keys its results by.
_mode = functools.cache(Mode)


@functools.cache
def _paths(ops: tuple[tuple[int, int, int], ...], j: int, sigma: int) -> tuple:
    """(final j, final sigma, product of sign*coupling, *residue state) of every
    path of nonzero couplings of ``ops`` ((mu_order, eps_order, kappa) each) from
    (j, sigma), depth first with + before -: the table of ``ops[:-1]`` extended."""
    if not ops:
        return ((j, sigma, 1.0 + 0j, *_step(_EMPTY, j, sigma)),)
    i, n, kappa = ops[-1]
    out = []
    for jp, sp, acc, *state in _paths(ops[:-1], j, sigma):
        jt = jp + kappa
        for sig in (1, -1):
            c = _coeff(i, n, kappa, jp, sp, sig)
            if c != 0:
                out.append((jt, sig, acc * sig * c, *_step(state, jt, sig)))
    return tuple(out)


def chain_apply(
    ops: Sequence[ChainOp],
    source: Union[Mode, dict[Mode, complex]],
    projector: Projector = None,
) -> dict[Mode, complex]:
    """Coefficients of ``P[ops] source`` on the basis; ``ops[0]`` acts first.
    ``source`` is a basis mode or a coefficient vector, as in `bracket`; each
    path of `_paths` adds its product times its `_factor` to its final mode."""
    if len(ops) == 0:
        raise ValueError("a resolvent chain needs at least one operator")
    if isinstance(source, Mode):
        key = tuple((ell.mu_order, ell.eps_order, kappa) for ell, kappa in ops)
        length = len(ops) + 1
        sums: dict[tuple[int, int], complex] = {}
        for j, sigma, acc, *state in _paths(key, source.j, source.sigma):
            r = _factor(state, length)
            if r != 0.0:
                sums[j, sigma] = sums.get((j, sigma), 0j) + acc * r
        return project({_mode(j, sigma): c for (j, sigma), c in sums.items()}, projector)
    out: dict[Mode, complex] = {}
    for mode, c in source.items():
        if c != 0:
            for final, cc in chain_apply(ops, mode).items():
                out[final] = out.get(final, 0j) + c * cc
    return project(out, projector)


def bracket(
    op: tuple[JetIndex, Optional[int]],
    left: Union[Mode, dict[Mode, complex]],
    right: Union[Mode, dict[Mode, complex]],
) -> complex:
    """Pairing ( B_op left , right ), antilinear in ``right``.

    ``op`` is ``(ell, kappa)``; ``kappa=None`` sums over every harmonic
    shift of the jet ``ell``.  Each side is a basis mode or a coefficient
    vector.  Pairs of modes whose harmonics differ by other than ``kappa``
    contribute exact zeros.
    """
    ell, kappa = op
    left = {left: 1.0 + 0j} if isinstance(left, Mode) else left
    right = {right: 1.0 + 0j} if isinstance(right, Mode) else right
    total = 0j
    for m, c in left.items():
        for t, d in right.items():
            shift = t.j - m.j
            if kappa is None or shift == kappa:
                total += c * d.conjugate() * _coeff(ell.mu_order, ell.eps_order, shift, m.j, m.sigma, t.sigma)
    return total
