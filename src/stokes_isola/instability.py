"""Closed-form description of the first high-frequency instability isola.

Everything here is elementary algebra on a `ReducedJet`: the eigenvalues of
the reduced 2x2 matrix near the collision frequency omega* = 3/4 are

    lambda_pm(mu, eps) = (i/2) * S(nu, eps) +- (1/2) * sqrt(D(nu, eps)),

    nu := mu - mu0(eps),     mu0(eps) = mu* - (T2/T1) * eps^2,

with S the (truncated) imaginary trace along the critical curve and D the
discriminant.  Instability (an eigenvalue with positive real part) happens
exactly where D > 0; the unstable set in mu is an interval of width
O(eps^4) centered near mu0, and the unstable eigenvalue sweeps an ellipse
with vertical/horizontal axis ratio (gamma1 - alpha1)/T1.

For the deep-water Stokes jet the quadratic gap coefficient beta1 vanishes
and the isola is controlled by the effective quartic coefficient
beta3_eff = beta3 - beta2*T2/T1 = 37*sqrt(3)/512.  Only this degenerate
case, beta1 = 0, is modelled: any coefficient set with beta1 = 0 can be
passed in, and the isola formulas raise `ValueError` for |beta1| > 1e-12
(the order-eps^2 isola of finite depth) rather than return a wrong size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .jets import ReducedJet
from .stokes import MU_STAR, OMEGA_STAR

__all__ = [
    "CriticalCurves",
    "EigenPair",
    "GrowthRate",
    "EllipseParams",
    "critical_curves",
    "discriminant",
    "trace_shift",
    "eigenvalues",
    "max_growth_rate",
    "ellipse",
    "instability_criterion",
    "stokes_beta_sequence",
]

#: D values within this window of zero are treated as an exact collision.
_COLLISION_ATOL = 1e-14

#: Largest |beta1| the degenerate (order-eps^4) formulas accept.
_BETA1_TOL = 1e-12


def _require_degenerate(jet: ReducedJet) -> None:
    if abs(jet.beta1) > _BETA1_TOL:
        raise ValueError(
            f"beta1 = {jet.beta1!r}: only the degenerate case beta1 = 0 is modelled"
        )


@dataclass(frozen=True)
class CriticalCurves:
    """Truncated polynomial maps eps -> mu delimiting the unstable band.

    ``mu0`` is the center curve (where the trace of the reduced matrix
    vanishes), and ``nu_plus``/``nu_minus`` are the lower/upper boundary
    curves relative to it: the band is mu0 + nu_plus <= mu <= mu0 + nu_minus,
    with nu_plus(eps) <= 0 <= nu_minus(eps).
    """

    mu0: Polynomial
    nu_plus: Polynomial
    nu_minus: Polynomial

    def width(self, eps: float) -> float:
        """Band width nu_minus - nu_plus, which cancels no digits."""
        return float(self.nu_minus(eps) - self.nu_plus(eps))


def critical_curves(jet: ReducedJet) -> CriticalCurves:
    """Center and boundary curves of the unstable band of ``jet``.

    The boundaries are the leading-order roots in nu of the discriminant,
    nu = -+ 2*|beta3_eff|/T1 * eps^4.
    """
    _require_degenerate(jet)
    t1 = jet.T1
    if t1 == 0:
        raise ValueError("T1 = alpha1 + gamma1 must be nonzero")
    half = 2.0 * abs(jet.beta3_eff) / abs(t1)
    return CriticalCurves(
        mu0=Polynomial([MU_STAR, 0.0, -jet.T2 / t1]),
        nu_plus=Polynomial([0.0, 0.0, 0.0, 0.0, -half]),
        nu_minus=Polynomial([0.0, 0.0, 0.0, 0.0, half]),
    )


def discriminant(jet: ReducedJet, nu, eps: float):
    """Discriminant D(nu, eps) of the reduced eigenvalue problem.

    Positive inside the isola, negative outside.  The modeled form keeps
    exactly the three terms that matter through order eps^8,

        D = 4*beta3_eff^2*eps^8 - T1^2*nu^2 + 8*beta2*beta3_eff*nu*eps^6.

    ``nu`` may be a scalar or ndarray.
    """
    _require_degenerate(jet)
    t1 = jet.T1
    b3h = jet.beta3_eff
    return (
        4.0 * b3h * b3h * eps**8
        - t1 * t1 * np.square(nu)
        + 8.0 * jet.beta2 * b3h * nu * eps**6
    )


def trace_shift(jet: ReducedJet, nu, eps: float):
    """Truncated imaginary trace S(nu, eps): sum of the two eigenvalues is i*S.

    S = 2*omega* + (gamma1 - alpha1)*nu
        + ((gamma2 - alpha2) - (gamma1 - alpha1)*T2/T1) * eps^2.
    """
    d1 = jet.gamma1 - jet.alpha1
    d2 = (jet.gamma2 - jet.alpha2) - d1 * jet.T2 / jet.T1
    return 2.0 * OMEGA_STAR + d1 * nu + d2 * eps**2


@dataclass(frozen=True)
class EigenPair:
    """The two eigenvalues split off the collision, plus where they sit:
    ``regime`` is "inside-isola" (D > 0, symmetric real parts), "outside"
    (D < 0, purely imaginary) or "collision" (D ~ 0, double eigenvalue)."""

    lambda_plus: complex
    lambda_minus: complex
    regime: str


def eigenvalues(jet: ReducedJet, mu: float, eps: float) -> EigenPair:
    """Eigenvalue pair at Floquet exponent ``mu`` and amplitude ``eps``.

    lambda_pm = i*S/2 +- sqrt(D)/2 with the principal square root, so that
    inside the isola lambda_plus carries the positive real part and outside
    it carries the larger imaginary part.  The pair sum is exactly i*S
    (purely imaginary) and the product is -(S^2 + D)/4.
    """
    nu = mu - (MU_STAR - jet.T2 / jet.T1 * eps**2)
    d = float(discriminant(jet, nu, eps))
    s = float(trace_shift(jet, nu, eps))
    threshold = _COLLISION_ATOL * max(1.0, eps**8)
    half_trace = 0.5j * s
    if abs(d) <= threshold:
        return EigenPair(half_trace, half_trace, "collision")
    root = 0.5 * cmath.sqrt(complex(d, 0.0))
    regime = "inside-isola" if d > 0 else "outside"
    return EigenPair(half_trace + root, half_trace - root, regime)


class GrowthRate(NamedTuple):
    """Peak growth rate of the isola and the nu-offset where it is attained."""

    re_max: float
    nu_re: float


def max_growth_rate(jet: ReducedJet, eps: float) -> GrowthRate:
    """Maximum real part over the isola, to leading order:
    re_max = |beta3_eff|*eps^4, attained at nu = 4*(beta2/T1^2)*beta3_eff*eps^6
    (the stationary point of D).
    """
    _require_degenerate(jet)
    return GrowthRate(
        re_max=abs(jet.beta3_eff) * eps**4,
        nu_re=4.0 * jet.beta2 * jet.beta3_eff * eps**6 / (jet.T1 * jet.T1),
    )


@dataclass(frozen=True)
class EllipseParams:
    """The curve swept by the unstable eigenvalue, to leading order an
    ellipse centered on the imaginary axis at ``center_im``."""

    center_im: float
    semi_re: float
    semi_im: float

    @property
    def axis_ratio(self) -> float:
        return self.semi_im / self.semi_re if self.semi_re != 0 else math.nan


def ellipse(jet: ReducedJet, eps: float) -> EllipseParams:
    """Leading-order ellipse traced by lambda_plus as mu crosses the isola.

    center = (0, omega* + ((gamma2 - alpha2)/2 - (gamma1 - alpha1)*T2/(2*T1)) * eps^2),
    horizontal semi-axis |beta3_eff|*eps^4, vertical semi-axis
    (gamma1 - alpha1)/T1 times larger.  At eps = 0 the ellipse degenerates
    to the collision point (0, omega*).  Requires gamma1 != alpha1 (otherwise
    the vertical extent of the curve is not resolved at this order).
    """
    _require_degenerate(jet)
    d1 = jet.gamma1 - jet.alpha1
    if d1 == 0:
        raise ValueError("gamma1 == alpha1: ellipse axes not resolved at this order")
    center_im = OMEGA_STAR + (
        (jet.gamma2 - jet.alpha2) / 2.0 - d1 * jet.T2 / (2.0 * jet.T1)
    ) * eps**2
    semi_re = abs(jet.beta3_eff) * eps**4
    semi_im = abs(d1 / jet.T1) * semi_re
    return EllipseParams(center_im=float(center_im), semi_re=semi_re, semi_im=semi_im)


def instability_criterion(betas: Sequence[float], tol: float = 1e-12) -> str:
    """Classify stability from the effective gap coefficients.

    ``betas[i]`` is the coefficient opening the spectral gap at order
    eps^(i+2); the first one above tolerance decides.  Returns
    "unstable-at-order-<n>" for the first index with |betas[i]| > tol
    (n = i + 2), else "stable-to-order-<len(betas)>".
    """
    for i, b in enumerate(betas):
        if abs(b) > tol:
            return f"unstable-at-order-{i + 2}"
    return f"stable-to-order-{len(betas)}"


def stokes_beta_sequence(jet: ReducedJet) -> tuple[float, float, float]:
    """Effective gap coefficients (orders eps^2, eps^3, eps^4) of ``jet``.

    The cubic slot is identically zero: the profile's reflection parity
    kills every odd-order coupling between the two resonant modes.
    """
    return (jet.beta1, 0.0, jet.beta3_eff)
