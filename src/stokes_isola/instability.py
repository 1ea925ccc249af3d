"""Closed-form description of the first high-frequency instability isola.

Everything here is elementary algebra on a `ReducedJet`: the eigenvalues of
the reduced 2x2 matrix near the collision frequency omega* = 3/4 are

    lambda_pm(mu, eps) = (i/2) * S(nu, eps) +- (1/2) * sqrt(D(nu, eps)),

    nu := mu - mu0(eps),     mu0(eps) = mu* - (T2/T1) * eps^2,

with S the (truncated) imaginary trace along the critical curve and D the
discriminant.  Instability (an eigenvalue with positive real part) happens
exactly where D > 0; the unstable set in mu is an interval of width
O(eps^4) centered near mu0, and the unstable eigenvalue sweeps an ellipse
with vertical/horizontal axis ratio (gamma1 - alpha1)/T1.  The whole model
at one eps is one record, `Isola`, built by `isola(jet, eps)`: its fields
hold the band, the peak growth rate, the ellipse and the coefficients of D
and S, and its methods answer D, S and the eigenvalue pair at any nu.

For the deep-water Stokes jet the quadratic gap coefficient beta1 vanishes
and the isola is controlled by the effective quartic coefficient
beta3_eff = beta3 - beta2*T2/T1 = 37*sqrt(3)/512.  Only this degenerate
case, beta1 = 0, is modelled: any coefficient set with beta1 = 0 can be
passed in, and `isola` raises `ValueError` for |beta1| > `_BETA_ZERO`
(the order-eps^2 isola of finite depth) rather than return a wrong size.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .jets import ReducedJet
from .stokes import MU_STAR, OMEGA_STAR

__all__ = [
    "EigenPair",
    "Isola",
    "isola",
    "instability_criterion",
    "stokes_beta_sequence",
]

#: D values within this fraction of D's peak, 4*beta3_eff^2*eps^8, of zero
#: are treated as an exact collision.
_COLLISION_RTOL = 1e-9

#: Largest |beta| that counts as zero, in `isola` and `instability_criterion`.
_BETA_ZERO = 1e-12


class EigenPair(NamedTuple):
    """The two eigenvalues split off the collision, plus where they sit:
    ``regime`` is "inside-isola" (D > 0, symmetric real parts), "outside"
    (D < 0, purely imaginary) or "collision" (D ~ 0, double eigenvalue)."""

    lambda_plus: complex
    lambda_minus: complex
    regime: str


class Isola(NamedTuple):
    """The reduced 2x2 model at one amplitude, and its isola to leading order.

    The unstable band is mu0 + nu_plus <= mu <= mu0 + nu_minus, with
    nu_plus <= 0 <= nu_minus, about the center curve ``mu0`` where the trace
    of the reduced matrix vanishes.  The growth rate peaks at ``re_max`` at
    mu0 + ``nu_re``.  lambda_plus sweeps an ellipse centered on the imaginary
    axis at ``im_center``, with horizontal semi-axis ``re_max`` and vertical
    semi-axis ``semi_im``.  `floquet.IsolaMeasurement` shares ``re_max`` and
    ``im_center``; its ``mu_left``, ``mu_right``, ``mu_at_max`` and ``mu_width``
    are mu0 + nu_plus, mu0 + nu_minus, mu0 + nu_re and ``width`` here.

    The last four fields are the model's coefficients in nu = mu - mu0:
    D = d_peak - t1_sq*nu^2 + d_cross*nu and S = 2*im_center + d1*nu.
    """

    mu0: float
    nu_plus: float
    nu_minus: float
    re_max: float
    nu_re: float
    im_center: float
    semi_im: float
    d_peak: float
    t1_sq: float
    d_cross: float
    d1: float

    @property
    def width(self) -> float:
        """Band width nu_minus - nu_plus, which cancels no digits."""
        return self.nu_minus - self.nu_plus

    @property
    def axis_ratio(self) -> float:
        return self.semi_im / self.re_max if self.re_max != 0 else math.nan

    @property
    def mu_at_max(self) -> float:
        return self.mu0 + self.nu_re

    def discriminant(self, nu):
        """D at ``nu`` (a scalar or ndarray): positive inside the isola,
        negative outside.  It keeps exactly the three terms that matter
        through order eps^8."""
        return self.d_peak - self.t1_sq * (nu * nu) + self.d_cross * nu

    def trace(self, nu):
        """Truncated imaginary trace S at ``nu``: the pair sums to i*S."""
        return 2.0 * self.im_center + self.d1 * nu

    def eigenvalues(self, nu: float) -> EigenPair:
        """Eigenvalue pair at ``nu``.

        lambda_pm = i*S/2 +- sqrt(D)/2 with the principal square root, so
        that inside the isola lambda_plus carries the positive real part and
        outside it carries the larger imaginary part.  The pair sum is
        exactly i*S (purely imaginary) and the product is -(S^2 + D)/4.
        """
        d = self.discriminant(nu)
        half_trace = 0.5j * self.trace(nu)
        if abs(d) <= _COLLISION_RTOL * self.d_peak:
            return EigenPair(half_trace, half_trace, "collision")
        root = 0.5 * cmath.sqrt(complex(d, 0.0))
        regime = "inside-isola" if d > 0 else "outside"
        return EigenPair(half_trace + root, half_trace - root, regime)


def isola(jet: ReducedJet, eps: float) -> Isola:
    """Reduced model and leading-order isola of ``jet`` at amplitude ``eps``.

    mu0 = mu* - (T2/T1)*eps^2.  The band edges are the leading-order roots in
    nu of the discriminant, nu = -+ 2*|beta3_eff|/T1 * eps^4.  The peak
    growth rate re_max = |beta3_eff|*eps^4 sits at the stationary point of D,
    nu_re = 4*(beta2/T1^2)*beta3_eff*eps^6.  The ellipse is centered at
    omega* + ((gamma2 - alpha2)/2 - (gamma1 - alpha1)*T2/(2*T1)) * eps^2, and
    its vertical semi-axis is (gamma1 - alpha1)/T1 times re_max.  At eps = 0
    the isola degenerates to the collision point (mu*, omega*).

    Raises ValueError if |beta1| > `_BETA_ZERO` (only the degenerate case is
    modelled), if T1 = 0, or if gamma1 == alpha1 (the vertical extent of the
    ellipse is then not resolved at this order).
    """
    if abs(jet.beta1) > _BETA_ZERO:
        raise ValueError(
            f"beta1 = {jet.beta1!r}: only the degenerate case beta1 = 0 is modelled"
        )
    t1 = jet.T1
    if t1 == 0:
        raise ValueError("T1 = alpha1 + gamma1 must be nonzero")
    d1 = jet.gamma1 - jet.alpha1
    if d1 == 0:
        raise ValueError("gamma1 == alpha1: ellipse axes not resolved at this order")
    half = 2.0 * abs(jet.beta3_eff) / abs(t1)
    re_max = abs(jet.beta3_eff) * eps**4
    # (c*eps)*eps rather than c*eps**2 rounds as the goldens in tests/data
    # pin; `0.0 +` keeps the edges +0.0 at eps = 0
    return Isola(
        mu0=MU_STAR + -jet.T2 / t1 * eps * eps,
        nu_plus=0.0 + -half * eps * eps * eps * eps,
        nu_minus=0.0 + half * eps * eps * eps * eps,
        re_max=re_max,
        nu_re=4.0 * jet.beta2 * jet.beta3_eff * eps**6 / (jet.T1 * jet.T1),
        im_center=OMEGA_STAR + (
            (jet.gamma2 - jet.alpha2) / 2.0 - d1 * jet.T2 / (2.0 * jet.T1)
        ) * eps**2,
        semi_im=abs(d1 / jet.T1) * re_max,
        d_peak=4.0 * jet.beta3_eff**2 * eps**8,
        t1_sq=t1 * t1,
        d_cross=8.0 * jet.beta2 * jet.beta3_eff * eps**6,
        d1=d1,
    )


def instability_criterion(betas: Sequence[float]) -> str:
    """Classify stability from the effective gap coefficients.

    ``betas[i]`` is the coefficient opening the spectral gap at order
    eps^(i+2); the first one that is not zero (above `_BETA_ZERO`) decides.
    Returns "unstable-at-order-<n>" for that index (n = i + 2), else
    "stable-to-order-<len(betas)>".
    """
    for i, b in enumerate(betas):
        if abs(b) > _BETA_ZERO:
            return f"unstable-at-order-{i + 2}"
    return f"stable-to-order-{len(betas)}"


def stokes_beta_sequence(jet: ReducedJet) -> tuple[float, float, float]:
    """Effective gap coefficients (orders eps^2, eps^3, eps^4) of ``jet``.

    The cubic slot is identically zero: the profile's reflection parity
    kills every odd-order coupling between the two resonant modes.
    """
    return (jet.beta1, 0.0, jet.beta3_eff)
