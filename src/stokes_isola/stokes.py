"""Small-amplitude Stokes-wave expansion data, the linear dispersion relation
and the collision point of the isola.

Conventions used across the package (deep water; gravity, wavenumber and
wave speed scaled to one; frequencies taken in the frame moving with the
wave):

* The wave profiles entering the linearized operator are written as cosine
  series

      c(x) = sum_{n>=1} eps^n * ( c_n[0]/2 + sum_{k>=1} c_n[k] cos(k x) ),

  with integer-or-rational coefficients ``c_n[k]`` tabulated up to n = 4.
  Coefficients are even in k (``c_n[-k] = c_n[k]``) and vanish unless
  ``k = n (mod 2)`` and ``|k| <= n``.

* Dispersion: Omega_j(mu) = sqrt(|j + mu|) and

      omega_j^sigma(mu) = j + mu - sigma * Omega_j(mu),   sigma = +-1.

* Collision: at the Floquet exponent mu* = 1/4 the flat frequencies of the
  modes (0,-) and (2,+) coincide at omega* = 3/4, the double eigenvalue
  i*omega* from which the isola branches off.
"""

from __future__ import annotations

import math
import operator

__all__ = ["omega"]

MAX_ORDER = 4

#: The collision: omega_0^-(MU_STAR) = omega_2^+(MU_STAR) = OMEGA_STAR, both
#: exact in binary (as are sqrt(1/4) and sqrt(9/4)).
MU_STAR = 0.25
OMEGA_STAR = 0.75

# Harmonic tables c_n[|k|] for the two profiles ("p" multiplies the transport
# part of the operator, "a" the zeroth-order part), each an exact ratio
# (numerator, denominator) of ints.  Keys: (n, |k|); the tables hold every
# nonzero, so an absent key is a zero coefficient.
_P_TABLE: dict[tuple[int, int], tuple[int, int]] = {
    (1, 1): (-2, 1),
    (2, 0): (3, 1),
    (2, 2): (-2, 1),
    (3, 1): (3, 1),
    (3, 3): (-3, 1),
    (4, 0): (1, 4),
    (4, 2): (4, 1),
    (4, 4): (-16, 3),
}

_A_TABLE: dict[tuple[int, int], tuple[int, int]] = {
    (1, 1): (-2, 1),
    (2, 0): (4, 1),
    (2, 2): (-2, 1),
    (3, 1): (4, 1),
    (3, 3): (-3, 1),
    (4, 0): (-2, 1),
    (4, 2): (4, 1),
    (4, 4): (-16, 3),
}

#: The tables as floats, computed once: (n, kappa) -> c_n[kappa], correctly
#: rounded (int true division), for n = 1..MAX_ORDER and every kappa in -n..n,
#: zeros included, in that order.
P_FLOAT, A_FLOAT = (
    {(n, k): operator.truediv(*table.get((n, abs(k)), (0, 1)))
     for n in range(1, MAX_ORDER + 1) for k in range(-n, n + 1)}
    for table in (_P_TABLE, _A_TABLE)
)


def omega(j: int, sigma: int, mu: float) -> float:
    """Unperturbed frequency ``j + mu - sigma*sqrt(|j + mu|)``."""
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
    return j + mu - sigma * math.sqrt(abs(j + mu))

