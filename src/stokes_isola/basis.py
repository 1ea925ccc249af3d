"""Labels and branch convention of the flat operator's symplectic eigenbasis.

For ``j + mu != 0`` the mode ``(j, sigma)`` labels the eigenvector

    f_j^sigma(mu) = (2*Omega_j)^(-1/2) * ( -sqrt(sigma)*Omega_j , sqrt(-sigma) ) e^{i j x},

with the branch convention sqrt(+1) = 1, sqrt(-1) = i.  The vectors are
normalized so that the complex symplectic pairing

    W(f, g) = f[1]*conj(g[0]) - f[0]*conj(g[1])      (same harmonic j)

equals -i on (+,+) diagonal pairs, +i on (-,-) pairs, and 0 otherwise.

The reversibility involution acts on a single-harmonic component vector
(c1, c2) as (conj(c1), -conj(c2)); the basis vectors are eigenvectors of it
with sign sigma.  The vectors themselves are never formed: the coupling
coefficients of `entanglement.ent_coeff` are their pairings in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Mode"]


@dataclass(frozen=True, order=True)
class Mode:
    """A Fourier harmonic ``j`` together with a branch sign ``sigma``."""

    j: int
    sigma: int

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma!r}")

    def __repr__(self) -> str:  # compact: (2,+) instead of Mode(j=2, sigma=1)
        return f"({self.j},{'+' if self.sigma > 0 else '-'})"


def sqrt_sigma(sigma: int) -> complex:
    """Branch convention sqrt(+1) = 1, sqrt(-1) = i."""
    if sigma == 1:
        return 1.0 + 0.0j
    if sigma == -1:
        return 1j
    raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
