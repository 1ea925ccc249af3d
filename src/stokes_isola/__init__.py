"""First high-frequency instability isola of small-amplitude deep-water waves.

The package computes, in closed form, the unstable eigenvalue pair that
bifurcates from the collision of two flat-water frequencies at Floquet
exponent 1/4, and cross-validates every coefficient against an independent
truncated Fourier eigenvalue problem.

Layers, bottom up:

* `stokes`       -- exact harmonic tables of the wave profiles, the
                    flat dispersion relation and the collision point;
* `closed_forms` -- hand-written exact values of every ledger term and
                    derived constant, which `verify` and the tests check
                    against, and the oracle starts from;
* `entanglement` -- mode labels ``(j, sigma)`` and branch convention of the
                    flat problem's symplectic eigenbasis, mode-coupling
                    coefficients, residue calculus, the resolvent-chain
                    algebra and its one pairing, `bracket`;
* `jets`         -- the declarative table of named brackets, evaluated once
                    into the term ledger and the reduced 2x2 matrix jet;
* `instability`  -- the closed-form 2x2 model: one `Isola` record (band,
                    peak growth rate, ellipse; D, trace and eigenvalue
                    pair at any nu), stability criterion;
* `floquet`      -- the independent truncated-Fourier eigenvalue oracle;
* `cli`          -- the ``stokes-isola`` command.

The package re-exports each module's ``__all__``, the one list of its public
names; ``__all__`` here is their concatenation plus ``__version__``.
"""

from .entanglement import *
from .floquet import *
from .instability import *
from .jets import *
from .stokes import *
from . import entanglement, floquet, instability, jets, stokes

__version__ = "0.1.0"

__all__ = [
    *entanglement.__all__,
    *floquet.__all__,
    *instability.__all__,
    *jets.__all__,
    *stokes.__all__,
    "__version__",
]
