"""First high-frequency instability isola of small-amplitude deep-water waves.

The package computes, in closed form, the unstable eigenvalue pair that
bifurcates from the collision of two flat-water frequencies at Floquet
exponent 1/4, and cross-validates every coefficient against an independent
truncated Fourier eigenvalue problem.

Layers, bottom up:

* `stokes`       -- exact harmonic tables of the wave profiles, the
                    flat dispersion relation and the collision point;
* `basis`        -- mode labels and branch convention of the flat
                    problem's symplectic eigenbasis;
* `entanglement` -- mode-coupling coefficients, residue calculus, the
                    resolvent-chain algebra and its one pairing, `bracket`;
* `jets`         -- the declarative table of named brackets, evaluated once
                    into the term ledger and the reduced 2x2 matrix jet;
* `instability`  -- closed-form isola: one `Isola` record (band, peak
                    growth rate, ellipse), eigenvalues, stability criterion;
* `floquet`      -- the independent truncated-Fourier eigenvalue oracle;
* `closed_forms` -- hand-written exact values of every ledger term and
                    derived constant, which `verify` and the tests check
                    against;
* `cli`          -- the ``stokes-isola`` command.
"""

from .basis import Mode
from .entanglement import (
    JetIndex,
    bracket,
    chain_apply,
    ent_coeff,
    residue,
    residue_contour,
)
from .floquet import (
    ConvergenceRow,
    DiscretizedOperator,
    IsolaMeasurement,
    SpectrumPoint,
    SpectrumSample,
    TrackingFailure,
    build,
    convergence_check,
    measure_isola,
    spectrum,
    trace_isola,
)
from .instability import (
    EigenPair,
    Isola,
    discriminant,
    eigenvalues,
    instability_criterion,
    isola,
    stokes_beta_sequence,
    trace_shift,
)
from .jets import (
    ReducedJet,
    assemble_reduced_jet,
    beta3_projector_route,
    term_ledger,
)
from .stokes import omega

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "JetIndex",
    "bracket",
    "chain_apply",
    "ent_coeff",
    "residue",
    "residue_contour",
    "ReducedJet",
    "assemble_reduced_jet",
    "beta3_projector_route",
    "term_ledger",
    "EigenPair",
    "Isola",
    "discriminant",
    "eigenvalues",
    "instability_criterion",
    "isola",
    "stokes_beta_sequence",
    "trace_shift",
    "ConvergenceRow",
    "DiscretizedOperator",
    "IsolaMeasurement",
    "SpectrumPoint",
    "SpectrumSample",
    "TrackingFailure",
    "build",
    "convergence_check",
    "measure_isola",
    "spectrum",
    "trace_isola",
    "omega",
    "__version__",
]
