"""First high-frequency instability isola of small-amplitude deep-water waves.

The package computes, in closed form, the unstable eigenvalue pair that
bifurcates from the collision of two flat-water frequencies at Floquet
exponent 1/4, and cross-validates every coefficient against an independent
truncated Fourier eigenvalue problem.

Layers, bottom up:

* `stokes`       -- exact small-amplitude expansions of the wave profiles
                    and the flat dispersion relation;
* `basis`        -- the symplectic eigenbasis of the flat problem;
* `entanglement` -- mode-coupling coefficients, residue calculus, and the
                    resolvent-chain algebra;
* `jets`         -- the named-term catalog assembling the reduced 2x2
                    matrix jet;
* `instability`  -- closed-form isola: critical curves, eigenvalues,
                    growth rate, ellipse, stability criterion;
* `floquet`      -- the independent truncated-Fourier eigenvalue oracle;
* `cli`          -- the ``stokes-isola`` command.
"""

from .basis import Mode, basis_vector, reversibility_image, symplectic_pairing
from .entanglement import (
    JetIndex,
    chain_apply,
    chain_bracket,
    ent_coeff,
    projected_chain,
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
    CriticalCurves,
    EigenPair,
    EllipseParams,
    GrowthRate,
    ValidityBox,
    critical_curves,
    discriminant,
    eigenvalues,
    ellipse,
    instability_criterion,
    max_growth_rate,
    stokes_beta_sequence,
    trace_shift,
)
from .jets import (
    ReducedJet,
    assemble_reduced_jet,
    beta3_projector_route,
    term_ledger,
)
from .stokes import Collision, collision_frequency, eval_profile, omega

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "basis_vector",
    "reversibility_image",
    "symplectic_pairing",
    "JetIndex",
    "chain_apply",
    "chain_bracket",
    "ent_coeff",
    "projected_chain",
    "residue",
    "residue_contour",
    "ReducedJet",
    "assemble_reduced_jet",
    "beta3_projector_route",
    "term_ledger",
    "CriticalCurves",
    "EigenPair",
    "EllipseParams",
    "GrowthRate",
    "ValidityBox",
    "critical_curves",
    "discriminant",
    "eigenvalues",
    "ellipse",
    "instability_criterion",
    "max_growth_rate",
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
    "Collision",
    "collision_frequency",
    "eval_profile",
    "omega",
    "__version__",
]
