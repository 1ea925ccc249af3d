"""Assembly of the reduced 2x2 matrix jet on the resonant pair.

Near the collision of the flat frequencies of the modes (0,-) and (2,+) at
omega* = 3/4 (Floquet exponent 1/4), the linearized operator restricted to
its two-dimensional invariant subspace is represented by a Hermitian matrix

    [ alpha(mu,eps)   beta(mu,eps) ]
    [ conj(beta)      gamma(mu,eps) ]

whose entries expand in delta = mu - 1/4 and the amplitude eps as

    alpha = -omega_2^+(1/4 + delta) + alpha2*eps^2 + ...
    gamma =  omega_0^-(1/4 + delta) + gamma2*eps^2 + ...
    beta  = beta1*eps^2 + beta2*delta*eps^2 + beta3*eps^4 + ...

(all odd-eps and mixed terms through the computed order vanish by harmonic
parity).  Every Taylor coefficient is a finite sum of resolvent-chain
brackets.  `_CATALOG` is the one table of them: a row per named addend with
its chain, projector, pairing slot and weight.  The rows are evaluated once
per process, on first use, into the term ledger (`term_ledger`), and each
coefficient of `assemble_reduced_jet` is the weighted sum of its rows.  Two
independent routes to the quartic off-diagonal coefficient are provided:
the 26 weighted ``beta3`` rows plus the loop-back correction, and a
mechanical expansion through composite spectral projectors
(`beta3_projector_route`), whose chains are generated from their rule,
every composition of the order into jets (0, n) with every shift of the
parity of n (`_composite_projector_chains`), not listed by hand; they must
agree to near machine precision and the test suite enforces that.

The term keys (e.g. ``"beta2.iiic"``, ``"beta3.vd"``) follow the natural
enumeration of the catalog: roman-ish groups by chain topology, with
``_dual`` marking the evaluation of its partner's chain from the other slot
of the pairing (the two differ exactly by resonant-pair loop-backs) and
``beta3.loopback`` the boundary correction assembled from the resonant
loop coefficients ``beta3.loop_up`` / ``beta3.loop_down``.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, Union

from .entanglement import (
    RESONANT_MODES,
    ChainOp,
    JetIndex,
    Mode,
    bracket,
    chain_apply,
    ent_coeff,
    project,
)

__all__ = [
    "ReducedJet",
    "term_ledger",
    "beta3_projector_route",
    "assemble_reduced_jet",
]

# Jet directions appearing through quartic order.
B10 = JetIndex(1, 0)
B01 = JetIndex(0, 1)
B11 = JetIndex(1, 1)
B02 = JetIndex(0, 2)
B12 = JetIndex(1, 2)
B03 = JetIndex(0, 3)
B04 = JetIndex(0, 4)

LOW, HIGH = RESONANT_MODES


# ------------------------------------------------------------- term catalog

_DIRECT, _DUAL = "direct", "dual"

#: One row per named bracket: (name, source, target, chain in application
#: order, projector on the intermediate vector, slot, weight).  A direct row
#: pairs ( B_last Proj P[chain[:-1]] f_source , f_target ); a dual row pairs
#: ( B_first f_source , Proj P[reversed, harmonic-negated chain[1:]] f_target ),
#: the same chain evaluated from the other slot.  A one-operator row is the
#: bare coupling.  A jet coefficient is the weighted sum of the rows named
#: after it; a direct/dual pair enters through its half-sum.
_CATALOG: tuple[tuple, ...] = (
    ("alpha2.a", HIGH, HIGH, ((B02, 0),), None, _DIRECT, 1.0),
    ("alpha2.b", HIGH, HIGH, ((B01, -1), (B01, +1)), None, _DIRECT, 1.0),
    ("alpha2.c", HIGH, HIGH, ((B01, +1), (B01, -1)), None, _DIRECT, 1.0),
    ("beta1.a", LOW, HIGH, ((B02, +2),), None, _DIRECT, 1.0),
    ("beta1.b", LOW, HIGH, ((B01, +1), (B01, +1)), None, _DIRECT, 1.0),
    ("gamma2.a", LOW, LOW, ((B02, 0),), None, _DIRECT, 1.0),
    ("gamma2.b", LOW, LOW, ((B01, -1), (B01, +1)), None, _DIRECT, 1.0),
    ("gamma2.c", LOW, LOW, ((B01, +1), (B01, -1)), None, _DIRECT, 1.0),
    ("beta2.theta", LOW, HIGH, ((B12, +2),), None, _DIRECT, 1.0),
    ("beta2.i", LOW, HIGH, ((B01, +1), (B11, +1)), None, _DIRECT, 1.0),
    ("beta2.ii", LOW, HIGH, ((B10, 0), (B02, +2)), None, _DIRECT, 1.0),
    ("beta2.iiia", LOW, HIGH, ((B11, +1), (B01, +1)), None, _DIRECT, 1.0),
    ("beta2.iiib", LOW, HIGH, ((B01, +1), (B10, 0), (B01, +1)), None, _DIRECT, 1.0),
    ("beta2.iiic", LOW, HIGH, ((B10, 0), (B01, +1), (B01, +1)), "Q0", _DUAL, 0.5),
    ("beta2.iiid", LOW, HIGH, ((B10, 0), (B01, +1), (B01, +1)), None, _DIRECT, 0.5),
    ("beta2.iva", LOW, HIGH, ((B02, +2), (B10, 0)), "Q0", _DIRECT, 1.0),
    ("beta2.ivb", LOW, HIGH, ((B01, +1), (B01, +1), (B10, 0)), "Q0", _DIRECT, 0.5),
    ("beta2.ivc", LOW, HIGH, ((B01, +1), (B01, +1), (B10, 0)), None, _DUAL, 0.5),
    ("beta3.theta", LOW, HIGH, ((B04, +2),), None, _DIRECT, 1.0),
    ("beta3.i", LOW, HIGH, ((B01, +1), (B03, +1)), None, _DIRECT, 1.0),
    ("beta3.ii", LOW, HIGH, ((B01, -1), (B03, +3)), None, _DIRECT, 1.0),
    ("beta3.iiia", LOW, HIGH, ((B02, +2), (B02, 0)), "Q0", _DIRECT, 1.0),
    ("beta3.iiib", LOW, HIGH, ((B01, +1), (B01, +1), (B02, 0)), "Q0", _DIRECT, 0.5),
    ("beta3.iiib_dual", LOW, HIGH, ((B01, +1), (B01, +1), (B02, 0)), None, _DUAL, 0.5),
    ("beta3.iva", LOW, HIGH, ((B02, 0), (B02, +2)), "Q0", _DIRECT, 1.0),
    ("beta3.ivb", LOW, HIGH, ((B01, -1), (B01, +1), (B02, +2)), "Q0", _DIRECT, 0.5),
    ("beta3.ivb_dual", LOW, HIGH, ((B01, -1), (B01, +1), (B02, +2)), None, _DUAL, 0.5),
    ("beta3.ivc", LOW, HIGH, ((B01, +1), (B01, -1), (B02, +2)), "Q0", _DIRECT, 0.5),
    ("beta3.ivc_dual", LOW, HIGH, ((B01, +1), (B01, -1), (B02, +2)), None, _DUAL, 0.5),
    ("beta3.va", LOW, HIGH, ((B03, +1), (B01, +1)), None, _DIRECT, 1.0),
    ("beta3.vb", LOW, HIGH, ((B01, +1), (B02, 0), (B01, +1)), None, _DIRECT, 1.0),
    ("beta3.vc", LOW, HIGH, ((B02, 0), (B01, +1), (B01, +1)), "Q0", _DUAL, 0.5),
    ("beta3.vc_dual", LOW, HIGH, ((B02, 0), (B01, +1), (B01, +1)), None, _DIRECT, 0.5),
    ("beta3.vd", LOW, HIGH, ((B01, -1), (B02, +2), (B01, +1)), None, _DIRECT, 1.0),
    ("beta3.ve", LOW, HIGH, ((B02, +2), (B01, -1), (B01, +1)), "Q0", _DUAL, 0.5),
    ("beta3.ve_dual", LOW, HIGH, ((B02, +2), (B01, -1), (B01, +1)), None, _DIRECT, 0.5),
    ("beta3.vf", LOW, HIGH, ((B01, +1), (B01, +1), (B01, -1), (B01, +1)), None, _DIRECT, 1.0),
    ("beta3.vg", LOW, HIGH, ((B01, +1), (B01, -1), (B01, +1), (B01, +1)), None, _DIRECT, 1.0),
    ("beta3.vh", LOW, HIGH, ((B01, -1), (B01, +1), (B01, +1), (B01, +1)), None, _DIRECT, 1.0),
    ("beta3.via", LOW, HIGH, ((B03, +3), (B01, -1)), None, _DIRECT, 1.0),
    ("beta3.vib", LOW, HIGH, ((B01, +1), (B02, +2), (B01, -1)), None, _DIRECT, 1.0),
    ("beta3.vic", LOW, HIGH, ((B02, +2), (B01, +1), (B01, -1)), "Q0", _DUAL, 0.5),
    ("beta3.vic_dual", LOW, HIGH, ((B02, +2), (B01, +1), (B01, -1)), None, _DIRECT, 0.5),
    ("beta3.vid", LOW, HIGH, ((B01, +1), (B01, +1), (B01, +1), (B01, -1)), None, _DIRECT, 1.0),
)


def _evaluate(source: Mode, target: Mode, chain, projector, slot) -> complex:
    """One row's bracket.  A bare coupling is returned as it is, not through
    an accumulating sum, which would turn its signed zeros into +0."""
    if len(chain) == 1:
        (ell, kappa), = chain
        return ent_coeff(ell, kappa, source, target.sigma)
    if slot == _DIRECT:
        return bracket(chain[-1], chain_apply(chain[:-1], source, projector), target)
    tail = [(ell, -kappa) for ell, kappa in reversed(chain[1:])]
    return bracket(chain[0], source, chain_apply(tail, target, projector))


@functools.cache
def _ledger() -> Mapping[str, complex]:
    """Every catalog row evaluated, plus the three resonant loop entries.

    Evaluated on first use and kept for the life of the process; the view
    is read-only so that no caller can change what the next one sees.
    """
    out = {name: _evaluate(*row) for name, *row, _ in _CATALOG}
    # zeta_up: (2,+) component of the order-eps^2 projector's chains of net
    # shift +2 applied to f_(0,-); zeta_down those of net shift -2 on f_(2,+)
    p2 = _composite_projector_chains()[2]
    up, down = (
        _apply_composite([c for c in p2 if sum(kappa for _, kappa in c) == net], source).get(target, 0j)
        for net, source, target in ((2, LOW, HIGH), (-2, HIGH, LOW))
    )
    out["beta3.loop_up"] = up
    out["beta3.loop_down"] = down
    out["beta3.loopback"] = -0.5 * (
        up * (out["alpha2.b"] + out["alpha2.c"])
        + down.conjugate() * (out["gamma2.b"] + out["gamma2.c"])
    )
    return MappingProxyType(out)


def term_ledger() -> dict[str, complex]:
    """Every named intermediate bracket, in deterministic catalog order."""
    return dict(_ledger())


def _coefficient(prefix: str) -> complex:
    """Weighted sum of the catalog rows of one jet coefficient."""
    ledger = _ledger()
    return sum(w * ledger[name] for name, *_, w in _CATALOG if name.startswith(prefix + "."))


# ---------------------------------------------- projector-route cross-check


@functools.cache
def _composite_projector_chains() -> Mapping[int, tuple[tuple[ChainOp, ...], ...]]:
    """Chains (application order) whose resolvent brackets sum to the order-k
    correction of the spectral projector, k = 1, 2, 3: every composition of k
    into jets (0, n), each with every shift kappa = n (mod 2), |kappa| <= n.

    Built bottom up, each chain of order k extending one of order k - n by
    its last jet (0, n) and carrying its net shift; each order is sorted by
    (|net shift|, -net shift), stably, which fixes the order of the
    floating-point sums over it.  Built on first use, kept read-only."""
    table = {0: [((), 0)]}
    for k in (1, 2, 3):
        table[k] = [
            (chain + ((ell, kappa),), net + kappa)
            for n, ell in enumerate((B01, B02, B03)[:k], 1)
            for chain, net in table[k - n]
            for kappa in range(-n, n + 1, 2)
        ]
    return MappingProxyType({
        k: tuple(chain for chain, _ in sorted(table[k], key=lambda row: (abs(row[1]), -row[1])))
        for k in (1, 2, 3)
    })


def _apply_composite(
    chains: Sequence[Sequence[ChainOp]], vec: Union[Mode, dict[Mode, complex]]
) -> dict[Mode, complex]:
    out: dict[Mode, complex] = {}
    for chain in chains:
        for m, c in chain_apply(chain, vec).items():
            out[m] = out.get(m, 0j) + c
    return out


def beta3_projector_route() -> float:
    """Quartic off-diagonal coefficient computed mechanically.

    Expands the symmetrized block through the composite projector
    corrections: with Phat_k the off-resonant part of the order-k projector,

        i*beta3 = (B4 f_low, f_high)
                + (1/2) [ (B3 P1 f_low, f_high) + (B3 f_low, P1 f_high) ]
                + (1/2) [ (B2 Phat2 f_low, f_high) + (B2 f_low, Phat2 f_high) ]
                + (1/2) [ (B1 Phat3 f_low, f_high) + (B1 f_low, Phat3 f_high) ]
                - (1/2) [ (B1 P1 P0 P2 f_low, f_high) + (B1 f_low, P1 P0 P2 f_high) ]

    No hand-evaluated weights enter: the projector decompositions alone
    reproduce the catalog total, which is what the cross-check test asserts.
    """
    chains = _composite_projector_chains()
    total = 0j
    total += bracket((B04, None), LOW, HIGH)

    # the B3 P1, B2 Phat2 and B1 Phat3 brackets, each with its dual
    corrected = {}
    for k, ell, projector in ((1, B03, None), (2, B02, "Q0"), (3, B01, "Q0")):
        low, high = corrected[k] = [_apply_composite(chains[k], one) for one in (LOW, HIGH)]
        total += 0.5 * bracket((ell, None), project(low, projector), HIGH)
        total += 0.5 * bracket((ell, None), LOW, project(high, projector))

    loop_low, loop_high = (_apply_composite(chains[1], project(p2, "P0")) for p2 in corrected[2])
    total -= 0.5 * bracket((B01, None), loop_low, HIGH)
    total -= 0.5 * bracket((B01, None), LOW, loop_high)

    return (total / 1j).real


# ------------------------------------------------------------ assembled jet


class ReducedJet(NamedTuple):
    """Taylor data of the reduced 2x2 Hermitian matrix.

    Generic container: synthetic coefficient sets are valid inputs to the
    downstream eigenvalue machinery; `assemble_reduced_jet` builds the
    Stokes-wave instance.  ``alpha1``/``gamma1`` are the derivatives at
    delta = 0 of the exact zero-amplitude diagonal, -omega_2^+ and omega_0^-
    at Floquet exponent 1/4 + delta (`stokes.omega`).  The collision point
    itself is `stokes.MU_STAR`/`OMEGA_STAR`.
    """

    alpha1: float
    gamma1: float
    alpha2: float
    gamma2: float
    beta1: float
    beta2: float
    beta3: float

    @property
    def T1(self) -> float:
        return self.alpha1 + self.gamma1

    @property
    def T2(self) -> float:
        return self.alpha2 + self.gamma2

    @property
    def beta3_eff(self) -> float:
        """beta3 - beta2*T2/T1 — the coefficient that decides order-4 instability."""
        return self.beta3 - self.beta2 * self.T2 / self.T1


@functools.cache
def assemble_reduced_jet() -> ReducedJet:
    """The deep-water Stokes instance, with the exact first-order diagonal
    slopes -2/3 and 2 (derivatives of the flat frequencies at the collision).
    The off-diagonal brackets carry a factor i; the coefficients are total / i."""
    beta3 = _coefficient("beta3") + _ledger()["beta3.loopback"]
    return ReducedJet(
        alpha1=-2.0 / 3.0,
        gamma1=2.0,
        alpha2=_coefficient("alpha2").real,
        gamma2=_coefficient("gamma2").real,
        beta1=(_coefficient("beta1") / 1j).real,
        beta2=(_coefficient("beta2") / 1j).real,
        beta3=(beta3 / 1j).real,
    )
