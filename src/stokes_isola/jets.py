"""Assembly of the reduced 2x2 matrix jet on the resonant pair.

Near the collision of the flat frequencies of the modes (0,-) and (2,+) at
omega* = 3/4 (Floquet exponent 1/4), the linearized operator restricted to
its two-dimensional invariant subspace is represented by a Hermitian matrix

    [ alpha(mu,eps)   beta(mu,eps) ]
    [ conj(beta)      gamma(mu,eps) ]

whose entries expand in delta = mu - 1/4 and the amplitude eps as

    alpha = flat_alpha(delta) + alpha2*eps^2 + ...
    gamma = flat_gamma(delta) + gamma2*eps^2 + ...
    beta  = beta1*eps^2 + beta2*delta*eps^2 + beta3*eps^4 + ...

(all odd-eps and mixed terms through the computed order vanish by harmonic
parity).  Every Taylor coefficient is a finite sum of resolvent-chain
brackets; this module names each addend, evaluates it through the chain
engine, and assembles the totals.  Two independent routes to the quartic
off-diagonal coefficient are provided: the explicit 27-term catalog with
its rational weights (`beta3`), and a mechanical expansion through composite
spectral projectors (`beta3_projector_route`); they must agree to near
machine precision and the test suite enforces that.

The term keys (e.g. ``"beta2.iiic"``, ``"beta3.vd"``) follow the natural
enumeration of the catalog: roman-ish groups by chain topology, with
``_dual`` marking the evaluation of the same chain from the right slot of
the pairing (the two differ exactly by resonant-pair loop-backs) and
``beta3.loopback`` the boundary correction assembled from the resonant
loop coefficients ``beta3.loop_up`` / ``beta3.loop_down``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .basis import Mode
from .entanglement import (
    ChainOp,
    JetIndex,
    chain_apply,
    chain_apply_vec,
    chain_bracket,
    ent_coeff,
    jet_bracket,
    jet_bracket_right,
    op_bracket_right,
    project,
    projected_chain,
)

__all__ = [
    "LOW",
    "HIGH",
    "ReducedJet",
    "flat_alpha",
    "flat_gamma",
    "quadratic_terms",
    "cubic_terms",
    "quartic_terms",
    "term_ledger",
    "alpha2",
    "beta1",
    "gamma2",
    "beta2",
    "beta3",
    "beta3_projector_route",
    "composite_projector_chains",
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

LOW = Mode(0, -1)
HIGH = Mode(2, +1)

_ONE_LOW = {LOW: 1.0 + 0j}
_ONE_HIGH = {HIGH: 1.0 + 0j}


def flat_alpha(delta: float) -> float:
    """Exact zero-amplitude diagonal entry attached to the (2,+) mode:
    minus its flat frequency at Floquet exponent 1/4 + delta."""
    return -(9.0 / 4.0 + delta - math.sqrt(9.0 / 4.0 + delta))


def flat_gamma(delta: float) -> float:
    """Exact zero-amplitude diagonal entry attached to the (0,-) mode."""
    return 1.0 / 4.0 + delta + math.sqrt(1.0 / 4.0 + delta)


# ------------------------------------------------------------- term catalog


def quadratic_terms() -> dict[str, complex]:
    """Order-eps^2 brackets: the three addends of each diagonal coefficient
    and the two addends of the (vanishing) quadratic off-diagonal one."""
    t: dict[str, complex] = {}
    t["alpha2.a"] = ent_coeff(B02, 0, HIGH, +1)
    t["alpha2.b"] = chain_bracket([(B01, -1), (B01, +1)], HIGH, HIGH)
    t["alpha2.c"] = chain_bracket([(B01, +1), (B01, -1)], HIGH, HIGH)
    t["beta1.a"] = ent_coeff(B02, +2, LOW, +1)
    t["beta1.b"] = chain_bracket([(B01, +1), (B01, +1)], LOW, HIGH)
    t["gamma2.a"] = ent_coeff(B02, 0, LOW, -1)
    t["gamma2.b"] = chain_bracket([(B01, -1), (B01, +1)], LOW, LOW)
    t["gamma2.c"] = chain_bracket([(B01, +1), (B01, -1)], LOW, LOW)
    return t


def cubic_terms() -> dict[str, complex]:
    """delta*eps^2 off-diagonal brackets (ten addends of beta2)."""
    t: dict[str, complex] = {}
    t["beta2.theta"] = ent_coeff(B12, +2, LOW, +1)
    t["beta2.i"] = chain_bracket([(B01, +1), (B11, +1)], LOW, HIGH)
    t["beta2.ii"] = chain_bracket([(B10, 0), (B02, +2)], LOW, HIGH)
    t["beta2.iiia"] = chain_bracket([(B11, +1), (B01, +1)], LOW, HIGH)
    t["beta2.iiib"] = chain_bracket([(B01, +1), (B10, 0), (B01, +1)], LOW, HIGH)
    t["beta2.iiic"] = op_bracket_right(
        (B10, 0), LOW, chain_apply([(B01, -1), (B01, -1)], HIGH, "Q0")
    )
    t["beta2.iiid"] = chain_bracket([(B10, 0), (B01, +1), (B01, +1)], LOW, HIGH)
    t["beta2.iva"] = projected_chain([(B02, +2), (B10, 0)], LOW, HIGH, "Q0")
    t["beta2.ivb"] = projected_chain(
        [(B01, +1), (B01, +1), (B10, 0)], LOW, HIGH, "Q0"
    )
    t["beta2.ivc"] = op_bracket_right(
        (B01, +1), LOW, chain_apply([(B10, 0), (B01, -1)], HIGH)
    )
    return t


def _loop_coefficients() -> tuple[complex, complex]:
    """Resonant-pair components of the order-eps^2 projector correction.

    ``zeta_up`` is the (2,+) coefficient of the harmonic-raising projector
    jet applied to f(0,-); ``zeta_down`` the (0,-) coefficient of the
    harmonic-lowering one applied to f(2,+).
    """
    up: dict[Mode, complex] = {}
    for chain in ([(B02, +2)], [(B01, +1), (B01, +1)]):
        for m, c in chain_apply(chain, LOW, "P0").items():
            up[m] = up.get(m, 0j) + c
    down: dict[Mode, complex] = {}
    for chain in ([(B02, -2)], [(B01, -1), (B01, -1)]):
        for m, c in chain_apply(chain, HIGH, "P0").items():
            down[m] = down.get(m, 0j) + c
    return up.get(HIGH, 0j), down.get(LOW, 0j)


def quartic_terms() -> dict[str, complex]:
    """eps^4 off-diagonal brackets: the 26 chain terms plus the loop-back
    boundary correction (and the two loop coefficients it is built from)."""
    t: dict[str, complex] = {}
    t["beta3.theta"] = ent_coeff(B04, +2, LOW, +1)
    t["beta3.i"] = chain_bracket([(B01, +1), (B03, +1)], LOW, HIGH)
    t["beta3.ii"] = chain_bracket([(B01, -1), (B03, +3)], LOW, HIGH)
    t["beta3.iiia"] = projected_chain([(B02, +2), (B02, 0)], LOW, HIGH, "Q0")
    t["beta3.iiib"] = projected_chain(
        [(B01, +1), (B01, +1), (B02, 0)], LOW, HIGH, "Q0"
    )
    t["beta3.iiib_dual"] = op_bracket_right(
        (B01, +1), LOW, chain_apply([(B02, 0), (B01, -1)], HIGH)
    )
    t["beta3.iva"] = projected_chain([(B02, 0), (B02, +2)], LOW, HIGH, "Q0")
    t["beta3.ivb"] = projected_chain(
        [(B01, -1), (B01, +1), (B02, +2)], LOW, HIGH, "Q0"
    )
    t["beta3.ivb_dual"] = op_bracket_right(
        (B01, -1), LOW, chain_apply([(B02, -2), (B01, -1)], HIGH)
    )
    t["beta3.ivc"] = projected_chain(
        [(B01, +1), (B01, -1), (B02, +2)], LOW, HIGH, "Q0"
    )
    t["beta3.ivc_dual"] = op_bracket_right(
        (B01, +1), LOW, chain_apply([(B02, -2), (B01, +1)], HIGH)
    )
    t["beta3.va"] = chain_bracket([(B03, +1), (B01, +1)], LOW, HIGH)
    t["beta3.vb"] = chain_bracket([(B01, +1), (B02, 0), (B01, +1)], LOW, HIGH)
    t["beta3.vc"] = op_bracket_right(
        (B02, 0), LOW, chain_apply([(B01, -1), (B01, -1)], HIGH, "Q0")
    )
    t["beta3.vc_dual"] = chain_bracket(
        [(B02, 0), (B01, +1), (B01, +1)], LOW, HIGH
    )
    t["beta3.vd"] = chain_bracket([(B01, -1), (B02, +2), (B01, +1)], LOW, HIGH)
    t["beta3.ve"] = op_bracket_right(
        (B02, +2), LOW, chain_apply([(B01, -1), (B01, +1)], HIGH, "Q0")
    )
    t["beta3.ve_dual"] = chain_bracket(
        [(B02, +2), (B01, -1), (B01, +1)], LOW, HIGH
    )
    t["beta3.vf"] = chain_bracket(
        [(B01, +1), (B01, +1), (B01, -1), (B01, +1)], LOW, HIGH
    )
    t["beta3.vg"] = chain_bracket(
        [(B01, +1), (B01, -1), (B01, +1), (B01, +1)], LOW, HIGH
    )
    t["beta3.vh"] = chain_bracket(
        [(B01, -1), (B01, +1), (B01, +1), (B01, +1)], LOW, HIGH
    )
    t["beta3.via"] = chain_bracket([(B03, +3), (B01, -1)], LOW, HIGH)
    t["beta3.vib"] = chain_bracket([(B01, +1), (B02, +2), (B01, -1)], LOW, HIGH)
    t["beta3.vic"] = op_bracket_right(
        (B02, +2), LOW, chain_apply([(B01, +1), (B01, -1)], HIGH, "Q0")
    )
    t["beta3.vic_dual"] = chain_bracket(
        [(B02, +2), (B01, +1), (B01, -1)], LOW, HIGH
    )
    t["beta3.vid"] = chain_bracket(
        [(B01, +1), (B01, +1), (B01, +1), (B01, -1)], LOW, HIGH
    )
    zeta_up, zeta_down = _loop_coefficients()
    quad = quadratic_terms()
    t["beta3.loop_up"] = zeta_up
    t["beta3.loop_down"] = zeta_down
    t["beta3.loopback"] = -0.5 * (
        zeta_up * (quad["alpha2.b"] + quad["alpha2.c"])
        + zeta_down.conjugate() * (quad["gamma2.b"] + quad["gamma2.c"])
    )
    return t


#: Weight of each quartic term in the assembled coefficient; chain terms with
#: a dual partner enter through the symmetrized half-sum.
_QUARTIC_WEIGHTS: dict[str, float] = {
    "beta3.theta": 1.0,
    "beta3.i": 1.0,
    "beta3.ii": 1.0,
    "beta3.iiia": 1.0,
    "beta3.iiib": 0.5,
    "beta3.iiib_dual": 0.5,
    "beta3.iva": 1.0,
    "beta3.ivb": 0.5,
    "beta3.ivb_dual": 0.5,
    "beta3.ivc": 0.5,
    "beta3.ivc_dual": 0.5,
    "beta3.va": 1.0,
    "beta3.vb": 1.0,
    "beta3.vc": 0.5,
    "beta3.vc_dual": 0.5,
    "beta3.vd": 1.0,
    "beta3.ve": 0.5,
    "beta3.ve_dual": 0.5,
    "beta3.vf": 1.0,
    "beta3.vg": 1.0,
    "beta3.vh": 1.0,
    "beta3.via": 1.0,
    "beta3.vib": 1.0,
    "beta3.vic": 0.5,
    "beta3.vic_dual": 0.5,
    "beta3.vid": 1.0,
    "beta3.loopback": 1.0,
}


def term_ledger() -> dict[str, complex]:
    """Every named intermediate bracket, in deterministic catalog order."""
    out: dict[str, complex] = {}
    out.update(quadratic_terms())
    out.update(cubic_terms())
    out.update(quartic_terms())
    return out


def alpha2() -> float:
    t = quadratic_terms()
    return (t["alpha2.a"] + t["alpha2.b"] + t["alpha2.c"]).real


def beta1() -> float:
    t = quadratic_terms()
    total = t["beta1.a"] + t["beta1.b"]
    # the bracket carries a factor i; the coefficient itself is total / i
    return (total / 1j).real


def gamma2() -> float:
    t = quadratic_terms()
    return (t["gamma2.a"] + t["gamma2.b"] + t["gamma2.c"]).real


def beta2() -> float:
    t = cubic_terms()
    total = (
        t["beta2.theta"]
        + t["beta2.i"]
        + t["beta2.ii"]
        + t["beta2.iiia"]
        + t["beta2.iiib"]
        + 0.5 * (t["beta2.iiic"] + t["beta2.iiid"])
        + t["beta2.iva"]
        + 0.5 * (t["beta2.ivb"] + t["beta2.ivc"])
    )
    return (total / 1j).real


def beta3() -> float:
    t = quartic_terms()
    total = sum(w * t[k] for k, w in _QUARTIC_WEIGHTS.items())
    return (total / 1j).real


# ---------------------------------------------- projector-route cross-check


def composite_projector_chains() -> dict[int, list[list[ChainOp]]]:
    """Chains (application order) whose resolvent brackets sum to the order-k
    correction of the spectral projector, k = 1, 2, 3."""
    p1 = [[(B01, +1)], [(B01, -1)]]
    p2 = [
        [(B02, +2)],
        [(B01, +1), (B01, +1)],
        [(B02, -2)],
        [(B01, -1), (B01, -1)],
        [(B02, 0)],
        [(B01, -1), (B01, +1)],
        [(B01, +1), (B01, -1)],
    ]
    p3: list[list[ChainOp]] = []
    for s in (+1, -1):
        p3 += [
            [(B01, s), (B01, s), (B01, -s)],
            [(B01, s), (B01, -s), (B01, s)],
            [(B01, -s), (B01, s), (B01, s)],
            [(B01, s), (B02, 0)],
            [(B02, 0), (B01, s)],
            [(B01, -s), (B02, 2 * s)],
            [(B02, 2 * s), (B01, -s)],
            [(B03, s)],
            [(B03, 3 * s)],
            [(B01, s), (B02, 2 * s)],
            [(B02, 2 * s), (B01, s)],
            [(B01, s), (B01, s), (B01, s)],
        ]
    return {1: p1, 2: p2, 3: p3}


def _apply_composite(
    chains: Sequence[list[ChainOp]], vec: dict[Mode, complex]
) -> dict[Mode, complex]:
    out: dict[Mode, complex] = {}
    for chain in chains:
        for m, c in chain_apply_vec(chain, vec).items():
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
    chains = composite_projector_chains()
    total = 0j
    total += jet_bracket(B04, _ONE_LOW, HIGH)

    p1_low = _apply_composite(chains[1], _ONE_LOW)
    p1_high = _apply_composite(chains[1], _ONE_HIGH)
    total += 0.5 * jet_bracket(B03, p1_low, HIGH)
    total += 0.5 * jet_bracket_right(B03, LOW, p1_high)

    p2_low = _apply_composite(chains[2], _ONE_LOW)
    p2_high = _apply_composite(chains[2], _ONE_HIGH)
    total += 0.5 * jet_bracket(B02, project(p2_low, "Q0"), HIGH)
    total += 0.5 * jet_bracket_right(B02, LOW, project(p2_high, "Q0"))

    p3_low = _apply_composite(chains[3], _ONE_LOW)
    p3_high = _apply_composite(chains[3], _ONE_HIGH)
    total += 0.5 * jet_bracket(B01, project(p3_low, "Q0"), HIGH)
    total += 0.5 * jet_bracket_right(B01, LOW, project(p3_high, "Q0"))

    loop_low = _apply_composite(chains[1], project(p2_low, "P0"))
    loop_high = _apply_composite(chains[1], project(p2_high, "P0"))
    total -= 0.5 * jet_bracket(B01, loop_low, HIGH)
    total -= 0.5 * jet_bracket_right(B01, LOW, loop_high)

    return (total / 1j).real


# ------------------------------------------------------------ assembled jet


@dataclass(frozen=True)
class ReducedJet:
    """Taylor data of the reduced 2x2 Hermitian matrix.

    Generic container: synthetic coefficient sets are valid inputs to the
    downstream eigenvalue machinery; `assemble_reduced_jet` builds the
    Stokes-wave instance.  ``flat_alpha``/``flat_gamma`` give the exact
    zero-amplitude diagonal as functions of delta = mu - mu_star; their
    derivatives at 0 are ``alpha1``/``gamma1``.
    """

    alpha1: float
    gamma1: float
    alpha2: float
    gamma2: float
    beta1: float
    beta2: float
    beta3: float
    mu_star: float = 0.25
    omega_star: float = 0.75
    flat_alpha: Callable[[float], float] = flat_alpha
    flat_gamma: Callable[[float], float] = flat_gamma

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
    Built once and cached: it takes no arguments and the jet is frozen."""
    return ReducedJet(
        alpha1=-2.0 / 3.0,
        gamma1=2.0,
        alpha2=alpha2(),
        gamma2=gamma2(),
        beta1=beta1(),
        beta2=beta2(),
        beta3=beta3(),
    )
