"""Acceptance gate: every release criterion, one pass/fail line each.

Each test prints ``ACCEPTANCE <PASS|FAIL> criterion-name`` (visible with -s
and in failure reports); ``pytest -v`` additionally shows one line per
criterion through the test outcome itself.
"""

import functools
import math
import random
import time

import numpy as np
import pytest
import scipy.linalg

from stokes_isola import closed_forms, jets
from stokes_isola.basis import Mode
from stokes_isola.entanglement import (
    RESONANT_MODES,
    JetIndex,
    bracket,
    chain_apply,
    ent_coeff,
    is_pole,
    residue,
    residue_contour,
)
from stokes_isola.floquet import build, measure_isola, spectrum
from stokes_isola.instability import (
    instability_criterion,
    isola,
    stokes_beta_sequence,
)
from stokes_isola.jets import assemble_reduced_jet, term_ledger
from stokes_isola.stokes import omega

LOW, HIGH = RESONANT_MODES
JET = assemble_reduced_jet()


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def _measured(eps: float):
    return measure_isola(eps, N=32)


def test_criterion_1_golden_coefficient_suite():
    jets._ledger.cache_clear()  # time an evaluation, not a cached copy
    t0 = time.perf_counter()
    ledger = term_ledger()
    worst = 0.0
    for name, expected in closed_forms.TERMS.items():
        worst = max(worst, abs(ledger[name] - expected))
    aggregates = {
        "alpha2": (JET.alpha2, closed_forms.ALPHA2),
        "gamma2": (JET.gamma2, closed_forms.GAMMA2),
        "beta1": (JET.beta1, closed_forms.BETA1),
        "beta2": (JET.beta2, closed_forms.BETA2),
        "beta3": (JET.beta3, closed_forms.BETA3),
    }
    for got, want in aggregates.values():
        worst = max(worst, abs(got - want))
    t = term_ledger()
    worst = max(worst, abs(t["beta3.loopback"] - (-305j * closed_forms.S3 / 512)))
    worst = max(worst, abs(t["beta3.loop_up"] - 5j * closed_forms.S3 / 16))
    worst = max(worst, abs(t["beta3.loop_down"] - 5j * closed_forms.S3 / 16))
    elapsed = time.perf_counter() - t0
    _report(
        "golden-coefficient-suite",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_2_derived_constants():
    unit = isola(JET, 1.0)
    checks = [
        ("T1", JET.T1, closed_forms.T1),
        ("T2", JET.T2, closed_forms.T2),
        ("beta3_eff", JET.beta3_eff, closed_forms.BETA3_EFF),
        ("mu0-eps2", unit.mu0 - 0.25, closed_forms.MU0_EPS2),
        ("nu_plus-eps4", unit.nu_plus, -closed_forms.NU_EPS4),
        ("nu_minus-eps4", unit.nu_minus, closed_forms.NU_EPS4),
        ("D-eps8", unit.discriminant(0.0), closed_forms.D_EPS8),
        ("D-nu2", isola(JET, 0.0).discriminant(1.0), closed_forms.D_NU2),
        (
            "D-cross",
            unit.discriminant(1.0)
            - unit.discriminant(0.0)
            - isola(JET, 0.0).discriminant(1.0),
            closed_forms.D_NU_EPS6,
        ),
        ("im-center-eps2", unit.im_center - 0.75, closed_forms.IM_CENTER_EPS2),
        ("re-max-eps4", unit.re_max, closed_forms.BETA3_EFF),
        ("nu-re-eps6", unit.nu_re, closed_forms.NU_RE_EPS6),
        ("axis-ratio", unit.axis_ratio, closed_forms.AXIS_RATIO),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    _report("derived-constants", worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_3_oracle_flat_exactness():
    t0 = time.perf_counter()
    N = 32
    worst = 0.0
    for mu in (0.1, 0.25, 0.4):
        eigs = scipy.linalg.eigvals(build(mu, 0.0, N=N).matrix)
        for j in range(-N, N + 1):
            for sigma in (1, -1):
                target = 1j * omega(j, sigma, mu)
                worst = max(worst, float(np.min(np.abs(eigs - target))))
    elapsed = time.perf_counter() - t0
    _report(
        "oracle-flat-exactness",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_4_isola_cross_validation():
    t0 = time.perf_counter()
    eps_grid = (0.04, 0.06, 0.08)
    rel_err = {}
    im_dev = {}
    for eps in eps_grid:
        meas = _measured(eps)
        want_re = closed_forms.BETA3_EFF * eps**4
        want_im = 0.75 + closed_forms.IM_CENTER_EPS2 * eps**2
        rel_err[eps] = abs(meas.re_max - want_re) / want_re
        im_dev[eps] = abs(meas.im_center - want_im)

    ok_re = all(e <= 0.25 for e in rel_err.values())
    ok_monotone = rel_err[0.04] <= rel_err[0.06] <= rel_err[0.08]
    ok_im = all(d <= 5e-4 for d in im_dev.values())

    logs = np.log(np.array(eps_grid))
    vals = np.log(np.array([_measured(e).re_max for e in eps_grid]))
    slope = float(np.polyfit(logs, vals, 1)[0])
    ok_slope = abs(slope - 4.0) <= 0.3

    elapsed = time.perf_counter() - t0
    _report(
        "isola-cross-validation",
        ok_re and ok_monotone and ok_im and ok_slope and elapsed < 120.0,
        f"rel_err={max(rel_err.values()):.3f} monotone={ok_monotone} "
        f"im_dev={max(im_dev.values()):.2e} slope={slope:.3f} time={elapsed:.1f}s",
    )


def _random_paths(rng: random.Random, count: int):
    pool = [Mode(j, s) for j in range(-3, 5) for s in (1, -1)]
    out = []
    while len(out) < count:
        path = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        npoles = sum(is_pole(m) for m in path)
        if 2 < npoles < len(path):
            continue
        out.append(path)
    return out


def _random_chain(rng: random.Random):
    jets_pool = [
        JetIndex(0, 1), JetIndex(0, 2), JetIndex(0, 3), JetIndex(0, 4),
        JetIndex(1, 0), JetIndex(1, 1), JetIndex(1, 2), JetIndex(1, 3),
    ]

    def supports(ell, kappa):
        i, n = ell.mu_order, ell.eps_order
        if (i, n) == (1, 0):
            return kappa == 0
        return abs(kappa) <= n and (kappa - n) % 2 == 0

    pool = [
        (ell, k) for ell in jets_pool for k in range(-3, 4) if supports(ell, k)
    ]
    while True:
        src = rng.choice(RESONANT_MODES)
        tgt = rng.choice(RESONANT_MODES)
        tail = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        k_first = tgt.j - src.j - sum(k for _, k in tail)
        choices = [ell for ell in jets_pool if supports(ell, k_first)]
        if not choices:
            continue
        chain = [(rng.choice(choices), k_first)] + tail
        js = [src.j]
        for _, k in chain:
            js.append(js[-1] + k)
        if max(abs(j) for j in js) > 5:
            continue
        return chain, src, tgt


def test_criterion_5_structural_invariants():
    # (a) conjugation symmetry of the coupling coefficients
    worst_conj = 0.0
    for ell in (
        JetIndex(1, 0), JetIndex(0, 1), JetIndex(0, 2), JetIndex(0, 3),
        JetIndex(0, 4), JetIndex(1, 1), JetIndex(1, 2), JetIndex(1, 3),
    ):
        for j in range(-5, 6):
            for kappa in range(-4, 5):
                for s in (1, -1):
                    for sp in (1, -1):
                        lhs = ent_coeff(ell, kappa, Mode(j, s), sp).conjugate()
                        rhs = ent_coeff(ell, -kappa, Mode(j + kappa, sp), s)
                        worst_conj = max(worst_conj, abs(lhs - rhs))
    ok_conj = worst_conj <= 1e-12

    # (b) residue calculus: permutation invariance + contour agreement
    rng = random.Random(424242)
    worst_perm = 0.0
    worst_contour = 0.0
    for path in _random_paths(rng, 50):
        base = residue(path)
        shuffled = path[:]
        rng.shuffle(shuffled)
        worst_perm = max(worst_perm, abs(residue(shuffled) - base))
        contour = residue_contour(path)
        worst_contour = max(
            worst_contour, abs(contour.real - base), abs(contour.imag)
        )
    ok_residue = worst_perm <= 1e-8 and worst_contour <= 1e-8

    # (c) dual evaluation of resolvent chains between the resonant modes
    rng = random.Random(31337)
    worst_dual = 0.0
    checked = 0
    while checked < 30:
        chain, src, tgt = _random_chain(rng)
        try:
            left = bracket(chain[-1], chain_apply(chain[:-1], src), tgt)
            tail = [(ell, -k) for ell, k in reversed(chain[1:])]
            right = bracket(chain[0], src, chain_apply(tail, tgt))
        except ValueError:
            continue
        worst_dual = max(worst_dual, abs(left - right))
        checked += 1
    ok_dual = worst_dual <= 1e-12

    # (d) discrete reversibility symmetry of the oracle matrix
    op = build(0.25, 0.1, N=64)
    d = 2 * 64 + 1
    s_vec = np.concatenate([np.ones(d), -np.ones(d)])
    rev = float(np.max(np.abs(s_vec[:, None] * op.matrix * s_vec[None, :] + np.conj(op.matrix))))
    ok_rev = rev <= 1e-10

    # (e) tracked eigenvalue pair sums to a purely imaginary number
    worst_pair = 0.0
    for mu, eps in ((0.24, 0.05), (0.2475, 0.06), (0.25, 0.08)):
        lp, lm = spectrum(build(mu, eps, N=32)).tracked_pair
        worst_pair = max(worst_pair, abs((lp + lm).real))
    ok_pair = worst_pair <= 1e-9

    _report(
        "structural-invariants",
        ok_conj and ok_residue and ok_dual and ok_rev and ok_pair,
        f"conj={worst_conj:.2e} perm={worst_perm:.2e} contour={worst_contour:.2e} "
        f"dual={worst_dual:.2e} reversibility={rev:.2e} pair={worst_pair:.2e}",
    )


def test_criterion_6_instability_classification():
    stokes = instability_criterion(stokes_beta_sequence(JET))
    synthetic = instability_criterion((1.0, 0.0, 0.0))
    stable = instability_criterion((0.0, 0.0, 0.0))
    ok = (
        stokes == "unstable-at-order-4"
        and synthetic == "unstable-at-order-2"
        and stable == "stable-to-order-3"
    )
    _report(
        "instability-classification",
        ok,
        f"stokes={stokes} synthetic={synthetic} zero={stable}",
    )
