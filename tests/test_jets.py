"""Reduced-matrix coefficient catalog: golden values and cross-assemblies."""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest

from stokes_isola import closed_forms, jets
from stokes_isola.entanglement import RESONANT_MODES, JetIndex, Mode, chain_apply, project
from stokes_isola.jets import (
    ReducedJet,
    assemble_reduced_jet,
    beta3_projector_route,
    term_ledger,
)
from stokes_isola.stokes import omega

S3 = math.sqrt(3.0)


class TestGoldenTerms:
    def test_ledger_is_complete(self):
        ledger = term_ledger()
        assert set(ledger) == set(closed_forms.TERMS)

    @pytest.mark.parametrize("name", sorted(closed_forms.TERMS))
    def test_term_value(self, name):
        ledger = term_ledger()
        assert ledger[name] == pytest.approx(closed_forms.TERMS[name], abs=1e-12)

    def test_golden_suite_is_fast(self):
        import time

        jets._ledger.cache_clear()  # time an evaluation, not a cached copy
        t0 = time.perf_counter()
        term_ledger()
        assert time.perf_counter() - t0 < 1.0


class TestLedgerCache:
    def test_result_cannot_corrupt_cache(self):
        ledger = term_ledger()
        ledger["alpha2.a"] = 99.0
        del ledger["beta3.loopback"]
        again = term_ledger()
        assert set(again) == set(closed_forms.TERMS)
        for name, want in closed_forms.TERMS.items():
            assert again[name] == pytest.approx(want, abs=1e-12), name

    def test_second_call_evaluates_no_chain(self, monkeypatch):
        calls = []
        real = jets.chain_apply

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(jets, "chain_apply", counting)
        jets._ledger.cache_clear()
        first = term_ledger()
        assert calls
        seen = len(calls)
        assert term_ledger() == first
        assert len(calls) == seen

    def test_not_evaluated_at_import(self):
        """Importing the package and the CLI computes nothing: the ledger and
        every other `functools` cache of the package (the path table and its
        int-keyed caches among them) start empty, so each command pays for
        its own."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import stokes_isola, stokes_isola.cli; "
            "caches = {(m.__name__, name): f for m in list(sys.modules.values()) "
            "          if m.__name__.split('.')[0] == 'stokes_isola' "
            "          for name, f in vars(m).items() if hasattr(f, 'cache_info')}; "
            "names = {name for _, name in caches}; "
            "assert {'_ledger', '_paths', '_coeff', '_gap', '_mode'} <= names, names; "
            "sys.exit(repr([key for key, f in caches.items() if f.cache_info().currsize]) "
            "         if any(f.cache_info().currsize for f in caches.values()) else 0)"
        )
        subprocess.run([sys.executable, "-c", code, str(src)], check=True)

    def test_chains_join_source_to_target(self):
        for name, source, target, chain, _, _, _ in jets._CATALOG:
            assert source.j + sum(kappa for _, kappa in chain) == target.j, name


class TestAggregates:
    def test_alpha2(self):
        assert assemble_reduced_jet().alpha2 == pytest.approx(closed_forms.ALPHA2, abs=1e-12)

    def test_beta1_vanishes(self):
        assert assemble_reduced_jet().beta1 == pytest.approx(0.0, abs=1e-13)

    def test_gamma2(self):
        assert assemble_reduced_jet().gamma2 == pytest.approx(closed_forms.GAMMA2, abs=1e-12)

    def test_beta2(self):
        assert assemble_reduced_jet().beta2 == pytest.approx(closed_forms.BETA2, abs=1e-12)

    def test_beta3(self):
        assert assemble_reduced_jet().beta3 == pytest.approx(closed_forms.BETA3, abs=1e-12)

    def test_quadratic_sum_structure(self):
        q = term_ledger()
        assert q["alpha2.a"] + q["alpha2.b"] + q["alpha2.c"] == pytest.approx(
            closed_forms.ALPHA2, abs=1e-12
        )
        assert q["gamma2.a"] + q["gamma2.b"] + q["gamma2.c"] == pytest.approx(
            closed_forms.GAMMA2, abs=1e-12
        )

    def test_cubic_terms_are_purely_imaginary(self):
        for name, value in term_ledger().items():
            if name.startswith("beta2."):
                assert abs(complex(value).real) <= 1e-13, name

    def test_quartic_terms_are_purely_imaginary(self):
        for name, value in term_ledger().items():
            if name.startswith("beta3."):
                assert abs(complex(value).real) <= 1e-13, name


class TestLoopStructure:
    def test_loop_coefficients(self):
        t = term_ledger()
        assert t["beta3.loop_up"] == pytest.approx(5j * S3 / 16, abs=1e-13)
        assert t["beta3.loop_down"] == pytest.approx(5j * S3 / 16, abs=1e-13)

    def test_loop_coefficients_are_conjugate_negatives(self):
        t = term_ledger()
        zeta_up = t["beta3.loop_up"]
        zeta_down = t["beta3.loop_down"]
        assert zeta_up == pytest.approx(-zeta_down.conjugate(), abs=1e-13)

    def test_loopback_total(self):
        t = term_ledger()
        assert t["beta3.loopback"] == pytest.approx(-305j * S3 / 512, abs=1e-12)

    def test_dual_pairs_that_must_agree(self):
        t = term_ledger()
        for name in ("ivb", "ivc", "ve", "vic"):
            assert t[f"beta3.{name}"] == pytest.approx(
                t[f"beta3.{name}_dual"], abs=1e-13
            )

    def test_dual_pairs_that_differ_by_loopback(self):
        # the unprojected reversals pick up resonant loop contributions
        t = term_ledger()
        assert t["beta3.iiib"] - t["beta3.iiib_dual"] == pytest.approx(
            75j * S3 / 128, abs=1e-12
        )
        assert t["beta3.vc"] - t["beta3.vc_dual"] == pytest.approx(
            35j * S3 / 128, abs=1e-12
        )


class TestProjectorRoute:
    def test_matches_catalog_assembly(self):
        assert beta3_projector_route() == pytest.approx(
            assemble_reduced_jet().beta3, abs=1e-12
        )

    @staticmethod
    def _resonant_part(order: int, src: Mode) -> dict[Mode, complex]:
        total: dict[Mode, complex] = {}
        for chain in jets._composite_projector_chains()[order]:
            for m, c in chain_apply(chain, {src: 1.0 + 0j}).items():
                total[m] = total.get(m, 0j) + c
        return project(total, "P0")

    def test_odd_corrections_have_no_resonant_component(self):
        # odd-order corrections shift the harmonic by an odd amount, so
        # P0 * P_k * P0 = 0 for k = 1, 3
        assert set(jets._composite_projector_chains()) == {1, 2, 3}
        for order in (1, 3):
            for src in RESONANT_MODES:
                for m, c in self._resonant_part(order, src).items():
                    assert abs(c) <= 1e-12, (order, src, m)

    @staticmethod
    def _enumerated(order: int) -> list[tuple]:
        """Every composition of ``order`` into jets (0, n), each with every
        shift kappa = n (mod 2), |kappa| <= n, by brute force."""
        chains = []
        for length in range(1, order + 1):
            for parts in itertools.product((1, 2, 3), repeat=length):
                if sum(parts) == order:
                    shifts = [range(-n, n + 1, 2) for n in parts]
                    for kappas in itertools.product(*shifts):
                        chains.append(tuple((JetIndex(0, n), k) for n, k in zip(parts, kappas)))
        return chains

    def test_chains_are_every_composition_once(self):
        """Dropping any one chain is caught here; 5 of the 24 order-3 ones
        move `beta3_projector_route` by less than 1e-12."""
        table = jets._composite_projector_chains()
        assert [len(table[k]) for k in (1, 2, 3)] == [2, 7, 24]
        for k in (1, 2, 3):
            assert len(set(table[k])) == len(table[k])
            assert sorted(table[k]) == sorted(self._enumerated(k))

    def test_loop_chains_are_the_order_two_chains_of_shift_two(self):
        b01, b02 = JetIndex(0, 1), JetIndex(0, 2)
        by_shift = {}
        for chain in jets._composite_projector_chains()[2]:
            by_shift.setdefault(sum(kappa for _, kappa in chain), []).append(chain)
        assert set(by_shift[2]) == {((b02, 2),), ((b01, 1), (b01, 1))}
        assert set(by_shift[-2]) == {((b02, -2),), ((b01, -1), (b01, -1))}
        low, high = RESONANT_MODES
        t = term_ledger()
        assert t["beta3.loop_up"] == jets._apply_composite(by_shift[2], low)[high]
        assert t["beta3.loop_down"] == jets._apply_composite(by_shift[-2], high)[low]

    def test_order_two_loop_components(self):
        # the resonant-to-resonant part of the order-two correction is the
        # loop coefficient i*5*sqrt(3)/16 in both directions
        low, high = RESONANT_MODES
        zeta = 5j * S3 / 16
        up = self._resonant_part(2, low)
        down = self._resonant_part(2, high)
        assert up[high] == pytest.approx(zeta, abs=1e-13)
        assert down[low] == pytest.approx(zeta, abs=1e-13)


class TestReducedJet:
    def test_linear_coefficients(self):
        jet = assemble_reduced_jet()
        assert jet.alpha1 == pytest.approx(closed_forms.ALPHA1, abs=1e-15)
        assert jet.gamma1 == pytest.approx(closed_forms.GAMMA1, abs=1e-15)

    def test_T_constants(self):
        jet = assemble_reduced_jet()
        assert jet.T1 == pytest.approx(closed_forms.T1, abs=1e-12)
        assert jet.T2 == pytest.approx(closed_forms.T2, abs=1e-12)

    def test_beta3_eff(self):
        jet = assemble_reduced_jet()
        assert jet.beta3_eff == pytest.approx(closed_forms.BETA3_EFF, abs=1e-12)

    def test_linear_terms_are_flat_curve_slopes(self):
        # alpha = -omega_2^+ and gamma = omega_0^- at zero amplitude
        h = 1e-6
        d_alpha = -(omega(2, +1, 0.25 + h) - omega(2, +1, 0.25 - h)) / (2 * h)
        d_gamma = (omega(0, -1, 0.25 + h) - omega(0, -1, 0.25 - h)) / (2 * h)
        assert d_alpha == pytest.approx(closed_forms.ALPHA1, abs=1e-8)
        assert d_gamma == pytest.approx(closed_forms.GAMMA1, abs=1e-8)

    def test_custom_jet_keeps_overrides(self):
        jet = ReducedJet(
            alpha1=1.0, gamma1=3.0, alpha2=0.0, gamma2=0.0,
            beta1=0.5, beta2=0.0, beta3=0.0,
        )
        assert jet.T1 == 4.0
        assert jet.T2 == 0.0
        assert jet.beta3_eff == 0.0
