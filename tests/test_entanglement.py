"""Coupling coefficients, residue calculus, and the resolvent-chain algebra."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stokes_isola import entanglement
from stokes_isola.entanglement import (
    MU_STAR,
    OMEGA_STAR,
    RESONANT_MODES,
    JetIndex,
    Mode,
    bracket,
    chain_apply,
    ent_coeff,
    project,
    residue,
    residue_contour,
)
from stokes_isola.closed_forms import ENT_01_PLUS
from stokes_isola.stokes import omega

LOW, HIGH = RESONANT_MODES

B10 = JetIndex(1, 0)
B01 = JetIndex(0, 1)
B02 = JetIndex(0, 2)
B03 = JetIndex(0, 3)
B04 = JetIndex(0, 4)
B11 = JetIndex(1, 1)
B12 = JetIndex(1, 2)
B13 = JetIndex(1, 3)

ALL_JETS = [B10, B01, B02, B03, B04, B11, B12, B13]

#: modes with flat frequency well separated from 3/4, plus the resonant pair
MODE_POOL = [Mode(j, s) for j in range(-3, 5) for s in (1, -1)]


def _supports(ell: JetIndex, kappa: int) -> bool:
    i, n = ell.mu_order, ell.eps_order
    if (i, n) == (1, 0):
        return kappa == 0
    if i == 0 and 1 <= n <= 4 or i == 1 and 1 <= n <= 3:
        return abs(kappa) <= n and (kappa - n) % 2 == 0
    return False


class TestJetIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            JetIndex(0, 0)
        with pytest.raises(ValueError):
            JetIndex(3, 1)
        with pytest.raises(ValueError):
            JetIndex(1, 5)

    def test_replace_and_make_validate(self):
        assert JetIndex(1, 2)._replace(eps_order=3) == JetIndex(1, 3)
        with pytest.raises(ValueError):
            JetIndex(0, 1)._replace(eps_order=0)
        with pytest.raises(ValueError):
            JetIndex._make((2, 1))


class TestEntCoeff:
    def test_frozen_value(self):
        got = ent_coeff(B01, +1, LOW, +1)
        assert got == pytest.approx(ENT_01_PLUS, abs=1e-14)

    def test_outside_support_is_exact_zero(self):
        src = Mode(1, 1)
        assert ent_coeff(B01, 2, src, 1) == 0
        assert ent_coeff(B02, 1, src, -1) == 0
        assert ent_coeff(B10, 1, src, 1) == 0
        assert ent_coeff(B04, 3, src, 1) == 0
        assert ent_coeff(B13, 2, src, -1) == 0

    def test_conjugation_symmetry_sweep(self):
        # conj of (j,s) -> (j+k,s') coupling equals the reversed coupling
        for ell in ALL_JETS:
            for j in range(-6, 7):
                for kappa in range(-4, 5):
                    for s in (1, -1):
                        for sp in (1, -1):
                            lhs = ent_coeff(ell, kappa, Mode(j, s), sp)
                            rhs = ent_coeff(ell, -kappa, Mode(j + kappa, sp), s)
                            assert abs(lhs.conjugate() - rhs) <= 1e-13

    @given(
        elli=st.sampled_from(ALL_JETS),
        j=st.integers(min_value=-10, max_value=10),
        kappa=st.integers(min_value=-4, max_value=4),
        s=st.sampled_from([1, -1]),
        sp=st.sampled_from([1, -1]),
    )
    def test_conjugation_symmetry_property(self, elli, j, kappa, s, sp):
        lhs = ent_coeff(elli, kappa, Mode(j, s), sp)
        rhs = ent_coeff(elli, -kappa, Mode(j + kappa, sp), s)
        assert abs(lhs.conjugate() - rhs) <= 1e-13


class TestMode:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            Mode(0, 0)
        with pytest.raises(ValueError):
            Mode(1, 2)

    def test_replace_and_make_validate(self):
        assert Mode(2, 1)._replace(j=3) == Mode(3, 1)
        with pytest.raises(ValueError):
            Mode(2, 1)._replace(sigma=0)
        with pytest.raises(ValueError):
            Mode._make((1, 2))

    def test_repr_is_compact(self):
        assert repr(Mode(2, 1)) == "(2,+)"
        assert repr(Mode(0, -1)) == "(0,-)"


class TestResonantModes:
    def test_resonant_pair(self):
        assert LOW in RESONANT_MODES
        assert HIGH in RESONANT_MODES

    def test_non_poles(self):
        for mode in [Mode(0, 1), Mode(2, -1), Mode(1, 1), Mode(1, -1), Mode(-1, -1), Mode(3, 1)]:
            assert mode not in RESONANT_MODES

    def test_poles_are_the_resonant_pair(self):
        # 4*omega_j^sigma(1/4) = 4j + 1 - 2*sigma*sqrt|4j + 1| equals 3 only if
        # that root is an integer k, so the reference is integer arithmetic
        poles = []
        for j in range(-10**4, 10**4 + 1):
            k = math.isqrt(abs(4 * j + 1))
            for sigma in (1, -1):
                exact = k * k == abs(4 * j + 1) and 4 * j + 1 - 2 * sigma * k == 3
                assert (Mode(j, sigma) in RESONANT_MODES) == exact, (j, sigma)
                if exact:
                    poles.append(Mode(j, sigma))
        assert poles == [LOW, HIGH]
        # every other flat frequency lies outside the circle of residue_contour
        gap = min(
            abs(omega(j, sigma, 0.25) - 0.75)
            for j in range(-10**4, 10**4 + 1)
            for sigma in (1, -1)
            if Mode(j, sigma) not in RESONANT_MODES
        )
        assert gap == pytest.approx(abs(omega(1, 1, 0.25) - 0.75), abs=0)
        assert gap >= 0.618 > entanglement._CONTOUR_RADIUS


class TestResidue:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            residue([])

    def test_single_mode(self):
        assert residue([LOW]) == 1.0
        assert residue([Mode(1, 1)]) == 0.0

    def test_no_pole_vanishes(self):
        assert residue([Mode(1, 1), Mode(-1, -1), Mode(3, 1)]) == 0.0

    def test_all_pole_vanishes(self):
        assert residue([LOW, HIGH]) == 0.0
        assert residue([LOW, LOW, HIGH]) == 0.0

    def test_one_pole_product(self):
        from stokes_isola.stokes import omega

        path = [LOW, Mode(1, 1), Mode(-1, -1)]
        expected = 1.0
        for m in path[1:]:
            expected /= omega(m.j, m.sigma, 0.25) - 0.75
        assert residue(path) == pytest.approx(expected, rel=1e-14)

    def test_two_pole_formula(self):
        from stokes_isola.stokes import omega

        path = [LOW, Mode(1, 1), HIGH]
        d = omega(1, 1, 0.25) - 0.75
        assert residue(path) == pytest.approx(-1.0 / d**2, rel=1e-14)

    def test_three_poles_rejected(self):
        with pytest.raises(ValueError):
            residue([LOW, HIGH, LOW, Mode(1, 1)])

    def test_permutation_invariance_fixed(self):
        rng = random.Random(7)
        for path in (
            [LOW, Mode(1, 1), Mode(2, 1)],
            [LOW, Mode(1, -1), HIGH, Mode(-1, -1)],
            [Mode(1, 1), Mode(3, 1), Mode(-2, -1)],
        ):
            base = residue(path)
            for _ in range(6):
                shuffled = path[:]
                rng.shuffle(shuffled)
                assert residue(shuffled) == pytest.approx(base, abs=1e-13)

    @settings(max_examples=60)
    @given(
        path=st.lists(st.sampled_from(MODE_POOL), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_permutation_invariance_property(self, path, seed):
        flags = sum(m in RESONANT_MODES for m in path)
        if flags >= 3 and flags < len(path):
            return  # outside the supported case analysis
        shuffled = path[:]
        random.Random(seed).shuffle(shuffled)
        assert residue(shuffled) == pytest.approx(residue(path), abs=1e-12)

    def test_contour_agreement_random_paths(self):
        rng = random.Random(20260819)
        checked = 0
        while checked < 50:
            path = [rng.choice(MODE_POOL) for _ in range(rng.randint(1, 4))]
            npoles = sum(m in RESONANT_MODES for m in path)
            if npoles > 2 and npoles < len(path):
                continue
            got = residue_contour(path)
            want = residue(path)
            assert abs(got.imag) <= 1e-8
            assert abs(got.real - want) <= 1e-8
            checked += 1

    def test_contour_matches_the_loop_it_replaced(self):
        """The numpy trapezoid sum against the node-by-node loop of the same
        rule; the sums run in another order, so they agree to rounding."""

        def loop(modes):
            omegas = [omega(m.j, m.sigma, 0.25) for m in modes]
            nodes, radius = entanglement._CONTOUR_NODES, entanglement._CONTOUR_RADIUS
            total = 0j
            for k in range(nodes):
                tk = 2.0 * math.pi * k / nodes
                lam = 0.75j + radius * complex(math.cos(tk), math.sin(tk))
                denom = 1.0 + 0j
                for om in omegas:
                    denom *= lam - 1j * om
                total += radius * complex(-math.sin(tk), math.cos(tk)) / denom
            return (-1j) ** (len(modes) - 1) / (2j * math.pi) * total * (2.0 * math.pi / nodes)

        rng = random.Random(20261018)
        for _ in range(10):
            path = [rng.choice(MODE_POOL) for _ in range(rng.randint(1, 4))]
            assert abs(residue_contour(path) - loop(path)) <= 1e-12


class TestProject:
    def test_branches(self):
        vec = {LOW: 1.0 + 0j, Mode(1, 1): 2.0 + 0j, HIGH: 3j}
        assert project(vec, None) == vec
        assert project(vec, "P0") == {LOW: 1.0 + 0j, HIGH: 3j}
        assert project(vec, "Q0") == {Mode(1, 1): 2.0 + 0j}
        with pytest.raises(ValueError):
            project(vec, "P1")


class TestChainAlgebra:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_apply([], LOW)

    def test_all_pole_two_mode_path_vanishes(self):
        # the direct low -> high hop sits entirely on the pole set, so the
        # resonant component dies; the (2,-) companion hop survives
        vec = chain_apply([(B02, +2)], LOW)
        assert abs(vec.get(HIGH, 0j)) == 0.0
        assert abs(vec[Mode(2, -1)]) > 0.0

    def test_projector_noop_off_resonance(self):
        # a single +1 hop cannot land on the resonant pair
        assert chain_apply([(B01, +1)], LOW, "Q0") == chain_apply([(B01, +1)], LOW)
        assert chain_apply([(B01, +1)], LOW, "P0") == {}

    def test_length_one_bracket_is_bare_coupling(self):
        got = bracket((B01, +1), LOW, Mode(1, 1))
        assert got == pytest.approx(ent_coeff(B01, +1, LOW, 1), abs=1e-15)

    def test_mismatched_harmonics_vanish(self):
        assert bracket((B01, +1), LOW, Mode(2, 1)) == 0

    def test_whole_jet_sums_every_shift(self):
        # kappa=None pairs each left mode with each right mode at its own shift
        right = {Mode(1, 1): 2.0 + 0j, Mode(-1, -1): 1j}
        want = 2.0 * ent_coeff(B01, +1, LOW, 1) - 1j * ent_coeff(B01, -1, LOW, -1)
        assert bracket((B01, None), LOW, right) == pytest.approx(want, abs=1e-15)
        assert bracket((B01, +1), LOW, right) == pytest.approx(
            2.0 * ent_coeff(B01, +1, LOW, 1), abs=1e-15
        )

    def test_linear_left_antilinear_right(self):
        vec = chain_apply([(B01, +1)], LOW)
        base = bracket((B01, +1), vec, HIGH)
        assert bracket((B01, +1), {m: 1j * c for m, c in vec.items()}, HIGH) == pytest.approx(
            1j * base, abs=1e-15
        )
        assert bracket((B02, +2), LOW, {HIGH: 1j}) == pytest.approx(
            -1j * ent_coeff(B02, +2, LOW, 1), abs=1e-15
        )

    def _random_dual_pair(self, rng: random.Random):
        """One application-order chain between resonant modes plus its reverse."""
        src = rng.choice(RESONANT_MODES)
        tgt = rng.choice(RESONANT_MODES)
        q = rng.randint(1, 3)
        pool = [
            (ell, kappa)
            for ell in ALL_JETS
            for kappa in range(-3, 4)
            if _supports(ell, kappa)
        ]
        for _ in range(200):
            tail = [rng.choice(pool) for _ in range(q)]
            k_first = tgt.j - src.j - sum(k for _, k in tail)
            first_choices = [ell for ell in ALL_JETS if _supports(ell, k_first)]
            if not first_choices or abs(src.j + k_first) > 5:
                continue
            chain = [(rng.choice(first_choices), k_first)] + tail
            # keep intermediate harmonics small so magnitudes stay tame
            js = [src.j]
            for _, k in chain:
                js.append(js[-1] + k)
            if max(abs(j) for j in js) > 5:
                continue
            return chain, src, tgt
        raise AssertionError("failed to draw a harmonically consistent chain")

    def test_dual_bracket_equality_random_chains(self):
        # pairing the chain against the target equals pairing the source
        # against the reversed, harmonic-negated chain
        rng = random.Random(1234)
        checked = 0
        while checked < 30:
            chain, src, tgt = self._random_dual_pair(rng)
            try:
                left = bracket(chain[-1], chain_apply(chain[:-1], src), tgt)
                reversed_tail = [(ell, -k) for ell, k in reversed(chain[1:])]
                right = bracket(chain[0], src, chain_apply(reversed_tail, tgt))
            except ValueError:
                continue  # path touched the unsupported residue case
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
            checked += 1

    def test_dual_bracket_documented_example(self):
        left = bracket((B01, +1), chain_apply([(B01, +1)], LOW), HIGH)
        right = bracket((B01, +1), LOW, chain_apply([(B01, -1)], HIGH))
        assert abs(left - right) <= 1e-13


class TestExactConstants:
    def test_stars(self):
        assert MU_STAR == 0.25
        assert OMEGA_STAR == 0.75
        assert LOW == Mode(0, -1)
        assert HIGH == Mode(2, 1)

    def test_resonant_frequencies_collide(self):
        from stokes_isola.stokes import omega

        assert omega(LOW.j, LOW.sigma, 0.25) == pytest.approx(0.75, abs=1e-15)
        assert omega(HIGH.j, HIGH.sigma, 0.25) == pytest.approx(0.75, abs=1e-15)


def _walk(ops, source, projector=None):
    """The recursive walk that `chain_apply` replaced: every path rebuilt
    from the source and `residue` called on it at each leaf."""
    out = {}
    if not isinstance(source, Mode):
        for mode, c in source.items():
            if c != 0:
                for final, cc in _walk(ops, mode).items():
                    out[final] = out.get(final, 0j) + c * cc
        return project(out, projector)

    def walk(path, acc, depth):
        if depth == len(ops):
            r = residue(path)
            if r != 0.0:
                final = path[-1]
                out[final] = out.get(final, 0j) + acc * r
            return
        ell, kappa = ops[depth]
        prev = path[-1]
        for sig in (1, -1):
            c = ent_coeff(ell, kappa, prev, sig)
            if c == 0:
                continue
            walk(path + [Mode(prev.j + kappa, sig)], acc * sig * c, depth + 1)

    walk([source], 1.0 + 0j, 0)
    return project(out, projector)


def _old_residue(modes):
    """`residue` as it was before it shared the path table's step and factor."""
    flags = [m in RESONANT_MODES for m in modes]
    npoles = sum(flags)
    if npoles == 0:
        return 0.0
    if npoles == len(modes) and len(modes) >= 2:
        return 0.0
    if npoles > 2:
        raise ValueError(
            f"{npoles} poles on a path of {len(modes)} modes: not covered by the case analysis"
        )
    prod, acc = 1.0, 0.0
    for m, f in zip(modes, flags):
        if not f:
            r = omega(m.j, m.sigma, MU_STAR) - OMEGA_STAR
            prod /= r
            acc += 1.0 / r
    return prod if npoles == 1 else -acc * prod


def _outcome(fn, *args):
    """A result, or the text of the ValueError raised instead."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same(got, want):
    """Equal keys in equal order and == on each value."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return list(got) == list(want) and all(got[m] == want[m] for m in want)


SUPPORTED_OPS = [(ell, kappa) for ell in ALL_JETS for kappa in range(-4, 5) if _supports(ell, kappa)]
PROJECTORS = [None, "P0", "Q0"]


class TestPathTable:
    """`chain_apply` over the shared path table against the walk it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(SUPPORTED_OPS), min_size=1, max_size=4),
        source=st.one_of(st.sampled_from(RESONANT_MODES), st.sampled_from(MODE_POOL)),
        projector=st.sampled_from(PROJECTORS),
    )
    def test_matches_the_walk(self, ops, source, projector):
        assert _same(_outcome(chain_apply, ops, source, projector), _outcome(_walk, ops, source, projector))

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(SUPPORTED_OPS), min_size=1, max_size=3),
        projector=st.sampled_from(PROJECTORS),
    )
    def test_matches_the_walk_on_a_vector(self, ops, projector):
        vec = {LOW: 0.3 + 1j, Mode(1, 1): 2j, HIGH: -1.5 + 0j, Mode(3, -1): 0j, Mode(-1, -1): 0.25 - 0.5j}
        assert _same(_outcome(chain_apply, ops, vec, projector), _outcome(_walk, ops, vec, projector))

    def test_catalog_and_route_chains_match_the_walk(self):
        from stokes_isola import jets

        chains = [list(row[3]) for row in jets._CATALOG]
        chains += [c for k in (1, 2, 3) for c in jets._composite_projector_chains()[k]]
        for chain in chains:
            for source in RESONANT_MODES:
                for projector in PROJECTORS:
                    assert _same(
                        _outcome(chain_apply, chain, source, projector),
                        _outcome(_walk, chain, source, projector),
                    )

    def test_three_pole_path_raises_the_same_error(self):
        # (0,-) -> (1,+-) -> (2,+) -> (1,+-) -> (0,-): three poles on five modes
        ops = [(B01, +1), (B01, +1), (B01, -1), (B01, -1)]
        with pytest.raises(ValueError) as table:
            chain_apply(ops, LOW)
        with pytest.raises(ValueError) as walked:
            _walk(ops, LOW)
        assert str(table.value) == str(walked.value)
        assert str(table.value) == "3 poles on a path of 5 modes: not covered by the case analysis"

    @settings(max_examples=100, deadline=None)
    @given(path=st.lists(st.sampled_from(MODE_POOL), min_size=1, max_size=5))
    def test_residue_keeps_its_values(self, path):
        assert _outcome(residue, path) == _outcome(_old_residue, path)

    def test_caches_hold_immutable_values(self):
        from stokes_isola import jets

        jets.beta3_projector_route()
        for name, source, _, chain, *_ in jets._CATALOG:
            key = tuple((ell.mu_order, ell.eps_order, kappa) for ell, kappa in chain)
            for stop in range(len(key) + 1):
                for entry in entanglement._paths(key[:stop], source.j, source.sigma):
                    assert type(entry) is tuple, name
                    assert [type(v) for v in entry] == [int, int, complex, int, float, float], name
        caches = (entanglement._paths, entanglement._coeff, entanglement._gap, entanglement._mode)
        assert all(f.cache_info().currsize > 0 for f in caches)
        assert type(entanglement._coeff(0, 1, 1, 0, -1, 1)) is complex
        assert type(entanglement._gap(1, 1)) is float and entanglement._gap(0, -1) is None
        mode = entanglement._mode(2, 1)
        assert mode == HIGH and mode is entanglement._mode(2, 1)
        with pytest.raises(AttributeError):
            mode.j = 3  # frozen
