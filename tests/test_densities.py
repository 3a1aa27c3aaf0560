import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substrqa import DiscrepancyError, DomainError, SubshiftKind, Substitution
from substrqa.densities import (
    BaseEvidence,
    Decomposition,
    DensityTable,
    block_frequencies,
    closed_form_indices,
    decompose,
    dens_K,
    density_from_frequencies,
    empirical_delta,
    letter_frequencies,
    reconstruct_base,
    simplest_rational_in,
    snap_to_simple_rational,
    table_to_json_dict,
)
from substrqa.recognizability import language_slice, recognizability_constants
from substrqa.recplot import inner_line_counts, inner_line_starts

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")
GOLDEN = [TM, PD, Q5]

BASE_TABLES = {
    TM: {1: Fraction(1, 9), 2: Fraction(1, 18), 3: Fraction(1, 36)},
    PD: {1: Fraction(1, 9), 2: Fraction(1, 18)},
    Q5: {1: Fraction(7, 50), 2: Fraction(3, 50), 3: Fraction(1, 50), 4: Fraction(13, 1250)},
}


class TestBlockFrequencies:
    @pytest.mark.parametrize(
        "sub,f0",
        [(TM, Fraction(1, 2)), (PD, Fraction(2, 3)), (Q5, Fraction(1, 2))],
        ids=str,
    )
    def test_letter_frequencies(self, sub, f0):
        assert letter_frequencies(sub) == (f0, 1 - f0)

    def test_tm_two_blocks(self):
        assert block_frequencies(TM, 2) == {
            "00": Fraction(1, 6),
            "11": Fraction(1, 6),
            "01": Fraction(1, 3),
            "10": Fraction(1, 3),
        }

    def test_tm_three_blocks_uniform(self):
        freqs = block_frequencies(TM, 3)
        assert set(freqs.values()) == {Fraction(1, 6)}
        assert len(freqs) == 6

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_sums_to_one_on_the_language(self, sub, length):
        freqs = block_frequencies(sub, length)
        assert sum(freqs.values()) == 1
        assert set(freqs) == language_slice(sub, length).words
        assert all(f > 0 for f in freqs.values())

    def test_two_blocks_on_every_small_form(self):
        # The closed form against the independent letter-frequency route and
        # the desubstitution recursion, on every primitive aperiodic
        # normalized form with q <= 4.
        forms = set()
        for q in (2, 3, 4):
            words = ["".join(t) for t in itertools.product("01", repeat=q)]
            for a, b in itertools.product(words, repeat=2):
                cls = Substitution(a, b).classify()
                if cls.kind is SubshiftKind.PRIMITIVE_APERIODIC:
                    forms.add(cls.normalized)
        assert len(forms) == 194
        for sub in forms:
            freqs = block_frequencies(sub, 2)
            assert all(f > 0 for f in freqs.values()), sub
            assert sum(freqs.values()) == 1, sub
            for pos in (0, 1):
                marginal = tuple(
                    sum(f for w, f in freqs.items() if w[pos] == a) for a in "01"
                )
                assert marginal == letter_frequencies(sub), (sub, pos)
            # Length 3 is built from length 2 by desubstitution, so a wrong
            # mu(01) shows up as length-3 marginals that miss it.
            triples = block_frequencies(sub, 3)
            for w, f in freqs.items():
                assert sum(g for v, g in triples.items() if v[:-1] == w) == f, (sub, w)
                assert sum(g for v, g in triples.items() if v[1:] == w) == f, (sub, w)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_marginals_are_consistent(self, sub, length):
        freqs = block_frequencies(sub, length)
        longer = block_frequencies(sub, length + 1)
        for w, f in freqs.items():
            assert sum(g for v, g in longer.items() if v[:-1] == w) == f
            assert sum(g for v, g in longer.items() if v[1:] == w) == f

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_matches_counts_in_prefix(self, sub):
        n = 1 << 13
        text = sub.fixed_point_prefix(n).to01()
        for length in (1, 2, 4):
            windows = n - length + 1
            freqs = block_frequencies(sub, length)
            for w, f in freqs.items():
                brute = sum(text[i : i + length] == w for i in range(windows))
                assert abs(Fraction(brute, windows) - f) < Fraction(1, 256)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            block_frequencies(TM, 0)
        with pytest.raises(DomainError):
            block_frequencies(Substitution("10", "01"), 2)


class TestDensityFromFrequencies:
    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_base_values(self, sub):
        for length, want in BASE_TABLES[sub].items():
            assert density_from_frequencies(sub, length) == want

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_agrees_with_scaling_law_above_R(self, sub):
        # Two fully independent routes: block-frequency products versus the
        # table entry pushed up by powers of q^2.
        table = reconstruct_base(sub)
        R = table.constants.R
        for length in range(R, R + 9):
            assert density_from_frequencies(sub, length) == dens_K(table, length)


class TestEmpiricalDelta:
    def test_counts_ordered_start_pairs(self):
        n = 128
        x = TM.fixed_point_prefix(n + 4)
        for length in (1, 2, 3):
            starts = inner_line_starts(x, length, n)
            assert empirical_delta(x, length, n) == Fraction(len(starts), n * n - n)

    def test_tm_short_lengths_near_truth(self):
        n = 1 << 11
        x = TM.fixed_point_prefix(n + 3)
        assert abs(empirical_delta(x, 1, n) - Fraction(1, 9)) < Fraction(1, 1000)
        assert abs(empirical_delta(x, 2, n) - Fraction(1, 18)) < Fraction(1, 1000)


class TestSnap:
    @pytest.mark.parametrize(
        "lo,hi,want",
        [
            (Fraction(3, 10), Fraction(1, 2), Fraction(1, 2)),
            (Fraction(2, 7), Fraction(3, 7), Fraction(1, 3)),
            (Fraction(1, 5), Fraction(3, 10), Fraction(1, 4)),
            (Fraction(-1, 10), Fraction(1, 10), Fraction(0)),
            (Fraction(5, 2), Fraction(7, 2), Fraction(3)),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            (Fraction(-3, 7), Fraction(-2, 7), Fraction(-1, 3)),
        ],
    )
    def test_simplest_examples(self, lo, hi, want):
        assert simplest_rational_in(lo, hi) == want

    def test_rejects_empty_interval(self):
        with pytest.raises(DomainError):
            simplest_rational_in(Fraction(1, 2), Fraction(1, 3))

    @given(
        a=st.integers(0, 400),
        b=st.integers(1, 400),
        width=st.integers(1, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_simplest_is_simplest(self, a, b, width):
        lo = Fraction(a, b)
        hi = lo + Fraction(width, 400)
        best = simplest_rational_in(lo, hi)
        assert lo <= best <= hi
        # Nothing with a smaller denominator fits in the interval: the
        # smallest multiple of 1/den at or above lo already overshoots hi.
        for den in range(1, best.denominator):
            num = -(-lo.numerator * den // lo.denominator)
            assert Fraction(num, den) > hi

    def test_snap_respects_cap(self):
        value = Fraction(13, 1250)
        assert snap_to_simple_rational(value, Fraction(1, 10**6), 4 * 5**6) == value
        assert snap_to_simple_rational(value, Fraction(1, 10**6), 100) is None

    def test_snap_is_evidence_not_authority(self):
        # Even a 1e-5 tolerance around 13/1250 contains the simpler 5/481,
        # so snapping empirical estimates cannot certify that base density.
        assert snap_to_simple_rational(
            Fraction(13, 1250), Fraction(1, 100000), 4 * 5**6
        ) == Fraction(5, 481)


class TestReconstruction:
    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_golden_base_tables(self, sub):
        table = reconstruct_base(sub)
        assert table.base == BASE_TABLES[sub]
        assert table.constants == recognizability_constants(sub)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_evidence_is_recorded(self, sub):
        table = reconstruct_base(sub)
        constants = table.constants
        assert set(table.evidence) == set(range(1, constants.R))
        for length, ev in table.evidence.items():
            assert ev.scales == (1 << 12, 1 << 13)
            for delta, tol in zip(ev.deltas, ev.tolerances):
                assert abs(delta - table.base[length]) <= tol
            if length >= constants.R0:
                assert ev.child == constants.q * length + constants.alpha + constants.beta
                assert ev.child_delta is not None
            else:
                assert ev.child is None

    def test_cached_per_scales(self):
        assert reconstruct_base(TM) is reconstruct_base(TM)
        other = reconstruct_base(TM, scales=(1 << 10, 1 << 11))
        assert other is not reconstruct_base(TM)
        assert other.base == BASE_TABLES[TM]

    def test_rejects_bad_subjects(self):
        with pytest.raises(DomainError):
            reconstruct_base(Substitution("10", "01"))
        with pytest.raises(DomainError):
            reconstruct_base(Substitution("010", "111"))
        with pytest.raises(DomainError):
            reconstruct_base(TM, scales=(64, 64))


class TestDecompose:
    def test_worked_examples(self):
        kpd = recognizability_constants(PD)
        ktm = recognizability_constants(TM)
        assert decompose(kpd, 5) == Decomposition(length=5, k=1, base=2, valid=True)
        assert decompose(kpd, 4) == Decomposition(length=4, k=None, base=None, valid=False)
        assert decompose(ktm, 8) == Decomposition(length=8, k=2, base=2, valid=True)

    def test_rejects_below_R(self):
        with pytest.raises(DomainError):
            decompose(recognizability_constants(TM), 3)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_valid_chains_reproduce_length(self, sub):
        k = recognizability_constants(sub)
        for length in range(k.R, 400):
            piece = decompose(k, length)
            if piece.valid:
                assert k.R0 <= piece.base < k.R
                assert piece.k >= 1
                assert length == k.q**piece.k * piece.base + k.c * (k.q**piece.k - 1)
            else:
                assert piece.k is None and piece.base is None

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_invalid_means_no_start_pairs(self, sub):
        # Start-pair emptiness in a long prefix is the ground truth the
        # valid/invalid verdict has to match.
        k = recognizability_constants(sub)
        n = 1 << 11
        lmax = 40
        x = sub.fixed_point_prefix(n + lmax + 1)
        counts = inner_line_counts(x, n, lmax)
        for length in range(k.R, lmax + 1):
            piece = decompose(k, length)
            if piece.valid:
                assert counts[length] > 0
            else:
                assert counts[length] == 0


class TestDensKAndIndices:
    def test_worked_examples(self):
        assert dens_K(reconstruct_base(TM), 12) == Fraction(1, 576)
        assert dens_K(reconstruct_base(TM), 7) == 0
        assert dens_K(reconstruct_base(Q5), 9) == Fraction(7, 1250)

    def test_below_R_is_table_lookup(self):
        table = reconstruct_base(Q5)
        for length, want in BASE_TABLES[Q5].items():
            assert dens_K(table, length) == want
        with pytest.raises(DomainError):
            dens_K(table, 0)

    def test_zero_base_propagates(self):
        table = reconstruct_base(TM)
        zeroed = DensityTable(
            subst=table.subst,
            constants=table.constants,
            base={**table.base, 2: Fraction(0)},
            evidence=table.evidence,
        )
        assert dens_K(zeroed, 8) == 0

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_support_is_logarithmically_sparse(self, sub):
        # At most R*(1+log_q L) lengths up to L can carry positive density:
        # each base heads one chain and chains thin out geometrically.
        table = reconstruct_base(sub)
        k = table.constants
        L = 500
        support = sum(1 for length in range(1, L + 1) if dens_K(table, length) > 0)
        assert support <= k.R * (1 + math.log(L, k.q))

    def test_index_worked_examples(self):
        assert closed_form_indices(recognizability_constants(TM), 4) == (1, 2)
        assert closed_form_indices(recognizability_constants(PD), 1) == (0, 1)
        assert closed_form_indices(recognizability_constants(Q5), 9) == (1, 1)

    def test_index_rejects_below_R0(self):
        with pytest.raises(DomainError):
            closed_form_indices(recognizability_constants(TM), 1)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_index_minimality(self, sub):
        k = recognizability_constants(sub)

        def reach(l0, j):
            return l0 * k.q**j + k.c * (k.q**j - 1)

        for target in range(k.R0, 200):
            j, l0 = closed_form_indices(k, target)
            assert k.R0 <= l0 < k.R
            assert reach(l0, j) >= target
            if j > 0:
                assert reach(k.R - 1, j - 1) < target
            if l0 > k.R0:
                assert reach(l0 - 1, j) < target


class TestTableSerialization:
    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_round_trip(self, sub):
        table = reconstruct_base(sub)
        payload = json.loads(json.dumps(table_to_json_dict(table)))
        assert payload["substitution"] == str(sub)
        assert {int(l): Fraction(*pair) for l, pair in payload["base"].items()} == table.base
        for length, ev in table.evidence.items():
            entry = payload["evidence"][str(length)]
            assert tuple(Fraction(*pair) for pair in entry["deltas"]) == ev.deltas
            assert tuple(Fraction(*pair) for pair in entry["tolerances"]) == ev.tolerances
