import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from substrqa import (
    DiscrepancyError,
    DomainError,
    ReconstructionError,
    SubshiftKind,
    Substitution,
    cli,
    closed_form,
    densities,
)
from substrqa.asymptotics import _family_first_step
from substrqa.densities import (
    BaseEvidence,
    DensityTable,
    closed_form_indices,
    decompose,
    dens_K,
    density_from_frequencies,
    empirical_delta,
    letter_frequencies,
    reconstruct_base,
)
from substrqa.densities import _prefix_counts, _start_pairs
from substrqa.recognizability import desubstitute, language_slice, recognizability_constants
from substrqa.recplot import inner_line_counts

from oracles import block_frequencies, inner_line_starts, normalized_forms

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")
GOLDEN = [TM, PD, Q5]

BASE_TABLES = {
    TM: {1: Fraction(1, 9), 2: Fraction(1, 18), 3: Fraction(1, 36)},
    PD: {1: Fraction(1, 9), 2: Fraction(1, 18)},
    Q5: {1: Fraction(7, 50), 2: Fraction(3, 50), 3: Fraction(1, 50), 4: Fraction(13, 1250)},
}


@lru_cache(maxsize=None)
def _fraction_frequencies(sub, length):
    # Reference: the block-frequency recursion in plain Fractions, one
    # gcd per addition, that the integer engine replaced.
    if length == 1:
        return dict(zip("01", letter_frequencies(sub)))
    if length == 2:
        return densities._two_block_frequencies(sub)
    acc = {}
    for _, freq, target in desubstitute(sub, length, lambda s: _fraction_frequencies(sub, s)):
        acc[target] = acc.get(target, Fraction(0)) + freq
    return {w: f / sub.q for w, f in acc.items()}


class TestBlockFrequencies:
    @pytest.mark.parametrize(
        "sub,f0",
        [(TM, Fraction(1, 2)), (PD, Fraction(2, 3)), (Q5, Fraction(1, 2))],
        ids=str,
    )
    def test_letter_frequencies(self, sub, f0):
        assert letter_frequencies(sub) == (f0, 1 - f0)

    @pytest.mark.parametrize("images", [("00", "11"), ("000", "111"), ("0000", "1111")])
    def test_letter_frequencies_refuses_outside_the_domain(self, images):
        # Both letters map to their own blocks: the count matrix has no
        # unique eigenvector, and the formula would read Fraction(0, 0).
        with pytest.raises(DomainError, match="primitive aperiodic"):
            letter_frequencies(Substitution(*images))

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
        assert set(freqs) == language_slice(sub, length)
        assert all(f > 0 for f in freqs.values())

    def test_two_blocks_on_every_small_form(self):
        # The closed form against the independent letter-frequency route and
        # the desubstitution recursion, on every primitive aperiodic
        # normalized form with q <= 4.
        forms = normalized_forms((2, 3, 4))
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

    def test_equals_the_fraction_recursion(self):
        # Word order too, so printed tables stay byte for byte the same.
        sample = random.Random(5).sample(normalized_forms((2, 3, 4)), 40)
        for sub in GOLDEN + sample:
            for length in range(1, recognizability_constants(sub).R + 2):
                want = list(_fraction_frequencies(sub, length).items())
                assert list(block_frequencies(sub, length).items()) == want, (sub, length)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_engine_holds_integers(self, sub):
        # Outputs stay right if the engine slips back to Fractions; only
        # this sees it.
        for length in range(1, recognizability_constants(sub).R + 3):
            D, table = densities._block_frequencies_cached(sub, length)
            assert type(D) is int and all(type(n) is int for n in table.values()), length


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
        q = constants.q
        k = 1
        while q**k < 2048:
            k += 1
        sizes = (q ** (k - 1) + 1, q**k + 1)
        x = sub.fixed_point_prefix(sizes[1] + q * constants.R + 1)
        small = inner_line_counts(x, sizes[0], constants.R)
        large = inner_line_counts(x, sizes[1], q * constants.R)
        assert set(table.evidence) == set(range(1, constants.R))
        for length, ev in table.evidence.items():
            assert ev.scales == sizes
            assert ev.counts == (small[length], large[length])
            if length >= constants.R0:
                assert ev.child == q * length + constants.alpha + constants.beta
                assert ev.child_count == large[ev.child] == ev.counts[0]
            else:
                assert ev.child is None and ev.child_count is None

    def test_gate_sizes(self):
        assert reconstruct_base(TM).evidence[1].scales == (1025, 2049)
        assert reconstruct_base(Q5).evidence[1].scales == (626, 3126)
        square = Substitution("1010", "0001").classify().normalized
        assert reconstruct_base(square).evidence[1].scales == (257, 4097)

    def test_cached(self):
        assert reconstruct_base(TM) is reconstruct_base(TM)

    def test_rejects_bad_subjects(self):
        with pytest.raises(DomainError):
            reconstruct_base(Substitution("10", "01"))
        with pytest.raises(DomainError):
            reconstruct_base(Substitution("010", "111"))


class TestBlockRecurrence:
    @pytest.mark.parametrize("sub", [TM, PD, Q5, Substitution("0010", "0111")], ids=str)
    def test_counts_equal_the_diagonal_walk(self, sub):
        # Oracle: the start pairs in [1, q^k + 1)^2 listed one by one.
        for k in range(4):
            n = sub.q**k + 1
            x = sub.fixed_point_prefix(n + 9)
            for length in range(1, 7):
                recurrence = _start_pairs(_prefix_counts(sub, length + 2, k))
                assert recurrence == len(inner_line_starts(x, length, n)), (k, length)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_prefix_counts_match_the_prefix(self, sub):
        for k in range(4):
            text = sub.fixed_point_prefix(sub.q**k + 8).to01()
            for length in (1, 2, 5, 8):
                brute: dict[str, int] = {}
                for i in range(sub.q**k):
                    brute[text[i : i + length]] = brute.get(text[i : i + length], 0) + 1
                assert _prefix_counts(sub, length, k) == brute


class TestGateRefuses:
    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        densities._reconstruct_cached.cache_clear()
        yield
        densities._reconstruct_cached.cache_clear()

    def test_count_mismatch(self, monkeypatch):
        monkeypatch.setattr(densities, "_prefix_counts", lambda sub, length, k: {"0" * length: 1})
        with pytest.raises(ReconstructionError, match="at length 1 and size 1025"):
            reconstruct_base(TM)

    def test_frequencies_not_shift_invariant(self, monkeypatch):
        original = densities._block_frequencies_cached

        def skewed(sub, length):
            # Moves one unit of numerator mass between two 4-blocks; the
            # denominator, and so the total, stays.
            D, freqs = original(sub, length)
            freqs = dict(freqs)
            if length == 4:
                a, b = sorted(freqs)[:2]
                freqs[a] += 1
                freqs[b] -= 1
            return D, freqs

        monkeypatch.setattr(densities, "_block_frequencies_cached", skewed)
        with pytest.raises(ReconstructionError, match="length 4 are not shift invariant"):
            reconstruct_base(TM)

    def test_scaling_mismatch(self, monkeypatch):
        # Counts at lengths >= R are read only by the scaling check.
        original = densities.inner_line_counts

        def bumped(x, n, max_length):
            counts = original(x, n, max_length)
            counts[4:] += 2
            return counts

        monkeypatch.setattr(densities, "inner_line_counts", bumped)
        with pytest.raises(ReconstructionError, match="scaling check failed for base length 2"):
            reconstruct_base(TM)


def _certifies(table):
    assert set(table.base) == set(range(1, table.constants.R))
    closed_form(table, 1, 1, 1)


class TestSweep:
    def test_every_form_up_to_q4_certifies(self):
        forms = normalized_forms((2, 3, 4))
        assert len(forms) == 194
        for sub in forms:
            _certifies(reconstruct_base(sub))

    @pytest.mark.parametrize("spec", ["10001,00011", "11100,01110", "11111,01100"])
    def test_q25_squares_certify(self, spec):
        sub = Substitution.parse(spec).classify().normalized
        assert sub.q == 25
        _certifies(reconstruct_base(sub))

    def test_former_tolerance_refusal(self):
        # The 16/n band rejected this exact value: the count at n = 8192 is
        # 3807405/33550336, more than 16/8192 away.
        sub = Substitution("00001", "10110")
        assert reconstruct_base(sub).base[1] == Fraction(26, 225)

    def test_seeded_large_q_forms_certify(self):
        # Twelve forms with q in 6..16 whose image of 0 starts with 0, and
        # twelve whose images start 1/0, so they normalize to squares with
        # q in 36..144 (R up to 193 at this seed).
        rng = random.Random(13)
        for first, lo, hi in (("00", 6, 16), ("10", 6, 12)):
            drawn = 0
            while drawn < 12:
                q = rng.randint(lo, hi)
                a, b = (f + "".join(rng.choice("01") for _ in range(q - 1)) for f in first)
                cls = Substitution(a, b).classify()
                if cls.kind is SubshiftKind.PRIMITIVE_APERIODIC:
                    assert cls.normalized.q == (q if first == "00" else q * q)
                    _certifies(reconstruct_base(cls.normalized))
                    drawn += 1

    @pytest.mark.slow
    def test_every_form_with_q5_certifies(self, q5_tables):
        assert len(q5_tables) == 703
        for table in q5_tables:
            _certifies(table)


class TestDecompose:
    def test_worked_examples(self):
        kpd = recognizability_constants(PD)
        ktm = recognizability_constants(TM)
        assert decompose(kpd, 5) == (1, 2)
        assert decompose(kpd, 4) is None
        assert decompose(ktm, 8) == (2, 2)

    def test_rejects_below_R(self):
        with pytest.raises(DomainError):
            decompose(recognizability_constants(TM), 3)

    @pytest.mark.parametrize("length", [12.0, "12"])
    def test_non_integer_length_is_refused(self, length):
        # 12.0 decomposed in floats, with float fields; "12" met a raw TypeError.
        with pytest.raises(DomainError, match="length must be an integer"):
            decompose(recognizability_constants(TM), length)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_valid_chains_reproduce_length(self, sub):
        k = recognizability_constants(sub)
        for length in range(k.R, 400):
            piece = decompose(k, length)
            if piece is not None:
                steps, base = piece
                assert k.R0 <= base < k.R
                assert steps >= 1
                assert length == k.q**steps * base + k.c * (k.q**steps - 1)

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
            if piece is not None:
                assert counts[length] > 0
            else:
                assert counts[length] == 0


class TestDensKAndIndices:
    def test_worked_examples(self):
        assert dens_K(reconstruct_base(TM), 12) == Fraction(1, 576)
        assert dens_K(reconstruct_base(TM), 7) == 0
        assert dens_K(reconstruct_base(Q5), 9) == Fraction(7, 1250)

    def test_integral_float_length_is_refused(self):
        # A float length ran the scaling law in floats, whose two closed
        # forms then raised a false DiscrepancyError.
        with pytest.raises(DomainError, match="length must be an integer, got 12.0"):
            dens_K(reconstruct_base(TM), 12.0)

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

    def test_index_refuses_a_float_target(self):
        # 2.5 was split as if it were an integer length, into (0, 3).
        with pytest.raises(DomainError, match="target length must be an integer, got 2.5"):
            closed_form_indices(recognizability_constants(TM), 2.5)

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

    @pytest.mark.slow
    def test_integer_comparisons_match_the_fraction_formulas(self):
        # Both functions compared the Fraction q^j (base + c) - c with
        # lprime before; for an integer lprime, x < lprime exactly when
        # floor(x) < lprime, so each reach is floored once per step here.
        forms = normalized_forms((2, 3, 4, 5))
        assert len(forms) == 897
        for sub in forms:
            k = recognizability_constants(sub)
            bases = range(k.R0, k.R)
            top = k.R + 40
            reach = {}
            for base in bases:
                reach[base] = [base]
                while reach[base][-1] < top:
                    steps = len(reach[base])
                    reach[base].append(math.floor(k.q**steps * (base + k.c) - k.c))
            for lprime in range(k.R0, top + 1):
                first = [next(j for j, r in enumerate(reach[b]) if r >= lprime) for b in bases]
                assert [_family_first_step(b, k.c, k.q, lprime) for b in bases] == first
                j = first[-1]
                l0 = next(b for b in bases if reach[b][j] >= lprime)
                assert closed_form_indices(k, lprime) == (j, l0), (sub, lprime)


class TestTableSerialization:
    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_round_trip(self, sub):
        table = reconstruct_base(sub)
        payload = json.loads(json.dumps(cli._table_json(table)))
        assert payload["substitution"] == str(sub)
        assert {int(l): Fraction(*pair) for l, pair in payload["base"].items()} == table.base
        for length, ev in table.evidence.items():
            entry = payload["evidence"][str(length)]
            assert entry["scales"] == list(ev.scales)
            assert tuple(entry["counts"]) == ev.counts
            assert entry["child"] == ev.child
            assert entry["child_count"] == ev.child_count
