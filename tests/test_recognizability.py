import hashlib
from fractions import Fraction

import numpy as np
import pytest

from substrqa import DomainError, Substitution
from substrqa.recognizability import (
    _residues,
    alpha_beta,
    language_slice,
    recognizability_constants,
)

from oracles import normalized_forms, recognizable_residue

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")


SMALL_FORMS = normalized_forms(range(2, 5))


class TestLanguage:
    def test_tm_short_slices(self):
        assert language_slice(TM, 1) == {"0", "1"}
        assert language_slice(TM, 2) == {"00", "01", "10", "11"}

    def test_pd_excludes_adjacent_ones(self):
        # 0->01,1->00 never writes two 1s next to each other.
        assert language_slice(PD, 2) == {"00", "01", "10"}

    def test_slice_is_a_frozenset_of_words_of_its_length(self):
        s = language_slice(Q5, 3)
        assert isinstance(s, frozenset)
        assert s and all(len(w) == 3 for w in s)

    @pytest.mark.parametrize("sub", [TM, PD, Q5], ids=str)
    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_subword_closure(self, sub, length):
        shorter = language_slice(sub, length - 1)
        for w in language_slice(sub, length):
            assert w[:-1] in shorter
            assert w[1:] in shorter

    def test_word_counts_match_brute_force(self):
        # Long prefixes are authoritative for such short windows.
        text = TM.fixed_point_prefix(1 << 14).to01()
        brute = {text[i : i + 4] for i in range(len(text) - 3)}
        assert language_slice(TM, 4) == brute

    def test_rejects_unnormalized_and_nonprimitive(self):
        with pytest.raises(DomainError):
            language_slice(Substitution("10", "01"), 2)
        with pytest.raises(DomainError):
            language_slice(Substitution("010", "111"), 2)
        with pytest.raises(DomainError):
            language_slice(Substitution("010", "101"), 2)
        with pytest.raises(DomainError):
            language_slice(TM, 0)


class TestAffixes:
    @pytest.mark.parametrize(
        "sub,expected",
        [
            (TM, (0, 0, Fraction(0))),
            (PD, (1, 0, Fraction(1))),
            (Q5, (2, 2, Fraction(1))),
            (Substitution("0011", "0101"), (1, 1, Fraction(2, 3))),
        ],
        ids=str,
    )
    def test_values(self, sub, expected):
        assert alpha_beta(sub) == expected

    def test_rejects_equal_images(self):
        with pytest.raises(DomainError):
            alpha_beta(Substitution("01", "01"))

    def test_affix_sum_bounded(self):
        a, b, c = alpha_beta(Q5)
        assert a + b <= Q5.q - 1
        assert 0 <= c <= 1


class TestRecognizableWords:
    def test_tm_short_words_mix_residues(self):
        assert recognizable_residue(TM, "01") is None
        assert recognizable_residue(TM, "0") is None

    def test_tm_length_four_words_all_recognizable(self):
        for w in sorted(language_slice(TM, 4)):
            assert recognizable_residue(TM, w) is not None

    def test_residue_matches_brute_force_occurrences(self):
        text = TM.fixed_point_prefix(1 << 14).to01()
        for w in sorted(language_slice(TM, 4)):
            residues = set()
            start = text.find(w)
            while start != -1:
                residues.add(start % 2)
                start = text.find(w, start + 1)
            assert residues == {recognizable_residue(TM, w)}

    def test_pd_three_letter_words(self):
        for w in sorted(language_slice(PD, 3)):
            assert recognizable_residue(PD, w) is not None

    def test_rejects_bad_words(self):
        assert "11" not in language_slice(PD, 2)
        with pytest.raises(DomainError):
            language_slice(PD, 0)


class TestConstants:
    @pytest.mark.parametrize(
        "sub,alpha,beta,c,R,R0",
        [
            (TM, 0, 0, Fraction(0), 4, 2),
            (PD, 1, 0, Fraction(1), 3, 1),
            (Q5, 2, 2, Fraction(1), 5, 1),
        ],
        ids=str,
    )
    def test_golden_constants(self, sub, alpha, beta, c, R, R0):
        k = recognizability_constants(sub)
        assert (k.alpha, k.beta, k.c, k.R, k.R0) == (alpha, beta, c, R, R0)

    @pytest.mark.parametrize("sub", [TM, PD, Q5], ids=str)
    def test_sandwich_and_ranges(self, sub):
        k = recognizability_constants(sub)
        assert k.K >= 1
        assert k.K + 1 <= k.R <= k.K + sub.q
        assert k.R > k.alpha + k.beta
        assert k.R0 >= 1
        assert k.R0 * sub.q + k.alpha + k.beta >= k.R
        assert (k.R0 - 1) * sub.q + k.alpha + k.beta < k.R

    def test_words_at_length_R_recognizable_and_monotone(self):
        for sub in (TM, PD, Q5):
            k = recognizability_constants(sub)
            for length in (k.R, k.R + 1):
                for w in language_slice(sub, length):
                    assert recognizable_residue(sub, w) is not None

    def test_some_word_below_R_not_recognizable(self):
        # Minimality of R has bite only when the search advanced past its
        # starting length alpha+beta+1 (it did for TM and PD, not for Q5).
        for sub in (TM, PD):
            k = recognizability_constants(sub)
            length = k.R - 1
            assert length > k.alpha + k.beta
            verdicts = [recognizable_residue(sub, w) for w in language_slice(sub, length)]
            assert None in verdicts

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            recognizability_constants(Substitution("010", "111"))
        with pytest.raises(DomainError):
            recognizability_constants(Substitution("10", "01"))


def scanned_residues(bits: np.ndarray, q: int, length: int) -> dict[str, set[int]]:
    """Residues mod q of every window of `bits`, by brute force."""
    codes = np.zeros(bits.size - length + 1, dtype=np.int64)
    for j in range(length):
        codes = 2 * codes + bits[j : j + codes.size]
    found: dict[str, set[int]] = {}
    for key in np.unique(codes * q + np.arange(codes.size) % q).tolist():
        found.setdefault(format(key // q, f"0{length}b"), set()).add(key % q)
    return found


class TestAgainstScans:
    # The first occurrence of any (word, residue) pair at these lengths lies
    # within 774 letters on every q <= 4 form, so one 2^14 prefix is a long
    # enough scan for an oracle.
    PREFIX = 1 << 14

    def test_small_forms_enumerated(self):
        assert len(SMALL_FORMS) == 194

    @pytest.mark.parametrize("sub", SMALL_FORMS, ids=str)
    def test_words_and_residues_match_a_prefix_scan(self, sub):
        bits = sub.fixed_point_prefix(self.PREFIX).bits.astype(np.int64)
        for length in range(1, min(recognizability_constants(sub).R + 1, 12) + 1):
            exact = {
                w: {r for r in range(sub.q) if mask >> r & 1}
                for w, mask in _residues(sub, length).items()
            }
            assert scanned_residues(bits, sub.q, length) == exact, length

    def test_constants_digest_unchanged_where_scans_certified(self):
        # Recorded from the occurrence scans that preceded desubstitution;
        # they refused only the two q = 16 squares left out here.
        refused = {"0->0000101000001010,1->1010101010101010", "0->0101010101010101,1->1111010111110101"}
        lines = []
        for sub in SMALL_FORMS:
            if str(sub) in refused:
                continue
            k = recognizability_constants(sub)
            lines.append(f"{sub} {k.alpha} {k.beta} {k.c} {k.K} {k.R} {k.R0}\n")
        assert len(lines) == 192
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "930af076f4ccf942344d348ab81b4ed6c4a1be10aa88da954668e0a752d0f5a4"


class TestLongConstants:
    @pytest.mark.parametrize(
        "spec,K,R",
        [
            ("1010,0000", 72, 78),
            ("1111,0101", 72, 78),
            ("10001,00011", 75, 77),
            ("11100,01110", 75, 77),
            ("11111,01100", 70, 71),
        ],
    )
    def test_squares_past_64_letters(self, spec, K, R):
        sub = Substitution.parse(spec).classify().normalized
        assert sub.q == Substitution.parse(spec).q ** 2
        k = recognizability_constants(sub)
        assert (k.K, k.R) == (K, R)

    @pytest.mark.slow
    def test_every_form_up_to_q5_has_constants(self):
        forms = normalized_forms(range(2, 6))
        assert len(forms) == 897
        for sub in forms:
            k = recognizability_constants(sub)
            assert k.K + 1 <= k.R <= k.K + sub.q, sub
