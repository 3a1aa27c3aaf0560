from fractions import Fraction

import pytest

from substrqa import DomainError, ParseError, Substitution
from substrqa.recognizability import (
    LanguageSlice,
    alpha_beta,
    is_recognizable_word,
    language_slice,
    recognizability_constants,
)

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")


class TestLanguage:
    def test_tm_short_slices(self):
        assert language_slice(TM, 1).words == {"0", "1"}
        assert language_slice(TM, 2).words == {"00", "01", "10", "11"}

    def test_pd_excludes_adjacent_ones(self):
        # 0->01,1->00 never writes two 1s next to each other.
        assert language_slice(PD, 2).words == {"00", "01", "10"}

    def test_slices_are_saturated(self):
        s = language_slice(Q5, 3)
        assert isinstance(s, LanguageSlice)
        assert s.length == 3

    @pytest.mark.parametrize("sub", [TM, PD, Q5], ids=str)
    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_subword_closure(self, sub, length):
        shorter = language_slice(sub, length - 1).words
        for w in language_slice(sub, length).words:
            assert w[:-1] in shorter
            assert w[1:] in shorter

    def test_word_counts_match_brute_force(self):
        # Long prefixes are authoritative for such short windows.
        text = TM.fixed_point_prefix(1 << 14).to01()
        brute = {text[i : i + 4] for i in range(len(text) - 3)}
        assert language_slice(TM, 4).words == brute

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
        assert is_recognizable_word(TM, "01") is None
        assert is_recognizable_word(TM, "0") is None

    def test_tm_length_four_words_all_recognizable(self):
        for w in sorted(language_slice(TM, 4).words):
            assert is_recognizable_word(TM, w) is not None

    def test_residue_matches_brute_force_occurrences(self):
        text = TM.fixed_point_prefix(1 << 14).to01()
        for w in sorted(language_slice(TM, 4).words):
            residues = set()
            start = text.find(w)
            while start != -1:
                residues.add(start % 2)
                start = text.find(w, start + 1)
            assert residues == {is_recognizable_word(TM, w)}

    def test_pd_three_letter_words(self):
        for w in sorted(language_slice(PD, 3).words):
            assert is_recognizable_word(PD, w) is not None

    def test_rejects_bad_words(self):
        with pytest.raises(DomainError):
            is_recognizable_word(PD, "11")
        with pytest.raises(ParseError):
            is_recognizable_word(PD, "0a")
        with pytest.raises(DomainError):
            is_recognizable_word(PD, "")


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
                for w in language_slice(sub, length).words:
                    assert is_recognizable_word(sub, w) is not None

    def test_some_word_below_R_not_recognizable(self):
        # Minimality of R has bite only when the search advanced past its
        # starting length alpha+beta+1 (it did for TM and PD, not for Q5).
        for sub in (TM, PD):
            k = recognizability_constants(sub)
            length = k.R - 1
            assert length > k.alpha + k.beta
            verdicts = [is_recognizable_word(sub, w) for w in language_slice(sub, length).words]
            assert None in verdicts

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            recognizability_constants(Substitution("010", "111"))
        with pytest.raises(DomainError):
            recognizability_constants(Substitution("10", "01"))
