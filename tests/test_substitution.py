import numpy as np
import pytest
from hypothesis import given, strategies as st

from substrqa import (
    BitSequence,
    DomainError,
    Normalization,
    ParseError,
    ResourceLimitError,
    SubshiftKind,
    Substitution,
    window_classes,
)
from substrqa.substitution import dense_ranks

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")

def binary_words(min_size=0, max_size=32):
    return st.text(alphabet="01", min_size=min_size, max_size=max_size)


@st.composite
def equal_length_pairs(draw):
    q = draw(st.integers(min_value=2, max_value=6))
    w0 = draw(st.text(alphabet="01", min_size=q, max_size=q))
    w1 = draw(st.text(alphabet="01", min_size=q, max_size=q))
    return Substitution(w0, w1)


class TestParsing:
    def test_arrow_form(self):
        assert Substitution.parse("0->01,1->10") == TM
        assert Substitution.parse(" 1 -> 10 , 0 -> 01 ") == TM

    def test_bare_form(self):
        assert Substitution.parse("01110,01010") == Q5

    def test_round_trip(self):
        assert Substitution.parse(str(Q5)) == Q5

    @pytest.mark.parametrize(
        "text",
        [
            "0->01",
            "0->01,1->10,0->11",
            "0->01,1->102",
            "0->01,10",
            "2->01,1->10",
            "0->01,0->10",
            "01,100",
            "ab,cd",
            "",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            Substitution.parse(text)

    def test_rejects_length_one(self):
        with pytest.raises(DomainError):
            Substitution.parse("0,1")


class TestAction:
    def test_iterate_tm(self):
        assert TM.iterate(0) == "0"
        assert TM.iterate(3) == "01101001"
        assert TM.iterate(4) == "0110100110010110"

    def test_apply_rejects_bad_letters(self):
        with pytest.raises(ParseError):
            TM.apply("012")

    @given(equal_length_pairs(), binary_words(), binary_words())
    def test_apply_is_a_morphism(self, sub, u, v):
        assert sub.apply(u + v) == sub.apply(u) + sub.apply(v)

    @given(equal_length_pairs(), binary_words(max_size=16))
    def test_apply_length(self, sub, w):
        assert len(sub.apply(w)) == sub.q * len(w)

    def test_compose_matches_double_apply(self):
        sq = TM.square()
        assert sq.image0 == TM.apply(TM.image0)
        assert sq.q == 4


class TestStructure:
    def test_counts(self):
        assert TM.zero_counts() == (1, 1)
        assert PD.zero_counts() == (1, 2)
        assert Q5.composition_matrix().tolist() == [[2, 3], [3, 2]]

    @pytest.mark.parametrize(
        "images,primitive",
        [
            (("01", "10"), True),
            (("01", "00"), True),
            (("11", "10"), True),
            (("11", "01"), True),
            (("010", "111"), False),
            (("000", "101"), False),
            (("000", "111"), False),
            (("111", "000"), False),
        ],
    )
    def test_primitivity(self, images, primitive):
        assert Substitution(*images).is_primitive() is primitive

    def test_normalize_identity(self):
        sub, how = TM.normalize()
        assert (sub, how) == (TM, Normalization.IDENTITY)

    def test_normalize_letter_swap(self):
        # Exchanging the letter names sends 0->11,1->10 to the doubling map.
        sub, how = Substitution("11", "10").normalize()
        assert (sub, how) == (PD, Normalization.LETTER_SWAP)

    def test_normalize_square(self):
        sub, how = Substitution("10", "01").normalize()
        assert (sub, how) == (Substitution("0110", "1001"), Normalization.SQUARE)

    @given(equal_length_pairs())
    def test_normalized_fixed_point_exists(self, sub):
        normalized, _ = sub.normalize()
        assert normalized.image0[0] == "0"


class TestClassification:
    @pytest.mark.parametrize(
        "images,kind,absorbing",
        [
            (("01", "10"), SubshiftKind.PRIMITIVE_APERIODIC, None),
            (("01", "00"), SubshiftKind.PRIMITIVE_APERIODIC, None),
            (("01110", "01010"), SubshiftKind.PRIMITIVE_APERIODIC, None),
            (("010", "101"), SubshiftKind.PRIMITIVE_PERIODIC, None),
            (("01", "01"), SubshiftKind.PRIMITIVE_PERIODIC, None),
            (("010", "111"), SubshiftKind.NONPRIMITIVE_PROXIMAL, 1),
            (("000", "101"), SubshiftKind.NONPRIMITIVE_PROXIMAL, 0),
            (("000", "111"), SubshiftKind.NONPRIMITIVE_TRIVIAL, None),
            (("111", "000"), SubshiftKind.NONPRIMITIVE_TRIVIAL, None),
            (("00", "00"), SubshiftKind.NONPRIMITIVE_TRIVIAL, None),
        ],
    )
    def test_kinds(self, images, kind, absorbing):
        c = Substitution(*images).classify()
        assert c.kind is kind
        assert c.absorbing_letter == absorbing

    def test_periodic_exception_found_after_squaring(self):
        # 0->101,1->010 squares to the strictly alternating length-9 shape.
        c = Substitution("101", "010").classify()
        assert c.kind is SubshiftKind.PRIMITIVE_PERIODIC
        assert c.normalization is Normalization.SQUARE

    def test_aperiodicity_needs_primitivity(self):
        with pytest.raises(DomainError):
            Substitution("010", "111").is_aperiodic()

    @given(equal_length_pairs())
    def test_classify_total(self, sub):
        c = sub.classify()
        assert c.kind in SubshiftKind
        if c.kind is SubshiftKind.NONPRIMITIVE_PROXIMAL:
            a = c.absorbing_letter
            assert sub.image(a) == str(a) * sub.q
        else:
            assert c.absorbing_letter is None


class TestFixedPoint:
    def test_prefix_values(self):
        assert TM.fixed_point_prefix(8).to01() == "01101001"
        assert PD.fixed_point_prefix(8).to01() == "01000101"
        assert Q5.fixed_point_prefix(10).to01() == "0111001010"

    def test_prefix_empty_and_cap(self):
        assert len(TM.fixed_point_prefix(0)) == 0
        with pytest.raises(ResourceLimitError):
            TM.fixed_point_prefix((1 << 26) + 1)

    def test_prefix_requires_normal_form(self):
        with pytest.raises(DomainError):
            Substitution("10", "01").fixed_point_prefix(4)

    @given(equal_length_pairs(), st.integers(min_value=1, max_value=64))
    def test_prefix_is_substitution_invariant(self, sub, n):
        normalized, _ = sub.normalize()
        short = normalized.fixed_point_prefix(n).to01()
        assert normalized.fixed_point_prefix(n * normalized.q).to01() == normalized.apply(short)[: n * normalized.q]

    @given(st.integers(min_value=1, max_value=200))
    def test_prefix_lengths_consistent(self, n):
        long = Q5.fixed_point_prefix(500)
        assert Q5.fixed_point_prefix(n) == long[:n]


class TestBitSequence:
    def test_from_text_round_trip(self):
        s = BitSequence.from_text("0110")
        assert s.to01() == "0110"
        assert list(s) == [0, 1, 1, 0]
        assert s[1] == 1
        assert s[1:3].to01() == "11"

    def test_rejects_bad_input(self):
        with pytest.raises(ParseError):
            BitSequence.from_text("01a")
        with pytest.raises(ParseError):
            BitSequence([0, 2])
        with pytest.raises(ParseError):
            BitSequence([[0, 1]])

    def test_read_only(self):
        s = BitSequence.from_text("01")
        with pytest.raises(ValueError):
            s.bits[0] = 1

    @pytest.mark.parametrize("width", [3, 64, 65, 130])
    def test_window_classes_distinguish_windows(self, width):
        # Repeated windows, and windows that differ only in their last letter.
        base = TM.fixed_point_prefix(width + 20).to01()
        text = base + "1" + base + "0" + base
        ids = window_classes(BitSequence.from_text(text).bits, width).tolist()
        words = [text[i : i + width] for i in range(len(text) - width + 1)]
        assert len(ids) == len(words)
        assert len(set(ids)) < len(ids)
        for i, w in enumerate(words):
            for j, v in enumerate(words):
                assert (ids[i] == ids[j]) == (w == v)

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    def test_window_classes_number_sorted_keys(self, width):
        # Reference: the same 64-letter words, numbered by nested np.unique.
        rng = np.random.default_rng(width)
        noise = rng.integers(0, 2, 600, dtype=np.uint8)
        bits = np.concatenate([TM.fixed_point_prefix(600).bits, noise])
        count = bits.size - width + 1
        words = np.zeros((-(-width // 64), count), dtype=np.uint64)
        for t in range(width):
            words[t // 64] |= bits[t : t + count].astype(np.uint64) << np.uint64(t % 64)
        expected = np.unique(words[0], return_inverse=True)[1]
        for word in words[1:]:
            inner = np.unique(word, return_inverse=True)[1]
            expected = np.unique(expected * count + inner, return_inverse=True)[1]
        assert window_classes(bits, width).tolist() == expected.tolist()

    def test_dense_ranks_match_unique_inverse(self):
        rng = np.random.default_rng(3)
        for keys in (
            rng.integers(0, 50, 1000),
            rng.integers(0, 2**63, 1000, dtype=np.uint64),
            np.zeros(7, dtype=np.int64),
            np.arange(5)[::-1],
            np.array([], dtype=np.int64),
        ):
            assert dense_ranks(keys).tolist() == np.unique(keys, return_inverse=True)[1].tolist()

    def test_window_classes_width_limits(self):
        bits = np.zeros(100, dtype=np.uint8)
        assert window_classes(bits, 100).size == 1
        with pytest.raises(DomainError):
            window_classes(bits, 0)
        with pytest.raises(DomainError):
            window_classes(bits, 101)
