import itertools

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
)

from oracles import composition_matrix, iterate, smallest_period

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
        assert iterate(TM, 0) == "0"
        assert iterate(TM, 3) == "01101001"
        assert iterate(TM, 4) == "0110100110010110"

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
        assert composition_matrix(Q5).tolist() == [[2, 3], [3, 2]]

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

    def test_period_matches_the_prefix_scan(self):
        # Every substitution with q <= 7; the squared alternations 101,010
        # (q = 9) and 1010101,0101010 (q = 49) are among them.
        periodic = set()
        for q in range(2, 8):
            words = ["".join(w) for w in itertools.product("01", repeat=q)]
            for image0, image1 in itertools.product(words, repeat=2):
                c = Substitution(image0, image1).classify()
                if c.kind is not SubshiftKind.PRIMITIVE_PERIODIC:
                    assert c.period is None, (image0, image1)
                    continue
                n = max(64, 4 * c.normalized.q**2)
                prefix = c.normalized.fixed_point_prefix(n).to01()
                assert c.period == smallest_period(prefix), (image0, image1)
                periodic.add((image0, image1, c.normalized.q, c.period))
        # 2^q - 2 pairs of equal nonconstant images for each q, and two
        # strict alternations for each odd q.
        assert len(periodic) == 246
        assert {("101", "010", 9, 2), ("1010101", "0101010", 49, 2)} <= periodic

    def test_aperiodicity_needs_primitivity(self):
        # Only primitive forms are sorted into aperiodic and periodic; 010,111
        # is not primitive, so classify names its proximal kind and no period.
        sub = Substitution("010", "111")
        assert not sub.is_primitive()
        c = sub.classify()
        assert c.kind is SubshiftKind.NONPRIMITIVE_PROXIMAL
        assert c.absorbing_letter == 1
        assert c.period is None

    def test_classification_carries_the_normal_form_of_every_kind(self):
        # The fixed point of any classified form can be grown, whatever its
        # kind; 100,111 is proximal and letter-swaps to 000,011.
        for q in range(2, 6):
            words = ["".join(w) for w in itertools.product("01", repeat=q)]
            for image0, image1 in itertools.product(words, repeat=2):
                sub = Substitution(image0, image1)
                c = sub.classify()
                assert (c.normalized, c.normalization) == sub.normalize(), sub
                assert c.normalized.image0[0] == "0", sub

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

    def test_float_prefix_length_is_refused(self):
        with pytest.raises(DomainError, match="prefix length must be an integer, got 20.0"):
            TM.fixed_point_prefix(20.0)

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

    def test_prefix_equals_the_string_fixed_point(self):
        # Every substitution with q <= 4 whose image of 0 starts with 0.
        for q in (2, 3, 4):
            words = ["".join(t) for t in itertools.product("01", repeat=q)]
            for a, b in itertools.product(words, repeat=2):
                if a[0] != "0":
                    continue
                sub = Substitution(a, b)
                fixed = iterate(sub, 5)
                for n in range(q**4 + 4):
                    assert sub.fixed_point_prefix(n).to01() == fixed[:n], (sub, n)

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


class TestPlainIntegerChecks:
    def test_primitivity_matches_the_matrix_square(self):
        # Every substitution with 2 <= q <= 6: 4^2 + ... + 4^6 = 5,456 of them.
        count = 0
        for q in range(2, 7):
            words = ["".join(w) for w in itertools.product("01", repeat=q)]
            for image0, image1 in itertools.product(words, repeat=2):
                sub = Substitution(image0, image1)
                m = composition_matrix(sub)
                assert sub.is_primitive() is bool((m @ m > 0).all()), sub
                count += 1
        assert count == 5456

    def test_bad_image_message(self):
        want = r"^image of 1 contains \['2', 'a'\]; only 0 and 1 are allowed$"
        with pytest.raises(ParseError, match=want):
            Substitution("010", "0a2")

    def test_bad_word_message(self):
        with pytest.raises(ParseError, match=r"^word contains \['2'\]; only 0 and 1 are allowed$"):
            TM.apply("0120")

    @pytest.mark.parametrize(
        "bits",
        [[0.7, 1.2], [0.5], [-1], [256], [2.0], ["a"], ["1"], [None], [float("nan")], [[0], [1, 0]]],
    )
    def test_bit_sequence_rejects_with_parse_error(self, bits):
        with pytest.raises(ParseError):
            BitSequence(bits)

    @pytest.mark.parametrize(
        "bits",
        [[0, 1, 1], [False, True, True], [0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=np.uint8),
         np.array([0, 1, 1], dtype=np.int64), np.array([False, True, True])],
    )
    def test_bit_sequence_accepts_zeros_and_ones(self, bits):
        seq = BitSequence(bits)
        assert seq.to01() == "011"
        assert seq.bits.dtype == np.uint8

    def test_bit_sequence_copies_a_uint8_array(self):
        arr = np.array([0, 1], dtype=np.uint8)
        seq = BitSequence(arr)
        arr[0] = 1
        assert seq.to01() == "01"
        with pytest.raises(ParseError):
            BitSequence(np.array([0, 2], dtype=np.uint8))
