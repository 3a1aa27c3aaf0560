import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from substrqa import (
    BitSequence,
    DomainError,
    ResourceLimitError,
    Substitution,
    recplot,
    window_classes,
)
from substrqa.recplot import (
    RENDER_CAP,
    Boundary,
    LineHistogram,
    LineTriple,
    extract_lines,
    histogram,
    inner_line_counts,
    inner_line_starts,
    quantize_eps,
    reduce_embedding,
    reduce_eps,
    render_ascii,
    render_pgm,
    rp_entry,
    theta,
)

TM = Substitution("01", "10")
PD = Substitution("01", "00")

EXAMPLE = BitSequence.from_text("010111010")


# -- naive oracle ------------------------------------------------------------


def oracle_lines(text: str, n: int, h: int) -> set[tuple]:
    """Materialize the n-by-n plot and walk each diagonal."""
    assert len(text) >= n + h - 1
    matrix = [[text[i : i + h] == text[j : j + h] for j in range(n)] for i in range(n)]

    def close(start, d, run):
        i, j = start, start + d
        flags = set()
        if min(i, j) == 0:
            flags.add(Boundary.ZERO_BOUNDARY)
        if max(i, j) == n - run:
            flags.add(Boundary.N_BOUNDARY)
        return (i, j, run, frozenset(flags))

    upper = set()
    for d in range(1, n):
        run = 0
        for t in range(n - d):
            if matrix[t][t + d]:
                run += 1
            elif run:
                upper.add(close(t - run, d, run))
                run = 0
        if run:
            upper.add(close(n - d - run, d, run))
    return upper | {(j, i, l, f) for (i, j, l, f) in upper}


def line_set(triples) -> set[tuple]:
    return {(t.i, t.j, t.length, t.boundary) for t in triples}


# -- entries -----------------------------------------------------------------


class TestRpEntry:
    def test_worked_example_entries(self):
        assert rp_entry(EXAMPLE, 0, 2, 1)
        assert not rp_entry(EXAMPLE, 0, 1, 1)
        assert rp_entry(EXAMPLE, 0, 2, 2)
        assert not rp_entry(EXAMPLE, 0, 2, 3)

    @given(st.integers(0, 5), st.integers(1, 4))
    def test_reflexive(self, i, h):
        assert rp_entry(EXAMPLE, i, i, h)

    def test_bounds(self):
        with pytest.raises(DomainError):
            rp_entry(EXAMPLE, 7, 0, 3)
        with pytest.raises(DomainError):
            rp_entry(EXAMPLE, -1, 0, 1)
        with pytest.raises(DomainError):
            rp_entry(EXAMPLE, 0, 0, 0)


# -- line extraction ---------------------------------------------------------


class TestExtractLines:
    def test_worked_example_upper_triangle(self):
        got = {t for t in line_set(extract_lines(EXAMPLE, 6, 1)) if t[0] < t[1]}
        assert got == {
            (0, 2, 2, frozenset({Boundary.ZERO_BOUNDARY})),
            (1, 4, 1, frozenset()),
            (1, 5, 1, frozenset({Boundary.N_BOUNDARY})),
            (3, 4, 2, frozenset({Boundary.N_BOUNDARY})),
            (3, 5, 1, frozenset({Boundary.N_BOUNDARY})),
        }

    def test_constant_sequence_full_diagonals(self):
        lines = extract_lines(BitSequence.from_text("000000"), 4, 1)
        assert all(
            t.boundary == {Boundary.ZERO_BOUNDARY, Boundary.N_BOUNDARY} for t in lines
        )
        assert sorted(t.length for t in lines if t.i < t.j) == [1, 2, 3]

    def test_transpose_symmetry(self):
        got = line_set(extract_lines(TM.fixed_point_prefix(80), 64, 2))
        assert got == {(j, i, l, f) for (i, j, l, f) in got}

    def test_oracle_tm(self):
        text = TM.fixed_point_prefix(300).to01()
        for h in (1, 2, 3):
            got = line_set(extract_lines(BitSequence.from_text(text), 256, h))
            assert got == oracle_lines(text, 256, h)

    @settings(max_examples=60)
    @given(st.text(alphabet="01", min_size=8, max_size=60), st.integers(1, 3))
    def test_oracle_random(self, text, h):
        n = min(24, len(text) - h + 1)
        if n < 2:
            return
        got = line_set(extract_lines(BitSequence.from_text(text), n, h))
        assert got == oracle_lines(text, n, h)

    def test_prefix_too_short(self):
        with pytest.raises(DomainError):
            extract_lines(EXAMPLE, 9, 2)


class TestHistogram:
    def test_worked_example_counts(self):
        hist = histogram(EXAMPLE, 6, 1)
        assert hist.counts == {1: (2, 0, 4), 2: (0, 2, 2)}
        assert hist.total(2) == 4
        assert hist.total(1) == 6
        assert hist.recurrence_mass() == 14

    def test_worked_example_excluding_far_edge(self):
        hist = histogram(EXAMPLE, 6, 1).excluding_n_boundary()
        assert hist.counts == {1: (2, 0, 0), 2: (0, 2, 0)}
        assert hist.total(2) == 2

    def test_no_recurrence(self):
        assert histogram(BitSequence.from_text("01"), 2, 1).counts == {}

    def test_matches_extract_lines(self):
        x = PD.fixed_point_prefix(200)
        hist = histogram(x, 150, 2, m=2)
        lines = extract_lines(x, 150, 2, m=2)
        for length in hist.lengths():
            assert hist.total(length) == sum(1 for t in lines if t.length == length)
        assert hist.recurrence_mass() == sum(t.length for t in lines)

    @pytest.mark.parametrize("h", [1, 2])
    def test_buckets_match_extract_lines_flags(self, h):
        texts = ["".join(t) for k in range(h + 1, 11) for t in itertools.product("01", repeat=k)]
        texts += [word * k for word in ("0", "01", "001") for k in (7, 20, 41)]
        for text in texts:
            x = BitSequence.from_text(text)
            n = len(text) - h + 1
            expected: dict[int, list[int]] = {}
            for t in extract_lines(x, n, h):
                if Boundary.N_BOUNDARY in t.boundary:
                    slot = 2
                elif Boundary.ZERO_BOUNDARY in t.boundary:
                    slot = 1
                else:
                    slot = 0
                expected.setdefault(t.length, [0, 0, 0])[slot] += 1
            counts = histogram(x, n, h).counts
            assert counts == {l: tuple(b) for l, b in expected.items()}, text
            assert list(counts) == sorted(counts), text

    def test_conservation_against_recurrence_count(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, h = 100, int(rng.integers(1, 4))
            bits = BitSequence(rng.integers(0, 2, size=n + h - 1, dtype=np.uint8))
            recurrences = sum(
                rp_entry(bits, i, j, h) for i in range(n) for j in range(n) if i != j
            )
            assert histogram(bits, n, h).recurrence_mass() == recurrences

    def test_mass_bound(self):
        hist = histogram(TM.fixed_point_prefix(600), 512, 1)
        n = 512
        assert hist.recurrence_mass() <= n * n - n

    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("sub", [TM, Substitution("01110", "01010")], ids=str)
    def test_large_plot_matches_window_classes(self, sub, h):
        # Past the reach of extract_lines: two identities that need only the
        # width-h window classes of the positions [0, n).
        n = 1 << 16
        x = sub.fixed_point_prefix(n + h - 1)
        hist = histogram(x, n, h)
        classes = window_classes(x.bits, h)
        sizes = np.bincount(classes)
        assert hist.recurrence_mass() == int((sizes * (sizes - 1)).sum())
        # A line starts at each recurrent pair in row or column 0, and at each
        # recurrent pair (i, j), i, j >= 1, whose preceding letters differ.
        flanked = np.bincount(2 * classes[1:] + x.bits[: n - 1], minlength=2 * sizes.size)
        flanked = flanked.reshape(-1, 2)
        starts = 2 * int((flanked[:, 0] * flanked[:, 1]).sum()) + 2 * (int(sizes[classes[0]]) - 1)
        assert sum(hist.total(length) for length in hist.lengths()) == starts


# -- suffix kernel -----------------------------------------------------------


def _kernel_texts() -> list[str]:
    # Lengths on both sides of the 32 letters a level-0 key packs, and of
    # the next spans.  The last text has suffixes 0 and 30 complementary
    # for 30 letters, so their level-0 keys XOR to at least 2^64 - 2^4,
    # which a float64 rounds up to 2^64.
    rng = np.random.default_rng(11)
    texts = []
    for size in (1, 2, 31, 32, 33, 64, 65):
        texts += [(word * size)[:size] for word in ("0", "01", "001")]
        texts.append("".join(rng.choice(["0", "1"], size)))
    texts.append("0" * 30 + "1" * 30)
    return texts


def _common_prefix(a: str, b: str) -> int:
    return next((t for t, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))


def _nearest_below_oracle(values: list[int], step: int, strict: bool) -> list[int]:
    count = len(values)
    out = []
    for t, value in enumerate(values):
        side = range(t - 1, -1, -1) if step < 0 else range(t + 1, count)
        below = (s for s in side if values[s] < value or (not strict and values[s] == value))
        out.append(next(below, count))
    return out


def _adversarial_arrays() -> list[list[int]]:
    # The worst cases of pointer jumping: log n rounds on monotone and
    # constant runs, a round per step of a sawtooth tooth, and lengths
    # 2^k +- 1.
    arrays = []
    for size in (1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65):
        tooth = max(size // 3, 2)
        arrays += [
            list(range(size)),
            list(range(size, 0, -1)),
            [3] * size,
            [t % 5 for t in range(size)],
            [4 - t % 5 for t in range(size)],
            [t % tooth for t in range(size)],
            [tooth - 1 - t % tooth for t in range(size)],
        ]
    rng = np.random.default_rng(7)
    arrays += [rng.integers(0, 4, size).tolist() for size in (17, 40, 100)]
    return arrays


class TestSuffixKernel:
    @pytest.mark.parametrize("text", _kernel_texts())
    def test_last_level_sorts_suffixes(self, text):
        levels, order = recplot._suffix_levels(BitSequence.from_text(text).bits)
        expected = sorted(range(len(text) + 1), key=lambda i: text[i:])
        assert order.tolist() == expected
        assert np.unique(levels[-1].keys).size == len(text) + 1

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_pairs_by_lcp_match_brute_force(self, text):
        size = len(text)
        levels, order = recplot._suffix_levels(BitSequence.from_text(text).bits)
        for lo, hi in ((0, size), (1, size), (0, size - 1)):
            expected = [0] * (size + 1)
            for i, j in itertools.combinations(range(lo, hi), 2):
                expected[_common_prefix(text[i:], text[j:])] += 1
            adjacent = recplot._adjacent_lcp(levels, order, lo, hi)[1]
            assert recplot._pairs_by_lcp(adjacent, size).tolist() == expected

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_lifts_match_brute_force(self, text):
        # Every pair of positions, the empty suffix at len(text) included.
        levels, _ = recplot._suffix_levels(BitSequence.from_text(text).bits)
        i, j = np.triu_indices(len(text) + 1, 1)
        assert recplot._lcp(levels, i, j).tolist() == [
            _common_prefix(text[a:], text[b:]) for a, b in zip(i, j)
        ]

    @pytest.mark.parametrize("text", [t for t in _kernel_texts() if len(t) >= 2])
    def test_far_edge_runs_match_extract_lines(self, text):
        x = BitSequence.from_text(text)
        size = len(text)
        expected = [0] * size
        for line in extract_lines(x, size, 1):
            if Boundary.N_BOUNDARY in line.boundary and line.i < line.j:
                expected[line.length] += 1
        levels, order = recplot._suffix_levels(x.bits)
        order, adjacent = recplot._adjacent_lcp(levels, order, 0, size)
        assert recplot._far_edge_runs(x.bits, order, adjacent).tolist() == expected

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_nearest_below_matches_brute_force(self, step, strict):
        for values in _adversarial_arrays():
            expected = _nearest_below_oracle(values, step, strict)
            array = np.array(values, dtype=np.int64)
            assert recplot._nearest_below(array, step, strict).tolist() == expected, values

    def test_pairs_by_lcp_on_adversarial_arrays(self):
        # Each pair of suffixes a < b in order shares min(adjacent[a:b]).
        for values in _adversarial_arrays():
            top = max(values) + 1
            expected = [0] * (top + 1)
            for a, b in itertools.combinations(range(len(values) + 1), 2):
                expected[min(values[a:b])] += 1
            got = recplot._pairs_by_lcp(np.array(values, dtype=np.int64), top)
            assert got.tolist() == expected, values

    def test_msb_is_exact_past_float_precision(self):
        values = [1, 2, 3, (1 << 32) - 1, 1 << 32, (1 << 53) - 1, 1 << 53, (1 << 53) + 1]
        values += [(1 << k) - 1 for k in range(54, 65)] + [(1 << 63) + 1, (1 << 64) - 1]
        got = recplot._msb(np.array(values, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() - 1 for v in values]


# -- reductions --------------------------------------------------------------


class TestReductions:
    def test_reduce_eps_arithmetic(self):
        assert reduce_eps(2, 6, 1) == (2, 6)
        assert reduce_eps(1, 6, 3) == (3, 8)
        assert theta(6, 1) == 1
        assert theta(6, 3) == Fraction(56, 30)

    def test_line_bijection_preserves_starts(self):
        x = TM.fixed_point_prefix(140)
        n, h = 100, 3
        fine = line_set(extract_lines(x, n, h))
        coarse = {
            (i, j, l - h + 1, f)
            for (i, j, l, f) in line_set(extract_lines(x, n + h - 1, 1))
            if l >= h
        }
        assert fine == coarse

    def test_reduce_embedding_values(self):
        assert reduce_embedding(1, Fraction(1, 2)) == Fraction(1, 2)
        assert reduce_embedding(3, Fraction(1, 2)) == Fraction(1, 8)
        with pytest.raises(DomainError):
            reduce_embedding(0, 0.5)
        with pytest.raises(DomainError):
            reduce_embedding(2, 1)

    @settings(max_examples=40)
    @given(st.text(alphabet="01", min_size=24, max_size=48), st.integers(1, 4), st.integers(1, 3))
    def test_embedded_plot_equals_reduced_plot(self, text, m, h):
        # Oracle: sequence of m-letter tuples compared tuple by tuple.
        n = len(text) - (h + m - 1) + 1
        if n < 2:
            return
        x = BitSequence.from_text(text)
        for i in range(n):
            for j in range(n):
                embedded = all(
                    text[i + t : i + t + m] == text[j + t : j + t + m] for t in range(h)
                )
                assert embedded == rp_entry(x, i, j, h + m - 1)

    def test_histogram_embedding_folds_into_window(self):
        x = TM.fixed_point_prefix(300)
        a = histogram(x, 256, 2, m=3)
        b = histogram(x, 256, 4, m=1)
        assert a.counts == b.counts
        assert (a.m, a.h) == (3, 2)


class TestQuantize:
    @pytest.mark.parametrize(
        "eps,h",
        [
            (Fraction(1, 2), 1),
            (0.5, 1),
            (0.51, 1),
            (0.3, 2),
            (Fraction(1, 4), 2),
            (0.125, 3),
            (Fraction(1, 1024), 10),
            (0.0009765625, 10),
        ],
    )
    def test_values(self, eps, h):
        assert quantize_eps(eps) == h

    @pytest.mark.parametrize("eps", [0, 1, -0.5, 2, Fraction(3, 2)])
    def test_rejects(self, eps):
        with pytest.raises(DomainError):
            quantize_eps(eps)

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            quantize_eps("half")


# -- inner lines of the infinite plot ---------------------------------------


class TestInnerLines:
    def test_symmetry_and_membership(self):
        x = TM.fixed_point_prefix(1 << 12)
        pairs = inner_line_starts(x, 2, 200)
        assert pairs
        assert {(j, i) for (i, j) in pairs} == pairs
        text = x.to01()
        for i, j in sorted(pairs)[:40]:
            assert text[i : i + 2] == text[j : j + 2]
            assert text[i - 1] != text[j - 1]
            assert text[i + 2] != text[j + 2]

    def test_tm_length_five_empty(self):
        x = TM.fixed_point_prefix(1 << 12)
        assert inner_line_starts(x, 5, 1000) == set()

    def test_tm_length_one_density(self):
        n = 2048
        x = TM.fixed_point_prefix(n + 3)
        count = len(inner_line_starts(x, 1, n))
        assert abs(count / (n * n - n) - 1 / 9) < 0.003

    @pytest.mark.parametrize(
        "sub", [TM, PD, Substitution("01110", "01010"), Substitution("001", "110")], ids=str
    )
    def test_counts_agree_with_start_sets(self, sub):
        n, lmax = 160, 6
        x = sub.fixed_point_prefix(n + lmax + 1)
        counts = inner_line_counts(x, n, lmax)
        assert counts[0] == 0
        for length in range(1, lmax + 1):
            assert counts[length] == len(inner_line_starts(x, length, n))

    @settings(max_examples=60)
    @given(st.text(alphabet="01", max_size=80), st.integers(1, 5))
    @example("0110", 1)  # n = 2: a single position, so no pairs
    def test_counts_agree_on_random_strings(self, text, lmax):
        n = max(2, len(text) - lmax - 1)
        x = BitSequence.from_text(text.ljust(n + lmax + 1, "0"))
        counts = inner_line_counts(x, n, lmax)
        for length in range(1, lmax + 1):
            assert counts[length] == len(inner_line_starts(x, length, n))

    @pytest.mark.parametrize(
        "text,n,lmax",
        [
            ("0" * 80, 40, 30),
            ("01" * 60, 60, 40),
            (Substitution("1010", "0001").normalize()[0].fixed_point_prefix(400).to01(), 300, 48),
        ],
        ids=["zeros", "alternating", "square-normalized-q16"],
    )
    def test_counts_agree_on_long_repeats(self, text, n, lmax):
        x = BitSequence.from_text(text)
        counts = inner_line_counts(x, n, lmax)
        for length in range(1, lmax + 1):
            assert counts[length] == len(inner_line_starts(x, length, n))

    def test_agrees_with_extract_lines_window(self):
        n, length = 120, 3
        big = n + length + 1
        x = PD.fixed_point_prefix(big + 1)
        from_lines = {
            (t.i, t.j)
            for t in extract_lines(x, big, 1)
            if t.length == length and not t.boundary and 1 <= t.i < n and 1 <= t.j < n
        }
        assert from_lines == inner_line_starts(x, length, n)

    def test_prefix_requirement(self):
        with pytest.raises(DomainError):
            inner_line_starts(BitSequence.from_text("0101"), 2, 3)


# -- rendering ---------------------------------------------------------------


class TestRender:
    def test_ascii_worked_example(self):
        art = render_ascii(EXAMPLE, 6, 1)
        assert art.splitlines() == [
            "#.#...",
            ".#.###",
            "#.#...",
            ".#.###",
            ".#.###",
            ".#.###",
        ]

    def test_ascii_matches_entries(self):
        x = TM.fixed_point_prefix(40)
        art = render_ascii(x, 16, 2).splitlines()
        for i in range(16):
            for j in range(16):
                assert (art[i][j] == "#") == rp_entry(x, i, j, 2)

    def test_ascii_wide_window_matches_entries(self):
        x = BitSequence.from_text("0010" * 23 + "1")
        art = render_ascii(x, 24, 70).splitlines()
        assert art[0] == "#...#...#...#...#...#..."
        for i in range(24):
            for j in range(24):
                assert (art[i][j] == "#") == rp_entry(x, i, j, 70)

    def test_pgm_structure(self):
        data = render_pgm(EXAMPLE, 6, 1)
        header, rest = data.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"6 6"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        assert len(pixels) == 36
        assert set(pixels) <= {0, 255}
        assert pixels[0] == 255 and pixels[1] == 0 and pixels[2] == 255

    def test_render_cap(self):
        with pytest.raises(ResourceLimitError):
            render_ascii(TM.fixed_point_prefix(RENDER_CAP + 2), RENDER_CAP + 1, 1)


class TestParams:
    def test_histogram_types(self):
        hist = histogram(EXAMPLE, 6, 1)
        assert isinstance(hist, LineHistogram)
        assert isinstance(extract_lines(EXAMPLE, 6, 1)[0], LineTriple)
