import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from substrqa import (
    BitSequence,
    DomainError,
    ResourceLimitError,
    Substitution,
    asymptotic_quantifiers,
    recplot,
)
from substrqa.recplot import (
    RENDER_CAP,
    Boundary,
    LineHistogram,
    LineTriple,
    extract_lines,
    histogram,
    inner_line_counts,
    quantize_eps,
    reduce_embedding,
    render_ascii,
    render_pgm,
    rp_entry,
    window_labels,
)
from substrqa.rqa import correlation_sum, measures_from_histogram, residuals

from oracles import inner_line_starts, recurrence_mass, reduce_eps, theta, window_classes

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


def bucket_tally(triples) -> dict[int, tuple[int, int, int]]:
    """Lines by length, in histogram's (inner, zero, n_boundary) buckets."""
    tally: dict[int, list[int]] = {}
    for t in triples:
        if Boundary.N_BOUNDARY in t.boundary:
            slot = 2
        elif Boundary.ZERO_BOUNDARY in t.boundary:
            slot = 1
        else:
            slot = 0
        tally.setdefault(t.length, [0, 0, 0])[slot] += 1
    return {length: tuple(buckets) for length, buckets in tally.items()}


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
        assert recurrence_mass(hist) == 14

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
        assert recurrence_mass(hist) == sum(t.length for t in lines)

    @pytest.mark.parametrize("h", [1, 2])
    def test_buckets_match_extract_lines_flags(self, h):
        texts = ["".join(t) for k in range(h + 1, 11) for t in itertools.product("01", repeat=k)]
        texts += [word * k for word in ("0", "01", "001") for k in (7, 20, 41)]
        for text in texts:
            x = BitSequence.from_text(text)
            n = len(text) - h + 1
            counts = histogram(x, n, h).counts
            assert counts == bucket_tally(extract_lines(x, n, h)), text
            assert list(counts) == sorted(counts), text

    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("word", ["0", "01", "001", "0110", "00000001"])
    def test_periodic_buckets_match_extract_lines(self, word, h):
        # Constant and periodic texts: the suffix kernel's slow corner,
        # with long rising runs of adjacent common prefixes.
        n = 1 << 10
        x = BitSequence.from_text((word * (n + h))[: n + h - 1])
        assert histogram(x, n, h).counts == bucket_tally(extract_lines(x, n, h))

    def test_conservation_against_recurrence_count(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, h = 100, int(rng.integers(1, 4))
            bits = BitSequence(rng.integers(0, 2, size=n + h - 1, dtype=np.uint8))
            recurrences = sum(
                rp_entry(bits, i, j, h) for i in range(n) for j in range(n) if i != j
            )
            assert recurrence_mass(histogram(bits, n, h)) == recurrences

    def test_mass_bound(self):
        hist = histogram(TM.fixed_point_prefix(600), 512, 1)
        n = 512
        assert recurrence_mass(hist) <= n * n - n

    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("sub", [TM, Substitution("01110", "01010")], ids=str)
    def test_large_plot_matches_window_classes(self, sub, h):
        # Past the reach of extract_lines: identities that need only the
        # window classes of the positions [0, n).
        n = 1 << 16
        x = sub.fixed_point_prefix(n + h - 1)
        hist = histogram(x, n, h)
        classes = window_classes(x.bits, h)
        sizes = np.bincount(classes)
        assert recurrence_mass(hist) == int((sizes * (sizes - 1)).sum())
        # A line starts at each recurrent pair in row or column 0, and at each
        # recurrent pair (i, j), i, j >= 1, whose preceding letters differ.
        flanked = np.bincount(2 * classes[1:] + x.bits[: n - 1], minlength=2 * sizes.size)
        flanked = flanked.reshape(-1, 2)
        starts = 2 * int((flanked[:, 0] * flanked[:, 1]).sum()) + 2 * (int(sizes[classes[0]]) - 1)
        assert sum(hist.total(length) for length in hist.lengths()) == starts
        # A run of L recurrent cells from (i, j) is a pair i != j whose
        # width-(h + L - 1) windows agree, both starting in [0, n - L + 1),
        # and cells * (RR - (L - 1) * tail_density) counts those runs at
        # L = lmin and lmin + 1.
        cells = n * n - n
        for lmin in (2, 3):
            report = measures_from_histogram(hist, lmin)
            for length in (lmin, lmin + 1):
                sizes = np.bincount(window_classes(x.bits, h + length - 1))
                runs = cells * (report.RR - (length - 1) * report.tail_density)
                assert runs == int((sizes * (sizes - 1)).sum()), (lmin, length)

    @pytest.mark.slow
    def test_histogram_grid_is_pinned(self):
        # Every count at n up to 2^16, periodic forms included: the far-edge
        # and zero-boundary runs of long plots, against a fixed answer.
        forms = ["01,10", "01,00", "01110,01010", "0010,0111", "011,000", "010,101"]
        forms += ["01,01", "0010,0010", "001,001"]
        digest = hashlib.sha256()
        for spec in forms:
            x = Substitution.parse(spec).normalize()[0].fixed_point_prefix((1 << 16) + 8)
            for n in (2, 3, 7, 64, 362, 4096, 1 << 14, 1 << 16):
                for h, m in ((1, 1), (3, 2)):
                    counts = histogram(x, n, h, m=m).counts
                    digest.update(repr(sorted(counts.items())).encode())
        assert digest.hexdigest()[:16] == "250ffd61125eeaa6"


# -- suffix kernel -----------------------------------------------------------


def _kernel_texts() -> list[str]:
    # Lengths on both sides of 32, 64 and 128 letters, where the bits of
    # the reversed position grow and a level-0 key loses a letter, and 59
    # letters, one more than a level-0 key there.  Thue-Morse prefixes of
    # 287-289 letters have level-1 keys of 6 ranks (330 letters), and
    # 0^321's pack 9.  0^30 1^30 has suffixes 0 and 30 complementary for
    # 30 letters.  In 1 0^57 1 the last suffix, 1, pads to the key of
    # suffix 0, which is one key long, and its lift stops at the end
    # marker.  The last 0 of 0100 also starts 00 and 01 (see
    # test_far_edge_interval_hops_over_a_letter_boundary).
    rng = np.random.default_rng(11)
    texts = []
    for size in (1, 2, 31, 32, 33, 59, 63, 64, 65, 127, 128, 129, 287, 288, 289):
        texts += [(word * size)[:size] for word in ("0", "01", "001")]
        texts.append("".join(rng.choice(["0", "1"], size)))
    texts += [TM.fixed_point_prefix(size).to01()[:size] for size in (287, 288, 289)]
    texts += ["0" * 321, "0" * 30 + "1" * 30, "1" + "0" * 57 + "1", "0100"]
    return texts


# The finite-plot benchmark's pool: the goldens TM, PD and q5, then five
# primitive aperiodic forms with q = 5.
PLOT_POOL = [
    "01,10",
    "01,00",
    "01110,01010",
    "00111,10011",
    "01110,11010",
    "01011,10011",
    "01010,00100",
    "00001,10100",
]


def _assert_neighbour_lcp(bits: np.ndarray) -> None:
    # The permuted fill against lifting every pair of neighbours.
    levels, full = recplot._suffix_levels(bits)
    order, adjacent = recplot._neighbour_lcp(bits)
    assert order.tolist() == full[1:].tolist()
    assert adjacent.tolist() == recplot._lcp(levels, full[1:-1], full[2:]).tolist()


def _assert_far_edge_runs(text: str) -> None:
    # Far-edge runs by length, upper orientation, against the diagonal walk.
    x = BitSequence.from_text(text)
    expected = [0] * len(text)
    for line in extract_lines(x, len(text), 1):
        if Boundary.N_BOUNDARY in line.boundary and line.i < line.j:
            expected[line.length] += 1
    order, adjacent = recplot._neighbour_lcp(x.bits)
    right = recplot._smaller_bounds(adjacent)[1]
    assert recplot._far_edge_runs(order, adjacent, right).tolist() == expected


def _record_lifts(monkeypatch, run) -> list[tuple[int, int]]:
    # The suffix pairs that _lcp lifts while run() works.
    pairs = []
    lcp = recplot._lcp

    def recording(levels, i, j):
        pairs.extend(zip(i.tolist(), j.tolist()))
        return lcp(levels, i, j)

    monkeypatch.setattr(recplot, "_lcp", recording)
    run()
    return pairs


def _common_prefix(a: str, b: str) -> int:
    return next((t for t, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))


def _nearest_below_oracle(values: list[int], step: int, strict: bool) -> list[int]:
    # -1 or len(values) where the side `step` holds no answer.
    count = len(values)
    out = []
    for t, value in enumerate(values):
        side = range(t - 1, -1, -1) if step < 0 else range(t + 1, count)
        below = (s for s in side if values[s] < value or (not strict and values[s] == value))
        out.append(next(below, -1 if step < 0 else count))
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


def _packed_letters(bits: np.ndarray) -> np.ndarray:
    # Level 0 as _pack builds it from one uint64 letter per position.
    ranks = np.append(bits.astype(np.uint64), np.uint64(0))
    return recplot._pack(ranks, 1, 1, 64 - bits.size.bit_length())


def _level0_keys(bits: np.ndarray) -> np.ndarray:
    # The keys level 0 sorts by, at every position, the empty suffix's included.
    words = recplot._packed_words(bits)
    return recplot._window_keys(words, bits.size + 1, 64 - bits.size.bit_length())


def _rebuilt_keys(level, letters: int) -> list[int]:
    # A later level's keys at every position, the empty suffix's included,
    # from its digits packed here with Python ints, each as wide as the
    # largest rank.
    at = np.arange(letters + 1)
    width = int(level.ranks.max()).bit_length()
    shifts = [width * (level.digits - 1 - k) for k in range(level.digits)]
    return [sum(d << s for d, s in zip(row, shifts)) for row in recplot._digits(level, at).tolist()]


def _assert_levels_rebuild_their_keys(bits: np.ndarray) -> None:
    # Each level above 0 keeps the ranks of the level below in the narrowest
    # unsigned dtype, and its digits, read past the end as 0, pack to the
    # keys _pack sorted it by, the last span included.
    levels, _ = recplot._suffix_levels(bits)
    for level in levels[1:]:
        width = int(level.ranks.max()).bit_length()
        assert level.ranks.dtype == np.min_scalar_type((1 << width) - 1)
        packed = recplot._pack(level.ranks, level.span, width, level.digits)
        assert _rebuilt_keys(level, bits.size) == packed.tolist()


def _assert_level0(bits: np.ndarray) -> None:
    # Level 0 sorts by packed-byte keys and keeps the letters followed by
    # the end marker 2, one digit a letter.
    free = 64 - bits.size.bit_length()
    assert _level0_keys(bits).tolist() == _packed_letters(bits).tolist(), bits.size
    level = recplot._suffix_levels(bits)[0][0]
    assert (level.span, level.digits) == (1, free)
    assert level.ranks.tolist() == bits.tolist() + [2]
    # Its digits at 0 are the first free letters, then end markers.
    first = recplot._digits(level, np.zeros(1, dtype=np.int64))[0]
    assert first.tolist() == (bits.tolist() + [2] * free)[:free]


class TestSuffixKernel:
    def test_level0_keys_from_packed_bytes(self):
        rng = np.random.default_rng(29)
        texts = [rng.integers(0, 2, size, dtype=np.uint8) for size in range(1, 401)]
        texts += [BitSequence.from_text(text).bits for text in _kernel_texts()]
        for bits in texts:
            _assert_level0(bits)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
    def test_level0_keys_from_packed_bytes_on_random_texts(self, letters):
        _assert_level0(np.array(letters, dtype=np.uint8))

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_levels_rebuild_their_keys(self, text):
        _assert_levels_rebuild_their_keys(BitSequence.from_text(text).bits)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.text("01", min_size=1, max_size=400),
            st.builds(
                lambda word, size: (word * size)[:size],
                st.text("01", min_size=1, max_size=9),
                st.integers(1, 400),
            ),
        )
    )
    def test_levels_rebuild_their_keys_on_random_and_periodic_texts(self, text):
        _assert_levels_rebuild_their_keys(BitSequence.from_text(text).bits)

    @pytest.mark.parametrize("sub", [TM, PD, Substitution("01110", "01010")], ids=str)
    def test_plot_takes_five_sorts(self, sub):
        # Outputs stay right with a narrower level 0, but the plot takes
        # one more sort, so only this count shows it.
        levels, _ = recplot._suffix_levels(sub.fixed_point_prefix(1 << 14).bits)
        assert len(levels) == 5
        assert levels[0].digits == 64 - (1 << 14).bit_length()

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_last_level_sorts_suffixes(self, text):
        bits = BitSequence.from_text(text).bits
        levels, order = recplot._suffix_levels(bits)
        expected = sorted(range(len(text) + 1), key=lambda i: text[i:])
        assert order.tolist() == expected
        if len(levels) > 1:
            top = np.array(_rebuilt_keys(levels[-1], len(text)), dtype=np.uint64)
            assert np.unique(top).size == len(text) + 1
        else:
            top = _level0_keys(bits)
            # Level 0 pads with 0s, so a suffix shorter than one key can
            # share the key of a suffix it is a prefix of, and no two others
            # share one.
            for a, b in zip(*np.nonzero(np.triu(top[:, None] == top[None, :], 1))):
                assert len(text) - b < levels[0].digits and text[a:].startswith(text[b:])

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_pairs_by_lcp_match_brute_force(self, text):
        size, x = len(text), BitSequence.from_text(text)
        adjacent = recplot._neighbour_lcp(x.bits)[1]
        shared = {
            (i, j): _common_prefix(text[i:], text[j:])
            for i, j in itertools.combinations(range(size), 2)
        }
        expected = [0] * (size + 1)
        for i, j in itertools.combinations(range(size), 2):
            expected[shared[i, j]] += 1
        bounds = recplot._smaller_bounds(adjacent)
        assert recplot._pairs_by_lcp(adjacent, *bounds, size).tolist() == expected
        # inner_line_counts at each n, with the lmax that fills the text:
        # ordered pairs in [1, n) sharing exactly l letters whose letters
        # before differ.  The pairs (i, n - 1) join as n grows.
        starts = [0] * (size + 1)
        for n in range(2, size - 1):
            for i in range(1, n - 1):
                if text[i - 1] != text[n - 2]:
                    starts[shared[i, n - 1]] += 2
            lmax = size - n - 1
            assert inner_line_counts(x, n, lmax).tolist() == [0] + starts[1 : lmax + 1]

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_neighbour_lcp_matches_lifting_every_neighbour(self, text):
        _assert_neighbour_lcp(BitSequence.from_text(text).bits)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.text("01", min_size=1, max_size=300),
            st.builds(
                lambda word, size: (word * size)[:size],
                st.text("01", min_size=1, max_size=9),
                st.integers(1, 300),
            ),
        )
    )
    def test_neighbour_lcp_on_random_and_periodic_texts(self, text):
        _assert_neighbour_lcp(BitSequence.from_text(text).bits)

    @pytest.mark.parametrize("spec", PLOT_POOL)
    def test_neighbour_lcp_on_pool_forms(self, spec):
        _assert_neighbour_lcp(Substitution.parse(spec).fixed_point_prefix(1 << 12).bits)

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", ["01,10", "01110,01010", "01"])
    def test_neighbour_lcp_at_two_to_the_eighteen(self, spec):
        # TM, q5 and the periodic (01)^k.
        size = 1 << 18
        if "," in spec:
            bits = Substitution.parse(spec).fixed_point_prefix(size).bits
        else:
            bits = BitSequence.from_text((spec * size)[:size]).bits
        _assert_neighbour_lcp(bits)

    @pytest.mark.parametrize("text", _kernel_texts())
    def test_lifts_only_at_bwt_run_boundaries(self, text, monkeypatch):
        # The Burrows-Wheeler transform of the text with an end marker $:
        # the letter before each suffix in sorted order, the empty one
        # included, with $ before suffix 0.
        ranked = sorted(range(len(text) + 1), key=lambda i: text[i:])
        bwt = [text[i - 1] if i else "$" for i in ranked]
        boundaries = [r for r in range(1, len(bwt)) if bwt[r] != bwt[r - 1]]
        bits = BitSequence.from_text(text).bits
        lifted = _record_lifts(monkeypatch, lambda: recplot._neighbour_lcp(bits))
        assert lifted == [(ranked[r - 1], ranked[r]) for r in boundaries]

    @pytest.mark.parametrize("sub", [TM, PD, Substitution("01110", "01010")], ids=str)
    def test_plot_lifts_few_pairs(self, sub, monkeypatch):
        # Outputs stay right if every neighbour is lifted, so only this
        # count shows a return to lifting all n of them: one lift per BWT
        # run after the first, at most 64 at 2^14 letters.
        x = sub.fixed_point_prefix(1 << 14)
        lifted = _record_lifts(monkeypatch, lambda: histogram(x, 1 << 14, 1))
        _, order = recplot._suffix_levels(x.bits)
        text = x.bits.tobytes()
        # The order is sorted: each suffix is below the next, by direct slicing.
        assert sorted(order.tolist()) == list(range(len(text) + 1))
        assert all(text[p:] < text[q:] for p, q in zip(order[:-1].tolist(), order[1:].tolist()))
        bwt = [text[i - 1] if i else 2 for i in order.tolist()]
        runs = 1 + sum(a != b for a, b in zip(bwt, bwt[1:]))
        assert len(lifted) == runs - 1 <= 64

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
        _assert_far_edge_runs(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text("01", min_size=2, max_size=120))
    def test_far_edge_runs_match_extract_lines_on_random_texts(self, text):
        # Each interval of copies ends at most one hop past its first right
        # bound, however the copies continue.
        _assert_far_edge_runs(text)

    def test_far_edge_interval_hops_over_a_letter_boundary(self):
        # The interval of the last 0 of 0100 in suffix order is 0, 00,
        # 0100: 00 continues with a 0 and 0100 with a 1, so the right bound
        # of the first rank lands on the second adjacent value equal to 1,
        # and the search hops on to the interval's end.
        x = BitSequence.from_text("0100")
        order, adjacent = recplot._neighbour_lcp(x.bits)
        right = recplot._smaller_bounds(adjacent)[1]
        assert order.tolist() == [3, 2, 0, 1]
        assert adjacent[0] == adjacent[right[0]] == 1
        # The last 0 occurs at 0 and at 2, and the last two letters, 00,
        # nowhere else: two far-edge runs of length 1.
        assert recplot._far_edge_runs(order, adjacent, right).tolist() == [0, 2, 0, 0]

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("step", [-1, 1])
    def test_nearest_below_matches_brute_force(self, step, strict):
        # The one search finds left strict and right non-strict bounds; on
        # the reversed array its bounds are the other two tie rules.
        reverse = (step > 0) == strict
        rng = np.random.default_rng(5)
        arrays = _adversarial_arrays() + [
            rng.integers(0, top, size).tolist() for top in (2, 3, 9, 1000) for size in (5, 50, 257)
        ]
        for values in arrays:
            left, right = recplot._smaller_bounds(
                np.array(values[::-1] if reverse else values, dtype=np.int64)
            )
            got = left if (step < 0) != reverse else right
            if reverse:
                got = len(values) - 1 - got[::-1]
            assert got.tolist() == _nearest_below_oracle(values, step, strict), values

    @given(
        st.one_of(
            st.lists(st.sampled_from([0, 0, 0, 1, 2]), max_size=80),
            st.lists(st.integers(0, 1000), max_size=80),
            st.builds(lambda value, size: [value] * size, st.integers(0, 9), st.integers(0, 80)),
            st.integers(0, 80).map(lambda size: list(range(size))),
        )
    )
    def test_nearest_below_matches_brute_force_on_random_arrays(self, values):
        left, right = recplot._smaller_bounds(np.array(values, dtype=np.int64))
        assert left.dtype == right.dtype == np.intp
        assert left.tolist() == _nearest_below_oracle(values, -1, True)
        assert right.tolist() == _nearest_below_oracle(values, 1, False)

    def test_pairs_by_lcp_on_adversarial_arrays(self):
        # Each pair of suffixes a < b in order shares min(adjacent[a:b]).
        for values in _adversarial_arrays():
            top = max(values) + 1
            expected = [0] * (top + 1)
            for a, b in itertools.combinations(range(len(values) + 1), 2):
                expected[min(values[a:b])] += 1
            array = np.array(values, dtype=np.int64)
            got = recplot._pairs_by_lcp(array, *recplot._smaller_bounds(array), top)
            assert got.tolist() == expected, values

    @staticmethod
    def _wide_rank_bits(rng):
        # A random block written twice has about 2^15 distinct windows of
        # each length, so at 65,608 letters the ranks above level 0 take 16
        # bits, and two of them fit beside a 17-bit reversed position.
        block = rng.integers(0, 2, (1 << 15) + 11, dtype=np.uint8)
        return np.concatenate([block, block, rng.integers(0, 2, 50, dtype=np.uint8)])

    def test_two_wide_ranks_stay_tagged(self, monkeypatch):
        bits = self._wide_rank_bits(np.random.default_rng(23))
        levels, order = recplot._suffix_levels(bits)
        free = 64 - bits.size.bit_length()
        assert [level.digits for level in levels[1:]] == [2] * (len(levels) - 1)
        assert all(
            level.digits * int(level.ranks.max()).bit_length() <= free for level in levels[1:]
        )
        # The same suffix order as the argsort path's.
        monkeypatch.setattr(recplot, "_MIN_TAGGED_DIGITS", 3)
        assert np.array_equal(recplot._suffix_levels(bits)[1], order)

    def test_wide_ranks_take_the_argsort_path(self, monkeypatch):
        # Asking for three ranks beside the position sends the 16-bit levels
        # to the fallback, which only texts of 2^21 letters or more reach
        # under the default of two: they pack four ranks into 64 bits and
        # sort by argsort.
        monkeypatch.setattr(recplot, "_MIN_TAGGED_DIGITS", 3)
        rng = np.random.default_rng(23)
        bits = self._wide_rank_bits(rng)
        levels, order = recplot._suffix_levels(bits)
        free = 64 - bits.size.bit_length()
        assert len(levels) > 1
        assert all(
            level.digits * int(level.ranks.max()).bit_length() > free for level in levels[1:]
        )
        # Sampled neighbours in suffix order, against direct slicing.
        text = bits.tobytes()
        ranks = rng.choice(bits.size, 10_000, replace=False)
        common = recplot._lcp(levels, order[ranks], order[ranks + 1])
        for p, q, shared in zip(order[ranks].tolist(), order[ranks + 1].tolist(), common.tolist()):
            assert text[p:] < text[q:]
            assert text[p : p + shared] == text[q : q + shared]
            assert p + shared == len(text) or text[p + shared] != text[q + shared]
        x = BitSequence(bits)
        n = bits.size - 4
        for h in (1, 3):
            assert n * n * correlation_sum(x, n, 1, h) - n == recurrence_mass(histogram(x, n, h))
        for lmin in (2, 3, 4):
            assert residuals(x, n, lmin).satisfied()


def _traced_peak(run) -> int:
    # Bytes live at the peak of run(), over those live before it: numpy's
    # data allocations are traced, so the figure repeats exactly.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Bounds on the traced peaks, in KiB, of histogram(x, n, 1) and of
# _suffix_levels alone, about 8% over the highest of TM, PD and q5.  At
# 2^14 letters they were 1,042 and 571-582 KiB; keeping every level's
# uint64 keys took 1,429 KiB for both, the earlier bound search took the
# plot to 1,218 KiB, and one gather-free round instead of two to 1,138-1,145.
# At 2^20 they were 65.0-74.6 and 50.1-54.1 MiB, against 113-121 MiB for
# both with the keys kept.  Counting far-edge runs as occurrences took the
# plot to 1,026-1,030 KiB and 64.0-67.0 MiB.  inner_line_counts(x, 2^14, 30)
# peaks inside _suffix_levels, at 573-584 KiB, so it takes the levels'
# bound; two bound searches over restricted orders took it to 1,411-1,415.
PEAK_BOUNDS_KIB = {14: (1125, 630), 20: (82_000, 60_000)}


class TestPeakMemory:
    @staticmethod
    def _check(sub, exponent):
        n = 1 << exponent
        x = sub.fixed_point_prefix(n)
        plot, levels = PEAK_BOUNDS_KIB[exponent]
        assert _traced_peak(lambda: histogram(x, n, 1)) <= plot * 1024
        assert _traced_peak(lambda: recplot._suffix_levels(x.bits)) <= levels * 1024

    @pytest.mark.parametrize("sub", [TM, PD, Substitution("01110", "01010")], ids=str)
    def test_plot_peak_at_two_to_the_fourteen(self, sub):
        self._check(sub, 14)
        n = 1 << 14
        x = sub.fixed_point_prefix(n + 31)
        assert _traced_peak(lambda: inner_line_counts(x, n, 30)) <= PEAK_BOUNDS_KIB[14][1] * 1024

    @pytest.mark.slow
    @pytest.mark.parametrize("sub", [TM, PD, Substitution("01110", "01010")], ids=str)
    def test_plot_peak_at_two_to_the_twenty(self, sub):
        self._check(sub, 20)

    @pytest.mark.slow
    def test_periodic_plot_peak_at_two_to_the_eighteen(self):
        # (01)^k has lines of every length, so the output dict sets its
        # peak: 35.0 MiB, against 49.5 MiB with one 3-int list per length.
        n = 1 << 18
        x = BitSequence.from_text("01" * (n // 2))
        assert _traced_peak(lambda: histogram(x, n, 1)) <= 40 * 1024 * 1024


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
        big = reduce_eps(1, n, h)[1]
        fine = line_set(extract_lines(x, n, h))
        coarse = {t for t in line_set(extract_lines(x, big, 1)) if t[2] >= h}
        assert {(i, j, reduce_eps(l, n, h)[0], f) for (i, j, l, f) in fine} == coarse
        # theta carries each length's line density from the big plot to the n-plot.
        fine_counts = Counter(t[2] for t in fine)
        coarse_counts = Counter(t[2] for t in coarse)
        for length, count in fine_counts.items():
            assert Fraction(count, n * n - n) == theta(n, h) * Fraction(
                coarse_counts[length + h - 1], big * big - big
            )

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

    @staticmethod
    def _counted(frac):
        # Reference: raise h until 2^-h <= eps, one power at a time.
        h = 1
        while Fraction(1, 2**h) > frac:
            h += 1
        return h

    @settings(max_examples=300)
    @given(st.integers(1, 2**80), st.integers(1, 2**80))
    @example(1, 2**40 + 1)
    @example(2**40 - 1, 2**80)
    def test_matches_counting(self, a, b):
        eps = Fraction(min(a, b), max(a, b) + 1)
        assert quantize_eps(eps) == self._counted(eps)

    def test_matches_counting_next_to_powers_of_two(self):
        for h in range(1, 300):
            for nudge in (Fraction(1, 10**90), Fraction(1, 10**120)):
                for eps in (Fraction(1, 2**h) + nudge, Fraction(1, 2**h) - nudge):
                    if 0 < eps < 1:
                        assert quantize_eps(eps) == self._counted(eps), (h, eps)

    def test_deep_threshold_without_a_loop(self):
        assert quantize_eps(Fraction(1, 2**60000)) == 60000

    @pytest.mark.parametrize("eps", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite(self, eps):
        with pytest.raises(DomainError):
            quantize_eps(eps)


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

    @pytest.mark.parametrize("word", ["0", "01", "001", "0110", "00000001"])
    def test_counts_agree_on_periodic_texts(self, word):
        n, lmax = 1 << 10, 8
        x = BitSequence.from_text((word * (n + lmax + 1))[: n + lmax + 1])
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
            inner_line_counts(BitSequence.from_text("0101"), 3, 2)


class TestWindowLabels:
    @pytest.mark.parametrize("width", [3, 64, 65, 130])
    def test_window_labels_distinguish_windows(self, width):
        # Repeated windows, and windows that differ only in their last letter.
        base = TM.fixed_point_prefix(width + 20).to01()
        text = base + "1" + base + "0" + base
        ids = window_labels(BitSequence.from_text(text).bits, width).tolist()
        words = [text[i : i + width] for i in range(len(text) - width + 1)]
        assert len(ids) == len(words)
        assert len(set(ids)) < len(ids)
        for i, w in enumerate(words):
            for j, v in enumerate(words):
                assert (ids[i] == ids[j]) == (w == v)

    @pytest.mark.parametrize("width", [1, 56, 57, 58, 63, 64, 65, 114, 130])
    def test_window_classes_number_sorted_windows(self, width):
        # Reference: the windows' own sorted order, by np.unique over their text.
        rng = np.random.default_rng(width)
        noise = rng.integers(0, 2, 600, dtype=np.uint8)
        bits = np.concatenate([TM.fixed_point_prefix(600).bits, noise])
        text = BitSequence(bits).to01()
        windows = [text[i : i + width] for i in range(bits.size - width + 1)]
        expected = np.unique(windows, return_inverse=True)[1]
        assert window_classes(bits, width).tolist() == expected.tolist()

    def test_window_labels_width_limits(self):
        bits = np.zeros(100, dtype=np.uint8)
        assert window_labels(bits, 100).size == 1
        with pytest.raises(DomainError):
            window_labels(bits, 0)
        with pytest.raises(DomainError):
            window_labels(bits, 101)


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

    def test_float_plot_size_is_refused(self):
        with pytest.raises(DomainError, match="plot size must be an integer, got 20.0"):
            histogram(TM.fixed_point_prefix(32), 20.0, 1)

    def test_float_render_size_is_refused(self):
        with pytest.raises(DomainError, match="plot size must be an integer, got 4.0"):
            render_ascii(TM.fixed_point_prefix(8), 4.0, 1)


class TestThresholdTypes:
    @pytest.mark.parametrize("eps", ["x", None, [0.5]])
    def test_reduce_embedding_rejects_non_numbers(self, eps):
        with pytest.raises(DomainError, match="threshold must be a number"):
            reduce_embedding(1, eps)

    @pytest.mark.parametrize("eps", ["1/4", "0.25"])
    def test_numeric_text_is_not_a_number(self, eps):
        # Fraction would parse both; quantize_eps and reduce_embedding refuse them alike.
        with pytest.raises(DomainError, match="threshold must be a number"):
            quantize_eps(eps)
        with pytest.raises(DomainError, match="threshold must be a number"):
            reduce_embedding(1, eps)

    @pytest.mark.parametrize(
        "eps",
        [np.float32(0.3), np.float16(0.25), np.longdouble(0.3)],
        ids=["float32", "float16", "longdouble"],
    )
    def test_numpy_floats_are_numbers(self, eps):
        # Fraction refuses these; their exact ratio is read instead.
        assert quantize_eps(eps) == 2
        assert reduce_embedding(2, eps) == eps / 2
        assert asymptotic_quantifiers(Substitution.parse("01,10"), eps=eps).h == 2
