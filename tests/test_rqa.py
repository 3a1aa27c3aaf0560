import hashlib
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from substrqa import BitSequence, DomainError, Substitution, cli, rqa
from substrqa.errors import as_fraction
from substrqa.recplot import LineHistogram, histogram
from substrqa.rqa import (
    asymptotic_from_corsum,
    correlation_sum,
    corsum_from_histogram,
    corsum_from_rqa,
    linedens_from_corsum,
    measures_from_histogram,
    residuals,
    rqa_from_corsum,
)

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)

EXAMPLE = BitSequence.from_text("010111010")


def brute_corsum(text: str, n: int, width: int) -> Fraction:
    pairs = sum(
        text[i : i + width] == text[j : j + width] for i in range(n) for j in range(n)
    )
    return Fraction(pairs, n * n)


class TestWorkedExample:
    def test_line_measures(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        assert rep.RR == Fraction(8, 30)
        assert rep.RR1 == Fraction(14, 30)
        assert rep.DET == Fraction(4, 7)
        assert rep.tail_density == Fraction(4, 30)
        assert rep.Lavg == 2
        assert rep.ENT == 0.0

    def test_correlation_sums(self):
        assert correlation_sum(EXAMPLE, 6, 2, 1) == Fraction(12, 36)
        assert correlation_sum(EXAMPLE, 6, 3, 1) == Fraction(8, 36)

    def test_corsum_decomposition(self):
        assert corsum_from_histogram(histogram(EXAMPLE, 6, 1), 2).main_term == Fraction(10, 36)
        # C_2 = 12/36 leaves n^2 (C_2 - 10/36) = 2 far-edge pairs.
        triangle = residuals(EXAMPLE, 6, 2).triangle
        assert (type(triangle), triangle) == (Fraction, 2)
        assert 0 <= triangle <= 2 * (2 - 1) * (6 - 1)

    def test_triangle_zero_at_lmin_one(self):
        assert residuals(EXAMPLE, 6, 1).triangle == 0

    def test_excluded_mode_identities_exact(self):
        # Dropping far-edge lines makes every conversion exact.
        hist = histogram(EXAMPLE, 6, 1).excluding_n_boundary()
        rep = measures_from_histogram(hist, 2)
        c2 = corsum_from_histogram(hist, 2).main_term
        c3 = corsum_from_histogram(hist, 3).main_term
        assert rep.RR == Fraction(4, 30)
        assert (c2, c3) == (Fraction(8, 36), Fraction(6, 36))
        assert rqa_from_corsum(c2, c3, 6, 2).value == rep.RR
        assert linedens_from_corsum(c2, c3, 6, 2).value == rep.tail_density
        back = corsum_from_rqa(rep.RR, rep.tail_density, 6, 2)
        assert c2 - back.value == Fraction(6, 36)


class TestMeasures:
    def test_empty_histogram(self):
        rep = measures_from_histogram(histogram(BitSequence.from_text("01"), 2, 1), 1)
        assert rep.RR == 0
        assert rep.DET is None
        assert rep.Lavg is None
        assert rep.ENT is None
        assert rep.linedens == {}

    def test_fractional_lmin_is_refused(self):
        with pytest.raises(DomainError, match="minimum line length must be an integer"):
            measures_from_histogram(histogram(EXAMPLE, 6, 1), 1.5)

    def test_lmin_beyond_longest_line(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 5)
        assert rep.RR == 0
        assert rep.DET == 0
        assert rep.Lavg is None

    def test_single_length_entropy_zero(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        assert len(rep.linedens) == 1
        assert rep.ENT == 0.0

    def test_entropy_matches_direct_distribution(self):
        rep = measures_from_histogram(histogram(TM.fixed_point_prefix(600), 512, 1), 1)
        probs = [float(d / rep.tail_density) for d in rep.linedens.values()]
        direct = -sum(p * math.log(p) for p in probs)
        assert rep.ENT == pytest.approx(direct, abs=1e-12)

    def test_det_and_lavg_ranges(self):
        for lmin in (1, 2, 3, 5):
            rep = measures_from_histogram(histogram(TM.fixed_point_prefix(300), 256, 1), lmin)
            assert 0 <= rep.DET <= 1
            if rep.Lavg is not None:
                assert rep.Lavg >= lmin

    def test_rr_nonincreasing_in_lmin(self):
        hist = histogram(PD.fixed_point_prefix(300), 256, 1)
        rrs = [measures_from_histogram(hist, lmin).RR for lmin in range(1, 8)]
        assert all(a >= b for a, b in zip(rrs, rrs[1:]))

    def test_validation(self):
        hist = histogram(EXAMPLE, 6, 1)
        with pytest.raises(DomainError):
            measures_from_histogram(hist, 0)

    @pytest.mark.parametrize("lmin", [1, 2])
    def test_length_with_no_line_is_skipped(self, lmin):
        # histogram never lists such a length; kept, its zero density would
        # reach the entropy's logarithm.
        lines = {3: (2, 0, 0), 4: (2, 0, 0)}
        padded = LineHistogram(n=6, h=1, m=1, counts={2: (0, 0, 0), **lines})
        rep = measures_from_histogram(padded, lmin)
        assert rep == measures_from_histogram(LineHistogram(n=6, h=1, m=1, counts=lines), lmin)
        assert list(rep.linedens) == [3, 4]

    def test_impossible_counts_are_refused(self):
        # Both readers of a LineHistogram refuse in the same words.
        for n, counts, message in [
            (3, {2: (9, 0, 0)}, "histogram holds 18 recurrent cells, more than its 6 off-diagonal ones"),
            (3, {1: (3, -1, 0)}, "line count must be >= 0, got -1"),
            (3, {2: (-9, 0, 0)}, "line count must be >= 0, got -9"),
            (3, {2: (1.5, 0, 0)}, "line count must be an integer, got 1.5"),
            (3, {-1: (3, 0, 0)}, "line length must be >= 1, got -1"),
            (3, {0: (3, 0, 0)}, "line length must be >= 1, got 0"),
            (3, {2.5: (1, 0, 0)}, "line length must be an integer, got 2.5"),
            (0, {}, "plot size must be >= 2, got 0"),
            (1, {}, "plot size must be >= 2, got 1"),
        ]:
            hist = LineHistogram(n=n, h=1, m=1, counts=counts)
            for reader in (measures_from_histogram, corsum_from_histogram):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    reader(hist, 1)
        # Every off-diagonal cell recurrent is the most a plot holds.
        full = LineHistogram(n=3, h=1, m=1, counts={2: (3, 0, 0)})
        assert measures_from_histogram(full, 1).RR1 == 1
        assert corsum_from_histogram(full, 1).main_term == 1

    @pytest.mark.slow
    def test_finite_rows_are_pinned(self):
        # Every report field, ENT's float included, over the plots of
        # test_histogram_grid_is_pinned, against a fixed answer.
        forms = ["01,10", "01,00", "01110,01010", "0010,0111", "011,000", "010,101"]
        forms += ["01,01", "0010,0010", "001,001"]
        digest = hashlib.sha256()
        for spec in forms:
            x = Substitution.parse(spec).normalize()[0].fixed_point_prefix((1 << 16) + 8)
            for n in (2, 3, 7, 64, 362, 4096, 1 << 14, 1 << 16):
                for h, m in ((1, 1), (3, 2)):
                    hist = histogram(x, n, h, m=m)
                    for lmin in (1, 2, 3, 5):
                        digest.update(repr(measures_from_histogram(hist, lmin)).encode())
        assert digest.hexdigest()[:16] == "6bbd1ff894dbea4b"


class TestCorrelationSum:
    def test_constant_sequence(self):
        ones = BitSequence.from_text("1" * 64)
        assert correlation_sum(ones, 32, 4, 2) == 1

    def test_float_plot_size_is_refused(self):
        with pytest.raises(DomainError, match="plot size must be an integer, got 20.0"):
            correlation_sum(TM.fixed_point_prefix(32), 20.0, 1, 1)

    def test_diagonal_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            bits = BitSequence(rng.integers(0, 2, size=80, dtype=np.uint8))
            c = correlation_sum(bits, 64, 3, 2)
            assert c >= Fraction(1, 64)

    def test_nonincreasing_in_lmin_and_h(self):
        x = TM.fixed_point_prefix(300)
        row = [correlation_sum(x, 256, lmin, 1) for lmin in range(1, 8)]
        assert all(a >= b for a, b in zip(row, row[1:]))
        col = [correlation_sum(x, 256, 3, h) for h in range(1, 5)]
        assert all(a >= b for a, b in zip(col, col[1:]))

    def test_matches_brute_force(self):
        text = PD.fixed_point_prefix(80).to01()
        for lmin, h in [(1, 1), (2, 1), (3, 2), (1, 4)]:
            width = lmin + h - 1
            n = 40
            assert correlation_sum(BitSequence.from_text(text), n, lmin, h) == brute_corsum(
                text, n, width
            )

    def test_wide_window_fallback_matches_brute_force(self):
        # Widths past 57 letters take more than one packed key per window.
        text = TM.fixed_point_prefix(200).to01()
        for width in (64, 65, 70):
            n = 100
            got = correlation_sum(BitSequence.from_text(text), n, width, 1)
            assert got == brute_corsum(text, n, width)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sorted_labels_match_class_counts(self, data):
        # Widths cross the 57- and 114-letter key boundaries; the oracle
        # squares the counts of the window texts.
        width = data.draw(st.integers(1, 130), label="width")
        letters = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width + 300))
        text = "".join(map(str, letters))
        n = len(text) - width + 1
        windows = Counter(text[i : i + width] for i in range(n))
        expected = Fraction(sum(c * c for c in windows.values()), n * n)
        assert correlation_sum(BitSequence.from_text(text), n, width, 1) == expected

    @pytest.mark.parametrize("width", [1, 56, 57, 58, 63, 64, 65, 113, 114, 115, 130])
    def test_matches_window_text_counts(self, width):
        # An oracle that shares no code with the packed reader: a Counter
        # over the window texts, on substitution prefixes, a random text and
        # a periodic one, with widths on both sides of each 57-letter piece
        # and of the 64-letter words.
        rng = np.random.default_rng(width)
        texts = [sub.fixed_point_prefix(730).to01() for sub in (TM, PD, Q5)]
        texts += ["".join(map(str, rng.integers(0, 2, 730))), ("00101" * 146)]
        for text in texts:
            x = BitSequence.from_text(text)
            for n in (1, 2, 3, 8, 9, 56, 57, 58, 64, 65, 127, 200, 421, 599, 600):
                windows = Counter(text[i : i + width] for i in range(n))
                expected = Fraction(sum(c * c for c in windows.values()), n * n)
                assert correlation_sum(x, n, width, 1) == expected, (text[:8], n)

    def test_embedding_folds_into_window(self):
        x = TM.fixed_point_prefix(300)
        assert correlation_sum(x, 256, 3, 2, m=3) == correlation_sum(x, 256, 3, 4)

    def test_prefix_requirement(self):
        with pytest.raises(DomainError):
            correlation_sum(EXAMPLE, 9, 2, 1)


class TestConversions:
    def test_rr_identity_at_lmin_one(self):
        # With lmin=1 both residual bounds collapse to zero.
        x = PD.fixed_point_prefix(300)
        n = 256
        c1 = correlation_sum(x, n, 1, 1)
        c2 = correlation_sum(x, n, 2, 1)
        rep = measures_from_histogram(histogram(x, n, 1), 1)
        est = rqa_from_corsum(c1, c2, n, 1)
        assert est.bound == 0
        assert est.value == rep.RR
        back = corsum_from_rqa(rep.RR, rep.tail_density, n, 1)
        assert c1 - back.value == Fraction(1, n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(16, 128),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    def test_residual_bounds_random(self, seed, n, lmin, h):
        rng = np.random.default_rng(seed)
        bits = BitSequence(rng.integers(0, 2, size=n + lmin + h + 2, dtype=np.uint8))
        assert residuals(bits, n, lmin, h).satisfied()

    @pytest.mark.parametrize("sub", [TM, PD], ids=str)
    @pytest.mark.parametrize("lmin", [1, 2, 3, 4])
    def test_residual_bounds_substitution_prefixes(self, sub, lmin):
        x = sub.fixed_point_prefix(600)
        assert residuals(x, 512, lmin, 1).satisfied()

    def test_residuals_are_pinned(self):
        # Every field of every residual, against a fixed answer: the first 200
        # instances of criterion 4's generator, then Thue-Morse and q5
        # prefixes at n 64, 181 and 512, lmin 1-6 and h 1-3.
        digest = hashlib.sha256()
        rng = np.random.default_rng(41)
        for _ in range(200):
            n, lmin, h = (int(rng.integers(*r)) for r in ((8, 513), (1, 7), (1, 4)))
            x = BitSequence(rng.integers(0, 2, n + lmin + h + 2))
            digest.update(repr(residuals(x, n, lmin, h)).encode())
        for sub in (TM, Q5):
            x = sub.fixed_point_prefix(520)
            for n in (64, 181, 512):
                for lmin in range(1, 7):
                    for h in (1, 2, 3):
                        digest.update(repr(residuals(x, n, lmin, h)).encode())
        assert digest.hexdigest()[:16] == "f70c3bb312a2d05a"

    def test_residuals_read_the_histogram_once(self, monkeypatch):
        reads, read = [], rqa._line_sums

        def counted(hist, lmin):
            reads.append(lmin)
            return read(hist, lmin)

        monkeypatch.setattr(rqa, "_line_sums", counted)
        assert residuals(TM.fixed_point_prefix(80), 64, 3, 2).satisfied()
        assert reads == [3]

    def test_linedens_reads_its_sums_once(self, monkeypatch):
        reads, read = [], rqa.as_fraction

        def counted(value, what):
            reads.append(value)
            return read(value, what)

        monkeypatch.setattr(rqa, "as_fraction", counted)
        assert linedens_from_corsum(0.5, 0.25, 8, 3).lavg == Fraction(7, 2)
        assert reads == [0.5, 0.25]

    @pytest.mark.parametrize("name", ["rqa_from_corsum", "linedens_from_corsum", "corsum_from_rqa"])
    @pytest.mark.parametrize("kind", [float, np.float32, np.longdouble], ids=lambda k: k.__name__)
    def test_identities_read_numbers_exactly(self, name, kind):
        identity = getattr(rqa, name)
        exact = identity(HALF, QUARTER, 4, 2)
        got = identity(kind(0.5), kind(0.25), 4, 2)
        assert got == exact
        assert all(type(v) is Fraction for v in got if v is not None)

    @pytest.mark.parametrize(
        "name, first, second",
        [
            ("rqa_from_corsum", "correlation sum", "correlation sum"),
            ("linedens_from_corsum", "correlation sum", "correlation sum"),
            ("corsum_from_rqa", "recurrence rate", "tail density"),
        ],
    )
    @pytest.mark.parametrize("bad", ["1/2", None, math.nan], ids=repr)
    def test_identities_refuse_non_numbers(self, name, first, second, bad):
        identity = getattr(rqa, name)
        for what, args in [(first, (bad, QUARTER)), (second, (HALF, bad))]:
            message = f"{what} must be a number, got {bad!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                identity(*args, 4, 2)

    def test_lavg_quotient(self):
        x = TM.fixed_point_prefix(300)
        n = 256
        c2 = correlation_sum(x, n, 2, 1)
        c3 = correlation_sum(x, n, 3, 1)
        est = linedens_from_corsum(c2, c3, n, 2)
        assert est.lavg == rqa_from_corsum(c2, c3, n, 2).value / est.value
        # The same on a grid of exact, float and numpy sums.
        sums = [(c2, c3), (HALF, QUARTER), (0.3, 0.1), (np.float32(0.7), np.float64(0.2))]
        sums += [(1, np.int64(1)), (QUARTER, 0), (np.longdouble(0.6), HALF)]
        for (c_l, c_next), n, lmin in itertools.product(sums, (2, 7, 256), (1, 2, 5)):
            est = linedens_from_corsum(c_l, c_next, n, lmin)
            value = Fraction(n, n - 1) * (as_fraction(c_l, "") - as_fraction(c_next, ""))
            rr = rqa_from_corsum(c_l, c_next, n, lmin).value
            lavg = rr / value if value > 0 else None
            assert est == (value, Fraction(2 * lmin, n), lavg), (c_l, c_next, n, lmin)


class TestAsymptotic:
    def test_infinite_average_length(self):
        est = asymptotic_from_corsum(Fraction(1), Fraction(1, 2), Fraction(1, 2), 3)
        assert est.Lavg == math.inf
        assert est.RR == Fraction(3, 2) - Fraction(1)

    def test_backed_out_corsum_is_c_l(self):
        est = asymptotic_from_corsum(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 2)
        assert est.C == Fraction(1, 3)
        assert est.DET == est.RR / Fraction(1, 2)

    def test_sums_are_read_as_fractions(self):
        est = asymptotic_from_corsum(1, 1, 1, 2)
        assert est == (1, 1, math.inf, 1)
        assert all(type(v) is Fraction for v in (est.RR, est.DET, est.C))
        assert asymptotic_from_corsum(np.float32(0.5), 0.5, np.longdouble(0.25), 2).C == Fraction(1, 2)
        for bad in ("1/2", None, math.nan, math.inf, np.float32("nan")):
            with pytest.raises(DomainError, match="correlation sum must be a number"):
                asymptotic_from_corsum(1, bad, 0, 2)

    @pytest.mark.parametrize(
        "c_1, det", [(0, None), (Fraction(1, 2), 0)], ids=["no_recurrence", "no_line"]
    )
    def test_no_line_has_no_average_length(self, c_1, det):
        # C_l = 0: no line exists, which measures_from_histogram reads as an
        # absent Lavg too.
        assert asymptotic_from_corsum(c_1, 0, 0, 2) == (0, det, None, 0)

    def test_monotonicity_validation(self):
        with pytest.raises(DomainError):
            asymptotic_from_corsum(Fraction(1, 4), Fraction(1, 2), Fraction(1, 8), 2)


class TestSerialization:
    def test_json_round_trip(self):
        rep = replace(
            measures_from_histogram(histogram(EXAMPLE, 6, 1), 2),
            C=correlation_sum(EXAMPLE, 6, 2, 1),
        )
        data = json.loads(json.dumps(cli._report_json(rep)))

        def frac(d):
            return Fraction(d["num"], d["den"])

        assert (data["n"], data["m"], data["h"], data["lmin"]) == (6, 1, 1, 2)
        assert {int(l): frac(d) for l, d in data["linedens"].items()} == rep.linedens
        for key in ("tail_density", "RR", "RR1", "DET", "Lavg", "C"):
            assert frac(data[key]) == getattr(rep, key)
        assert data["ENT"] == rep.ENT

    def test_numpy_integer_arguments_serialize(self):
        # numpy integers pass as plain ints, so the report's n and h do too.
        x = TM.fixed_point_prefix(21)
        hist = histogram(x, np.int64(20), np.int64(2))
        assert (type(hist.n), type(hist.h)) == (int, int)
        assert hist == histogram(x, 20, 2)
        rep = measures_from_histogram(hist, 1)
        assert json.loads(json.dumps(cli._report_json(rep)))["h"] == 2

    def test_json_rationals_exact(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        data = cli._report_json(rep)
        assert data["RR"] == {"num": 4, "den": 15, "approx": 4 / 15}
        assert data["provenance"] == "empirical"

    def test_infinite_lavg_round_trip(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        rep = type(rep)(**{**rep.__dict__, "Lavg": math.inf})
        data = json.loads(json.dumps(cli._report_json(rep)))
        assert data["Lavg"] == {"infinite": True}

    def test_csv_row_alignment(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        row = cli._report_row(rep)
        assert len(row) == len(cli._REPORT_HEADER)
        assert row[cli._REPORT_HEADER.index("RR")] == repr(float(Fraction(4, 15)))

    def test_provenance_enum(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 1)
        assert cli._provenance(rep) == "empirical"
        assert cli._provenance(replace(rep, n=None)) == "asymptotic"


# The finite-plot benchmark's reference records, per spec|n|window, a digest
# of the histogram rows and, per lmin, of RR, DET, Lavg and the correlation
# sum as strings; (h, m) enter only through the window h + m - 1.
PLOT_REFERENCE = json.loads(
    (Path(__file__).parents[1] / "benchmarks" / "reference" / "finite-plot.json").read_text()
)
PLOT_SPECS = sorted({key.split("|")[0] for key in PLOT_REFERENCE})


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_plot_reference(spec: str, low: int, high: int) -> None:
    checked = 0
    for key, want in sorted(PLOT_REFERENCE.items()):
        form, n, window = key.split("|")
        n, h = int(n), int(window)
        if form != spec or not low < n <= high:
            continue
        checked += 1
        lmins = sorted(int(lmin) for lmin in want["lmin"])
        x = Substitution.parse(spec).fixed_point_prefix(n + max(lmins) + h + 1)
        hist = histogram(x, n, h)
        rows = [[length, *hist.counts[length]] for length in hist.lengths()]
        assert _digest(rows) == want["hist"], key
        for lmin in lmins:
            report = measures_from_histogram(hist, lmin)
            measures = [str(report.RR), str(report.DET), str(report.Lavg)]
            measures.append(str(correlation_sum(x, n, lmin, h)))
            assert _digest(measures) == want["lmin"][str(lmin)][0], (key, lmin)
    assert checked


@pytest.mark.parametrize("spec", PLOT_SPECS)
def test_finite_plot_matches_reference(spec):
    _check_plot_reference(spec, 0, 1 << 13)


@pytest.mark.slow
@pytest.mark.parametrize("spec", PLOT_SPECS)
def test_large_finite_plot_matches_reference(spec):
    # The sizes past 2^13, up to 2^15: the ones that set the benchmark's tail.
    _check_plot_reference(spec, 1 << 13, 1 << 15)
