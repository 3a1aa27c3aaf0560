import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from substrqa import BitSequence, DomainError, Substitution, window_classes
from substrqa.recplot import histogram
from substrqa.rqa import (
    RQAReport,
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
        hist = histogram(EXAMPLE, 6, 1)
        c2 = correlation_sum(EXAMPLE, 6, 2, 1)
        main, triangle = corsum_from_histogram(hist, 2, c2)
        assert main == Fraction(10, 36)
        assert triangle == 2
        assert 0 <= triangle <= 2 * (2 - 1) * (6 - 1)

    def test_triangle_zero_at_lmin_one(self):
        hist = histogram(EXAMPLE, 6, 1)
        c1 = correlation_sum(EXAMPLE, 6, 1, 1)
        assert corsum_from_histogram(hist, 1, c1).triangle == 0

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


class TestCorrelationSum:
    def test_constant_sequence(self):
        ones = BitSequence.from_text("1" * 64)
        assert correlation_sum(ones, 32, 4, 2) == 1

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
        # Widths past 64 letters take more than one packed word per window.
        text = TM.fixed_point_prefix(200).to01()
        for width in (64, 65, 70):
            n = 100
            got = correlation_sum(BitSequence.from_text(text), n, width, 1)
            assert got == brute_corsum(text, n, width)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sorted_labels_match_class_counts(self, data):
        # Widths cross the 64- and 128-letter word boundaries; the oracle
        # squares the sizes of the window classes.
        width = data.draw(st.integers(1, 130), label="width")
        letters = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width + 300))
        bits = np.array(letters, dtype=np.uint8)
        n = bits.size - width + 1
        sizes = np.bincount(window_classes(bits, width))
        expected = Fraction(int((sizes * sizes).sum()), n * n)
        assert correlation_sum(BitSequence(bits), n, width, 1) == expected

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

    def test_lavg_quotient(self):
        x = TM.fixed_point_prefix(300)
        n = 256
        c2 = correlation_sum(x, n, 2, 1)
        c3 = correlation_sum(x, n, 3, 1)
        est = linedens_from_corsum(c2, c3, n, 2)
        assert est.lavg == rqa_from_corsum(c2, c3, n, 2).value / est.value


class TestAsymptotic:
    def test_infinite_average_length(self):
        est = asymptotic_from_corsum(Fraction(1), Fraction(1, 2), Fraction(1, 2), 3)
        assert est.Lavg == math.inf
        assert est.RR == Fraction(3, 2) - Fraction(1)

    def test_backed_out_corsum_is_c_l(self):
        est = asymptotic_from_corsum(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 2)
        assert est.C == Fraction(1, 3)
        assert est.DET == est.RR / Fraction(1, 2)

    def test_monotonicity_validation(self):
        with pytest.raises(DomainError):
            asymptotic_from_corsum(Fraction(1, 4), Fraction(1, 2), Fraction(1, 8), 2)


class TestSerialization:
    def test_json_round_trip(self):
        rep = replace(
            measures_from_histogram(histogram(EXAMPLE, 6, 1), 2),
            C=correlation_sum(EXAMPLE, 6, 2, 1),
        )
        data = json.loads(json.dumps(rep.to_json_dict()))

        def frac(d):
            return Fraction(d["num"], d["den"])

        assert (data["n"], data["m"], data["h"], data["lmin"]) == (6, 1, 1, 2)
        assert {int(l): frac(d) for l, d in data["linedens"].items()} == rep.linedens
        for key in ("tail_density", "RR", "RR1", "DET", "Lavg", "C"):
            assert frac(data[key]) == getattr(rep, key)
        assert data["ENT"] == rep.ENT

    def test_json_rationals_exact(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        data = rep.to_json_dict()
        assert data["RR"] == {"num": 4, "den": 15, "approx": 4 / 15}
        assert data["provenance"] == "empirical"

    def test_infinite_lavg_round_trip(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        rep = type(rep)(**{**rep.__dict__, "Lavg": math.inf})
        data = json.loads(json.dumps(rep.to_json_dict()))
        assert data["Lavg"] == {"infinite": True}

    def test_csv_row_alignment(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 2)
        row = rep.to_csv_row()
        assert len(row) == len(RQAReport.CSV_HEADER)
        assert row[RQAReport.CSV_HEADER.index("RR")] == repr(float(Fraction(4, 15)))

    def test_provenance_enum(self):
        rep = measures_from_histogram(histogram(EXAMPLE, 6, 1), 1)
        assert rep.provenance == "empirical"
        assert replace(rep, n=None).provenance == "asymptotic"


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
