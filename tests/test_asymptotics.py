import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from substrqa import DiscrepancyError, DomainError, SubstRQAError, Substitution, asymptotics, cli
from substrqa.asymptotics import (
    AsymptoticQuantifiers,
    _family_first_step,
    _tail_sums,
    asymptotic_quantifiers,
    closed_form,
    determinism_limit_scan,
    nu_tables,
    quantifiers_via_sums,
)
from substrqa.densities import reconstruct_base
from substrqa.recplot import histogram
from substrqa.rqa import _log_fraction, measures_from_histogram

from oracles import normalized_forms

TM = Substitution("01", "10")
PD = Substitution("01", "00")
Q5 = Substitution("01110", "01010")
GOLDEN = [TM, PD, Q5]


def table_of(sub):
    return reconstruct_base(sub)


def _fraction_tail_sums(table, lprime):
    # Reference: the tail sums in plain Fractions, one gcd per addition,
    # that the integer numerators over one denominator replaced.
    constants = table.constants
    q = constants.q
    c = constants.c
    x = Fraction(1, q * q)
    s0 = Fraction(0)
    s1 = Fraction(0)
    neg_slog = 0.0
    for lone in range(lprime, constants.R0):
        d = table.base[lone]
        if d:
            s0 += d
            s1 += lone * d
            neg_slog -= float(d) * _log_fraction(d)
    for base in range(constants.R0, constants.R):
        d = table.base[base]
        if not d:
            continue
        k0 = _family_first_step(base, c, q, lprime)
        tail = x**k0 / (1 - x)
        tail_weighted = (k0 * x**k0 - (k0 - 1) * x ** (k0 + 1)) / (1 - x) ** 2
        s0 += d * tail
        s1 += d * ((base + c) * Fraction(1, q) ** k0 * Fraction(q, q - 1) - c * tail)
        neg_slog -= float(d) * (
            _log_fraction(d) * float(tail) - 2.0 * math.log(q) * float(tail_weighted)
        )
    return s0, s1, neg_slog


def _counted(monkeypatch, *targets):
    """Wrap each (owner, attribute name) in targets; the returned list gets
    the name of every call."""
    calls = []
    for owner, name in targets:
        fn = getattr(owner, name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def _assert_tails_match_fractions(t):
    for lprime in range(1, t.constants.R + 12):
        s0, s1, neg_slog = _tail_sums(t, lprime)
        r0, r1, ref_slog = _fraction_tail_sums(t, lprime)
        assert (s0, s1) == (r0, r1), (t.subst, lprime)
        assert type(s0) is type(s1) is Fraction
        # The same float, not a close one: the entropy's bytes are pinned.
        assert neg_slog == ref_slog, (t.subst, lprime)


class TestAnchors:
    def test_tm_at_minimum_settings(self):
        a = quantifiers_via_sums(table_of(TM))
        assert a.RR == Fraction(1, 2)
        # RR at lmin=1 must equal the sum of squared letter frequencies,
        # an argument entirely outside the tail-sum machinery.
        assert a.C == Fraction(1, 4) + Fraction(1, 4)
        assert a.lineDens == Fraction(2, 9)
        assert a.linedens == Fraction(1, 9)
        assert a.Lavg == Fraction(9, 4)
        assert a.DET == 1
        assert abs(a.ENT - 2 * math.log(2)) < 1e-12

    def test_tm_at_line_length_two(self):
        a = quantifiers_via_sums(table_of(TM), 1, 2, 1)
        assert a.RR == Fraction(7, 18)
        assert a.C == Fraction(5, 18)
        assert a.DET == Fraction(7, 9)
        assert a.linedens == Fraction(1, 18)
        assert a.lineDens == Fraction(1, 9)
        assert a.Lavg == Fraction(7, 2)

    def test_pd_at_minimum_settings(self):
        a = quantifiers_via_sums(table_of(PD))
        assert a.RR == Fraction(5, 9)
        assert a.C == Fraction(5, 9)
        assert abs(a.ENT - 2 * math.log(2)) < 1e-12

    def test_q5_at_minimum_settings(self):
        a = quantifiers_via_sums(table_of(Q5))
        assert a.RR == Fraction(1, 2)
        assert a.lineDens == Fraction(6, 25)
        assert a.ENT > 0

    def test_embedding_and_threshold_shift_through_lprime(self):
        # Only lmin+m+h-2 matters for the tail values.
        t = table_of(TM)
        shifted = quantifiers_via_sums(t, 3, 1, 1)
        same = quantifiers_via_sums(t, 1, 1, 3)
        assert shifted.RR == same.RR
        assert shifted.lineDens == same.lineDens
        assert dataclasses.replace(shifted, m=1, h=3) == same

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            quantifiers_via_sums(table_of(TM), 0, 1, 1)
        with pytest.raises(DomainError):
            quantifiers_via_sums(table_of(TM), 1, 1, 0)


class TestClosedForm:
    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_agrees_with_sums_on_a_grid(self, sub):
        # closed_form raises DiscrepancyError itself on any disagreement;
        # the equality assertions below double as output sanity.
        t = table_of(sub)
        for lmin in range(1, 9):
            for m in (1, 2):
                for h in (1, 2, 4):
                    a = closed_form(t, m, lmin, h)
                    b = quantifiers_via_sums(t, m, lmin, h)
                    assert (a.RR, a.lineDens, a.linedens, a.C, a.DET) == (
                        b.RR,
                        b.lineDens,
                        b.linedens,
                        b.C,
                        b.DET,
                    )
                    assert abs(a.ENT - b.ENT) <= 1e-9

    @pytest.mark.parametrize("lmin, closed, summed", [(1, 1, 2), (2, 2, 3)])
    def test_tail_calls_per_limit(self, monkeypatch, lmin, closed, summed):
        # At lmin = 1 the RR1 tail starts at lprime, so both routes reuse the
        # lprime tail; the reference adds one tail for the exact-length density.
        t = table_of(TM)
        calls = _counted(monkeypatch, (asymptotics, "_closed_tail"), (asymptotics, "_tail_sums"))
        closed_form(t, 2, lmin, 3)
        assert (calls.count("_closed_tail"), calls.count("_tail_sums")) == (closed, summed)

    def test_known_tail_values(self):
        t = table_of(TM)
        assert closed_form(t, 1, 3, 1).lineDens == Fraction(1, 18)
        assert closed_form(t, 1, 4, 1).lineDens == Fraction(1, 36)

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_quantifier_identities(self, sub):
        t = table_of(sub)
        for lmin in range(1, 8):
            for m, h in ((1, 1), (2, 3), (1, 5)):
                cur = quantifiers_via_sums(t, m, lmin, h)
                nxt = quantifiers_via_sums(t, m, lmin + 1, h)
                assert cur.RR == lmin * cur.C - (lmin - 1) * nxt.C
                assert cur.C == cur.RR - (lmin - 1) * cur.lineDens
                assert cur.RR == nxt.RR + lmin * cur.linedens
                assert cur.lineDens == nxt.lineDens + cur.linedens

    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_values_are_positive_and_det_bounded(self, sub):
        t = table_of(sub)
        for lmin in (1, 2, 5, 9):
            for h in (1, 2, 6):
                a = closed_form(t, 1, lmin, h)
                assert a.RR > 0 and a.lineDens > 0 and a.C > 0
                assert 0 < a.DET <= 1
                assert a.ENT > 0
                assert a.Lavg >= a.lmin

    def test_correlation_sum_above_one_is_refused(self):
        # Raising base 1 of TM's table to 9/10 takes C past 1 (to 58/45),
        # which no correlation sum reaches: both routes must refuse the row.
        t = table_of(TM)
        raised = dataclasses.replace(t, base={**t.base, 1: Fraction(9, 10)})
        for route in (closed_form, quantifiers_via_sums):
            with pytest.raises(DiscrepancyError, match="correlation sums"):
                route(raised)


class TestIntegerTailSums:
    def test_match_fractions_on_every_form_up_to_q4(self):
        forms = normalized_forms((2, 3, 4))
        assert len(forms) == 194
        for sub in forms:
            _assert_tails_match_fractions(table_of(sub))

    @pytest.mark.parametrize("spec", ["10001,00011", "11100,01110", "11111,01100"])
    def test_match_fractions_on_q25_squares(self, spec):
        sub = Substitution.parse(spec).classify().normalized
        assert sub.q == 25
        _assert_tails_match_fractions(table_of(sub))

    @pytest.mark.slow
    def test_match_fractions_on_every_form_with_q5(self, q5_tables):
        assert len(q5_tables) == 703
        for t in q5_tables:
            _assert_tails_match_fractions(t)

    @pytest.mark.slow
    def test_grid_output_bytes_are_pinned(self):
        # One digest over the reprs of closed_form on the grid and of the
        # DET scan, for every form with q <= 4; it pins the ENT floats,
        # which the routes' cross-check compares only to 1e-9.
        digest = hashlib.sha256()
        for sub in normalized_forms((2, 3, 4)):
            t = table_of(sub)
            for lmin in range(1, 7):
                for m in (1, 2):
                    for h in range(1, 4):
                        digest.update(repr(closed_form(t, m, lmin, h)).encode())
            digest.update(repr(determinism_limit_scan(sub, 1, 3, range(1, 25))).encode())
        assert digest.hexdigest()[:16] == "cecc4e917d2ff5a1"


class TestNuTables:
    @pytest.mark.parametrize("sub", GOLDEN, ids=str)
    def test_boundary_and_monotonicity(self, sub):
        t = table_of(sub)
        nut = nu_tables(t)
        k = t.constants
        assert nut.nu_N[k.R0] == 0
        assert nut.nu_RR[k.R0] == 0
        assert nut.nu_ENT[k.R0] == 0.0
        assert nut.tilde_N[k.R] == 0
        assert nut.tilde_N[k.R0] == nut.nu_N[k.R]
        values_n = [nut.nu_N[l] for l in range(k.R0, k.R + 1)]
        values_rr = [nut.nu_RR[l] for l in range(k.R0, k.R + 1)]
        assert values_n == sorted(values_n)
        assert values_rr == sorted(values_rr)

    def test_tm_table_values(self):
        t = table_of(TM)
        nut, before = nu_tables(t), closed_form(t, 1, 1, 1)
        assert nut.nu_N == {2: 0, 3: Fraction(1, 18), 4: Fraction(1, 12)}
        assert nut.nu_RR == {2: 0, 3: Fraction(1, 9), 4: Fraction(7, 36)}
        # The cumulative sums are cached on the table instance, so a copy
        # with one density changed must not read the original's sums.
        changed = dataclasses.replace(t, base={**t.base, 2: t.base[2] + Fraction(1, 36)})
        assert nu_tables(changed).nu_N == {2: 0, 3: Fraction(1, 12), 4: Fraction(1, 9)}
        assert nu_tables(changed).tilde_N[2] == nut.tilde_N[2] + Fraction(1, 36)
        assert nu_tables(t) == nut
        # From lprime = 1 on, base 2's family adds 1/36 * q^2/(q^2 - 1).
        after = closed_form(changed, 1, 1, 1)
        assert after.lineDens == before.lineDens + Fraction(1, 36) * Fraction(4, 3)
        assert after == quantifiers_via_sums(changed, 1, 1, 1)


class TestDegenerate:
    def test_proximal_and_trivial_values(self):
        for text in ("010,111", "00,11"):
            a = asymptotic_quantifiers(Substitution.parse(text))
            assert (a.RR, a.RR1, a.DET, a.C) == (1, 1, 1, 1)
            assert a.Lavg == math.inf
            assert a.ENT is None
            assert a.lineDens == 0

    def test_periodic_values(self):
        # cli writes the "period 2" note; the row is data only.
        a = asymptotic_quantifiers(Substitution("010", "101"))
        assert (a.RR, a.DET, a.C) == (1, 1, 1)
        assert a.Lavg == math.inf
        assert a.ENT is None

    def test_periodic_finite_plot_confirms_determinism(self):
        # Once the plot is larger than twice the period, every kept line
        # already has length >= 2 and DET is exactly 1.
        cls = Substitution("010", "101").classify()
        x = cls.normalized.fixed_point_prefix(16)
        report = measures_from_histogram(histogram(x, 8, 1), 2)
        assert report.DET == 1

    def test_period_scan_rejects_aperiodic(self):
        for sub in GOLDEN:
            assert sub.classify().period is None

    def test_period_of_simple_alternation(self):
        assert Substitution("010", "101").classify().period == 2


class TestScan:
    def test_tm_scan_values_and_envelope(self):
        rows = dict(determinism_limit_scan(TM, 1, 2, range(1, 25)))
        assert rows[5] == 1
        assert rows[8] == Fraction(13, 14)
        assert all(0 < v <= 1 for v in rows.values())
        # Support gaps pull DET back to exactly 1 infinitely often, so the
        # approach is not monotone; the 1/h envelope still holds.
        for h in range(8, 25):
            assert 1 - rows[h] <= Fraction(2 * 1 * 4, h)

    def test_tm_depth_three_endpoint(self):
        rows = dict(determinism_limit_scan(TM, 1, 3, range(24, 25)))
        assert rows[24] == Fraction(33, 34)

    def test_degenerate_scans_are_constant(self):
        for text in ("010,111", "00,11", "010,101"):
            rows = determinism_limit_scan(Substitution.parse(text), 1, 2, range(1, 9))
            assert [v for _, v in rows] == [1] * 8

    @pytest.mark.parametrize("text", ["01,11", "010,101"])
    def test_degenerate_scans_check_inputs(self, text):
        # A nonprimitive and a periodic form: the same DomainError as the
        # single-point evaluation and the aperiodic scan.
        sub = Substitution.parse(text)
        with pytest.raises(DomainError):
            asymptotic_quantifiers(sub, 0, -1)
        with pytest.raises(DomainError):
            determinism_limit_scan(sub, 0, -1, range(1, 4))
        with pytest.raises(DomainError):
            determinism_limit_scan(sub, 1, 0, range(1, 4))
        with pytest.raises(DomainError):
            determinism_limit_scan(sub, 1, 2, range(0, 4))

    def test_empty_range(self):
        assert determinism_limit_scan(TM, 1, 2, range(0)) == []

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("01,10", "primitive_aperiodic"),
            ("01,00", "primitive_aperiodic"),
            ("01110,01010", "primitive_aperiodic"),
            ("10,00", "primitive_aperiodic"),  # normalized by squaring
            ("010,101", "primitive_periodic"),
            ("01,11", "nonprimitive_proximal"),
            ("00,11", "nonprimitive_trivial"),
        ],
    )
    def test_rows_equal_single_point_evaluations(self, text, kind):
        sub = Substitution.parse(text)
        assert sub.classify().kind.value == kind
        for m, lmin in ((1, 2), (2, 3)):
            rows = determinism_limit_scan(sub, m, lmin, range(1, 25))
            assert rows == [
                (h, asymptotic_quantifiers(sub, m, lmin, Fraction(1, 2**h)).DET)
                for h in range(1, 25)
            ]

    def test_one_scan_resolves_once(self, monkeypatch):
        # Inputs, classification, table and period are resolved once per
        # scan, not once per row.
        calls = _counted(
            monkeypatch,
            (Substitution, "classify"),
            (asymptotics, "reconstruct_base"),
        )
        determinism_limit_scan(TM, 1, 3, range(1, 25))
        assert calls.count("reconstruct_base") == 1
        assert calls.count("classify") <= 2
        calls.clear()
        determinism_limit_scan(Substitution("010", "101"), 1, 2, range(1, 25))
        assert calls == ["classify"]
        calls.clear()
        assert determinism_limit_scan(Substitution("010", "101"), 1, 2, range(0)) == []
        assert determinism_limit_scan(TM, 1, 2, range(5, 5)) == []
        assert calls == []

    def test_rows_are_cross_checked(self, monkeypatch):
        # A closed-form tail that drifts from the reference must stop the
        # scan, as it stops a single-point evaluation.
        closed_tail = asymptotics._closed_tail

        def drifted(*args):
            s0, s1, neg_slog = closed_tail(*args)
            return s0 + Fraction(1, 10**9), s1, neg_slog

        monkeypatch.setattr(asymptotics, "_closed_tail", drifted)
        with pytest.raises(DiscrepancyError):
            determinism_limit_scan(TM, 1, 3, range(1, 25))


class TestDispatchAndSerialization:
    def test_dispatch_matches_closed_form(self):
        direct = closed_form(table_of(TM), 1, 2, 3)
        routed = asymptotic_quantifiers(TM, 1, 2, Fraction(1, 8))
        assert routed == direct

    def test_float_embedding_dimension_is_refused(self):
        with pytest.raises(DomainError, match="m must be an integer, got 1.0"):
            asymptotic_quantifiers(TM, 1.0, 1)

    def test_dispatch_quantizes_eps(self):
        # 0.3 lies in (1/4, 1/2), so the effective threshold is 2^-2.
        routed = asymptotic_quantifiers(TM, 1, 1, Fraction(3, 10))
        assert routed.h == 2

    def test_dispatch_refuses_numeric_text(self):
        with pytest.raises(DomainError, match="threshold must be a number"):
            asymptotic_quantifiers(TM, eps="0.25")

    @pytest.mark.slow
    def test_limits_up_to_q3_are_pinned(self):
        # One digest over every exact limit of the 80 substitutions with
        # q <= 3, in the scan and at single points: degenerate rows included,
        # and the type of each refusal.
        digest = hashlib.sha256()

        def put(evaluate):
            try:
                digest.update(repr(evaluate()).encode())
            except SubstRQAError as exc:
                digest.update(type(exc).__name__.encode())

        for q in (2, 3):
            words = ["".join(w) for w in itertools.product("01", repeat=q)]
            for a, b in itertools.product(words, repeat=2):
                sub = Substitution(a, b)
                for m, lmin in ((1, 1), (2, 3)):
                    put(lambda: determinism_limit_scan(sub, m, lmin, range(1, 41)))
                    for h in (1, 3):
                        put(lambda: asymptotic_quantifiers(sub, m, lmin, Fraction(1, 2**h)))
        assert digest.hexdigest()[:16] == "52b5402a6debc813"

    def test_dispatch_degenerate(self):
        assert asymptotic_quantifiers(Substitution("00", "11")).RR == 1
        assert asymptotic_quantifiers(Substitution("010", "101")).Lavg == math.inf

    def test_json_payload(self):
        a = quantifiers_via_sums(table_of(TM), 1, 2, 1)
        payload = cli._report_json(cli._limit_report(a))
        assert payload["RR"] == {"num": 7, "den": 18, "approx": 7 / 18}
        assert payload["linedens"] == {"2": {"num": 1, "den": 18, "approx": 1 / 18}}
        assert payload["n"] is None and payload["provenance"] == "asymptotic"
        proximal = asymptotic_quantifiers(Substitution("010", "111"))
        inf_payload = cli._report_json(cli._limit_report(proximal))
        assert inf_payload["Lavg"] == {"infinite": True}
        assert inf_payload["ENT"] is None

    def test_csv_row_shares_header(self):
        a = quantifiers_via_sums(table_of(TM))
        row = cli._report_row(cli._limit_report(a))
        assert len(row) == len(cli._REPORT_HEADER)
        assert row[0] == "asymptotic"
        assert row[1] == ""

    def test_report_form(self):
        a = quantifiers_via_sums(table_of(TM), 1, 2, 1)
        report = cli._limit_report(a)
        assert report.n is None
        assert report.linedens == {2: Fraction(1, 18)}
        assert report.tail_density == a.lineDens
        assert report.DET == a.DET


class TestFiniteToAsymptotic:
    def test_tm_recurrence_rate_converges(self):
        n = 1 << 12
        x = TM.fixed_point_prefix(n)
        empirical = measures_from_histogram(histogram(x, n, 1), 1).RR
        assert abs(empirical - Fraction(1, 2)) < Fraction(1, 50)
