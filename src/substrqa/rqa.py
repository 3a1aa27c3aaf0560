"""Recurrence statistics: line-based quantifiers and correlation sums.

Two independent routes to the same structure:

* the line route aggregates a LineHistogram into length densities, the
  recurrence rate (fraction of recurrent off-diagonal cells), determinism
  (mass of lines at least lmin long relative to all), average line length
  and the entropy of the line-length distribution;
* the window route counts pairs of positions whose windows agree and sums
  squared window-class sizes, giving the correlation sum directly in
  O(n log n) without touching individual lines.

Finite plots tie the two routes together only up to edge effects, and the
conversion helpers return both the main term and the residual it leaves;
residuals() packages the exact residuals of one instance so property tests
can assert every bound.  All quantities except the entropy are exact
rationals; a zero denominator makes a quantity absent (None), never zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError, at_least
from .recplot import LineHistogram, _plot_args, histogram
from .substitution import BitSequence, window_labels

__all__ = [
    "AsymptoticEstimate",
    "CorsumDecomposition",
    "CorsumInterval",
    "Estimate",
    "LinedensEstimate",
    "RQAReport",
    "ResidualBounds",
    "asymptotic_from_corsum",
    "correlation_sum",
    "corsum_from_histogram",
    "corsum_from_rqa",
    "linedens_from_corsum",
    "measures_from_histogram",
    "residuals",
    "rqa_from_corsum",
]


def _log_fraction(f: Fraction) -> float:
    # Splitting the log keeps huge numerators/denominators in integer land.
    return math.log(f.numerator) - math.log(f.denominator)


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator, "approx": float(f)}


def _optional_json(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return _frac_json(value)
    if isinstance(value, float) and math.isinf(value):
        return {"infinite": True}
    return value


def _number_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(float(value))


@dataclass(frozen=True)
class RQAReport:
    """Quantifiers of one plot (or one asymptotic limit, n=None).

    linedens maps each line length >= lmin to its density; tail_density is
    their sum; RR1 is the recurrence rate at minimum length 1, kept so DET
    can be reconstructed after serialization.  Absent quantities are None;
    an infinite average line length is math.inf.
    """

    n: int | None
    m: int
    h: int
    lmin: int
    linedens: dict[int, Fraction]
    tail_density: Fraction
    RR: Fraction
    RR1: Fraction | None
    DET: Fraction | None
    Lavg: Fraction | float | None
    ENT: float | None
    C: Fraction | None

    @property
    def provenance(self) -> str:
        return "asymptotic" if self.n is None else "empirical"

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "n": self.n,
            "m": self.m,
            "h": self.h,
            "lmin": self.lmin,
            "linedens": {str(l): _frac_json(d) for l, d in sorted(self.linedens.items())},
            "tail_density": _frac_json(self.tail_density),
            "RR": _frac_json(self.RR),
            "RR1": _optional_json(self.RR1),
            "DET": _optional_json(self.DET),
            "Lavg": _optional_json(self.Lavg),
            "ENT": self.ENT,
            "C": _optional_json(self.C),
        }

    CSV_HEADER = ("provenance", "n", "m", "h", "lmin", "RR", "DET", "Lavg", "ENT", "C")

    def to_csv_row(self) -> tuple[str, ...]:
        return (
            self.provenance,
            "" if self.n is None else str(self.n),
            str(self.m),
            str(self.h),
            str(self.lmin),
            _number_text(self.RR),
            _number_text(self.DET),
            _number_text(self.Lavg),
            _number_text(self.ENT),
            _number_text(self.C),
        )


class Estimate(NamedTuple):
    """A conversion main term plus the absolute bound its residual obeys."""

    value: Fraction
    bound: Fraction


class LinedensEstimate(NamedTuple):
    value: Fraction
    bound: Fraction
    lavg: Fraction | None


class CorsumDecomposition(NamedTuple):
    """Correlation sum split into the line-histogram term and the remainder
    contributed by pairs whose windows overhang the far plot edge."""

    main_term: Fraction
    triangle: Fraction | None


class CorsumInterval(NamedTuple):
    """Main term plus the half-open interval its residual must lie in."""

    value: Fraction
    low: Fraction
    high: Fraction


class AsymptoticEstimate(NamedTuple):
    RR: Fraction
    DET: Fraction | None
    Lavg: Fraction | float
    C: Fraction


@dataclass(frozen=True)
class ResidualBounds:
    """Exact conversion residuals of one finite plot at one minimum length."""

    n: int
    lmin: int
    triangle: Fraction
    delta_rr: Fraction
    delta_N: Fraction
    delta_C: Fraction

    def satisfied(self) -> bool:
        n, l = self.n, self.lmin
        return (
            0 <= self.triangle <= 2 * (l - 1) * (n - 1)
            and abs(self.delta_rr) <= Fraction(2 * l * (l - 1), n)
            and abs(self.delta_N) <= Fraction(2 * l, n)
            and Fraction(1, n) <= self.delta_C < Fraction(2 * l, n)
        )


def measures_from_histogram(hist: LineHistogram, lmin: int) -> RQAReport:
    """Line-based quantifiers at minimum line length lmin.

    Uses total line counts, boundary lines included; pass
    hist.excluding_n_boundary() for the clipped-lines-dropped convention.
    """
    lmin, n = at_least(lmin, 1, "minimum line length"), at_least(hist.n, 2, "plot size")
    cells = n * n - n
    totals = {length: hist.total(length) for length in hist.lengths()}
    kept = {l: c for l, c in totals.items() if l >= lmin}
    rr1 = Fraction(sum(l * c for l, c in totals.items()), cells)
    dens = {l: Fraction(c, cells) for l, c in kept.items()}
    tail = Fraction(sum(kept.values()), cells)
    rr = Fraction(sum(l * c for l, c in kept.items()), cells)
    det = rr / rr1 if rr1 else None
    lavg = rr / tail if tail else None
    if not tail:
        ent = None
    elif len(dens) == 1:
        ent = 0.0
    else:
        weighted = sum(float(d) * _log_fraction(d) for d in dens.values())
        ent = _log_fraction(tail) - weighted / float(tail)
    return RQAReport(
        n=n,
        m=hist.m,
        h=hist.h,
        lmin=lmin,
        linedens=dens,
        tail_density=tail,
        RR=rr,
        RR1=rr1,
        DET=det,
        Lavg=lavg,
        ENT=ent,
        C=None,
    )


def correlation_sum(x: BitSequence, n: int, lmin: int, h: int, *, m: int = 1) -> Fraction:
    """Fraction of position pairs (diagonal included) whose shifted copies
    stay within 2^-h of each other for lmin consecutive steps.

    Pairs agree exactly when their windows of width lmin+h+m-2 agree, so the
    sum is the normalised sum of squared window-class sizes, which one
    np.unique over the window labels counts.  Windows near position n read
    on into the prefix rather than being truncated.
    """
    lmin = at_least(lmin, 1, "minimum line length")
    n, h, m, window = _plot_args(n, h, m, 1)
    width = lmin + window - 1
    need = n + width - 1
    if len(x) < need:
        raise DomainError(
            f"correlation sum at n={n}, window {width} needs {need} letters, got {len(x)}"
        )
    sizes = np.unique(window_labels(x.bits[:need], width), return_counts=True)[1]
    return Fraction(int((sizes * sizes).sum()), n * n)


def corsum_from_histogram(
    hist: LineHistogram, lmin: int, corsum: Fraction | None = None
) -> CorsumDecomposition:
    """Reassemble the correlation sum from line counts.

    main_term collects every recurrent pair that lies on a line of length
    at least lmin plus the n diagonal pairs; the open remainder (pairs on
    shorter clipped stretches at the far edge) is returned as `triangle`
    when the true correlation sum is supplied.
    """
    lmin = at_least(lmin, 1, "minimum line length")
    n = hist.n
    mass = sum(
        (l - lmin + 1) * count
        for l, counts in hist.counts.items()
        if (count := sum(counts)) and l >= lmin
    )
    main = Fraction(mass + n, n * n)
    triangle = None if corsum is None else n * n * corsum - n * n * main
    return CorsumDecomposition(main_term=main, triangle=triangle)


def rqa_from_corsum(c_l: Fraction, c_next: Fraction, n: int, lmin: int) -> Estimate:
    """Recurrence rate reconstructed from two adjacent correlation sums."""
    n, lmin = at_least(n, 2, "plot size"), at_least(lmin, 1, "minimum line length")
    value = Fraction(n, n - 1) * (lmin * c_l - (lmin - 1) * c_next) - Fraction(1, n - 1)
    return Estimate(value=value, bound=Fraction(2 * lmin * (lmin - 1), n))


def linedens_from_corsum(
    c_l: Fraction, c_next: Fraction, n: int, lmin: int
) -> LinedensEstimate:
    """Cumulative line density (and the induced average-length quotient)
    reconstructed from two adjacent correlation sums."""
    n, lmin = at_least(n, 2, "plot size"), at_least(lmin, 1, "minimum line length")
    value = Fraction(n, n - 1) * (c_l - c_next)
    rr = rqa_from_corsum(c_l, c_next, n, lmin).value
    lavg = rr / value if value > 0 else None
    return LinedensEstimate(value=value, bound=Fraction(2 * lmin, n), lavg=lavg)


def corsum_from_rqa(rr: Fraction, tail: Fraction, n: int, lmin: int) -> CorsumInterval:
    """Correlation sum reconstructed from line statistics; the residual is
    positive (diagonal plus edge pairs) and lies in [1/n, 2*lmin/n)."""
    n, lmin = at_least(n, 2, "plot size"), at_least(lmin, 1, "minimum line length")
    value = Fraction(n - 1, n) * (rr - (lmin - 1) * tail)
    return CorsumInterval(value=value, low=Fraction(1, n), high=Fraction(2 * lmin, n))


def asymptotic_from_corsum(
    c_1: Fraction, c_l: Fraction, c_next: Fraction, lmin: int
) -> AsymptoticEstimate:
    """Limit quantifiers from limit correlation sums (edge terms gone).

    The average line length is infinite exactly when the two adjacent
    correlation sums coincide (no line ever ends).
    """
    lmin = at_least(lmin, 1, "minimum line length")
    if not 0 <= c_next <= c_l <= c_1 <= 1:
        raise DomainError(
            f"correlation sums must satisfy 0 <= C_(l+1) <= C_l <= C_1 <= 1, "
            f"got {c_next}, {c_l}, {c_1}"
        )
    rr = lmin * c_l - (lmin - 1) * c_next
    det = rr / c_1 if c_1 else None
    gap = c_l - c_next
    lavg = lmin + c_next / gap if gap else math.inf
    return AsymptoticEstimate(RR=rr, DET=det, Lavg=lavg, C=rr - (lmin - 1) * gap)


def residuals(x: BitSequence, n: int, lmin: int, h: int = 1) -> ResidualBounds:
    """Exact conversion residuals of one plot instance (boundary lines in).

    Needs a prefix of at least n + lmin + h - 1 letters, enough for the
    correlation sum one length above lmin.
    """
    hist = histogram(x, n, h)
    report = measures_from_histogram(hist, lmin)
    c_l = correlation_sum(x, n, lmin, h)
    c_next = correlation_sum(x, n, lmin + 1, h)
    main, triangle = corsum_from_histogram(hist, lmin, c_l)
    assert triangle is not None
    return ResidualBounds(
        n=hist.n,
        lmin=report.lmin,
        triangle=triangle,
        delta_rr=report.RR - rqa_from_corsum(c_l, c_next, n, lmin).value,
        delta_N=report.tail_density - linedens_from_corsum(c_l, c_next, n, lmin).value,
        delta_C=c_l - corsum_from_rqa(report.RR, report.tail_density, n, lmin).value,
    )
