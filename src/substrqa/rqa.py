"""Recurrence statistics: line-based quantifiers and correlation sums.

Two independent routes to the same structure:

* the line route reads a LineHistogram in one checked pass into length
  densities and counts of runs of recurrent cells, which give the
  recurrence rate, determinism and average line length by the limits'
  formula, asymptotic_from_corsum, and the entropy by theirs, _entropy;
* the window route counts pairs of positions whose windows agree (equal
  recplot.window_labels) and sums squared class sizes, giving the
  correlation sum directly in O(n log n) without touching individual lines.

Finite plots tie the two routes together only up to edge effects; the
conversion helpers return a main term and its residual's bound, and
residuals() packages one instance's exact residuals, the far-edge triangle
n (n delta_C - 1) among them, for property tests.  All quantities except the
entropy are exact rationals; a zero denominator makes one absent (None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._numpy import np
from .errors import DomainError, ParseError, as_fraction, at_least
from .recplot import LineHistogram, _plot_args, _require_prefix, histogram, window_labels
from .substitution import BitSequence


def _log_fraction(f: Fraction) -> float:
    # Splitting the log keeps huge numerators/denominators in integer land.
    return math.log(f.numerator) - math.log(f.denominator)


@dataclass(frozen=True)
class RQAReport:
    """Quantifiers of one plot (or one asymptotic limit, n=None).

    linedens maps each line length >= lmin to its density; tail_density is
    their sum; RR1 is the recurrence rate at minimum length 1, DET's
    denominator, which JSON output prints and verify checks (example/RR1).
    Absent quantities are None; an infinite average line length is math.inf.
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


class Estimate(NamedTuple):
    """A conversion main term plus the absolute bound its residual obeys."""

    value: Fraction
    bound: Fraction


class LinedensEstimate(NamedTuple):
    value: Fraction
    bound: Fraction
    lavg: Fraction | None


class CorsumDecomposition(NamedTuple):
    """The line-histogram term of the correlation sum; the remainder, from
    pairs whose windows overhang the far plot edge, is ResidualBounds.triangle."""

    main_term: Fraction


class CorsumInterval(NamedTuple):
    """Main term plus the half-open interval its residual must lie in."""

    value: Fraction
    low: Fraction
    high: Fraction


class AsymptoticEstimate(NamedTuple):
    RR: Fraction
    DET: Fraction | None
    Lavg: Fraction | float | None


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


def _line_sums(hist: LineHistogram, lmin: int) -> tuple:
    """The one reader of a LineHistogram, one checked pass: n, lmin, the
    total at each length >= lmin that has a line, and P_L (runs of L
    recurrent cells: sum over lines of max(0, length - L + 1)) at L = 1,
    lmin, lmin + 1.  Refuses n < 2, a length below 1, a negative or
    non-integer count, and more recurrent cells than the n^2 - n off-diagonal
    ones, and anything but a LineHistogram (ParseError)."""
    if not isinstance(hist, LineHistogram):
        raise ParseError(f"histogram must be a LineHistogram, got {hist!r}")
    lmin, n = at_least(lmin, 1, "minimum line length"), at_least(hist.n, 2, "plot size")
    kept, p_1, p_lmin = {}, 0, 0
    for length in sorted(at_least(l, 1, "line length") for l in hist.counts):
        total = 0
        for count in hist.counts[length]:
            total += at_least(count, 0, "line count")
        p_1 += length * total
        if total and length >= lmin:
            kept[length] = total
            p_lmin += (length - lmin + 1) * total
    if p_1 > (cells := n * n - n):
        raise DomainError(f"histogram holds {p_1} recurrent cells, more than its {cells} off-diagonal ones")
    return n, lmin, kept, p_1, p_lmin, p_lmin - sum(kept.values())


def _entropy(mass: Fraction, neg_slog: float) -> float:
    """ENT of line densities d with mass = sum d and neg_slog = -sum d log d."""
    return _log_fraction(mass) + neg_slog / float(mass)


def measures_from_histogram(hist: LineHistogram, lmin: int) -> RQAReport:
    """Line-based quantifiers at minimum line length lmin.

    Uses total line counts, boundary lines included; pass
    hist.excluding_n_boundary() for the clipped-lines-dropped convention.
    RR, DET and Lavg are asymptotic_from_corsum's at P_L / (n^2 - n),
    L = 1, lmin and lmin + 1.  A length with no line is skipped; a
    histogram no plot has raises DomainError (see _line_sums).
    """
    n, lmin, kept, p_1, p_lmin, p_next = _line_sums(hist, lmin)
    cells = n * n - n
    rr1 = Fraction(p_1, cells)
    est = asymptotic_from_corsum(rr1, Fraction(p_lmin, cells), Fraction(p_next, cells), lmin)
    dens = {l: Fraction(c, cells) for l, c in kept.items()}
    tail = Fraction(p_lmin - p_next, cells)
    neg_slog = -sum(float(d) * _log_fraction(d) for d in dens.values())
    ent = None if not tail else 0.0 if len(dens) == 1 else _entropy(tail, neg_slog)
    return RQAReport(
        n=n, m=hist.m, h=hist.h, lmin=lmin, linedens=dens, tail_density=tail,
        RR=est.RR, RR1=rr1, DET=est.DET, Lavg=est.Lavg, ENT=ent, C=None,
    )


def correlation_sum(x: BitSequence, n: int, lmin: int, h: int, *, m: int = 1) -> Fraction:
    """Fraction of position pairs (diagonal included) whose shifted copies
    stay within 2^-h of each other for lmin consecutive steps.

    Pairs agree exactly when their windows of width lmin+h+m-2 agree, so the
    sum is the normalised sum of squared window-class sizes, which one
    np.unique over recplot.window_labels counts.  Windows near position n
    read on into the prefix rather than being truncated.
    """
    lmin = at_least(lmin, 1, "minimum line length")
    n, h, m, window = _plot_args(n, h, m, 1)
    width = lmin + window - 1
    bits = _require_prefix(x, n + width - 1, f"correlation sum at n={n}, window {width}")
    sizes = np.unique(window_labels(bits, width), return_counts=True)[1]
    return Fraction(int((sizes * sizes).sum()), n * n)


def corsum_from_histogram(hist: LineHistogram, lmin: int) -> CorsumDecomposition:
    """Reassemble the correlation sum from line counts.

    main_term, (P_lmin + n) / n^2 (see _line_sums), counts the recurrent
    pairs on lines at least lmin long and the n diagonal ones; the open
    remainder (pairs on shorter clipped stretches at the far edge) is
    residuals()' triangle.
    """
    n, _, _, _, p_lmin, _ = _line_sums(hist, lmin)
    return CorsumDecomposition(main_term=Fraction(p_lmin + n, n * n))


def rqa_from_corsum(c_l: Fraction, c_next: Fraction, n: int, lmin: int) -> Estimate:
    """Recurrence rate from two adjacent correlation sums, read as Fractions."""
    n, lmin = at_least(n, 2, "plot size"), at_least(lmin, 1, "minimum line length")
    c_l, c_next = (as_fraction(c, "correlation sum") for c in (c_l, c_next))
    value = Fraction(n, n - 1) * (lmin * c_l - (lmin - 1) * c_next) - Fraction(1, n - 1)
    return Estimate(value=value, bound=Fraction(2 * lmin * (lmin - 1), n))


def linedens_from_corsum(
    c_l: Fraction, c_next: Fraction, n: int, lmin: int
) -> LinedensEstimate:
    """Cumulative line density reconstructed from two adjacent correlation
    sums, read as Fractions, and the average length rqa_from_corsum's RR
    over it induces."""
    n, lmin = at_least(n, 2, "plot size"), at_least(lmin, 1, "minimum line length")
    c_l, c_next = (as_fraction(c, "correlation sum") for c in (c_l, c_next))
    value = Fraction(n, n - 1) * (c_l - c_next)
    lavg = rqa_from_corsum(c_l, c_next, n, lmin).value / value if value > 0 else None
    return LinedensEstimate(value=value, bound=Fraction(2 * lmin, n), lavg=lavg)


def corsum_from_rqa(rr: Fraction, tail: Fraction, n: int, lmin: int) -> CorsumInterval:
    """Correlation sum from line statistics, read as Fractions; the residual
    is positive (diagonal plus edge pairs) and lies in [1/n, 2*lmin/n)."""
    n, lmin = at_least(n, 2, "plot size"), at_least(lmin, 1, "minimum line length")
    rr, tail = as_fraction(rr, "recurrence rate"), as_fraction(tail, "tail density")
    value = Fraction(n - 1, n) * (rr - (lmin - 1) * tail)
    return CorsumInterval(value=value, low=Fraction(1, n), high=Fraction(2 * lmin, n))


def asymptotic_from_corsum(
    c_1: Fraction, c_l: Fraction, c_next: Fraction, lmin: int
) -> AsymptoticEstimate:
    """Limit quantifiers from limit correlation sums (edge terms gone): the
    program's one path to every RR, DET and Lavg, of limits and plots alike.

    With w = m + h - 1 and l' = lmin + w - 1, C_1 = C(w), C_l = C(l') and
    C_(l+1) = C(l' + 1); they are read as Fractions, so results are exact.
    A plot passes P_L / (n^2 - n) (see _line_sums).
    The average line length is infinite exactly when the two adjacent
    correlation sums coincide above zero (no line ever ends), and absent
    (None) when C_l = 0 (no line exists).
    """
    lmin = at_least(lmin, 1, "minimum line length")
    c_1, c_l, c_next = (as_fraction(c, "correlation sum") for c in (c_1, c_l, c_next))
    if not 0 <= c_next <= c_l <= c_1 <= 1:
        raise DomainError(
            f"correlation sums must satisfy 0 <= C_(l+1) <= C_l <= C_1 <= 1, "
            f"got {c_next}, {c_l}, {c_1}"
        )
    gap = c_l - c_next
    rr = c_l + (lmin - 1) * gap  # lmin C_l - (lmin - 1) C_(l+1)
    det = rr / c_1 if c_1 else None
    lavg = rr / gap if gap else math.inf if rr else None
    return AsymptoticEstimate(RR=rr, DET=det, Lavg=lavg)


def residuals(x: BitSequence, n: int, lmin: int, h: int = 1) -> ResidualBounds:
    """Exact conversion residuals of one plot instance (boundary lines in),
    from one histogram read: corsum_from_rqa's value is P_lmin / n^2, so
    triangle = n (n delta_C - 1) = n^2 C_l - (P_lmin + n).  Needs a prefix of
    n + lmin + h - 1 letters, for the correlation sum one length above lmin.
    """
    report = measures_from_histogram(histogram(x, n, h), lmin)
    n, lmin = report.n, report.lmin
    c_l = correlation_sum(x, n, lmin, h)
    c_next = correlation_sum(x, n, lmin + 1, h)
    delta_C = c_l - corsum_from_rqa(report.RR, report.tail_density, n, lmin).value
    return ResidualBounds(
        n=n,
        lmin=lmin,
        triangle=n * (n * delta_C - 1),
        delta_rr=report.RR - rqa_from_corsum(c_l, c_next, n, lmin).value,
        delta_N=report.tail_density - linedens_from_corsum(c_l, c_next, n, lmin).value,
        delta_C=delta_C,
    )
