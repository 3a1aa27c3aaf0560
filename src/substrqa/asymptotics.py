"""Limiting recurrence quantifiers, exact in the plot-size limit.

On the support of the start-pair densities the lengths form finitely many
geometric families (one per base length) plus finitely many lone lengths,
so every tail sum over line lengths collapses to geometric and
arithmetico-geometric series with ratio 1/q^2.  Two independent routes are
implemented: term-grouped tail summation (the reference), and closed
forms driven by cumulative sums over the base lengths; the closed-form
route recomputes the reference on every call and refuses to answer if the
two disagree.  Both sum in the density table's number format, built once
per table: the base densities as integer numerators over D, the lcm of their
denominators, and their cumulative sums; each tail sum is one integer over D
times a power of q, one Fraction per sum.  The entropy stays a float.

One dispatch serves every exact limit, one threshold or a whole
determinism scan: it checks the inputs, classifies once, and then reads
every threshold off one table through the cross-checked closed form.
Degenerate substitutions short-circuit: when some image is constant the
limit plot is dominated by an unbounded solid block, and when the fixed
point is periodic every diagonal line is infinite.  Both give recurrence
rate, determinism and correlation sum 1 with infinite average line length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .densities import DensityTable, closed_form_indices, dens_K, reconstruct_base
from .errors import DiscrepancyError, at_least
from .recplot import quantize_eps
from .rqa import RQAReport, _log_fraction
from .substitution import SubshiftKind, Substitution

__all__ = [
    "AsymptoticQuantifiers",
    "NuTables",
    "asymptotic_quantifiers",
    "closed_form",
    "determinism_limit_scan",
    "nu_tables",
    "quantifiers_via_sums",
]


@dataclass(frozen=True)
class AsymptoticQuantifiers:
    """Limit values of the recurrence quantifiers for one (m, h, lmin).

    lprime = lmin + m + h - 2 is the window length whose start-pair
    densities drive everything.  Lavg is math.inf when lines grow without
    bound; ENT is None when the line-length distribution degenerates.
    """

    m: int
    h: int
    lmin: int
    lprime: int
    linedens: Fraction
    lineDens: Fraction
    RR: Fraction
    RR1: Fraction
    DET: Fraction
    Lavg: Fraction | float
    C: Fraction
    ENT: float | None
    note: str | None = None

    def to_report(self) -> RQAReport:
        """Shared-emitter form: an RQAReport with no plot size, carrying the
        single exact-length density this query resolved."""
        return RQAReport(
            n=None,
            m=self.m,
            h=self.h,
            lmin=self.lmin,
            linedens={self.lmin: self.linedens},
            tail_density=self.lineDens,
            RR=self.RR,
            RR1=self.RR1,
            DET=self.DET,
            Lavg=self.Lavg,
            ENT=self.ENT,
            C=self.C,
        )


def _validate_inputs(m: int, lmin: int, h: int) -> tuple[int, int, int]:
    return at_least(m, 1, "m"), at_least(lmin, 1, "lmin"), at_least(h, 1, "h")


# -- reference route: grouped tail sums --------------------------------------


def _family_first_step(base: int, c: Fraction, q: int, lprime: int) -> int:
    # q^k (base + c) - c < lprime, times the denominator of c.
    cn, cd = c.numerator, c.denominator
    k, reach = 0, base * cd + cn
    while reach < lprime * cd + cn:
        k, reach = k + 1, reach * q
    return k


def _tail_sums(table: DensityTable, lprime: int) -> tuple[Fraction, Fraction, float]:
    """(sum of dens, sum of length*dens, -sum of dens*log dens) over all
    lengths >= lprime with positive start-pair density.

    s0 and s1 are integer numerators over D*unit, unit = cd*q^(2K)*(q^2 - 1),
    with D from DensityTable._integer_terms (built once per table), c = cn/cd
    and K the largest first step of a family.  The entropy's tail factors
    are integer true divisions, which round exactly as float(Fraction) does.
    """
    constants = table.constants
    q, qq = constants.q, constants.q**2
    cn, cd = constants.c.numerator, constants.c.denominator
    D, nums, floats, _ = table._integer_terms
    families = [base for base in range(constants.R0, constants.R) if nums[base]]
    steps = {base: _family_first_step(base, constants.c, q, lprime) for base in families}
    K = max(steps.values(), default=0)
    unit = cd * q ** (2 * K) * (qq - 1)
    s0, s1, neg_slog = 0, 0, 0.0
    for lone in range(lprime, constants.R0):
        if nums[lone]:
            s0 += nums[lone] * unit
            s1 += lone * nums[lone] * unit
            fd, log_d = floats[lone]
            neg_slog -= fd * log_d
    for base, k0 in steps.items():
        # d * x^k0 / (1 - x) with x = 1/q^2 is nums[base] * cd * tail over D*unit.
        tail = q ** (2 * (K - k0 + 1))
        s0 += nums[base] * cd * tail
        s1 += nums[base] * ((base * cd + cn) * (q + 1) * q ** (2 * K - k0 + 1) - cn * tail)
        step = q ** (2 * k0) * (qq - 1)
        fd, log_d = floats[base]
        neg_slog -= fd * (
            log_d * (qq / step)
            - 2.0 * math.log(q) * ((k0 * qq - k0 + 1) * qq / (step * (qq - 1)))
        )
    return Fraction(s0, D * unit), Fraction(s1, D * unit), neg_slog


def _assemble(m: int, lmin: int, h: int, tail, first, linedens: Fraction) -> AsymptoticQuantifiers:
    # tail holds the tail sums from lprime on, first those from 1 + offset.
    offset = m + h - 2
    s0, s1, neg_slog = tail
    s0_first, s1_first, _ = first
    rr = s1 - offset * s0
    rr1 = s1_first - offset * s0_first
    if s0 <= 0 or rr1 <= 0:
        raise DiscrepancyError(
            f"tail sums must be positive for a primitive aperiodic table, got "
            f"lineDens={s0}, RR1={rr1}"
        )
    return AsymptoticQuantifiers(
        m=m,
        h=h,
        lmin=lmin,
        lprime=lmin + offset,
        linedens=linedens,
        lineDens=s0,
        RR=rr,
        RR1=rr1,
        DET=rr / rr1,
        Lavg=rr / s0,
        C=rr - (lmin - 1) * s0,
        ENT=_log_fraction(s0) + neg_slog / float(s0),
    )


def quantifiers_via_sums(
    table: DensityTable, m: int = 1, lmin: int = 1, h: int = 1
) -> AsymptoticQuantifiers:
    """Reference evaluation by exact tail summation.

    The exact-length density is taken as a difference of adjacent tails, so
    this route never consults the scaling decomposition directly.
    """
    m, lmin, h = _validate_inputs(m, lmin, h)
    lprime = lmin + m + h - 2
    tail = _tail_sums(table, lprime)
    linedens = tail[0] - _tail_sums(table, lprime + 1)[0]
    # At lmin = 1 the RR1 tail, from m + h - 1 on, is the lprime tail itself.
    first = tail if lmin == 1 else _tail_sums(table, m + h - 1)
    return _assemble(m, lmin, h, tail, first, linedens)


# -- second route: cumulative base tables ------------------------------------


@dataclass(frozen=True)
class NuTables:
    """Cumulative sums over base lengths, indexed l in [R0, R]: everything
    strictly below l, so the R0 entries are zero and the R entries are the
    full totals; tilde_* hold total minus entry."""

    R0: int
    R: int
    nu_N: dict[int, Fraction]
    nu_RR: dict[int, Fraction]
    nu_ENT: dict[int, float]
    tilde_N: dict[int, Fraction]
    tilde_RR: dict[int, Fraction]
    tilde_ENT: dict[int, float]


def nu_tables(table: DensityTable) -> NuTables:
    """A Fraction view of the cumulative sums that the table builds once, as
    integers over D, in DensityTable._integer_terms."""
    D, _, _, cumulative = table._integer_terms
    total_n, total_rr, total_ent = cumulative[table.constants.R]
    return NuTables(
        R0=table.constants.R0,
        R=table.constants.R,
        nu_N={l: Fraction(n, D) for l, (n, _, _) in cumulative.items()},
        nu_RR={l: Fraction(rr, D) for l, (_, rr, _) in cumulative.items()},
        nu_ENT={l: ent for l, (_, _, ent) in cumulative.items()},
        tilde_N={l: Fraction(total_n - n, D) for l, (n, _, _) in cumulative.items()},
        tilde_RR={l: Fraction(total_rr - rr, D) for l, (_, rr, _) in cumulative.items()},
        tilde_ENT={l: total_ent - ent for l, (_, _, ent) in cumulative.items()},
    )


def _closed_tail(table: DensityTable, lprime: int) -> tuple[Fraction, Fraction, float]:
    """Tail sums from lprime on, read off the table's cumulative integer sums
    over D at the base l0 whose j-step image reaches lprime (_integer_terms).
    s0 and s1 are integer numerators over D*unit, unit = cd*q^(2j)*(q^2 - 1)."""
    constants = table.constants
    q, qq = constants.q, constants.q**2
    cn, cd = constants.c.numerator, constants.c.denominator
    D, nums, floats, cumulative = table._integer_terms
    # Below the closed-form floor R0, lone lengths are peeled one at a time.
    j, l0 = closed_form_indices(constants, max(lprime, constants.R0))
    nu_n, nu_rr, nu_ent = cumulative[l0]
    total_n, total_rr, total_ent = cumulative[constants.R]
    tilde_n, tilde_rr, tilde_ent = total_n - nu_n, total_rr - nu_rr, total_ent - nu_ent
    scale2 = q ** (2 * j) * (qq - 1)
    unit = cd * scale2
    s0 = cd * (nu_n + qq * tilde_n)
    s1 = (cd * nu_rr + cn * nu_n + q * (cd * tilde_rr + cn * tilde_n)) * q**j * (q + 1)
    s1 -= cn * (nu_n + qq * tilde_n)
    neg_slog = 2.0 * math.log(q) / float(scale2 * (qq - 1)) * (
        (((j + 1) * qq - j) * nu_n + qq * (j * qq - j + 1) * tilde_n) / D
    ) + (nu_ent + qq * tilde_ent) / scale2
    for lone in range(lprime, constants.R0):
        if nums[lone]:
            s0 += nums[lone] * unit
            s1 += lone * nums[lone] * unit
            fd, log_d = floats[lone]
            neg_slog -= fd * log_d
    return Fraction(s0, D * unit), Fraction(s1, D * unit), neg_slog


def closed_form(
    table: DensityTable, m: int = 1, lmin: int = 1, h: int = 1
) -> AsymptoticQuantifiers:
    """Closed-form evaluation via the cumulative sums, cross-checked.

    The tails scale the table's cumulative integer sums over D by powers of
    q, and add the lone lengths below R0 one at a time.  Every call recomputes
    the reference tail sums and demands exact rational agreement (1e-9 for
    the entropy); disagreement raises DiscrepancyError rather than
    returning either value.
    """
    m, lmin, h = _validate_inputs(m, lmin, h)
    lprime = lmin + m + h - 2
    tail = _closed_tail(table, lprime)
    first = tail if lmin == 1 else _closed_tail(table, m + h - 1)
    result = _assemble(m, lmin, h, tail, first, dens_K(table, lprime))
    reference = quantifiers_via_sums(table, m, lmin, h)
    for field in ("linedens", "lineDens", "RR", "RR1", "DET", "Lavg", "C"):
        mine, ref = getattr(result, field), getattr(reference, field)
        if mine != ref:
            raise DiscrepancyError(
                f"closed form and tail sums disagree on {field} at "
                f"(m={m}, lmin={lmin}, h={h}): {mine} vs {ref}"
            )
    if abs(result.ENT - reference.ENT) > 1e-9:
        raise DiscrepancyError(
            f"closed form and tail sums disagree on ENT at (m={m}, lmin={lmin}, "
            f"h={h}): {result.ENT} vs {reference.ENT}"
        )
    return result


# -- degenerate substitutions ------------------------------------------------


def _degenerate(m: int, lmin: int, h: int, note: str) -> AsymptoticQuantifiers:
    """Limit values when lines grow without bound: all rates are 1 and lines
    have no finite average; whether the line-length entropy is finite is left
    open, so it is reported absent."""
    one = Fraction(1)
    zero = Fraction(0)
    return AsymptoticQuantifiers(
        m=m,
        h=h,
        lmin=lmin,
        lprime=lmin + m + h - 2,
        linedens=zero,
        lineDens=zero,
        RR=one,
        RR1=one,
        DET=one,
        Lavg=math.inf,
        C=one,
        ENT=None,
        note=note,
    )


# -- dispatch ----------------------------------------------------------------


def _limits(sub: Substitution, m: int, lmin: int, hs: list[int]) -> list[AsymptoticQuantifiers]:
    """The one dispatch for every exact limit: check every (m, lmin, h),
    classify once, and evaluate each threshold exponent in hs.

    Primitive aperiodic substitutions go through the cross-checked closed
    form on one table of the normalized form (normalization only relabels
    letters or regroups blocks, which recurrence statistics cannot see).
    """
    params = [_validate_inputs(m, lmin, h) for h in hs]
    if not params:
        return []
    cls = sub.classify()
    if cls.kind is SubshiftKind.PRIMITIVE_APERIODIC:
        table = reconstruct_base(cls.normalized)
        return [closed_form(table, *p) for p in params]
    if cls.kind is SubshiftKind.PRIMITIVE_PERIODIC:
        note = f"periodic fixed point (period {cls.period}): every diagonal line is infinite"
    else:
        note = "constant-image substitution: line lengths are unbounded"
    return [_degenerate(*p, note) for p in params]


def asymptotic_quantifiers(
    sub: Substitution, m: int = 1, lmin: int = 1, eps=Fraction(1, 2)
) -> AsymptoticQuantifiers:
    """Exact limit quantifiers of sub at threshold eps, quantized to 2^-h."""
    return _limits(sub, m, lmin, [quantize_eps(eps)])[0]


def determinism_limit_scan(
    sub: Substitution, m: int = 1, lmin: int = 1, h_range=range(1, 25)
) -> list[tuple[int, Fraction]]:
    """Exact determinism at thresholds 2^-h for each h in h_range.

    One dispatch resolves the whole range: it checks every h, classifies sub
    once, and reads each row as asymptotic_quantifiers would at eps = 2^-h.
    Primitive aperiodic rows are cross-checked between the two routes on one
    table, and degenerate ones scan constantly at 1.  Aperiodic scans
    approach 1 with dips wherever the density support has gaps.
    """
    return [(a.h, a.DET) for a in _limits(sub, m, lmin, list(h_range))]
