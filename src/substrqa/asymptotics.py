"""Limiting recurrence quantifiers, exact in the plot-size limit.

On the support of the start-pair densities the lengths form finitely many
geometric families (one per base length) plus finitely many lone lengths,
so every tail sum over line lengths collapses to geometric and
arithmetico-geometric series with ratio 1/q^2.  Two independent routes are
implemented: term-grouped tail summation (the reference), and closed
forms driven by cumulative sums over the base lengths; the closed-form
route recomputes the reference on every call and refuses to answer if the
two disagree on a row's inputs.  Both sum in the density table's number
format, built once per table: the base densities as integer numerators over
D, the lcm of their denominators, and their cumulative sums; each tail sum
is one integer over D times a power of q, one Fraction per sum.  The
entropy stays a float, from rqa._entropy as a finite plot's.

One dispatch serves every exact limit, one threshold or a whole
determinism scan: it checks the inputs, classifies once, and then reads
every threshold off one table through the cross-checked closed form.  Each
row is built from three limit correlation sums by rqa.asymptotic_from_corsum.
Degenerate substitutions short-circuit: when some image is constant the
limit plot is dominated by an unbounded solid block, and when the fixed
point is periodic every diagonal line is infinite.  Both come in as
C(W) = 1 at every window width W, so no line ever ends.  For a periodic
fixed point that row is a placeholder, known to be wrong until the periodic
limit is computed: for 01,01 it gives RR = C = 1, where a plot of 4096
letters gives RR = 2047/4095 and C = 1/2.  Rows are data only: cli writes
the notes that say why a row is degenerate, from the classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .densities import DensityTable, closed_form_indices, dens_K, reconstruct_base
from .errors import DiscrepancyError, DomainError, at_least
from .recplot import quantize_eps
from .rqa import _entropy, asymptotic_from_corsum
from .substitution import SubshiftKind, Substitution


@dataclass(frozen=True)
class AsymptoticQuantifiers:
    """Limit values of the recurrence quantifiers for one (m, h, lmin).

    The window length l' = lmin + m + h - 2 is the one whose start-pair
    densities drive everything.  Lavg is math.inf when lines grow without
    bound; ENT is None when the line-length distribution degenerates.
    """

    m: int
    h: int
    lmin: int
    linedens: Fraction
    lineDens: Fraction
    RR: Fraction
    RR1: Fraction
    DET: Fraction
    Lavg: Fraction | float
    C: Fraction
    ENT: float | None


def _validate_inputs(m: int, lmin: int, h: int) -> tuple[int, int, int]:
    return at_least(m, 1, "m"), at_least(lmin, 1, "lmin"), at_least(h, 1, "h")


def _row(
    m: int, lmin: int, h: int, c_w: Fraction, c_l: Fraction, s0: Fraction,
    linedens: Fraction, ent: float | None,
) -> AsymptoticQuantifiers:
    """The one constructor of an exact limit row: the limit correlation sums
    C(w) and C(l') (w = m + h - 1, l' = lmin + w - 1) and s0 = C(l') - C(l' + 1)
    go through asymptotic_from_corsum, and C(l') is the row's C; sums out of
    order are a route's fault."""
    try:
        est = asymptotic_from_corsum(c_w, c_l, c_l - s0, lmin)
    except DomainError as err:
        raise DiscrepancyError(f"limit {err} at (m={m}, lmin={lmin}, h={h})") from None
    return AsymptoticQuantifiers(
        m=m,
        h=h,
        lmin=lmin,
        linedens=linedens,
        lineDens=s0,
        RR=est.RR,
        RR1=c_w,
        DET=est.DET,
        Lavg=est.Lavg,
        C=c_l,
        ENT=ent,
    )


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


def _limit_sums(tail_sums, table: DensityTable, m: int, lmin: int, h: int):
    """_row's inputs C(w), C(l') and s0, and ENT, from one route's tail sums
    (s0, s1) from W on, which give the correlation sum C(W) = s1 - (W - 1) s0."""
    w, lprime = m + h - 1, lmin + m + h - 2
    s0, s1, neg_slog = tail = tail_sums(table, lprime)
    # At lmin = 1 the RR1 tail, from w on, is the lprime tail itself.
    s0_first, s1_first, _ = tail if lmin == 1 else tail_sums(table, w)
    c_w = s1_first - (w - 1) * s0_first
    if s0 <= 0 or c_w <= 0:
        raise DiscrepancyError(
            f"tail sums must be positive for a primitive aperiodic table, got "
            f"lineDens={s0}, RR1={c_w}"
        )
    return c_w, s1 - (lprime - 1) * s0, s0, _entropy(s0, neg_slog)


def _reference_sums(table: DensityTable, m: int, lmin: int, h: int):
    """_row's inputs (C(w), C(l'), s0, linedens, ENT) by exact tail summation."""
    c_w, c_l, s0, ent = _limit_sums(_tail_sums, table, m, lmin, h)
    return c_w, c_l, s0, s0 - _tail_sums(table, lmin + m + h - 1)[0], ent


def quantifiers_via_sums(
    table: DensityTable, m: int = 1, lmin: int = 1, h: int = 1
) -> AsymptoticQuantifiers:
    """Reference evaluation by exact tail summation.

    The exact-length density is taken as a difference of adjacent tails, so
    this route never consults the scaling decomposition directly.
    """
    m, lmin, h = _validate_inputs(m, lmin, h)
    return _row(m, lmin, h, *_reference_sums(table, m, lmin, h))


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
    the reference's inputs to _row and demands exact rational agreement (1e-9
    for the entropy); disagreement raises DiscrepancyError instead of a row.
    """
    m, lmin, h = _validate_inputs(m, lmin, h)
    c_w, c_l, s0, ent = _limit_sums(_closed_tail, table, m, lmin, h)
    mine = (c_w, c_l, s0, dens_K(table, lmin + m + h - 2), ent)
    # _row derives RR, DET and Lavg from these inputs, so only they are compared.
    tolerance = {"RR1": 0, "C": 0, "lineDens": 0, "linedens": 0, "ENT": 1e-9}
    for (field, tol), a, b in zip(tolerance.items(), mine, _reference_sums(table, m, lmin, h)):
        if a != b and abs(a - b) > tol:
            raise DiscrepancyError(
                f"closed form and tail sums disagree on {field} at "
                f"(m={m}, lmin={lmin}, h={h}): {a} vs {b}"
            )
    return _row(m, lmin, h, *mine)


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
    # Periodic or constant-image: C(W) = 1 at every W, so no line ends; ENT
    # of unbounded lines is left open.
    one, zero = Fraction(1), Fraction(0)
    return [_row(*p, one, one, zero, zero, None) for p in params]


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
    if not hasattr(h_range, "__iter__"):
        raise DomainError(f"h_range must be an iterable of integers, got {h_range!r}")
    return [(a.h, a.DET) for a in _limits(sub, m, lmin, list(h_range))]
