"""Exact densities of inner-line start sets, at every length.

For a primitive aperiodic normalized substitution, the ordered pairs of
positions where an inner line of length l begins (equal l-windows flanked
by mismatches on both sides) have a positive-or-zero density among all
position pairs, and those densities obey an exact self-similarity: one
substitution step multiplies the length as l -> q*l + alpha + beta and
divides the density by q^2.  Consequently everything is determined by the
densities at the finitely many base lengths below the full recognizability
length R.

A start pair is two occurrences of one inner word w with opposite flanking
letters on both sides, so for a table t of (l+2)-block values the start
pairs at length l weigh 2 * sum over w of t(0w0)t(1w1) + t(0w1)t(1w0).
Both tables are integers, built by one desubstitution sum.  With t the
numerators of the invariant measure's block frequencies over one
denominator D (letters and two-blocks from closed forms; a longer length
has D = q * the lcm of its source lengths' D) it gives D^2 times the exact
base density; with t the counts of blocks starting in [0, q^k),
desubstituted k steps down to the fixed point's first block, the exact
number of start pairs in [1, q^k + 1)^2.

reconstruct_base certifies each base length by exact checks at the plot
sizes q^(k-1) + 1 and q^k + 1 (the least k with q^k >= 2048): the
suffix-order count (recplot.inner_line_counts) equals the recurrence count
at both sizes; the block frequencies are shift invariant; the density is
zero exactly when no start pair is counted; and from R0 on, the count at
the child length q*l + alpha + beta and the larger size equals the count
at l and the smaller one (the scaling law).  Any failure raises
ReconstructionError naming the length.  Certified tables are memoized per
process only; nothing is stored on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DiscrepancyError, ReconstructionError, at_least
from .recognizability import (
    RecogConstants,
    desubstitute,
    language_slice,
    recognizability_constants,
    require_normalized_aperiodic,
)
from .recplot import inner_line_counts
from .rqa import _log_fraction
from .substitution import BitSequence, Substitution

# Unused here; its only reader is benchmarks/worker.py::_cache_hits.
DEFAULT_SCALES = (1 << 12, 1 << 13)


# -- block frequencies of the unique invariant measure -----------------------


def letter_frequencies(sub: Substitution) -> tuple[Fraction, Fraction]:
    """Frequencies of 0 and 1 in the fixed point, from the dominant
    eigenvector of the letter-count matrix."""
    require_normalized_aperiodic(sub)
    a, b = sub.zero_counts()
    q = sub.q
    f0 = Fraction(b, b + q - a)
    return f0, 1 - f0


def _two_block_frequencies(sub: Substitution) -> dict[str, Fraction]:
    # Shift invariance gives mu(01) = mu(10) = t, so mu(00) = f0 - t and
    # mu(11) = f1 - t.  One substitution step sends a letter a to q
    # 2-windows: q-1 inside the image of a, and one across the images of a
    # and the next letter b, which is 01 when the image of a ends in 0 and
    # that of b starts with 1.  Counting 01 windows, q*t = sum_a f_a *
    # #01(image of a) + sum of mu(ab) over those ab: linear in t.
    f0, f1 = letter_frequencies(sub)
    affine = {"00": (f0, -1), "01": (Fraction(0), 1), "10": (Fraction(0), 1), "11": (f1, -1)}
    crossing = [affine[w] for w in affine if sub.image(int(w[0]))[-1] + sub.image(int(w[1]))[0] == "01"]
    inside = f0 * sub.image0.count("01") + f1 * sub.image1.count("01")
    t = (inside + sum(c for c, _ in crossing)) / (sub.q - sum(k for _, k in crossing))
    freqs = {w: c + k * t for w, (c, k) in affine.items()}
    if min(freqs.values()) < 0:
        raise DiscrepancyError(f"two-block frequencies must be nonnegative, got {freqs}")
    support = [w for w, value in freqs.items() if value]
    if set(support) != language_slice(sub, 2):
        raise DiscrepancyError(f"two-block frequencies are positive on {support}, not on the 2-word language")
    return {w: freqs[w] for w in support}


def _desubstituted(sub: Substitution, length: int, source) -> tuple[int, dict[str, int]]:
    """Sum source values over desubstitute; `source(s)` gives (D, {s-word: N}).
    Returns (L, sums) with every N rescaled to the lcm L of the D's."""
    tables = {s: source(s) for s in {-(-(r + length) // sub.q) for r in range(sub.q)}}
    lcm = math.lcm(*(d for d, _ in tables.values()))
    scaled = {s: t if d == lcm else {w: n * (lcm // d) for w, n in t.items()} for s, (d, t) in tables.items()}
    acc: dict[str, int] = {}
    for _, value, target in desubstitute(sub, length, scaled.__getitem__):
        acc[target] = acc.get(target, 0) + value
    return lcm, acc


@lru_cache(maxsize=4096)
def _block_frequencies_cached(sub: Substitution, length: int) -> tuple[int, dict[str, int]]:
    """(D, {word: N}): each word of the given length has frequency N/D."""
    if length <= 2:
        freqs = _two_block_frequencies(sub) if length == 2 else dict(zip("01", letter_frequencies(sub)))
        D = math.lcm(*(f.denominator for f in freqs.values()))
        return D, {w: f.numerator * (D // f.denominator) for w, f in freqs.items()}
    # Each occurrence comes from a unique shorter occurrence, so a frequency
    # is 1/q times a sum of source frequencies.
    lcm, out = _desubstituted(sub, length, lambda s: _block_frequencies_cached(sub, s))
    if (total := sum(out.values())) != sub.q * lcm:
        raise DiscrepancyError(f"block frequencies at length {length} sum to {total}/{sub.q * lcm}, not 1")
    return sub.q * lcm, out


def _start_pairs(blocks: dict[str, int]) -> int:
    """2 * sum over inner words w of t(0w0)t(1w1) + t(0w1)t(1w0), for a
    table t of integer block values of one length (numerators or counts)."""
    # 0w0 pairs with 1w1 and 0w1 with 1w0: flip both ends.
    flip = {"0": "1", "1": "0"}
    return 2 * sum(n * blocks.get(f"1{v[1:-1]}{flip[v[-1]]}", 0) for v, n in blocks.items() if v[0] == "0")


def density_from_frequencies(sub: Substitution, length: int) -> Fraction:
    """Exact density of inner-line start pairs at one length, straight from
    block frequencies (no scaling law involved)."""
    require_normalized_aperiodic(sub)
    D, table = _block_frequencies_cached(sub, at_least(length, 1, "length") + 2)
    return Fraction(_start_pairs(table), D * D)


@lru_cache(maxsize=4096)
def _prefix_counts(sub: Substitution, length: int, k: int) -> dict[str, int]:
    """Occurrences of each word of the given length that starts in
    [0, q^k) of the fixed point.  A start q*i + r with i < q^(k-1) cuts the
    word out of the image of the word at i (desubstitute), so the counts
    come k steps down from the fixed point's own prefix."""
    if k == 0:
        return {sub.fixed_point_prefix(length).to01(): 1}
    return _desubstituted(sub, length, lambda s: (1, _prefix_counts(sub, s, k - 1)))[1]


# -- empirical counterpart ---------------------------------------------------


def empirical_delta(x: BitSequence, length: int, n: int) -> Fraction:
    """Observed density of inner-line start pairs in [1, n)^2."""
    count = int(inner_line_counts(x, n, length)[length])
    return Fraction(count, n * n - n)


# -- reconstruction ----------------------------------------------------------


@dataclass(frozen=True)
class BaseEvidence:
    """Certificate of one base length: its start-pair count at both plot
    sizes and, from R0 on, its scaling child's count at the larger size,
    which equals the base count at the smaller one."""

    scales: tuple[int, int]
    counts: tuple[int, int]
    child: int | None
    child_count: int | None


@dataclass(frozen=True)
class DensityTable:
    """Exact base densities of one substitution plus their certificates."""

    subst: Substitution
    base: dict[int, Fraction]
    evidence: dict[int, BaseEvidence]

    @cached_property
    def constants(self) -> RecogConstants:
        return recognizability_constants(self.subst)

    @cached_property
    def _integer_terms(self) -> tuple[int, dict[int, int], dict[int, tuple[float, float]], dict]:
        """(D, numerators, floats, cumulative): D is the lcm of the base
        densities' denominators, numerators[l] = base[l] * D, floats[l] =
        (float(d), log d) for each positive d = base[l], and cumulative[l]
        (R0 <= l <= R) sums numerators[k], k * numerators[k] and -float(d) log d
        over R0 <= k < l.  Built once per table; the limit sums read them."""
        D = math.lcm(*(d.denominator for d in self.base.values()))
        numerators = {l: d.numerator * (D // d.denominator) for l, d in self.base.items()}
        floats = {l: (float(d), _log_fraction(d)) for l, d in self.base.items() if d}
        cumulative, acc_n, acc_rr, acc_ent = {}, 0, 0, 0.0
        for l in range(self.constants.R0, self.constants.R + 1):
            cumulative[l] = acc_n, acc_rr, acc_ent
            if l < self.constants.R and numerators[l]:
                acc_n += numerators[l]
                acc_rr += l * numerators[l]
                acc_ent -= floats[l][0] * floats[l][1]
        return D, numerators, floats, cumulative


def _check_shift_invariance(sub: Substitution, length: int) -> None:
    # Both (length-1)-marginals of the length-blocks must be the
    # (length-1)-blocks; since the blocks come from desubstitution, this
    # also makes them the Perron vector of the induced block substitution.
    D, blocks = _block_frequencies_cached(sub, length)
    d, shorter = _block_frequencies_cached(sub, length - 1)
    # marginal/D == shorter/d, word by word.
    want = {w: n * D for w, n in shorter.items()}
    for side in (slice(1, None), slice(None, -1)):
        marginal: dict[str, int] = {}
        for w, n in blocks.items():
            marginal[w[side]] = marginal.get(w[side], 0) + n
        if {w: n * d for w, n in marginal.items()} != want:
            raise ReconstructionError(
                f"block frequencies at length {length} are not shift invariant"
            )


@lru_cache(maxsize=16)
def _reconstruct_cached(sub: Substitution) -> DensityTable:
    constants = recognizability_constants(sub)
    q = sub.q
    affix = constants.alpha + constants.beta
    max_child = q * (constants.R - 1) + affix
    k = 1  # the plot sizes q^(k-1)+1 and q^k+1 need q^k >= 2048 (module docs)
    while q**k < 2048:
        k += 1
    n1, n2 = q ** (k - 1) + 1, q**k + 1
    x = sub.fixed_point_prefix(n2 + max_child + 1)
    small = inner_line_counts(x, n1, constants.R - 1)
    large = inner_line_counts(x, n2, max_child)

    base: dict[int, Fraction] = {}
    evidence: dict[int, BaseEvidence] = {}
    for length in range(1, constants.R):
        exact = density_from_frequencies(sub, length)
        if not 0 <= exact < 1:
            raise ReconstructionError(
                f"base density at length {length} out of range: {exact}"
            )
        _check_shift_invariance(sub, length + 2)
        counts = (int(small[length]), int(large[length]))
        for n, steps, count in zip((n1, n2), (k - 1, k), counts):
            recurrence = _start_pairs(_prefix_counts(sub, length + 2, steps))
            if count != recurrence:
                raise ReconstructionError(
                    f"start pairs at length {length} and size {n}: the suffix order "
                    f"counts {count}, the block recurrence {recurrence}"
                )
        if (exact == 0) != (counts[1] == 0):
            raise ReconstructionError(
                f"emptiness mismatch at length {length}: exact {exact}, "
                f"{counts[1]} start pairs at size {n2}"
            )
        child = child_count = None
        if length >= constants.R0:
            # One scaling step maps the start pairs at length in [1, n1)
            # one to one onto those at the child, q*length+affix >= R, in
            # [1, n2).
            child = q * length + affix
            child_count = int(large[child])
            if child_count != counts[0]:
                raise ReconstructionError(
                    f"scaling check failed for base length {length}: child {child} "
                    f"has {child_count} start pairs at size {n2}, the base "
                    f"{counts[0]} at size {n1}"
                )
        base[length] = exact
        evidence[length] = BaseEvidence(
            scales=(n1, n2), counts=counts, child=child, child_count=child_count
        )
    return DensityTable(subst=sub, base=base, evidence=evidence)


def reconstruct_base(sub: Substitution) -> DensityTable:
    """Exact densities at every length below R, certified by exact counts.

    The result is cached per substitution; see the module docs for the
    checks and their failure mode.
    """
    require_normalized_aperiodic(sub)
    return _reconstruct_cached(sub)


# -- scaling law -------------------------------------------------------------


def decompose(constants: RecogConstants, length: int) -> tuple[int, int] | None:
    """Invert the length scaling l -> q*l + alpha + beta down from `length`.

    Returns (k, base) with length == q^k * base + c*(q^k - 1), k >= 1 and
    base in [R0, R), when every step divides exactly.  None certifies that
    the start set at `length` is empty: a step that does not divide.
    """
    length = at_least(length, constants.R, "length")
    affix = constants.alpha + constants.beta
    k = 0
    while length >= constants.R:
        shifted = length - affix
        if shifted % constants.q:
            return None
        length = shifted // constants.q
        k += 1
    return k, length


def dens_K(table: DensityTable, length: int) -> Fraction:
    """Exact start-pair density at any length, via the table and scaling."""
    length = at_least(length, 1, "length")
    constants = table.constants
    if length < constants.R:
        return table.base[length]
    piece = decompose(constants, length)
    if piece is None:
        return Fraction(0)
    k, base = piece
    root = table.base[base]
    if root == 0:
        return Fraction(0)
    value = root / Fraction(constants.q ** (2 * k))
    alt = root * (base + constants.c) ** 2 / (length + constants.c) ** 2
    if value != alt:
        raise DiscrepancyError(
            f"scaling closed forms disagree at length {length}: {value} vs {alt}"
        )
    return value


def closed_form_indices(constants: RecogConstants, lprime: int) -> tuple[int, int]:
    """Split a target length into (j, l0): j is the number of whole scaling
    steps needed before the largest base reaches lprime, and l0 the smallest
    base whose j-step image does."""
    lprime = at_least(lprime, constants.R0, "target length")
    # l0 q^j + c (q^j - 1) >= lprime, times the denominator of c.
    cn, cd = constants.c.numerator, constants.c.denominator
    target = lprime * cd + cn
    j, scale = 0, 1
    while ((constants.R - 1) * cd + cn) * scale < target:
        j, scale = j + 1, scale * constants.q
    # The least l0 >= R0 with (l0 cd + cn) q^j >= target; R - 1 is one.
    return j, max(constants.R0, -(-(target - cn * scale) // (cd * scale)))
