"""Exact densities of inner-line start sets, at every length.

For a primitive aperiodic normalized substitution, the ordered pairs of
positions where an inner line of length l begins (equal l-windows flanked
by mismatches on both sides) have a positive-or-zero density among all
position pairs, and those densities obey an exact self-similarity: one
substitution step multiplies the length as l -> q*l + alpha + beta and
divides the density by q^2.  Consequently everything is determined by the
densities at the finitely many base lengths below the full recognizability
length R.

Base densities are computed exactly from block frequencies of the unique
invariant measure: the density at length l is

    2 * sum over allowed l-words w of mu(0w0)mu(1w1) + mu(0w1)mu(1w0),

since a start pair consists of two occurrences of the same inner word with
opposite flanking letters on each side.  Block frequencies come from the
letter-frequency eigenvector, a closed form for the two-blocks (shift
invariance leaves mu(01) = mu(10) as the one unknown of one linear
equation), and an exact desubstitution recursion for longer blocks.  Every
exact base value is then validated against start-pair counts on
fixed-point prefixes at two scales (recplot.inner_line_counts, counted
from the suffix order), against the emptiness criterion (zero density
exactly when no start pair is ever seen), and against the scaling law one
step up; any disagreement raises ReconstructionError naming the offending
length.  Validated tables are memoized per process only; nothing is stored
on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from .errors import DiscrepancyError, DomainError, ReconstructionError
from .recognizability import (
    RecogConstants,
    desubstitute,
    language_slice,
    recognizability_constants,
    require_normalized_aperiodic,
)
from .recplot import inner_line_counts
from .substitution import BitSequence, Substitution

__all__ = [
    "BaseEvidence",
    "Decomposition",
    "DensityTable",
    "block_frequencies",
    "closed_form_indices",
    "decompose",
    "dens_K",
    "density_from_frequencies",
    "empirical_delta",
    "letter_frequencies",
    "reconstruct_base",
    "simplest_rational_in",
    "snap_to_simple_rational",
    "table_to_json_dict",
]

DEFAULT_SCALES = (1 << 12, 1 << 13)


# -- block frequencies of the unique invariant measure -----------------------


def letter_frequencies(sub: Substitution) -> tuple[Fraction, Fraction]:
    """Frequencies of 0 and 1 in the fixed point, from the dominant
    eigenvector of the letter-count matrix."""
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
    support = sorted(w for w, value in freqs.items() if value)
    if support != sorted(language_slice(sub, 2).words):
        raise DiscrepancyError(f"two-block frequencies are positive on {support}, not on the 2-word language")
    return {w: freqs[w] for w in support}


@lru_cache(maxsize=4096)
def _block_frequencies_cached(sub: Substitution, length: int) -> dict[str, Fraction]:
    if length == 1:
        f0, f1 = letter_frequencies(sub)
        return {"0": f0, "1": f1}
    if length == 2:
        return _two_block_frequencies(sub)
    # Each occurrence comes from a unique shorter occurrence (desubstitute).
    acc: dict[str, Fraction] = {}
    for _, freq, target in desubstitute(sub, length, lambda s: _block_frequencies_cached(sub, s)):
        acc[target] = acc.get(target, Fraction(0)) + freq
    total = Fraction(0)
    out = {}
    for word, freq in acc.items():
        value = freq / sub.q
        out[word] = value
        total += value
    if total != 1:
        raise DiscrepancyError(f"block frequencies at length {length} sum to {total}, not 1")
    return out


def block_frequencies(sub: Substitution, length: int) -> dict[str, Fraction]:
    """Exact frequency of every allowed word of the given length."""
    require_normalized_aperiodic(sub)
    if length < 1:
        raise DomainError(f"block length must be positive, got {length}")
    return dict(_block_frequencies_cached(sub, length))


def density_from_frequencies(sub: Substitution, length: int) -> Fraction:
    """Exact density of inner-line start pairs at one length, straight from
    block frequencies (no scaling law involved)."""
    require_normalized_aperiodic(sub)
    if length < 1:
        raise DomainError(f"length must be positive, got {length}")
    freqs = _block_frequencies_cached(sub, length + 2)
    inner_words = {w[1:-1] for w in freqs}
    zero = Fraction(0)
    total = Fraction(0)
    for w in inner_words:
        total += freqs.get(f"0{w}0", zero) * freqs.get(f"1{w}1", zero)
        total += freqs.get(f"0{w}1", zero) * freqs.get(f"1{w}0", zero)
    return 2 * total


# -- empirical counterpart ---------------------------------------------------


def empirical_delta(x: BitSequence, length: int, n: int) -> Fraction:
    """Observed density of inner-line start pairs in [1, n)^2."""
    count = int(inner_line_counts(x, n, length)[length])
    return Fraction(count, n * n - n)


# -- rational snapping (recorded as evidence, not authoritative) -------------


def simplest_rational_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with the smallest denominator in the closed interval
    [lo, hi] (smallest numerator among those)."""
    if lo > hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_in(-hi, -lo)
    low_floor = floor(lo)
    if lo == low_floor or low_floor + 1 <= hi:
        return Fraction(ceil(lo))
    inner = simplest_rational_in(1 / (hi - low_floor), 1 / (lo - low_floor))
    return low_floor + 1 / inner


def snap_to_simple_rational(
    value: Fraction, tolerance: Fraction, max_denominator: int
) -> Fraction | None:
    """Simplest rational within tolerance of value, or None if even the
    simplest candidate needs a denominator beyond the cap."""
    candidate = simplest_rational_in(value - tolerance, value + tolerance)
    if candidate.denominator > max_denominator:
        return None
    return candidate


# -- reconstruction ----------------------------------------------------------


@dataclass(frozen=True)
class BaseEvidence:
    """Validation record for one base length."""

    scales: tuple[int, int]
    deltas: tuple[Fraction, Fraction]
    tolerances: tuple[Fraction, Fraction]
    snapped: tuple[Fraction | None, Fraction | None]
    child: int | None
    child_delta: Fraction | None


@dataclass(frozen=True)
class DensityTable:
    """Exact base densities of one substitution plus their validation trail."""

    subst: Substitution
    constants: RecogConstants
    base: dict[int, Fraction]
    evidence: dict[int, BaseEvidence]


def _tolerance(n: int) -> Fraction:
    return Fraction(16, n)


@lru_cache(maxsize=16)
def _reconstruct_cached(sub: Substitution, n1: int, n2: int) -> DensityTable:
    constants = recognizability_constants(sub)
    q = sub.q
    affix = constants.alpha + constants.beta
    max_child = q * (constants.R - 1) + affix
    x = sub.fixed_point_prefix(n2 + max_child + 1)
    counts = {n: inner_line_counts(x, n, max_child) for n in (n1, n2)}
    cells = {n: n * n - n for n in (n1, n2)}
    snap_cap = 4 * q**6

    base: dict[int, Fraction] = {}
    evidence: dict[int, BaseEvidence] = {}
    for length in range(1, constants.R):
        exact = density_from_frequencies(sub, length)
        if not 0 <= exact < 1:
            raise ReconstructionError(
                f"base density at length {length} out of range: {exact}"
            )
        deltas = tuple(Fraction(int(counts[n][length]), cells[n]) for n in (n1, n2))
        tolerances = (_tolerance(n1), _tolerance(n2))
        for delta, tol, n in zip(deltas, tolerances, (n1, n2)):
            if abs(delta - exact) > tol:
                raise ReconstructionError(
                    f"base density at length {length} disagrees with the count at "
                    f"scale {n}: exact {exact}, observed {delta}, tolerance {tol}"
                )
        if (exact == 0) != (counts[n2][length] == 0):
            raise ReconstructionError(
                f"emptiness mismatch at length {length}: exact {exact}, "
                f"{int(counts[n2][length])} start pairs at scale {n2}"
            )
        child = child_delta = None
        if length >= constants.R0:
            # One scaling step lands at q*length+affix >= R, where the law
            # dens = parent/q^2 must already hold.
            child = q * length + affix
            child_delta = Fraction(int(counts[n2][child]), cells[n2])
            if abs(child_delta - exact / (q * q)) > _tolerance(n2):
                raise ReconstructionError(
                    f"scaling check failed for base length {length}: child {child} "
                    f"observed {child_delta}, expected near {exact / (q * q)}"
                )
            if exact == 0 and counts[n2][child] != 0:
                raise ReconstructionError(
                    f"scaling emptiness mismatch: base {length} empty but child "
                    f"{child} has {int(counts[n2][child])} start pairs"
                )
        base[length] = exact
        evidence[length] = BaseEvidence(
            scales=(n1, n2),
            deltas=deltas,
            tolerances=tolerances,
            snapped=tuple(
                snap_to_simple_rational(d, t, snap_cap)
                for d, t in zip(deltas, tolerances)
            ),
            child=child,
            child_delta=child_delta,
        )
    return DensityTable(subst=sub, constants=constants, base=base, evidence=evidence)


def reconstruct_base(
    sub: Substitution, *, scales: tuple[int, int] = DEFAULT_SCALES
) -> DensityTable:
    """Exact densities at every length below R, validated empirically.

    The result is cached per (substitution, scales); see the module docs
    for the validation battery and its failure mode.
    """
    require_normalized_aperiodic(sub)
    n1, n2 = scales
    if not 2 <= n1 < n2:
        raise DomainError(f"scales must satisfy 2 <= n1 < n2, got {scales}")
    return _reconstruct_cached(sub, n1, n2)


# -- scaling law -------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Result of peeling a length down to its base: length == q^k * base +
    c*(q^k - 1) when valid; invalid means no start pair exists there."""

    length: int
    k: int | None
    base: int | None
    valid: bool


def decompose(constants: RecogConstants, length: int) -> Decomposition:
    """Invert the length scaling l -> q*l + alpha + beta down from `length`.

    Valid when every step divides exactly and the chain ends at a base in
    [R0, R); any failed division or an undershoot below R0 certifies the
    start set at `length` is empty.
    """
    if length < constants.R:
        raise DomainError(f"decompose needs length >= R={constants.R}, got {length}")
    affix = constants.alpha + constants.beta
    q = constants.q
    current = length
    k = 0
    while current >= constants.R:
        shifted = current - affix
        if shifted <= 0 or shifted % q:
            return Decomposition(length=length, k=None, base=None, valid=False)
        current = shifted // q
        k += 1
    if current < constants.R0:
        return Decomposition(length=length, k=None, base=None, valid=False)
    return Decomposition(length=length, k=k, base=current, valid=True)


def dens_K(table: DensityTable, length: int) -> Fraction:
    """Exact start-pair density at any length, via the table and scaling."""
    if length < 1:
        raise DomainError(f"length must be positive, got {length}")
    constants = table.constants
    if length < constants.R:
        return table.base[length]
    piece = decompose(constants, length)
    if not piece.valid:
        return Fraction(0)
    root = table.base[piece.base]
    if root == 0:
        return Fraction(0)
    q = table.subst.q
    value = root / Fraction(q ** (2 * piece.k))
    alt = root * (piece.base + constants.c) ** 2 / (length + constants.c) ** 2
    if value != alt:
        raise DiscrepancyError(
            f"scaling closed forms disagree at length {length}: {value} vs {alt}"
        )
    return value


# -- serialization ----------------------------------------------------------


def _frac_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def table_to_json_dict(table: DensityTable) -> dict:
    """JSON-ready payload (printed by `densities --format json`); exact
    rationals as [num, den]."""
    return {
        "substitution": str(table.subst),
        "scales": list(next(iter(table.evidence.values())).scales) if table.evidence else [],
        "base": {str(length): _frac_pair(value) for length, value in table.base.items()},
        "evidence": {
            str(length): {
                "scales": list(ev.scales),
                "deltas": [_frac_pair(d) for d in ev.deltas],
                "tolerances": [_frac_pair(t) for t in ev.tolerances],
                "snapped": [None if s is None else _frac_pair(s) for s in ev.snapped],
                "child": ev.child,
                "child_delta": None if ev.child_delta is None else _frac_pair(ev.child_delta),
            }
            for length, ev in table.evidence.items()
        },
    }


def closed_form_indices(constants: RecogConstants, lprime: int) -> tuple[int, int]:
    """Split a target length into (j, l0): j is the number of whole scaling
    steps needed before the largest base reaches lprime, and l0 the smallest
    base whose j-step image does."""
    if lprime < constants.R0:
        raise DomainError(f"target length must be at least R0={constants.R0}, got {lprime}")
    c = constants.c
    q = constants.q
    j = 0
    while (constants.R - 1) * q**j + c * (q**j - 1) < lprime:
        j += 1
    for l0 in range(constants.R0, constants.R):
        if l0 * q**j + c * (q**j - 1) >= lprime:
            return j, l0
    raise DiscrepancyError(
        f"no base length reaches {lprime} in {j} steps; constants inconsistent"
    )
