"""Symbolic recurrence plots and their diagonal-line structure.

The recurrence plot of a 0/1 sequence at threshold 2^-h marks the pairs of
positions whose length-h windows agree letter by letter.  Nothing here ever
materialises the n-by-n matrix except the small renderers.  Line counts
come from one suffix-order kernel: a maximal run on diagonal d that starts
at s is the common prefix of suffixes s and s+d, so counting suffix pairs
by exact common-prefix length counts lines.  Each plot builds one set of
prefix-doubling keys: level 0 packs 64 - b one-bit letters, where b is
the bit length of the position, and each later level as many short ranks
as fit beside the position, so a sort covers several doublings (5 sorts
at 2^14 letters, 8 or 9 at 2^20).  Each sort is a value sort of the key
tagged with its position, and the last is the suffix order.  Common
prefixes come from one XOR per level.  One pointer-jumping search finds
the nearest smaller neighbours on both sides, which bound each pair
count and each far-edge run: a few dozen rounds on fixed-point prefixes,
but a round per step of each long rising run a periodic text has.  Each
level costs one O(n log n) sort and O(n) uint64 memory, with no
per-suffix Python loop.
extract_lines and inner_line_starts keep the walk along each diagonal as
the reference the kernel is tested against.  Two exact reductions collapse
the parameter space:

* threshold reduction: a length-l line at threshold 2^-h is the same run as
  a length-(l+h-1) line at threshold 1/2 in a plot enlarged to n+h-1, with
  an identical start point;
* embedding reduction: the plot of the m-letter sliding embedding at
  threshold eps equals the plot of the raw sequence at eps / 2^(m-1), so
  an embedded request folds into the window length h+m-1.

Extracted lines carry boundary flags (touching the first row/column, or
ending on the far edge of the plot) because downstream statistics need to
include or exclude clipped lines explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .substitution import BitSequence, window_classes

__all__ = [
    "RENDER_CAP",
    "Boundary",
    "LineHistogram",
    "LineTriple",
    "extract_lines",
    "histogram",
    "inner_line_counts",
    "inner_line_starts",
    "quantize_eps",
    "reduce_embedding",
    "reduce_eps",
    "render_ascii",
    "render_pgm",
    "rp_entry",
    "theta",
]

# Largest plot the renderers agree to draw (n^2 cells).
RENDER_CAP = 4096


class Boundary(str, enum.Enum):
    """How a maximal diagonal line touches the plot edges."""

    ZERO_BOUNDARY = "zero_boundary"  # starts in row or column 0
    N_BOUNDARY = "n_boundary"  # ends on the far edge: max(i, j) == n - length


@dataclass(frozen=True)
class LineTriple:
    """One maximal off-diagonal line: entries (i+t, j+t) for 0 <= t < length."""

    i: int
    j: int
    length: int
    boundary: frozenset[Boundary] = frozenset()


@dataclass(frozen=True)
class LineHistogram:
    """Counts of maximal lines by length for one plot.

    counts[length] = (inner, zero_boundary, n_boundary) where a line touching
    both edges is counted in the n_boundary slot, so dropping that slot is
    exactly the 'ignore lines clipped by the far edge' convention.  Both
    orientations (i, j) and (j, i) are counted.  m and h are the embedding
    and threshold exponent the plot was requested at.
    """

    n: int
    h: int
    m: int
    counts: dict[int, tuple[int, int, int]]

    def total(self, length: int) -> int:
        return sum(self.counts.get(length, (0, 0, 0)))

    def lengths(self) -> list[int]:
        return sorted(self.counts)

    def recurrence_mass(self) -> int:
        """Total off-diagonal recurrences: every marked cell lies in exactly
        one maximal line."""
        return sum(length * sum(buckets) for length, buckets in self.counts.items())

    def excluding_n_boundary(self) -> "LineHistogram":
        kept = {}
        for length, (inner, zero, _) in self.counts.items():
            if inner or zero:
                kept[length] = (inner, zero, 0)
        return LineHistogram(n=self.n, h=self.h, m=self.m, counts=kept)


def _effective_window(h: int, m: int) -> int:
    if h < 1:
        raise DomainError(f"threshold exponent h must be >= 1, got {h}")
    if m < 1:
        raise DomainError(f"embedding dimension m must be >= 1, got {m}")
    return h + m - 1


def _require_prefix(x: BitSequence, need: int, what: str) -> np.ndarray:
    if len(x) < need:
        raise DomainError(f"{what} needs a prefix of at least {need} letters, got {len(x)}")
    return x.bits[:need]


def _match_runs(bits: np.ndarray, d: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of the indicator bits[t] == bits[t+d], t in [0, span)."""
    eq = (bits[:span] == bits[d : d + span]).astype(np.int8)
    delta = np.diff(eq, prepend=np.int8(0), append=np.int8(0))
    return np.flatnonzero(delta == 1), np.flatnonzero(delta == -1)


class _Level(NamedTuple):
    """One prefix-doubling level: keys[i] packs `digits` ranks, `width`
    bits each and the first in the highest bits, of the windows of `span`
    letters that start at i, i + span, ... ."""

    keys: np.ndarray
    span: int
    digits: int
    width: int


def _shift_or(high: np.ndarray, low: np.ndarray, shift: int, offset: int) -> np.ndarray:
    """high << shift, or'ed at each i with low[i + offset], zero past the end."""
    out = high << np.uint64(shift)
    out[: max(out.size - offset, 0)] |= low[offset:]
    return out


def _pack(ranks: np.ndarray, span: int, width: int, digits: int) -> _Level:
    """Keys of `digits` consecutive span-letter ranks: shift-or doubling,
    and one more shift-or that appends a rank for each set bit of the digit
    count below its top."""
    keys, packed = ranks, 1
    for bit in bin(digits)[3:]:
        keys = _shift_or(keys, keys, width * packed, span * packed)
        packed *= 2
        if bit == "1":
            keys = _shift_or(keys, ranks, width, span * packed)
            packed += 1
    return _Level(keys, span, digits, width)


def _suffix_levels(bits: np.ndarray) -> tuple[list[_Level], np.ndarray]:
    """Prefix-doubling ranks (Manber & Myers 1993) of the suffixes of bits,
    the empty one at position len(bits) included, with many digits per
    sort, and the suffix order.

    Each level sorts its keys by value, with the reversed position
    len(bits) - i in the low b = len(bits).bit_length() bits: a mask then
    reads off the suffix order and a shift the sorted keys, with no
    argsort and no gather.  Level 0 packs 64 - b letters, one bit each,
    and 0 past the end.  A window cut short by the end has a smaller
    reversed position than every window it is a prefix of, so it sorts
    before them, and each suffix shorter than one key starts a class of
    its own: rank 0 is the empty suffix alone.  Each later level packs the
    dense ranks of the level below, as many as fit beside the position
    when that is at least three, and as many as fit 64 bits, sorted by
    argsort, when it is not (only past 2^16 letters).  Its span is the
    span below times that many.  Digits past the end are 0, and a window
    cut short ends in a rank that only its own position has, so on levels
    above 0 equal keys mean equal full windows.  Comparing keys compares
    their digits left to right.  A fixed-point prefix has few distinct
    windows of each length, so the ranks are short and each sort covers
    many doublings.  Levels stop once no two sorted neighbours tie,
    because the lift in _lcp starts on a level on which none do, and that
    level's sort is the suffix order."""
    letters = bits.size
    shift = letters.bit_length()
    free = 64 - shift
    tags = np.arange(letters, -1, -1, dtype=np.uint64)
    ranks = np.append(bits.astype(np.uint64), np.uint64(0))
    span, width, digits, tagged = 1, 1, free, True
    levels = []
    while True:
        level = _pack(ranks, span, width, digits)
        levels.append(level)
        if tagged:
            ordered = level.keys << np.uint64(shift)
            ordered |= tags
            ordered.sort()
            order = (ordered & np.uint64((1 << shift) - 1)).view(np.int64)
            np.subtract(letters, order, out=order)
            ordered >>= np.uint64(shift)
        else:
            order = np.argsort(level.keys)
            ordered = level.keys[order]
        fresh = ordered[1:] != ordered[:-1]
        if span == 1:
            # A suffix shorter than one key is a class of its own.
            fresh |= order[:-1] > letters - free
        if fresh.all():
            return levels, order
        ids = np.cumsum(fresh, dtype=np.uint64)
        ranks = np.empty(letters + 1, dtype=np.uint64)
        ranks[letters] = 0  # the empty suffix, always first
        ranks[order[1:]] = ids
        span *= digits
        width = int(ids[-1]).bit_length()
        digits = free // width
        tagged = digits >= 3
        if not tagged:
            digits = 64 // width


def _msb(values: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each uint64, -1 for 0, from the
    float64 exponent.  It is exact: with the bit just below the highest
    cleared, rounding to float64 cannot carry into the next power of two."""
    top = values >> np.uint64(1)
    np.invert(top, out=top)
    top &= values
    return np.frexp(top.astype(np.float64))[1] - 1


def _lcp(levels: list[_Level], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Common-prefix lengths of the suffix pairs (i[t], j[t]), i[t] != j[t],
    by lifting down the levels.  On each level above 0 the two keys at the
    match so far differ, and the highest set bit of their XOR counts the
    equal leading digits; the match never runs past the end, so no index
    leaves the levels.  Level 0 reads 0 past the end, so where the shorter
    suffix is a prefix of the other, its count can run past that end, by
    up to a whole key when the XOR is 0 (whose msb is -1); elsewhere it
    stops at the first letter that differs.  So each match is clamped to
    the length of the shorter suffix."""
    out = np.zeros(i.size, dtype=np.int64)
    for level in reversed(levels):
        differ = level.keys[i + out]
        differ ^= level.keys[j + out]
        out += (level.digits - 1 - _msb(differ) // level.width) * np.int64(level.span)
    shorter = np.maximum(i, j)
    np.subtract(levels[0].keys.size - 1, shorter, out=shorter)
    return np.minimum(out, shorter, out=out)


def _adjacent_lcp(
    levels: list[_Level], order: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """The positions [lo, hi) in suffix order, and the common-prefix lengths
    of neighbours in that order."""
    order = order[(order >= lo) & (order < hi)]
    return order, _lcp(levels, order[:-1], order[1:])


def _smaller_bounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each t, the nearest s < t with values[s] < values[t] (-1 where
    there is none) and the nearest s > t with values[s] <= values[t]
    (values.size where there is none).  Values must be non-negative
    integers.

    One pointer-jumping search (Berkman, Schieber & Vishkin 1993) answers
    both sides: the right side looks for a value below values + 1 in
    [values, -1], the left side for one below values in [values reversed,
    -1], and each -1 stops every search of its half.  Every index still
    looking compares the value its pointer reaches, and while that value
    is no answer, takes over that index's pointer, since everything in
    between is no answer either.  The adjacent common prefixes of
    fixed-point prefixes up to 2^18 letters take 11 to 31 rounds.  A
    search that reaches only indices already answered moves one answer per
    round, so the one value below a long rising run, as in a periodic
    text, takes a round per step of the run."""
    count = values.size
    half = count + 1
    reach = np.concatenate((values, [-1], values[::-1], [-1]))
    below = reach.copy()
    below[:count] += 1
    # The first round compares neighbours; the -1s look for nothing.
    passed = reach[1:] >= below[:-1]
    passed[count] = False
    active = np.flatnonzero(passed)
    target = np.arange(1, 2 * half + 1)
    target[active] += 1
    while active.size:
        hop = target[active]
        passed = reach[hop] >= below[active]
        active = active[passed]
        target[active] = target[hop[passed]]
    # Index u of the reversed half holds position 2 * count - u.
    return 2 * count - target[half:-1][::-1], target[:count].copy()


def _pairs_by_lcp(
    adjacent: np.ndarray, left: np.ndarray, right: np.ndarray, size: int
) -> np.ndarray:
    """pairs[v]: unordered pairs of suffixes that share exactly v letters,
    v in [0, size], given the common prefixes of neighbours in their suffix
    order and their _smaller_bounds.  The common prefix of two suffixes is
    the least adjacent value between them (Kasai et al. 2001).  Each
    adjacent value is credited with the intervals whose rightmost minimum
    it is: they reach left to just after the nearest smaller value and
    right to just before the nearest value not larger."""
    index = np.arange(adjacent.size)
    pairs = np.zeros(size + 1, dtype=np.int64)
    np.add.at(pairs, adjacent, (index - left) * (right - index))
    return pairs


def _far_edge_runs(
    bits: np.ndarray, order: np.ndarray, adjacent: np.ndarray, right: np.ndarray, zero: int
) -> np.ndarray:
    """nbd[L]: diagonals whose run ending on the far edge has length L, for
    L in [1, len(bits)), given the nonempty suffixes in suffix order, their
    adjacent common prefixes, the right bounds of _smaller_bounds and the
    rank of suffix 0.  Such a run is a copy of the last L letters, the
    suffix at p = len(bits) - L, starting at some q < p that is 0 or whose
    preceding letter differs from bits[p-1].  The suffixes that start with
    a copy fill p's suffix-order interval, which starts at p's rank.  When
    there is such a q, p's adjacent value is L, and the interval ends at
    the first rank after p's whose adjacent value is below L.  The nearest
    value not above L lands there or on the one other value equal to L in
    the interval: in a binary text, the boundary between the copies
    followed by 0 and those followed by 1.  The count is a difference of
    prefix sums."""
    size = bits.size
    # The last rank has no neighbour: -1 ends every interval there.
    reach = np.append(adjacent, -1)
    first = np.flatnonzero(adjacent == size - order[:-1])
    length = size - order[first]
    last = right[first]
    hop = np.flatnonzero(reach[last] == length)
    while hop.size:
        last[hop] = right[last[hop]]
        hop = hop[reach[last[hop]] == length[hop]]
    # ones[r]: ranks below r whose suffix follows a 1.
    ones = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.append(False, bits[:-1] == 1)[order], out=ones[1:])
    within = ones[last + 1] - ones[first]
    start = (first <= zero) & (zero <= last)
    nbd = np.zeros(size, dtype=np.int64)
    nbd[length] = np.where(bits[size - length - 1] == 1, last + 1 - first - within, within + start)
    return nbd


def quantize_eps(eps) -> int:
    """Smallest h with 2^-h <= eps.

    Window distances only take the values 2^-i, so thresholding at eps and
    at 2^-h mark identical plots.  Rejects eps outside (0, 1): at eps >= 1
    every pair of positions would be recurrent.
    """
    try:
        frac = Fraction(eps)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"threshold must be a number, got {eps!r}") from exc
    if not 0 < frac < 1:
        raise DomainError(f"threshold must lie strictly between 0 and 1, got {eps!r}")
    h = 1
    while Fraction(1, 2**h) > frac:
        h += 1
    return h


def rp_entry(x: BitSequence, i: int, j: int, h: int) -> bool:
    """Whether positions i and j recur at threshold 2^-h: equal h-windows."""
    if h < 1:
        raise DomainError(f"threshold exponent h must be >= 1, got {h}")
    if i < 0 or j < 0 or i + h > len(x) or j + h > len(x):
        raise DomainError(
            f"windows [{i}, {i}+{h}) and [{j}, {j}+{h}) must lie inside a {len(x)}-letter prefix"
        )
    return bool(np.array_equal(x.bits[i : i + h], x.bits[j : j + h]))


def extract_lines(x: BitSequence, n: int, h: int, *, m: int = 1) -> list[LineTriple]:
    """Every maximal off-diagonal line of the n-by-n plot, both orientations.

    Intended for small plots and cross-checks; histogram() is the bulk path.
    """
    window = _effective_window(h, m)
    if n < 2:
        raise DomainError(f"plot size must be at least 2, got {n}")
    size = n + window - 1
    bits = _require_prefix(x, size, f"plot of size {n} at window {window}")
    lines: list[LineTriple] = []
    for d in range(1, size):
        limit = size - d
        starts, ends = _match_runs(bits, d, limit)
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < window:
                continue
            flags = set()
            if s == 0:
                flags.add(Boundary.ZERO_BOUNDARY)
            if e == limit:
                flags.add(Boundary.N_BOUNDARY)
            length = e - s - window + 1
            lines.append(LineTriple(s, s + d, length, frozenset(flags)))
            lines.append(LineTriple(s + d, s, length, frozenset(flags)))
    return lines


def histogram(x: BitSequence, n: int, h: int, *, m: int = 1) -> LineHistogram:
    """Aggregate maximal-line counts by length and boundary kind.

    Same line set as extract_lines, counted from the suffix order without
    walking diagonals.  The maximal run on diagonal d that starts at s pairs
    suffixes s and s+d; its pairs (s+t, s+t+d) share exactly length - t
    letters, so every run of length >= v holds one pair with common prefix
    exactly v, and runs of length v number pairs(v) - pairs(v+1).  The
    zero-boundary run on diagonal d has length lcp(0, d), the least
    adjacent common prefix between suffixes 0 and d in suffix order.  The
    far-edge runs of length L are copies of the last L letters, read off
    the same suffix order (see _far_edge_runs).
    """
    window = _effective_window(h, m)
    if n < 2:
        raise DomainError(f"plot size must be at least 2, got {n}")
    size = n + window - 1
    bits = _require_prefix(x, size, f"plot of size {n} at window {window}")
    levels, order = _suffix_levels(bits)
    order = order[1:]  # the empty suffix sorts first
    adjacent = _lcp(levels, order[:-1], order[1:])
    del levels  # free the keys before the bound searches: peak memory
    place = int(np.flatnonzero(order == 0)[0])
    zero_runs = np.zeros(size, dtype=np.int64)
    zero_runs[order[place + 1 :]] = np.minimum.accumulate(adjacent[place:])
    zero_runs[order[:place]] = np.minimum.accumulate(adjacent[:place][::-1])[::-1]
    zero_runs = zero_runs[1:]
    left, right = _smaller_bounds(adjacent)
    pairs = _pairs_by_lcp(adjacent, left, right, size)
    nbd = _far_edge_runs(bits, order, adjacent, right, place)
    runs = pairs[:-1] - pairs[1:]
    zero = np.bincount(zero_runs[zero_runs < size - np.arange(1, size)], minlength=size)
    lengths = np.flatnonzero(runs[window:]) + window
    zero, nbd = zero[lengths], nbd[lengths]
    buckets = 2 * np.stack([runs[lengths] - zero - nbd, zero, nbd], axis=1)
    counts = {r - window + 1: tuple(row) for r, row in zip(lengths.tolist(), buckets.tolist())}
    return LineHistogram(n=n, h=h, m=m, counts=counts)


def reduce_eps(length: int, n: int, h: int) -> tuple[int, int]:
    """Map a length-l line at threshold 2^-h to its run at threshold 1/2.

    The correspondence (i, j, l) <-> (i, j, l+h-1) is a bijection between
    the lines of the n-plot at 2^-h and the (l+h-1)-lines of the (n+h-1)-plot
    at 1/2; theta() gives the matching density rescale.
    """
    if length < 1 or n < 2 or h < 1:
        raise DomainError(f"need length >= 1, n >= 2, h >= 1, got ({length}, {n}, {h})")
    return (length + h - 1, n + h - 1)


def theta(n: int, h: int) -> Fraction:
    """Ratio of off-diagonal cell counts between the (n+h-1)- and n-plots."""
    if n < 2 or h < 1:
        raise DomainError(f"need n >= 2 and h >= 1, got ({n}, {h})")
    big = n + h - 1
    return Fraction(big * big - big, n * n - n)


def reduce_embedding(m: int, eps):
    """Threshold seen by the raw sequence in place of its m-letter embedding."""
    if m < 1:
        raise DomainError(f"embedding dimension m must be >= 1, got {m}")
    if not 0 < eps < 1:
        raise DomainError(f"threshold must lie strictly between 0 and 1, got {eps!r}")
    return eps / (1 << (m - 1))


def inner_line_starts(x: BitSequence, length: int, n: int) -> set[tuple[int, int]]:
    """Start pairs of inner length-`length` lines of the infinite plot, in [1, n)^2.

    A pair (i, j), i != j, qualifies when the windows x[i..i+length) and
    x[j..j+length) agree while the letters just before and just after both
    disagree, so maximality holds on both sides regardless of plot size.
    """
    if length < 1:
        raise DomainError(f"line length must be positive, got {length}")
    if n < 2:
        raise DomainError(f"position bound must be at least 2, got {n}")
    bits = _require_prefix(x, n + length + 1, f"inner-line scan at length {length}, bound {n}")
    pairs: set[tuple[int, int]] = set()
    for d in range(1, n - 1):
        span = n - d + length
        starts, ends = _match_runs(bits, d, span)
        lengths = ends - starts
        keep = (starts >= 1) & (starts <= n - 1 - d) & (lengths == length) & (ends < span)
        for s in starts[keep].tolist():
            pairs.add((s, s + d))
            pairs.add((s + d, s))
    return pairs


def inner_line_counts(x: BitSequence, n: int, max_length: int) -> np.ndarray:
    """Cardinalities of the inner-line start sets for every length at once.

    result[l] = len(inner_line_starts(x, l, n)) for 1 <= l <= max_length.
    result[0] is unused and zero.

    A start pair at length l is two positions in [1, n) whose suffixes share
    exactly l letters, minus those whose letters just before agree too; the
    latter are the pairs one step left, in [0, n-1), sharing exactly l+1.
    So result[l] = 2 * (pairs among [1, n) at l - pairs among [0, n-1) at
    l+1), both read off one suffix order.
    """
    if max_length < 1:
        raise DomainError(f"maximum length must be positive, got {max_length}")
    if n < 2:
        raise DomainError(f"position bound must be at least 2, got {n}")
    bits = _require_prefix(
        x, n + max_length + 1, f"inner-line scan up to length {max_length}, bound {n}"
    )
    levels, order = _suffix_levels(bits)
    adjacent_starts = _adjacent_lcp(levels, order, 1, n)[1]
    adjacent_shifted = _adjacent_lcp(levels, order, 0, n - 1)[1]
    del levels  # free the keys before the bound searches: peak memory
    starts = _pairs_by_lcp(adjacent_starts, *_smaller_bounds(adjacent_starts), bits.size)
    shifted = _pairs_by_lcp(adjacent_shifted, *_smaller_bounds(adjacent_shifted), bits.size)
    counts = np.zeros(max_length + 1, dtype=np.int64)
    counts[1:] = 2 * (starts[1 : max_length + 1] - shifted[2 : max_length + 2])
    return counts


def _require_renderable(n: int) -> None:
    if n < 1:
        raise DomainError(f"plot size must be positive, got {n}")
    if n > RENDER_CAP:
        raise ResourceLimitError(f"rendering is capped at {RENDER_CAP}x{RENDER_CAP}, got n={n}")


def _plot_matrix(x: BitSequence, n: int, h: int, m: int) -> np.ndarray:
    window = _effective_window(h, m)
    _require_renderable(n)
    bits = _require_prefix(x, n + window - 1, f"render of size {n} at window {window}")
    classes = window_classes(bits, window)
    return classes[:, None] == classes[None, :]


def render_ascii(x: BitSequence, n: int, h: int, *, m: int = 1) -> str:
    """The plot as '#' (recurrent) and '.' rows, row 0 first."""
    matrix = _plot_matrix(x, n, h, m)
    out = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    out[:, :n] = np.where(matrix, np.uint8(ord("#")), np.uint8(ord(".")))
    return out.tobytes().decode("ascii")


def render_pgm(x: BitSequence, n: int, h: int, *, m: int = 1) -> bytes:
    """The plot as a binary PGM image, recurrent cells white, row 0 on top."""
    matrix = _plot_matrix(x, n, h, m)
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    return header + (matrix.astype(np.uint8) * np.uint8(255)).tobytes()
