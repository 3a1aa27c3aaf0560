"""Symbolic recurrence plots and their diagonal-line structure.

The recurrence plot of a 0/1 sequence at threshold 2^-h marks the pairs of
positions whose length-h windows agree letter by letter.  Nothing here ever
materialises the n-by-n matrix except the small renderers.  Line counts
come from one suffix-order kernel: a maximal run on diagonal d that starts
at s is the common prefix of suffixes s and s+d, so counting suffix pairs
by exact common-prefix length counts lines.  Each plot builds one set of
prefix-doubling keys that pack many short ranks, so a sort covers several
doublings (5 sorts at 2^14 letters, 9 at 2^20), and the last sort is the
suffix order.  Common prefixes come from one XOR per level; the nearest
smaller neighbours that bound each pair count and each far-edge run come
from pointer jumping: a few dozen rounds on fixed-point prefixes, but a
round per step of each long rising run a periodic text has.  Each level
costs one O(n log n) sort and O(n) uint64 memory, with no per-suffix
Python loop.
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
from .substitution import BitSequence, sorted_ranks, window_classes

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


def _shifted(values: np.ndarray, span: int) -> np.ndarray:
    """values[i + span] at every i, zero past the end."""
    out = np.zeros_like(values)
    out[: max(values.size - span, 0)] = values[span:]
    return out


def _pack(ranks: np.ndarray, span: int, digits: int, width: int) -> _Level:
    """Keys of `digits` consecutive span-letter ranks, by shift-or doubling."""
    keys = ranks
    packed = 1
    while packed < digits:
        keys = (keys << np.uint64(width * packed)) | _shifted(keys, span * packed)
        packed *= 2
    return _Level(keys, span, digits, width)


def _suffix_levels(bits: np.ndarray) -> tuple[list[_Level], np.ndarray]:
    """Prefix-doubling ranks (Manber & Myers 1993) of the suffixes of bits,
    the empty one at position len(bits) included, with many digits per
    sort, and the suffix order.

    Level 0 packs 32 letters, 2 bits each: letters 1 and 2 and end-of-text
    0.  Each later level packs the dense ranks of the level below, as many
    as fit 64 bits, a power of two so spans stay powers of two.  Rank 0 is
    the empty suffix alone, and digits past the end are 0 too, so a window
    cut short by the end sorts below every longer one; two windows cut
    short at different positions differ in length, so equal keys mean
    equal full windows.  Comparing keys compares their digits left to
    right.  A fixed-point prefix has few distinct windows of each length,
    so the ranks are short and each sort covers many doublings.  Levels
    stop once no two suffixes tie, because the lift in _lcp starts on a
    level on which none do; that level's argsort is the suffix order."""
    ranks = np.append(bits.astype(np.uint64) + np.uint64(1), np.uint64(0))
    size = ranks.size
    levels = [_pack(ranks, 1, 32, 2)]
    while True:
        order, ids = sorted_ranks(levels[-1].keys)
        classes = int(ids[order[-1]]) + 1
        if classes == size:
            return levels, order
        width = (classes - 1).bit_length()
        digits = 1 << ((64 // width).bit_length() - 1)
        below = levels[-1]
        levels.append(_pack(ids.astype(np.uint64), below.span * below.digits, digits, width))


def _msb(values: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each nonzero uint64, exact: each
    half goes to float64 below 2^32, where frexp reads its exponent."""
    high = values >> np.uint64(32)
    wide = high != 0
    half = np.where(wide, high, values & np.uint64(0xFFFFFFFF))
    return np.frexp(half.astype(np.float64))[1] - 1 + 32 * wide


def _lcp(levels: list[_Level], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Common-prefix lengths of the suffix pairs (i[t], j[t]), i[t] != j[t],
    by lifting down the levels.  On each level the two keys at the match
    so far differ, and the highest set bit of their XOR counts the equal
    leading digits.  A match never runs past the end, where the empty
    suffix differs from every other, so no index leaves the levels."""
    out = np.zeros(i.size, dtype=np.int64)
    for level in reversed(levels):
        differ = _msb(level.keys[i + out] ^ level.keys[j + out]) // level.width
        out += (level.digits - 1 - differ) * level.span
    return out


def _adjacent_lcp(
    levels: list[_Level], order: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """The positions [lo, hi) in suffix order, and the common-prefix lengths
    of neighbours in that order."""
    order = order[(order >= lo) & (order < hi)]
    return order, _lcp(levels, order[:-1], order[1:])


def _nearest_below(values: np.ndarray, step: int, strict: bool) -> np.ndarray:
    """For each t, the nearest index s on the side `step` (-1 or +1) with
    values[s] < values[t] (strict) or values[s] <= values[t]; values.size
    where there is none.  Pointer jumping (Berkman, Schieber & Vishkin
    1993): every index still looking compares the value its pointer
    reaches, and while that value is no answer, takes over that index's
    pointer, since everything in between is no answer either.  Values must
    be non-negative; index values.size holds a -1 that stops every search.

    The adjacent common prefixes of fixed-point prefixes up to 2^18 letters
    take 11 to 31 rounds.  A search that reaches only indices already
    answered moves one answer per round, so the one value below a long
    rising run, as in a periodic text, takes a round per step of the run."""
    count = values.size
    reach = np.append(values, -1)
    target = np.arange(count) + step
    target[target < 0] = count
    active = np.arange(count)
    while active.size:
        hop = target[active]
        passed = reach[hop] >= values[active] if strict else reach[hop] > values[active]
        active = active[passed]
        target[active] = target[hop[passed]]
    return target


def _pairs_by_lcp(adjacent: np.ndarray, size: int) -> np.ndarray:
    """pairs[v]: unordered pairs of suffixes that share exactly v letters,
    v in [0, size], given the common prefixes of neighbours in their suffix
    order.  The common prefix of two suffixes is the least adjacent value
    between them (Kasai et al. 2001).  Each adjacent value is credited with
    the intervals whose rightmost minimum it is: they reach left to just
    after the nearest smaller value and right to just before the nearest
    value not larger."""
    count = adjacent.size
    index = np.arange(count)
    left = _nearest_below(adjacent, -1, strict=True)
    left[left == count] = -1
    right = _nearest_below(adjacent, 1, strict=False)
    pairs = np.zeros(size + 1, dtype=np.int64)
    np.add.at(pairs, adjacent, (index - left) * (right - index))
    return pairs


def _far_edge_runs(bits: np.ndarray, order: np.ndarray, adjacent: np.ndarray) -> np.ndarray:
    """nbd[L]: diagonals whose run ending on the far edge has length L, for
    L in [1, len(bits)), given the nonempty suffixes in suffix order and
    their adjacent common prefixes.  Such a run is a copy of the last L
    letters, the suffix at p = len(bits) - L, starting at some q < p whose
    preceding letter differs from bits[p-1] or that is 0.  The suffixes
    that start with a copy fill p's suffix-order interval.  It ends at the
    first rank from p's on whose common prefix with the next is below L:
    p's own rank, or else, since p's own value is at most L, the next
    strictly smaller adjacent value, or the last rank if there is none.
    The count is a difference of prefix sums."""
    size = bits.size
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    # The last rank has no neighbour: -1 ends its interval at itself.
    reach = np.append(adjacent, -1)
    after = np.append(_nearest_below(adjacent, 1, strict=True), size - 1)
    p = np.arange(1, size)
    first = rank[p]
    last = np.where(reach[first] < size - p, first, after[first])
    before = bits[np.maximum(order - 1, 0)]
    other = np.zeros((2, size + 1), dtype=np.int64)
    for letter in (0, 1):
        np.cumsum((order == 0) | (before != letter), out=other[letter, 1:])
    nbd = np.zeros(size, dtype=np.int64)
    follows = bits[p - 1]
    nbd[size - p] = other[follows, last + 1] - other[follows, first]
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
    order, adjacent = _adjacent_lcp(levels, order, 0, size)
    del levels  # free the keys before the bound searches: peak memory
    place = int(np.flatnonzero(order == 0)[0])
    zero_runs = np.zeros(size, dtype=np.int64)
    zero_runs[order[place + 1 :]] = np.minimum.accumulate(adjacent[place:])
    zero_runs[order[:place]] = np.minimum.accumulate(adjacent[:place][::-1])[::-1]
    zero_runs = zero_runs[1:]
    pairs = _pairs_by_lcp(adjacent, size)
    nbd = _far_edge_runs(bits, order, adjacent)
    runs = pairs[:-1] - pairs[1:]
    zero = np.bincount(zero_runs[zero_runs < size - np.arange(1, size)], minlength=size)
    buckets = 2 * np.stack([runs - zero - nbd, zero, nbd], axis=1)
    lengths = np.flatnonzero(runs[window:]) + window
    counts = {int(r) - window + 1: tuple(buckets[r].tolist()) for r in lengths}
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
    starts = _pairs_by_lcp(adjacent_starts, bits.size)
    shifted = _pairs_by_lcp(adjacent_shifted, bits.size)
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
