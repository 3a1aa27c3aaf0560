"""Symbolic recurrence plots and their diagonal-line structure.

The recurrence plot of a 0/1 sequence at threshold 2^-h marks the pairs of
positions whose length-h windows agree letter by letter.  Nothing here ever
materialises the n-by-n matrix except the small renderers.  Line counts
come from one suffix-order kernel: a maximal run on diagonal d that starts
at s is the common prefix of suffixes s and s+d, so counting suffix pairs
by exact common-prefix length counts lines.  Each plot builds one set of
prefix-doubling ranks, with a sort per doubling, and reads every common
prefix and suffix off them by binary lifting; the pair count lifts over a
min sparse table built once the ranks are freed.  That is O(n log^2 n)
time and O(n log n) int32 memory, with no per-suffix Python loop.
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

import numpy as np

from .errors import DomainError, ResourceLimitError
from .substitution import BitSequence, dense_ranks, window_classes

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


# Windows this long fit a base-3 code in int64 (3^32 < 2^63).
_PACKED_SPAN = 32


def _shifted(values: np.ndarray, span: int) -> np.ndarray:
    """values[i + span] at every i, zero past the end."""
    out = np.zeros_like(values)
    out[: max(values.size - span, 0)] = values[span:]
    return out


def _suffix_levels(bits: np.ndarray) -> list[np.ndarray]:
    """Prefix-doubling ranks (Manber & Myers 1993) of the suffixes of bits,
    the empty one at position len(bits) included: levels[k][i] ranks
    bits[i : i + 2^k], a window cut short by the end below every longer
    one.  Two windows cut short at different positions differ in length, so
    equal ranks at two positions mean equal full windows.

    The first levels are base-3 codes of the windows, letters 1 and 2 and
    end-of-text 0.  Comparing the codes compares the digits left to right,
    and a cut-short window is padded with zeros, below any letter, so the
    codes keep that order; five multiply-adds reach 32 letters without a
    sort.  Doubling with sorts starts from the dense ranks of those codes
    and stops only once no two suffixes tie, because the lifts in _lcp and
    _common_suffix start just below a level on which none do."""
    code = np.append(bits.astype(np.int64) + 1, 0)
    size = code.size
    levels = []
    span = 1
    while span < _PACKED_SPAN:
        levels.append(code.astype(np.int32))
        code = code * 3**span + _shifted(code, span)
        span *= 2
    rank = dense_ranks(code)
    levels.append(rank.astype(np.int32))
    while int(rank.max()) + 1 < size:
        rank = dense_ranks(rank * size + _shifted(rank, span))
        levels.append(rank.astype(np.int32))
        span *= 2
    return levels


def _lcp(levels: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Common-prefix lengths of the suffix pairs (i[t], j[t]), i[t] != j[t],
    by binary lifting down the rank levels.  A match never runs past the
    end, where the empty suffix differs from every other, so no index
    leaves the levels."""
    out = np.zeros(i.size, dtype=np.int64)
    for k in range(len(levels) - 2, -1, -1):
        same = levels[k][i + out] == levels[k][j + out]
        np.add(out, 1 << k, out=out, where=same)
    return out


def _common_suffix(levels: list[np.ndarray], i: np.ndarray, j: np.ndarray | int) -> np.ndarray:
    """Common-suffix lengths of the prefixes that end at i[t] < j[t], by
    lifting back down the same levels: each step compares the two windows
    that end just before the match found so far, which lie wholly inside."""
    out = np.zeros(i.size, dtype=np.int64)
    for k in range(len(levels) - 2, -1, -1):
        a = i - out - ((1 << k) - 1)
        fits = a >= 0
        a = np.maximum(a, 0)
        same = fits & (levels[k][a] == levels[k][a + (j - i)])
        np.add(out, 1 << k, out=out, where=same)
    return out


def _adjacent_lcp(levels: list[np.ndarray], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions [lo, hi) in suffix order, and the common-prefix lengths
    of neighbours in that order."""
    size = levels[0].size
    order = np.empty(size, dtype=np.int64)
    order[levels[-1]] = np.arange(size)
    order = order[(order >= lo) & (order < hi)]
    return order, _lcp(levels, order[:-1], order[1:])


def _pairs_by_lcp(adjacent: np.ndarray, size: int) -> np.ndarray:
    """pairs[v]: unordered pairs of suffixes that share exactly v letters,
    v in [0, size], given the common prefixes of neighbours in their suffix
    order.  The common prefix of two suffixes is the least adjacent value
    between them (Kasai et al. 2001).  Each adjacent value is credited with
    the intervals whose rightmost minimum it is: they reach left to just
    after the nearest smaller value and right to just before the nearest
    value not larger.  Both bounds come for every value at once by lifting
    over a min sparse table, table[k][t] = min(adjacent[t : t + 2^k])."""
    count = adjacent.size
    pairs = np.zeros(size + 1, dtype=np.int64)
    if not count:
        return pairs
    table = [adjacent.astype(np.int32)]
    while 1 << len(table) <= count:
        half = 1 << (len(table) - 1)
        table.append(np.minimum(table[-1][:-half], table[-1][half:]))
    value = table[0]
    index = np.arange(count)
    left = index.copy()
    right = index + 1
    for k in range(len(table) - 1, -1, -1):
        width = 1 << k
        mins = table[k]
        wider = (left >= width) & (mins[np.maximum(left - width, 0)] >= value)
        np.subtract(left, width, out=left, where=wider)
        wider = (right <= count - width) & (mins[np.minimum(right, count - width)] > value)
        np.add(right, width, out=right, where=wider)
    np.add.at(pairs, value, (index - left + 1) * (right - index))
    return pairs


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
    far-edge run on diagonal d is the common suffix of bits[:size-d] and
    bits, read off the same forward ranks.
    """
    window = _effective_window(h, m)
    if n < 2:
        raise DomainError(f"plot size must be at least 2, got {n}")
    size = n + window - 1
    bits = _require_prefix(x, size, f"plot of size {n} at window {window}")
    diagonals = np.arange(1, size)
    levels = _suffix_levels(bits)
    order, adjacent = _adjacent_lcp(levels, 0, size)
    far_runs = _common_suffix(levels, size - 1 - diagonals, size - 1)
    del levels  # free the ranks before the pair count builds its table: peak memory
    place = int(np.flatnonzero(order == 0)[0])
    zero_runs = np.zeros(size, dtype=np.int64)
    zero_runs[order[place + 1 :]] = np.minimum.accumulate(adjacent[place:])
    zero_runs[order[:place]] = np.minimum.accumulate(adjacent[:place][::-1])[::-1]
    zero_runs = zero_runs[1:]
    pairs = _pairs_by_lcp(adjacent, size)
    runs = pairs[:-1] - pairs[1:]
    zero = np.bincount(zero_runs[zero_runs < size - diagonals], minlength=size)
    nbd = np.bincount(far_runs, minlength=size)
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
    levels = _suffix_levels(bits)
    adjacent_starts = _adjacent_lcp(levels, 1, n)[1]
    adjacent_shifted = _adjacent_lcp(levels, 0, n - 1)[1]
    del levels  # free the ranks before the pair counts build their tables: peak memory
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
