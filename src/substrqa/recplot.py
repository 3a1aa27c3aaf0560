"""Symbolic recurrence plots and their diagonal-line structure.

The recurrence plot of a 0/1 sequence at threshold 2^-h marks the pairs of
positions whose length-h windows agree letter by letter.  Nothing here ever
materialises the n-by-n matrix except the small renderers.  Line counts
come from one suffix-order kernel: a maximal run on diagonal d that starts
at s is the common prefix of suffixes s and s+d, so counting suffix pairs
by exact common-prefix length counts lines.  Each plot builds one set of
prefix-doubling keys: level 0 packs 64 - b one-bit letters, where b is
the bit length of the position, read off np.packbits bytes with one shift
per bit offset, and each later level as many short ranks as fit beside
the position, so a sort covers several doublings (5 sorts at 2^14
letters, 8 or 9 at 2^20).  Each sort is a value sort of the key
tagged with its position, and the last is the suffix order.  A level
keeps only the ranks its keys pack, level 0 its letters and an end
marker, and common prefixes of suffix-order neighbours compare two keys'
digits per level, the same way on every level, but only at the few dozen
run heads of the Burrows-Wheeler transform; the rest follow from
PLCP[i] = PLCP[i-1] - 1.  One pointer-jumping search finds the nearest
smaller neighbours on both sides, which bound each pair count and each
suffix-order interval of the occurrences of a final segment, whose sizes
count the far-edge runs: a few dozen rounds on fixed-point prefixes, but
a round per step of each long rising run a periodic text has.  A level
costs one O(n log n) sort and 1 to 4 bytes a letter, with no per-suffix
Python loop.  This is the one module that packs letters into keys: the
renderers and rqa's correlation sums compare window_labels, read off the
same packed words.  extract_lines keeps the walk along each diagonal as
the reference the kernel is tested against.  Two exact reductions
collapse the parameter space:

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

from ._numpy import np
from .errors import DomainError, ParseError, ResourceLimitError, as_fraction, at_least
from .substitution import BitSequence

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

    def excluding_n_boundary(self) -> "LineHistogram":
        kept = {}
        for length, (inner, zero, _) in self.counts.items():
            if inner or zero:
                kept[length] = (inner, zero, 0)
        return LineHistogram(n=self.n, h=self.h, m=self.m, counts=kept)


def _plot_args(n: int, h: int, m: int, least: int) -> tuple[int, int, int, int]:
    """n (at least `least`), h and m as checked ints, and the window h + m - 1."""
    n, h = at_least(n, least, "plot size"), at_least(h, 1, "threshold exponent h")
    m = at_least(m, 1, "embedding dimension m")
    return n, h, m, h + m - 1


def _require_prefix(x: BitSequence, need: int, what: str) -> np.ndarray:
    """x's first need letters; ParseError unless x is a BitSequence."""
    if not isinstance(x, BitSequence):
        raise ParseError(f"prefix must be a BitSequence, got {x!r}")
    if len(x) < need:
        raise DomainError(f"{what} needs a prefix of at least {need} letters, got {len(x)}")
    return x.bits[:need]


def _match_runs(bits: np.ndarray, d: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of the indicator bits[t] == bits[t+d], t in [0, span)."""
    eq = (bits[:span] == bits[d : d + span]).astype(np.int8)
    delta = np.diff(eq, prepend=np.int8(0), append=np.int8(0))
    return np.flatnonzero(delta == 1), np.flatnonzero(delta == -1)


def _packed_words(bits: np.ndarray) -> np.ndarray:
    """The big-endian uint64 word of np.packbits(bits) at every byte
    offset, 0 past the end (a view with a 1-byte stride, copied)."""
    letters = bits.size
    packed = np.zeros(letters // 8 + 8, dtype=np.uint8)
    packed[: -(-letters // 8)] = np.packbits(bits)
    return np.ndarray(letters // 8 + 1, ">u8", packed, strides=(1,)).astype(np.uint64)


def _window_keys(words: np.ndarray, count: int, width: int) -> np.ndarray:
    """The width-letter windows at [0, count) as uint64 keys, first letter
    highest: _packed_words shifted left by all 8 bit offsets in one
    broadcast, then right by 64 - width.  Exact for width <= 57; a wider
    key reads 0 for letters past its word, which only a text under 64
    letters asks for, and there they lie past its end."""
    keys = (words[:, None] << np.arange(8, dtype=np.uint64)).reshape(-1)[:count]
    keys >>= np.uint64(64 - width)
    return keys


def window_labels(bits: np.ndarray, width: int) -> np.ndarray:
    """A label for every length-`width` window of `bits`, equal exactly
    when the windows are equal letter by letter and sorted as they are:
    its _window_keys key up to 57 letters, past that the dense ranks of
    its 57-letter pieces' keys combined one piece at a time, first piece
    highest.  Requires 1 <= width <= len(bits)."""
    width = at_least(width, 1, "window width")
    count = int(bits.size) - width + 1
    if count <= 0:
        raise DomainError(f"sequence of length {bits.size} has no windows of width {width}")
    words = _packed_words(bits)
    labels = _window_keys(words, count, min(width, 57))
    for start in range(57, width, 57):
        piece = _window_keys(words, start + count, min(width - start, 57))[start:]
        high, low = (np.unique(keys, return_inverse=True)[1] for keys in (labels, piece))
        labels = high * count + low
    return labels


class _Level(NamedTuple):
    """One prefix-doubling level: its key at i packs `digits` ranks, the
    first highest, of the windows of `span` letters that start at
    i + offsets.  Its keys are read back from `ranks`: on level 0 the
    letters followed by an end marker 2, later the level below's dense
    ranks in the narrowest unsigned dtype."""

    ranks: np.ndarray
    span: int
    digits: int
    offsets: np.ndarray


def _shift_or(high: np.ndarray, low: np.ndarray, shift: int, offset: int) -> np.ndarray:
    """high << shift, or'ed at each i with low[i + offset], zero past the end."""
    out = high << np.uint64(shift)
    out[: max(out.size - offset, 0)] |= low[offset:]
    return out


def _pack(ranks: np.ndarray, span: int, width: int, digits: int) -> np.ndarray:
    """uint64 keys of `digits` consecutive span-letter ranks, for the levels
    above 0: shift-or doubling from a uint64 copy (numpy shifts narrow
    arrays more slowly), and one more shift-or that appends a rank for each
    set bit of the digit count below its top."""
    keys, packed = ranks.astype(np.uint64), 1
    for bit in bin(digits)[3:]:
        keys = _shift_or(keys, keys, width * packed, span * packed)
        packed *= 2
        if bit == "1":
            keys = _shift_or(keys, ranks, width, span * packed)
            packed += 1
    return keys


def _digits(level: _Level, at: np.ndarray) -> np.ndarray:
    """The digits of a level's keys at positions `at`, along a new last
    axis: mode "clip" reads the last rank past the end, level 0's end
    marker and later the empty suffix's rank 0."""
    return level.ranks.take(at[..., None] + level.offsets, mode="clip")


def _suffix_levels(bits: np.ndarray) -> tuple[list[_Level], np.ndarray]:
    """Prefix-doubling ranks (Manber & Myers 1993) of the suffixes of bits,
    the empty one at position len(bits) included, with many digits per
    sort, and the suffix order.

    Each level sorts its keys by value, with the reversed position
    len(bits) - i in the low b = len(bits).bit_length() bits: a mask then
    reads off the suffix order and a shift the sorted keys, with no argsort
    and no gather.  Level 0 packs 64 - b letters, one bit each, and 0 past
    the end: _window_keys at width 64 - b, two passes over the keys where
    _pack's doubling takes six or seven.  A window cut short by the end has
    a smaller reversed position than every window it is a prefix of, so it
    sorts before them, and each suffix shorter than one key starts a class
    of its own: rank 0 is the empty suffix alone.  Level 0 keeps, as the
    ranks its digits read, the letters followed by an end marker 2, so a
    suffix cut short differs from every other where it ends, as its key's
    class does; the packed words go once its keys are built.  Each later
    level packs the dense ranks of the level below, as many as fit beside
    the position when that is at least three, and as many as fit 64 bits,
    sorted by argsort, when it is not (only past 2^16 letters).  Its span
    is the span below times that many.  Digits past the end are 0, and a
    window cut short ends in a rank that only its own position has, so on
    levels above 0 equal keys mean equal full windows.  Comparing keys
    compares their digits left to right.  A fixed-point prefix has few
    distinct windows of each length, so the ranks are short and each sort
    covers many doublings.  Levels stop once no two sorted neighbours tie,
    because the lift in _lcp starts on a level on which none do, and that
    level's sort is the suffix order.  Keys and sort scratch are dropped
    before the next level is packed (a 570-581 KiB peak at 2^14 letters)."""
    letters = bits.size
    shift = letters.bit_length()
    free = 64 - shift
    tags = np.arange(letters, -1, -1, dtype=np.uint64)
    keys = _window_keys(_packed_words(bits), letters + 1, free)
    levels = [_Level(np.concatenate((bits, [np.uint8(2)])), 1, free, np.arange(free))]
    tagged = True
    while True:
        level = levels[-1]
        if tagged:
            keys <<= np.uint64(shift)
            keys |= tags
            keys.sort()
            order = (keys & np.uint64((1 << shift) - 1)).view(np.int64)
            np.subtract(letters, order, out=order)
            keys >>= np.uint64(shift)
        else:
            order = np.argsort(keys)
            keys = keys[order]
        fresh = keys[1:] != keys[:-1]
        del keys
        if level.span == 1:
            # A suffix shorter than one key is a class of its own.
            fresh |= order[:-1] > letters - free
        if fresh.all():
            return levels, order
        top = int(np.count_nonzero(fresh))
        ranks = np.empty(letters + 1, dtype=np.min_scalar_type(top))
        ranks[letters] = 0  # the empty suffix, always first
        ranks[order[1:]] = np.cumsum(fresh, dtype=ranks.dtype)
        del order, fresh
        span = level.span * level.digits
        width = top.bit_length()
        digits = free // width
        tagged = digits >= 3
        if not tagged:
            digits = 64 // width
        levels.append(_Level(ranks, span, digits, np.arange(0, digits * span, span)))
        keys = _pack(ranks, span, width, digits)


def _lcp(levels: list[_Level], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Common-prefix lengths of the suffix pairs (i[t], j[t]), i[t] != j[t],
    the empty suffix included, by lifting down the levels (plots lift only
    BWT run heads, see _neighbour_lcp).  On each level the two keys at the
    match so far differ, and the first of their digits that differs counts
    the equal ones.  On level 0 a suffix that ends first meets the end
    marker where the other has a letter, so its match stops at its own
    length."""
    pairs = np.array((i, j))
    out = np.zeros(i.size, dtype=np.int64)
    for level in reversed(levels):
        digits = _digits(level, pairs + out)
        out += (digits[0] != digits[1]).argmax(axis=-1) * level.span
    return out


def _neighbour_lcp(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty suffixes of bits in suffix order, and each one's common
    prefix PLCP[i] with the suffix p just before it (the empty suffix, so
    0, for the first).  When i and p follow one letter c, nothing sorts
    between c + suffix p and c + suffix i, so PLCP[i] = PLCP[i-1] - 1
    (Karkkainen, Manzini & Puglisi 2009).  So _lcp lifts only where the
    letter before changes (2 before suffix 0): the run heads of the BWT of
    the text with an end marker, a few dozen on a fixed-point prefix.
    PLCP[i] + i never falls (Kasai et al. 2001), so it is a running maximum
    between heads."""
    levels, order = _suffix_levels(bits)
    before = np.concatenate(([np.uint8(2)], bits))[order]
    heads = np.flatnonzero(before[1:] != before[:-1]) + 1
    lifted = _lcp(levels, order[heads - 1], order[heads])
    del levels  # free the ranks before the fill: peak memory
    reach = np.zeros(order.size, dtype=np.int64)
    reach[order[heads]] = lifted + order[heads]
    np.maximum.accumulate(reach, out=reach)
    order = order[1:]  # the empty suffix sorts first
    return order, reach[order] - order


def _smaller_bounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each t, the nearest s < t with values[s] < values[t] (-1 where
    there is none) and the nearest s > t with values[s] <= values[t]
    (values.size where there is none).  Values must be non-negative
    integers below 2^31: the search compares int32 copies and indexes
    with intp, which numpy gathers by without a cast.

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
    reach = np.concatenate((values, [-1], values[::-1], [-1]), dtype=np.int32)
    below = reach.copy()
    below[:count] += 1
    # Two rounds by slicing leave 5/8 to 3/4 of the indices one would, for
    # the first gather: a plot's peak memory.  The -1s look for nothing.
    near = reach[1:] >= below[:-1]
    near[count] = False
    far = near[:-1] & (reach[2:] >= below[:-2])
    target = np.arange(1, 2 * half + 1)
    target[:-1] += near
    target[:-2] += far
    target[:-3] += far[:-1] & near[2:]
    active = np.flatnonzero(far)
    del near, far
    while active.size:
        active = active.compress(reach[target[active]] >= below[active])
        target[active] = target[target[active]]
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
    np.add.at(pairs, adjacent, np.multiply(index - left, right - index, out=index))
    return pairs


def _far_edge_runs(order: np.ndarray, adjacent: np.ndarray, right: np.ndarray) -> np.ndarray:
    """nbd[L]: diagonals whose run ending on the far edge has length L, for
    L in [0, n), given the n nonempty suffixes of the text in suffix order,
    their adjacent common prefixes (see _neighbour_lcp) and the right
    bounds of _smaller_bounds.  A far-edge run of length at least L holds
    exactly one pair that shares exactly the last L letters, the suffix at
    p = n - L, so these runs number occ(L), the other suffixes that start
    with suffix p, and nbd[L] = occ(L) - occ(L+1).  Those suffixes follow
    p's rank in its suffix-order interval.  When there are any, p's
    adjacent value is L, and the interval ends at the first rank after
    p's whose adjacent value is below L.  The nearest value not above L
    lands there or on the one other value equal to L in the interval: in
    a binary text, the boundary between the copies followed by 0 and
    those followed by 1, whose own bound is the interval's end."""
    size = order.size
    # The last rank has no neighbour: -1 ends every interval there.
    reach = np.concatenate((adjacent, [-1]))
    first = np.flatnonzero(adjacent == size - order[:-1])
    length = adjacent[first]
    last = right[first]
    hop = reach[last] == length
    last[hop] = right[last[hop]]
    occ = np.zeros(size + 1, dtype=np.int64)
    occ[length] = last - first
    nbd = occ[:-1] - occ[1:]
    nbd[0] = 0  # no run is empty
    return nbd


def _threshold_fraction(eps) -> Fraction:
    """eps as an exact Fraction, refused unless it is a number strictly
    between 0 and 1: at eps >= 1 every pair of positions would recur."""
    frac = as_fraction(eps, "threshold")
    if not 0 < frac < 1:
        raise DomainError(f"threshold must lie strictly between 0 and 1, got {eps!r}")
    return frac


def quantize_eps(eps) -> int:
    """Smallest h with 2^-h <= eps.

    Window distances only take the values 2^-i, so thresholding at eps and
    at 2^-h mark identical plots.  Rejects eps outside (0, 1).
    """
    frac = _threshold_fraction(eps)
    # 2^-h <= eps exactly when 2^h >= ceil(1/eps).
    return (-(-frac.denominator // frac.numerator) - 1).bit_length()


def rp_entry(x: BitSequence, i: int, j: int, h: int) -> bool:
    """Whether positions i and j recur at threshold 2^-h: equal h-windows."""
    i, j = at_least(i, 0, "position i"), at_least(j, 0, "position j")
    h = at_least(h, 1, "threshold exponent h")
    bits = _require_prefix(x, max(i, j) + h, f"pair ({i}, {j}) at window {h}")
    return bool(np.array_equal(bits[i : i + h], bits[j : j + h]))


def extract_lines(x: BitSequence, n: int, h: int, *, m: int = 1) -> list[LineTriple]:
    """Every maximal off-diagonal line of the n-by-n plot, both orientations.

    Intended for small plots and cross-checks; histogram() is the bulk path.
    """
    n, h, m, window = _plot_args(n, h, m, 2)
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
    far-edge runs of length >= L number the occurrences of the last L
    letters elsewhere, read off the same suffix order (see _far_edge_runs).
    """
    n, h, m, window = _plot_args(n, h, m, 2)
    size = n + window - 1
    bits = _require_prefix(x, size, f"plot of size {n} at window {window}")
    order, common = _neighbour_lcp(bits)
    adjacent = common[1:]
    place = int(np.flatnonzero(order == 0)[0])
    left, right = _smaller_bounds(adjacent)
    pairs = _pairs_by_lcp(adjacent, left, right, size)
    del left  # each full-length array is dropped once read: peak memory
    nbd = _far_edge_runs(order, adjacent, right)
    del right
    # lcp(0, d) at each rank, a running minimum outwards; suffix 0's own
    # slot reads size, so the far-edge test below drops it.
    zero_runs = np.empty_like(order)
    zero_runs[place] = size
    np.minimum.accumulate(adjacent[:place][::-1], out=zero_runs[:place][::-1])
    np.minimum.accumulate(adjacent[place:], out=zero_runs[place + 1 :])
    zero = np.bincount(zero_runs.compress(zero_runs < size - order), minlength=size)
    runs = (pairs[:-1] - pairs[1:])[window:]
    lengths = np.flatnonzero(runs)
    zero, nbd = 2 * zero[window:][lengths], 2 * nbd[window:][lengths]
    inner = 2 * runs[lengths] - zero - nbd
    buckets = zip(inner.tolist(), zero.tolist(), nbd.tolist())
    counts = dict(zip((lengths + 1).tolist(), buckets))
    return LineHistogram(n=n, h=h, m=m, counts=counts)


def reduce_embedding(m: int, eps):
    """Threshold seen by the raw sequence in place of its m-letter embedding."""
    m = at_least(m, 1, "embedding dimension m")
    _threshold_fraction(eps)
    return eps / (1 << (m - 1))


def inner_line_counts(x: BitSequence, n: int, max_length: int) -> np.ndarray:
    """Cardinalities of the inner-line start sets for every length at once.

    result[l] counts the ordered pairs (i, j), i != j, in [1, n)^2 whose
    windows x[i..i+l) and x[j..j+l) agree while the letters just before and
    just after both disagree, for 1 <= l <= max_length; result[0] is zero.

    Equal windows whose letters just after differ share exactly l letters,
    so result[l] counts the pairs in [1, n) whose suffixes share exactly l
    letters and whose letters just before differ: as in _pairs_by_lcp, but
    each adjacent value in [1, max_length] gets A0*B1 + A1*B0, Ac and Bc the
    kept ranks (positions in [1, n)) after letter c inside its bounds, on
    its left and right.  Values up to max_length are bounded by values up
    to max_length, so the search skips the others.
    """
    n, max_length = at_least(n, 2, "position bound"), at_least(max_length, 1, "maximum length")
    bits = _require_prefix(
        x, n + max_length + 1, f"inner-line scan up to length {max_length}, bound {n}"
    )
    order, common = _neighbour_lcp(bits)
    # follows[c, r]: kept ranks below r after letter c (suffix 0 is not kept).
    follows = np.zeros((2, bits.size + 1), dtype=np.int32)
    follows[:, 1:] = (order >= 1) & (order < n) & (bits[order - 1] == [[0], [1]])
    np.cumsum(follows, axis=1, out=follows)
    adjacent = common[1:]
    credited = np.flatnonzero(adjacent <= max_length)
    # follows at each credited index, then at the search's ends k and -1.
    at = follows[:, np.append(credited, (adjacent.size, -1)) + 1]
    left, right = _smaller_bounds(adjacent[credited])
    head = at[:, :-2] - at[:, left]
    tail = at[:, right] - at[:, :-2]
    counts = np.zeros(max_length + 1, dtype=np.int64)
    np.add.at(counts, adjacent[credited], np.einsum("ct,ct->t", head, tail[::-1], dtype=np.int64))
    counts[0] = 0
    return 2 * counts


def _require_renderable(n: int) -> None:
    if at_least(n, 1, "plot size") > RENDER_CAP:
        raise ResourceLimitError(f"rendering is capped at {RENDER_CAP}x{RENDER_CAP}, got n={n}")


def _plot_matrix(x: BitSequence, n: int, h: int, m: int) -> tuple[int, np.ndarray]:
    n, h, m, window = _plot_args(n, h, m, 1)
    _require_renderable(n)
    bits = _require_prefix(x, n + window - 1, f"render of size {n} at window {window}")
    labels = window_labels(bits, window)
    return n, labels[:, None] == labels[None, :]


def render_ascii(x: BitSequence, n: int, h: int, *, m: int = 1) -> str:
    """The plot as '#' (recurrent) and '.' rows, row 0 first."""
    n, matrix = _plot_matrix(x, n, h, m)
    out = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    out[:, :n] = np.where(matrix, np.uint8(ord("#")), np.uint8(ord(".")))
    return out.tobytes().decode("ascii")


def render_pgm(x: BitSequence, n: int, h: int, *, m: int = 1) -> bytes:
    """The plot as a binary PGM image, recurrent cells white, row 0 on top."""
    n, matrix = _plot_matrix(x, n, h, m)
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    return header + (matrix.astype(np.uint8) * np.uint8(255)).tobytes()
