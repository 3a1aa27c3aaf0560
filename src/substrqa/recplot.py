"""Symbolic recurrence plots and their diagonal-line structure.

The recurrence plot of a 0/1 sequence at threshold 2^-h marks the pairs of
positions whose length-h windows agree letter by letter.  Nothing here ever
materialises the n-by-n matrix except the small renderers: lines are found
per diagonal offset as maximal runs of a single-letter match indicator,
after two exact reductions collapse the parameter space:

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
from .substitution import BitSequence, window_codes

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
    return x.bits


def _match_runs(bits: np.ndarray, d: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of the indicator bits[t] == bits[t+d], t in [0, span)."""
    eq = (bits[:span] == bits[d : d + span]).astype(np.int8)
    delta = np.diff(eq, prepend=np.int8(0), append=np.int8(0))
    return np.flatnonzero(delta == 1), np.flatnonzero(delta == -1)


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

    Same line set as extract_lines, but only per-diagonal run lengths are
    ever held in memory, so n in the tens of thousands stays cheap.
    """
    window = _effective_window(h, m)
    if n < 2:
        raise DomainError(f"plot size must be at least 2, got {n}")
    size = n + window - 1
    bits = _require_prefix(x, size, f"plot of size {n} at window {window}")
    inner = np.zeros(size + 1, dtype=np.int64)
    zero = np.zeros(size + 1, dtype=np.int64)
    nbd = np.zeros(size + 1, dtype=np.int64)
    for d in range(1, size):
        limit = size - d
        starts, ends = _match_runs(bits, d, limit)
        lengths = ends - starts
        keep = lengths >= window
        if not keep.any():
            continue
        starts = starts[keep]
        ends = ends[keep]
        lengths = lengths[keep]
        z = starts == 0
        nb = ends == limit
        for acc, mask in ((inner, ~z & ~nb), (zero, z & ~nb), (nbd, nb)):
            if mask.any():
                c = np.bincount(lengths[mask])
                acc[: c.size] += c
    counts = {}
    for run_length in np.flatnonzero(inner + zero + nbd).tolist():
        length = run_length - window + 1
        counts[length] = (
            2 * int(inner[run_length]),
            2 * int(zero[run_length]),
            2 * int(nbd[run_length]),
        )
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

    Positions p in [1, n) are grouped by their word x[p..p+l), the classes
    refined one letter per length.  Within a class, a start pair is two
    positions whose flanks (x[p-1], x[p+l]) differ on both sides, so the
    class contributes 2 * (n00 * n11 + n01 * n10) ordered pairs -- the
    identity density_from_frequencies applies to block frequencies.
    """
    if max_length < 1:
        raise DomainError(f"maximum length must be positive, got {max_length}")
    if n < 2:
        raise DomainError(f"position bound must be at least 2, got {n}")
    bits = _require_prefix(
        x, n + max_length + 1, f"inner-line scan up to length {max_length}, bound {n}"
    ).astype(np.int64)
    counts = np.zeros(max_length + 1, dtype=np.int64)
    left = bits[: n - 1]
    classes = np.zeros(n - 1, dtype=np.int64)
    for length in range(1, max_length + 1):
        _, classes = np.unique(2 * classes + bits[length : n - 1 + length], return_inverse=True)
        flanks = 4 * classes + 2 * left + bits[1 + length : n + length]
        per_class = np.bincount(flanks, minlength=4 * (int(classes.max()) + 1)).reshape(-1, 4)
        counts[length] = 2 * int(
            (per_class[:, 0] * per_class[:, 3] + per_class[:, 1] * per_class[:, 2]).sum()
        )
    return counts


def _plot_matrix(x: BitSequence, n: int, h: int, m: int) -> np.ndarray:
    window = _effective_window(h, m)
    if n < 1:
        raise DomainError(f"plot size must be positive, got {n}")
    if n > RENDER_CAP:
        raise ResourceLimitError(f"rendering is capped at {RENDER_CAP}x{RENDER_CAP}, got n={n}")
    bits = _require_prefix(x, n + window - 1, f"render of size {n} at window {window}")
    codes = window_codes(bits[: n + window - 1], window)
    return codes[:, None] == codes[None, :]


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
