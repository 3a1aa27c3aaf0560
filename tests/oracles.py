"""Reference implementations that only the tests use.

Each is a slow or literal restatement of something the package computes
another way, or a readable view of a private table, kept here so the tests
can check the package against it.
"""

from fractions import Fraction

import numpy as np

from substrqa.densities import _block_frequencies_cached
from substrqa.recognizability import _residues
from substrqa.recplot import _match_runs, _require_prefix, window_labels


def iterate(sub, k: int) -> str:
    """The word sub^k(0), one string substitution at a time."""
    word = "0"
    for _ in range(k):
        word = sub.apply(word)
    return word


def composition_matrix(sub) -> np.ndarray:
    """2x2 integer matrix: entry [a, b] counts letter a in the image of b."""
    return np.array(
        [[image.count(letter) for image in sub.images] for letter in "01"], dtype=np.int64
    )


def block_frequencies(sub, length: int) -> dict[str, Fraction]:
    """Exact frequency of every allowed word of the given length, read off
    the integer table (D, {word: N}) that the density engine works on."""
    D, table = _block_frequencies_cached(sub, length)
    return {w: Fraction(n, D) for w, n in table.items()}


def window_classes(bits: np.ndarray, width: int) -> np.ndarray:
    """Class ids 0..k-1 of every length-`width` window of `bits`, numbered
    as the windows sort: the dense ranks of window_labels."""
    return np.unique(window_labels(bits, width), return_inverse=True)[1]


def recurrence_mass(hist) -> int:
    """Total off-diagonal recurrences of a LineHistogram: every marked cell
    lies in exactly one maximal line."""
    return sum(length * sum(buckets) for length, buckets in hist.counts.items())


def inner_line_starts(x, length: int, n: int) -> set[tuple[int, int]]:
    """Start pairs of inner length-`length` lines of the infinite plot, in [1, n)^2,
    walked diagonal by diagonal.

    A pair (i, j), i != j, qualifies when the windows x[i..i+length) and
    x[j..j+length) agree while the letters just before and just after both
    disagree, so maximality holds on both sides regardless of plot size.
    """
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


def smallest_period(text: str) -> int | None:
    """The smallest shift p <= len(text) / 2 under which the 0/1 text agrees
    with itself, text[i] == text[i + p] wherever both exist, tried one shift
    at a time; None if no such shift exists."""
    n = len(text)
    for p in range(1, n // 2 + 1):
        if text[: n - p] == text[p:]:
            return p
    return None


def reduce_eps(length: int, n: int, h: int) -> tuple[int, int]:
    """The (length, plot size) at threshold 1/2 of a length-l line of the
    n-plot at threshold 2^-h: the run is h - 1 letters longer, in a plot
    h - 1 letters larger, from the same start."""
    return (length + h - 1, n + h - 1)


def theta(n: int, h: int) -> Fraction:
    """Ratio of off-diagonal cell counts between the (n+h-1)- and n-plots."""
    big = n + h - 1
    return Fraction(big * big - big, n * n - n)


def recognizable_residue(sub, word: str) -> int | None:
    """The single residue mod q at which `word` occurs, or None if it
    occurs in more than one position class."""
    mask = _residues(sub, len(word))[word]
    if mask & (mask - 1):
        return None
    return mask.bit_length() - 1
