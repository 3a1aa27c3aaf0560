"""Language and recognizability constants of substitution fixed points.

For a primitive aperiodic substitution whose image of 0 starts with 0, the
fixed point decomposes uniquely into image blocks, and a long enough window
around a position reveals where its enclosing block starts.  This module
measures the lengths at which windows become decisive, by direct occurrence
scans over fixed-point prefixes: a prefix is doubled until the collected
word set and occurrence residues stop changing, and a hard cap turns a
non-stabilising scan into an error instead of a silently wrong constant.

Computed constants, for images of common length q:

* ``alpha`` / ``beta``: longest common prefix / suffix of the two images.
* ``c``: the rational (alpha+beta)/(q-1); the length-scaling offset that
  makes one substitution step send gap length l to q*l + alpha + beta.
* ``K``: the smallest window excess such that equal windows of length K+1
  agree about divisibility of their positions by q.
* ``R``: the smallest length above alpha+beta at which every allowed word
  occurs in a single position class mod q.
* ``R0``: the smallest positive length whose substitution step reaches R,
  i.e. minimal with R0*q + alpha + beta >= R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DiscrepancyError, DomainError, ParseError, SaturationError
from .substitution import ALPHABET, SubshiftKind, Substitution, window_classes

__all__ = [
    "LANGUAGE_LENGTH_CAP",
    "SCAN_CAP",
    "LanguageSlice",
    "RecogConstants",
    "alpha_beta",
    "is_recognizable_word",
    "language_slice",
    "recognizability_constants",
]

# Longest prefix an occurrence scan may grow to before giving up.
SCAN_CAP = 1 << 24

# Scans stop at 64 letters, so square-normalized forms whose R lies past it
# are refused with SaturationError; lifting the cap is ROADMAP item 3.
LANGUAGE_LENGTH_CAP = 64


@dataclass(frozen=True)
class RecogConstants:
    """Recognizability constants of one normalized substitution.

    Carries the image length q as well so that length arithmetic built on
    these constants does not need the substitution itself."""

    alpha: int
    beta: int
    c: Fraction
    K: int
    R: int
    R0: int
    q: int


@dataclass(frozen=True)
class LanguageSlice:
    """All allowed words of one length, collected from a stabilised scan."""

    length: int
    words: frozenset[str]


def _require_normalized_aperiodic(sub: Substitution) -> None:
    if sub.image0[0] != "0":
        raise DomainError(
            "recognizability scans need the image of 0 to start with 0; normalize() first"
        )
    kind = sub.classify().kind
    if kind is not SubshiftKind.PRIMITIVE_APERIODIC:
        raise DomainError(f"recognizability is defined for primitive aperiodic substitutions, not {kind.value}")


def _residue_profile(sub: Substitution, length: int, n: int) -> dict[str, frozenset[int]]:
    """Map each length-`length` word of the prefix of size n to the set of
    residues mod q at which it occurs there."""
    prefix = sub.fixed_point_prefix(n)
    classes = window_classes(prefix.bits, length)
    positions = np.arange(classes.size)
    count = int(classes.max()) + 1
    first = np.full(count, classes.size)
    np.minimum.at(first, classes, positions)
    hits = np.bincount(classes * sub.q + positions % sub.q, minlength=count * sub.q)
    return {
        prefix[p : p + length].to01(): frozenset(np.flatnonzero(row).tolist())
        for p, row in zip(first.tolist(), hits.reshape(count, sub.q))
    }


@lru_cache(maxsize=256)
def _saturated_residue_profile(sub: Substitution, length: int) -> dict[str, frozenset[int]]:
    """Occurrence residues per word, grown until stable across a doubling."""
    if length > LANGUAGE_LENGTH_CAP:
        raise SaturationError(f"occurrence scans support lengths up to {LANGUAGE_LENGTH_CAP}, got {length}")
    n = max(1024, 64 * length * sub.q)
    previous = _residue_profile(sub, length, n)
    while True:
        if 2 * n > SCAN_CAP:
            raise SaturationError(
                f"occurrence residues for length {length} did not stabilise below {SCAN_CAP} letters"
            )
        n *= 2
        current = _residue_profile(sub, length, n)
        if current == previous:
            return current
        previous = current


def language_slice(sub: Substitution, length: int) -> LanguageSlice:
    """All allowed words of the given length in the subshift of `sub`."""
    _require_normalized_aperiodic(sub)
    if length < 1:
        raise DomainError(f"word length must be positive, got {length}")
    return LanguageSlice(length=length, words=frozenset(_saturated_residue_profile(sub, length)))


def alpha_beta(sub: Substitution) -> tuple[int, int, Fraction]:
    """Longest common prefix/suffix lengths of the two images, and their
    normalised sum (alpha+beta)/(q-1)."""
    if sub.image0 == sub.image1:
        raise DomainError("common affix lengths need distinct images")
    alpha = 0
    while sub.image0[alpha] == sub.image1[alpha]:
        alpha += 1
    beta = 0
    while sub.image0[-1 - beta] == sub.image1[-1 - beta]:
        beta += 1
    return alpha, beta, Fraction(alpha + beta, sub.q - 1)


def is_recognizable_word(sub: Substitution, word: str) -> int | None:
    """The single residue mod q at which `word` occurs, or None if it
    occurs in more than one position class."""
    _require_normalized_aperiodic(sub)
    if not word:
        raise DomainError("word must be nonempty")
    bad = set(word) - set(ALPHABET)
    if bad:
        raise ParseError(f"word contains {sorted(bad)!r}; only 0 and 1 are allowed")
    residues = _saturated_residue_profile(sub, len(word)).get(word)
    if residues is None:
        raise DomainError(f"word {word!r} does not occur in the subshift")
    if len(residues) == 1:
        return next(iter(residues))
    return None


@lru_cache(maxsize=64)
def recognizability_constants(sub: Substitution) -> RecogConstants:
    """Scan the fixed point for the constants described in the module docs.

    The independently scanned K and R are cross-checked against the
    sandwich K+1 <= R <= K+q; disagreement raises DiscrepancyError since it
    would mean one of the scans returned an unstable verdict.
    """
    _require_normalized_aperiodic(sub)
    alpha, beta, c = alpha_beta(sub)
    q = sub.q

    length = alpha + beta + 1
    while True:
        if length > LANGUAGE_LENGTH_CAP:
            raise SaturationError(f"no fully recognizable length found up to {LANGUAGE_LENGTH_CAP}")
        profile = _saturated_residue_profile(sub, length)
        if all(len(res) == 1 for res in profile.values()):
            R = length
            break
        length += 1

    window = 2
    while True:
        if window > LANGUAGE_LENGTH_CAP:
            raise SaturationError(f"no decisive divisibility window found up to {LANGUAGE_LENGTH_CAP}")
        profile = _saturated_residue_profile(sub, window)
        # A window is decisive when no word occurs both at a multiple of q
        # and away from one.
        if all(0 not in res or res == {0} for res in profile.values()):
            K = window - 1
            break
        window += 1

    if not K + 1 <= R <= K + q:
        raise DiscrepancyError(
            f"recognizability scans disagree: K={K}, R={R} violate K+1 <= R <= K+q for q={q}"
        )
    R0 = max(1, -(-(R - alpha - beta) // q))
    return RecogConstants(alpha=alpha, beta=beta, c=c, K=K, R=R, R0=R0, q=sub.q)
