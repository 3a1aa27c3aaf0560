"""Language and recognizability constants of substitution fixed points.

For a primitive aperiodic substitution whose image of 0 starts with 0, the
fixed point decomposes uniquely into image blocks, and a long enough window
around a position reveals where its enclosing block starts.  This module
reads the lengths at which windows become decisive off the substitution
itself, by desubstitution: an occurrence of a word at position q*i + r lies
inside the image of a shorter word at position i, so the allowed words of
each length, and the residues mod q at which each occurs, come exactly from
the shorter ones (the induced block substitution; Queffelec, Substitution
Dynamical Systems, LNM 1294, ch. 5).  The recursion bottoms out at the two
letters and at the 2-words, which are a least fixed point under taking the
2-factors of images.

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

from .errors import DiscrepancyError, DomainError, at_least
from .substitution import ALPHABET, SubshiftKind, Substitution

_LETTERS = dict.fromkeys(ALPHABET)


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


def require_normalized_aperiodic(sub: Substitution) -> None:
    """The domain of every exact computation: a primitive aperiodic
    substitution whose image of 0 starts with 0."""
    if sub.image0[0] != "0":
        raise DomainError("exact analysis needs the image of 0 to start with 0; normalize() first")
    kind = sub.classify().kind
    if kind is not SubshiftKind.PRIMITIVE_APERIODIC:
        raise DomainError(f"exact analysis is defined for primitive aperiodic substitutions, not {kind.value}")


def desubstitute(sub: Substitution, length: int, source):
    """Cut every length-`length` word out of the images of source words.

    An occurrence of a word w of length m at position q*i + r of the fixed
    point lies inside the image of the word u of length ceil((r+m)/q) at
    position i, so w = sub.apply(u)[r : r+m].  `source(s)` maps the allowed
    s-words to values; yields (r, value of u, w) for every residue r and
    every such u.
    """
    q = sub.q
    images = str.maketrans({"0": sub.image0, "1": sub.image1})
    cut: dict[int, list] = {}  # each source length's (value, image of u), made once
    for r in range(q):
        s = -(-(r + length) // q)
        if s not in cut:
            cut[s] = [(value, u.translate(images)) for u, value in source(s).items()]
        for value, image in cut[s]:
            yield r, value, image[r : r + length]


def _two_words(sub: Substitution) -> dict[str, None]:
    # The least set that holds the 2-factors inside both images and is
    # closed under taking the 2-factors of its words' images.
    words: dict[str, None] = {}
    while True:
        grown = {w: None for _, _, w in desubstitute(sub, 2, lambda s: words if s == 2 else _LETTERS)}
        if grown == words:
            return words
        words = grown


@lru_cache(maxsize=256)
def _residues(sub: Substitution, length: int) -> dict[str, int]:
    """Map each allowed word of the given length to its residues mod q, as
    a mask whose bit r is set when the word occurs at residue r.

    Only length 2 has source words as long as its own, the 2-word closure;
    from length 3 on every source word is shorter, so the recursion ends at
    the letters and that closure."""

    def source(s: int):
        if s == 1:
            return _LETTERS
        return _two_words(sub) if s == length else _residues(sub, s)

    found: dict[str, int] = {}
    for r, _, w in desubstitute(sub, length, source):
        found[w] = found.get(w, 0) | 1 << r
    return found


def language_slice(sub: Substitution, length: int) -> frozenset[str]:
    """The allowed words of the given length in the subshift of `sub`, read
    off the substitution by desubstitution."""
    require_normalized_aperiodic(sub)
    return frozenset(_residues(sub, at_least(length, 1, "word length")))


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


@lru_cache(maxsize=64)
def recognizability_constants(sub: Substitution) -> RecogConstants:
    """The constants described in the module docs, from exact residues.

    K and R come from two separate searches over the residue maps and are
    cross-checked against the sandwich K+1 <= R <= K+q; disagreement raises
    DiscrepancyError.  Both searches end, because a primitive aperiodic
    substitution is recognizable (Mosse 1992, 1996).
    """
    require_normalized_aperiodic(sub)
    alpha, beta, c = alpha_beta(sub)
    q = sub.q

    R = alpha + beta + 1
    while any(m & (m - 1) for m in _residues(sub, R).values()):
        R += 1

    # A window is decisive when no word occurs both at a multiple of q and
    # away from one.
    window = 2
    while any(m & 1 and m & (m - 1) for m in _residues(sub, window).values()):
        window += 1
    K = window - 1

    if not K + 1 <= R <= K + q:
        raise DiscrepancyError(
            f"recognizability constants disagree: K={K}, R={R} violate K+1 <= R <= K+q for q={q}"
        )
    R0 = max(1, -(-(R - alpha - beta) // q))
    return RecogConstants(alpha=alpha, beta=beta, c=c, K=K, R=R, R0=R0, q=sub.q)
