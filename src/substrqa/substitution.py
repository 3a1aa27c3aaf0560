"""Binary constant-length substitutions and their fixed points.

A substitution maps each of the letters 0 and 1 to a word of one common
length q >= 2 over {0, 1}.  Once the image of 0 starts with 0, iterating
from the letter 0 converges to an infinite fixed point; its orbit closure
is the subshift every other module works on.  This module provides parsing,
primitivity/periodicity classification, the start-with-0 normal form, and
fast fixed-point prefixes as numpy bit arrays (recplot packs their windows).
Parsing and classification are integer arithmetic on the two images and
touch no array, so they run before, and without, numpy's import.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ._numpy import np
from .errors import DomainError, ParseError, ResourceLimitError, as_text, at_least

ALPHABET = "01"

# Longest fixed-point prefix we are willing to materialise, in letters.
FIXED_POINT_CAP = 1 << 26

_SWAP = str.maketrans("01", "10")


class BitSequence:
    """A finite 0/1 sequence backed by a read-only numpy uint8 array."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        try:
            raw = np.asarray(bits)
        except (TypeError, ValueError) as exc:
            raise ParseError("bit sequence must be one-dimensional") from exc
        if raw.ndim != 1:
            raise ParseError("bit sequence must be one-dimensional")
        # Other dtypes are checked before the cast, which would wrap -1 and
        # 256 and truncate 0.7; a uint8 array is checked once, after it.
        if raw.dtype != np.uint8 and (
            raw.dtype.kind not in "biuf" or not ((raw == 0) | (raw == 1)).all()
        ):
            raise ParseError("bit sequence entries must be 0 or 1")
        arr = raw.astype(np.uint8)
        if arr.size and int(arr.max()) > 1:
            raise ParseError("bit sequence entries must be 0 or 1")
        arr.setflags(write=False)
        self.bits = arr

    @classmethod
    def from_text(cls, text: str) -> "BitSequence":
        bad = set(as_text(text, "bit sequence")) - set(ALPHABET)
        if bad:
            raise ParseError(f"bit text contains {sorted(bad)!r}; only 0 and 1 are allowed")
        arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(arr)

    def to01(self) -> str:
        return (self.bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")

    def __len__(self) -> int:
        return int(self.bits.size)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitSequence(self.bits[idx])
        return int(self.bits[idx])

    def __iter__(self):
        return iter(int(b) for b in self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    __hash__ = None

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitSequence({self.to01()!r})"
        return f"BitSequence({self[:32].to01()!r}..., len={len(self)})"


class Normalization(str, enum.Enum):
    """How a substitution was brought to the image0-starts-with-0 form."""

    IDENTITY = "identity"
    LETTER_SWAP = "letter_swap"
    SQUARE = "square"


class SubshiftKind(str, enum.Enum):
    """Coarse classification of the subshift a substitution generates."""

    PRIMITIVE_APERIODIC = "primitive_aperiodic"
    PRIMITIVE_PERIODIC = "primitive_periodic"
    # One letter maps to its own constant block and absorbs the dynamics.
    NONPRIMITIVE_PROXIMAL = "nonprimitive_proximal"
    # Both images are constant blocks; the subshift holds only constant points.
    NONPRIMITIVE_TRIVIAL = "nonprimitive_trivial"


@dataclass(frozen=True)
class Classification:
    """The kind of subshift, and the normal form and normalization behind it.

    normalized and normalization are what normalize() returns, for every
    kind.  absorbing_letter is the letter whose constant image absorbs a
    proximal form, named in the letters of the substitution as given, not
    of its normal form; period is the smallest period of a periodic form's
    normalized fixed point.  Both are None for every other kind.
    """

    kind: SubshiftKind
    normalized: "Substitution"
    normalization: Normalization
    absorbing_letter: int | None = None
    period: int | None = None


@dataclass(frozen=True)
class Substitution:
    """A map sending the letters 0 and 1 to equal-length binary words."""

    image0: str
    image1: str

    def __post_init__(self) -> None:
        for letter, img in enumerate((self.image0, self.image1)):
            if not isinstance(img, str) or not img:
                raise ParseError(f"image of {letter} must be a nonempty string")
            if img.strip(ALPHABET):
                bad = set(img) - set(ALPHABET)
                raise ParseError(f"image of {letter} contains {sorted(bad)!r}; only 0 and 1 are allowed")
        if len(self.image0) != len(self.image1):
            raise ParseError(
                f"images must have equal length, got {len(self.image0)} and {len(self.image1)}"
            )
        if len(self.image0) < 2:
            raise DomainError("images must have length at least 2")

    # -- construction and presentation --------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Substitution":
        """Parse '0->01,1->10'; the bare form '01,10' is also accepted."""
        parts = [p.strip() for p in as_text(text, "substitution").strip().split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected two comma-separated images, got {len(parts)}: {text!r}")
        if any("->" in p for p in parts):
            images: list[str | None] = [None, None]
            for part in parts:
                lhs, sep, rhs = part.partition("->")
                if not sep:
                    raise ParseError(f"mixed arrow and bare image forms in {text!r}")
                lhs = lhs.strip()
                if lhs not in ("0", "1"):
                    raise ParseError(f"left side of {part!r} must be the letter 0 or 1")
                if images[int(lhs)] is not None:
                    raise ParseError(f"duplicate image for letter {lhs} in {text!r}")
                images[int(lhs)] = rhs.strip()
            return cls(images[0], images[1])
        return cls(parts[0], parts[1])

    def __str__(self) -> str:
        return f"0->{self.image0},1->{self.image1}"

    @property
    def q(self) -> int:
        return len(self.image0)

    @property
    def images(self) -> tuple[str, str]:
        return (self.image0, self.image1)

    def image(self, letter: int) -> str:
        if letter not in (0, 1):
            raise DomainError(f"letter must be 0 or 1, got {letter!r}")
        return self.images[letter]

    # -- word actions -------------------------------------------------------

    def apply(self, word: str) -> str:
        if as_text(word, "word").strip(ALPHABET):
            bad = set(word) - set(ALPHABET)
            raise ParseError(f"word contains {sorted(bad)!r}; only 0 and 1 are allowed")
        return word.translate(str.maketrans({"0": self.image0, "1": self.image1}))

    def square(self) -> "Substitution":
        """The substitution applied twice: the image of each image (length q^2)."""
        return Substitution(self.apply(self.image0), self.apply(self.image1))

    # -- structure ----------------------------------------------------------

    def zero_counts(self) -> tuple[int, int]:
        """Occurrences of the letter 0 in the images of 0 and of 1."""
        return (self.image0.count("0"), self.image1.count("0"))

    def is_primitive(self) -> bool:
        # For 2x2 nonnegative matrices, primitivity shows up by the square,
        # here of the composition matrix [[a, b], [c, d]] (the 0s and 1s in
        # the images of 0 and of 1) in plain integers.
        a, b = self.zero_counts()
        c, d = self.q - a, self.q - b
        return min(a * a + b * c, (a + d) * b, (a + d) * c, b * c + d * d) > 0

    def normalize(self) -> tuple["Substitution", Normalization]:
        """Equivalent substitution whose image of 0 starts with 0.

        Three cases: already in that form; images start 1/1, where
        exchanging the letter names everywhere puts it in that form; or
        images start 1/0, where the square of the substitution does.  All
        three generate the same subshift up to the letter exchange, which
        no quantity downstream distinguishes.
        """
        if self.image0[0] == "0":
            return self, Normalization.IDENTITY
        if self.image1[0] == "1":
            swapped = Substitution(self.image1.translate(_SWAP), self.image0.translate(_SWAP))
            return swapped, Normalization.LETTER_SWAP
        return self.square(), Normalization.SQUARE

    def classify(self) -> Classification:
        q = self.q
        zeros, ones = "0" * q, "1" * q
        normalized, how = self.normalize()
        if self.image0 in (zeros, ones) and self.image1 in (zeros, ones):
            return Classification(SubshiftKind.NONPRIMITIVE_TRIVIAL, normalized, how)
        if self.image0 == zeros:
            return Classification(SubshiftKind.NONPRIMITIVE_PROXIMAL, normalized, how, absorbing_letter=0)
        if self.image1 == ones:
            return Classification(SubshiftKind.NONPRIMITIVE_PROXIMAL, normalized, how, absorbing_letter=1)
        # Remaining shapes always have a strictly positive squared matrix.
        assert self.is_primitive()
        period = _normalized_period(normalized)
        if period is None:
            kind = SubshiftKind.PRIMITIVE_APERIODIC
        else:
            kind = SubshiftKind.PRIMITIVE_PERIODIC
        return Classification(kind, normalized, how, period=period)

    # -- fixed point --------------------------------------------------------

    def fixed_point_prefix(self, n: int) -> BitSequence:
        """First n letters of the fixed point grown from the letter 0.

        Requires the image of 0 to start with 0 (see normalize()).  Grows by
        taking rows of the (2, q) table whose row a holds the image of a
        (one np.take per step), truncating intermediate stages so memory
        stays near n letters.
        """
        n = at_least(n, 0, "prefix length")
        if self.image0[0] != "0":
            raise DomainError(
                "fixed point needs the image of 0 to start with 0; normalize() first"
            )
        if n > FIXED_POINT_CAP:
            raise ResourceLimitError(
                f"prefix of {n} letters exceeds the {FIXED_POINT_CAP}-letter cap"
            )
        table = np.array([[int(c) for c in image] for image in self.images], dtype=np.uint8)
        seq = np.array([0], dtype=np.uint8)
        while seq.size < n:
            limit = -(-n // self.q)
            if seq.size > limit:
                seq = seq[:limit]
            seq = np.take(table, seq, axis=0).reshape(-1)
        return BitSequence(seq[:n])


def _normalized_period(sub: Substitution) -> int | None:
    # Assumes primitivity and image0 starting with 0.  The fixed point is
    # periodic exactly when both images equal one word u, making it u^inf
    # with the period of u's primitive root, or when the images strictly
    # alternate letters (odd length only), making it (01)^inf.
    u = sub.image0
    if u == sub.image1:
        # The primitive root's length is the first shift at which u recurs in uu.
        return (u + u).find(u, 1)
    s = sub.q // 2
    if sub.q % 2 == 1 and u == "01" * s + "0" and sub.image1 == "10" * s + "1":
        return 2
    return None
