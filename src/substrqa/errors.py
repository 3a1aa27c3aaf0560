"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems (ParseError, DomainError)
exit 2, computational failures (reconstruction, resource limits, cross-check
discrepancies) exit 3, golden-value verification failures exit 1.

Integer arguments enter the package through as_int (an int, not 12.0) and
at_least (that, and no smaller than a bound), numbers through as_fraction
(exact; not text, None or NaN) and text through as_text (a str, not bytes
or None), so every entry point refuses them in the same words.
"""

import operator
from fractions import Fraction


class SubstRQAError(Exception):
    """Base class for all package errors."""


class ParseError(SubstRQAError, ValueError):
    """Malformed substitution text or invalid letters/words."""


class DomainError(SubstRQAError, ValueError):
    """Operation applied to a substitution outside its contract.

    Examples: asking for the recognizability constants of a non-primitive
    substitution, or a fixed point of a substitution whose image of 0 does
    not start with 0.
    """


class ResourceLimitError(SubstRQAError, RuntimeError):
    """A size cap was exceeded before the computation could finish."""


class ReconstructionError(SubstRQAError, RuntimeError):
    """A base density failed one of its exact certification checks.

    Raised instead of ever returning a silently wrong rational; the message
    names the offending base length.
    """


class DiscrepancyError(SubstRQAError, RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


def as_int(value, what: str) -> int:
    """value as a Python int, for an integer argument where it enters the
    package: numpy integers pass, and a float, even 12.0, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def at_least(value, low: int, what: str) -> int:
    """value as a Python int (see as_int), refused below low."""
    value = as_int(value, what)
    if value < low:
        raise DomainError(f"{what} must be >= {low}, got {value}")
    return value


def as_fraction(value, what: str) -> Fraction:
    """value as an exact Fraction, for a number argument; numpy floats, which
    Fraction refuses, are read through their exact ratio."""
    if isinstance(value, str):  # Fraction would parse "1/4" and "0.25"
        raise DomainError(f"{what} must be a number, got {value!r}")
    if isinstance(value, Fraction):  # already exact and in lowest terms
        return value
    ratio = getattr(value, "as_integer_ratio", None)
    try:
        return Fraction(*ratio()) if ratio else Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:  # None, NaN, infinity
        raise DomainError(f"{what} must be a number, got {value!r}") from exc


def as_text(value, what: str) -> str:
    """value, for a text argument: anything but a str is refused."""
    if not isinstance(value, str):
        raise ParseError(f"{what} must be text, got {value!r}")
    return value
