"""The integer-argument contract, once for every public entry point.

An integer argument is refused with DomainError in one of two forms: a
non-integer (even 2.0) reads "<name> must be an integer, got 2.0", and a
value below the argument's bound k reads "<name> must be >= k, got k-1".
The bound itself is accepted, as a numpy integer too.  A text argument
that is not a str is refused with ParseError: "<name> must be text, got None",
and so is a prefix that is not a BitSequence or a histogram that is not a
LineHistogram.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from substrqa.asymptotics import (
    asymptotic_quantifiers,
    closed_form,
    determinism_limit_scan,
    quantifiers_via_sums,
)
from substrqa.cli import main
from substrqa.densities import (
    closed_form_indices,
    decompose,
    dens_K,
    density_from_frequencies,
    empirical_delta,
    reconstruct_base,
)
from substrqa.errors import DomainError, ParseError
from substrqa.recognizability import language_slice, recognizability_constants
from substrqa.recplot import (
    extract_lines,
    histogram,
    inner_line_counts,
    reduce_embedding,
    render_ascii,
    render_pgm,
    rp_entry,
    window_labels,
)
from substrqa.rqa import (
    asymptotic_from_corsum,
    correlation_sum,
    corsum_from_histogram,
    corsum_from_rqa,
    linedens_from_corsum,
    measures_from_histogram,
    residuals,
    rqa_from_corsum,
)
from substrqa.substitution import BitSequence, Substitution

TM = Substitution.parse("0->01,1->10")
X = TM.fixed_point_prefix(64)
HIST = histogram(X, 16, 1)
TABLE = reconstruct_base(TM)
CONSTANTS = recognizability_constants(TM)
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)

# (entry point and argument, call with the argument set to v, name, bound)
ENTRIES = [
    ("quantifiers_via_sums m", lambda v: quantifiers_via_sums(TABLE, m=v), "m", 1),
    ("quantifiers_via_sums lmin", lambda v: quantifiers_via_sums(TABLE, lmin=v), "lmin", 1),
    ("quantifiers_via_sums h", lambda v: quantifiers_via_sums(TABLE, h=v), "h", 1),
    ("closed_form m", lambda v: closed_form(TABLE, m=v), "m", 1),
    ("closed_form lmin", lambda v: closed_form(TABLE, lmin=v), "lmin", 1),
    ("closed_form h", lambda v: closed_form(TABLE, h=v), "h", 1),
    ("asymptotic_quantifiers m", lambda v: asymptotic_quantifiers(TM, m=v), "m", 1),
    ("asymptotic_quantifiers lmin", lambda v: asymptotic_quantifiers(TM, lmin=v), "lmin", 1),
    ("determinism_limit_scan m", lambda v: determinism_limit_scan(TM, m=v, h_range=[1]), "m", 1),
    (
        "determinism_limit_scan lmin",
        lambda v: determinism_limit_scan(TM, lmin=v, h_range=[1]),
        "lmin",
        1,
    ),
    ("determinism_limit_scan h", lambda v: determinism_limit_scan(TM, h_range=[v]), "h", 1),
    ("density_from_frequencies", lambda v: density_from_frequencies(TM, v), "length", 1),
    ("empirical_delta length", lambda v: empirical_delta(X, v, 16), "maximum length", 1),
    ("empirical_delta n", lambda v: empirical_delta(X, 1, v), "position bound", 2),
    ("decompose", lambda v: decompose(CONSTANTS, v), "length", CONSTANTS.R),
    ("dens_K", lambda v: dens_K(TABLE, v), "length", 1),
    ("closed_form_indices", lambda v: closed_form_indices(CONSTANTS, v), "target length", CONSTANTS.R0),
    ("language_slice", lambda v: language_slice(TM, v), "word length", 1),
    ("rp_entry h", lambda v: rp_entry(X, 0, 1, v), "threshold exponent h", 1),
    ("extract_lines n", lambda v: extract_lines(X, v, 1), "plot size", 2),
    ("extract_lines h", lambda v: extract_lines(X, 8, v), "threshold exponent h", 1),
    ("extract_lines m", lambda v: extract_lines(X, 8, 1, m=v), "embedding dimension m", 1),
    ("histogram n", lambda v: histogram(X, v, 1), "plot size", 2),
    ("histogram h", lambda v: histogram(X, 8, v), "threshold exponent h", 1),
    ("histogram m", lambda v: histogram(X, 8, 1, m=v), "embedding dimension m", 1),
    ("reduce_embedding", lambda v: reduce_embedding(v, HALF), "embedding dimension m", 1),
    ("inner_line_counts n", lambda v: inner_line_counts(X, v, 4), "position bound", 2),
    ("inner_line_counts length", lambda v: inner_line_counts(X, 16, v), "maximum length", 1),
    ("render_ascii n", lambda v: render_ascii(X, v, 1), "plot size", 1),
    ("render_ascii h", lambda v: render_ascii(X, 8, v), "threshold exponent h", 1),
    ("render_ascii m", lambda v: render_ascii(X, 8, 1, m=v), "embedding dimension m", 1),
    ("render_pgm n", lambda v: render_pgm(X, v, 1), "plot size", 1),
    ("render_pgm h", lambda v: render_pgm(X, 8, v), "threshold exponent h", 1),
    ("render_pgm m", lambda v: render_pgm(X, 8, 1, m=v), "embedding dimension m", 1),
    ("measures_from_histogram", lambda v: measures_from_histogram(HIST, v), "minimum line length", 1),
    ("correlation_sum n", lambda v: correlation_sum(X, v, 1, 1), "plot size", 1),
    ("correlation_sum lmin", lambda v: correlation_sum(X, 8, v, 1), "minimum line length", 1),
    ("correlation_sum h", lambda v: correlation_sum(X, 8, 1, v), "threshold exponent h", 1),
    ("correlation_sum m", lambda v: correlation_sum(X, 8, 1, 1, m=v), "embedding dimension m", 1),
    ("corsum_from_histogram", lambda v: corsum_from_histogram(HIST, v), "minimum line length", 1),
    ("rqa_from_corsum n", lambda v: rqa_from_corsum(HALF, QUARTER, v, 1), "plot size", 2),
    ("rqa_from_corsum lmin", lambda v: rqa_from_corsum(HALF, QUARTER, 8, v), "minimum line length", 1),
    ("linedens_from_corsum n", lambda v: linedens_from_corsum(HALF, QUARTER, v, 1), "plot size", 2),
    (
        "linedens_from_corsum lmin",
        lambda v: linedens_from_corsum(HALF, QUARTER, 8, v),
        "minimum line length",
        1,
    ),
    ("corsum_from_rqa n", lambda v: corsum_from_rqa(HALF, QUARTER, v, 1), "plot size", 2),
    ("corsum_from_rqa lmin", lambda v: corsum_from_rqa(HALF, QUARTER, 8, v), "minimum line length", 1),
    (
        "asymptotic_from_corsum",
        lambda v: asymptotic_from_corsum(HALF, QUARTER, QUARTER, v),
        "minimum line length",
        1,
    ),
    ("residuals n", lambda v: residuals(X, v, 1), "plot size", 2),
    ("residuals lmin", lambda v: residuals(X, 8, v), "minimum line length", 1),
    ("residuals h", lambda v: residuals(X, 8, 1, v), "threshold exponent h", 1),
    ("fixed_point_prefix", lambda v: TM.fixed_point_prefix(v), "prefix length", 0),
    ("window_labels", lambda v: window_labels(X.bits, v), "window width", 1),
]
TABLE_IDS = [entry[0] for entry in ENTRIES]


def _refused(message: str):
    return pytest.raises(DomainError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("_, call, what, low", ENTRIES, ids=TABLE_IDS)
def test_float_is_not_an_integer(_, call, what, low):
    with _refused(f"{what} must be an integer, got 2.0"):
        call(2.0)


@pytest.mark.parametrize("_, call, what, low", ENTRIES, ids=TABLE_IDS)
def test_below_bound_is_refused(_, call, what, low):
    with _refused(f"{what} must be >= {low}, got {low - 1}"):
        call(low - 1)


@pytest.mark.parametrize("_, call, what, low", ENTRIES, ids=TABLE_IDS)
def test_bound_is_accepted(_, call, what, low):
    call(np.int64(low))


@pytest.mark.parametrize(
    "args, message",
    [
        ("render 01,10 --n 3 -m 0", "m must be >= 1, got 0"),
        ("render 01,10 --n 0", "plot size must be >= 1, got 0"),
        ("analyze 01,10 --n 64 -l 0", "lmin must be >= 1, got 0"),
        ("analyze 01,10 --n 1", "plot size must be >= 2, got 1"),
        ("analyze 01,10 --asymptotic -h 0", "threshold exponent must be >= 1, got 0"),
        ("convergence 01,10 --scales 64,1", "scale must be >= 2, got 1"),
        ("densities 01,10 --lmax 0", "lmax must be >= 1, got 0"),
    ],
)
def test_cli_refusal_names_one_argument(args, message):
    result = CliRunner().invoke(main, args.split())
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


# (entry point, call with the text argument set to v, name)
TEXT_ENTRIES = [
    ("Substitution.parse", Substitution.parse, "substitution"),
    ("BitSequence.from_text", BitSequence.from_text, "bit sequence"),
    ("Substitution.apply", TM.apply, "word"),
]


@pytest.mark.parametrize("value", [None, 123, b"01,10"], ids=repr)
@pytest.mark.parametrize("_, call, what", TEXT_ENTRIES, ids=[e[0] for e in TEXT_ENTRIES])
def test_non_text_is_refused(_, call, what, value):
    with pytest.raises(ParseError, match=f"^{re.escape(f'{what} must be text, got {value!r}')}$"):
        call(value)


# (entry point, call with its prefix or histogram set to v, v): text for a
# BitSequence prefix, a dict for a LineHistogram.
TYPE_ENTRIES = [
    ("histogram", lambda v: histogram(v, 4, 1), "0101100110"),
    ("extract_lines", lambda v: extract_lines(v, 4, 1), "0101100110"),
    ("inner_line_counts", lambda v: inner_line_counts(v, 4, 1), "0101100110"),
    ("rp_entry", lambda v: rp_entry(v, 0, 1, 1), "0101100110"),
    ("render_ascii", lambda v: render_ascii(v, 4, 1), "0101100110"),
    ("render_pgm", lambda v: render_pgm(v, 4, 1), "0101100110"),
    ("correlation_sum", lambda v: correlation_sum(v, 4, 1, 1), "0101100110"),
    ("residuals", lambda v: residuals(v, 4, 1), "0101100110"),
    ("empirical_delta", lambda v: empirical_delta(v, 1, 4), "0101100110"),
    ("measures_from_histogram", lambda v: measures_from_histogram(v, 1), {}),
    ("corsum_from_histogram", lambda v: corsum_from_histogram(v, 1), {}),
]


@pytest.mark.parametrize("_, call, value", TYPE_ENTRIES, ids=[e[0] for e in TYPE_ENTRIES])
def test_wrong_type_is_refused(_, call, value):
    text = isinstance(value, str)
    what = "prefix must be a BitSequence" if text else "histogram must be a LineHistogram"
    with pytest.raises(ParseError, match=f"^{re.escape(f'{what}, got {value!r}')}$"):
        call(value)


def test_scan_refuses_a_non_iterable_range():
    with _refused("h_range must be an iterable of integers, got 5"):
        determinism_limit_scan(TM, 1, 1, 5)
