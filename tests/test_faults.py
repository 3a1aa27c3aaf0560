# The fault matrix: each case plants one fault with a patch, or hands the
# closed form one table that no substitution has, and the limit route
# refuses it with the exception class and the check its message names;
# constants that no substitution has are refused as they are built.
# Faults that nothing refuses yet are not pinned here; the change that
# closes one adds its case.  SITES credits every raise of DiscrepancyError
# or ReconstructionError in the package to the cases that reach it, and
# the static rule at the end keeps that map whole.
import ast
import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

from substrqa import (
    BitSequence,
    DiscrepancyError,
    DomainError,
    ReconstructionError,
    Substitution,
    asymptotics,
    densities,
    recognizability,
)
from substrqa.asymptotics import AsymptoticQuantifiers, asymptotic_quantifiers, closed_form

Q5 = Substitution("01110", "01010")
PD = Substitution("01", "00")

CACHES = [
    densities._reconstruct_cached,
    densities._block_frequencies_cached,
    densities._prefix_counts,
    recognizability._residues,
    recognizability.recognizability_constants,
]


def _clear_caches():
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    # No value computed under a patch may reach another test.
    _clear_caches()
    yield
    _clear_caches()


def _flip_prefix_letter(patch):
    original = Substitution.fixed_point_prefix

    def flipped(self, n):
        bits = original(self, n).bits.copy()
        if n > 1500:
            bits[1500] ^= 1
        return BitSequence(bits)

    patch.setattr(Substitution, "fixed_point_prefix", flipped)


def _raise_beta(patch):
    original = recognizability.alpha_beta

    def raised(sub):
        alpha, beta = original(sub)
        return alpha, beta + 1

    patch.setattr(recognizability, "alpha_beta", raised)


def _halve_start_pairs(patch):
    # Both the exact density and the block recurrence read _start_pairs.
    original = densities._start_pairs
    patch.setattr(densities, "_start_pairs", lambda blocks: original(blocks) // 2)


def _shift_two_blocks(patch):
    # 1/1000 moves from 01 to 00, so the frequencies still sum to 1.
    original = densities._two_block_frequencies

    def shifted(sub):
        freqs = dict(original(sub))
        freqs["00"] += Fraction(1, 1000)
        freqs["01"] -= Fraction(1, 1000)
        return freqs

    patch.setattr(densities, "_two_block_frequencies", shifted)


def _exchange_letter_frequencies(patch):
    # q5's two letter frequencies are equal, so this fault shows on PD.
    original = densities.letter_frequencies
    patch.setattr(densities, "letter_frequencies", lambda sub: original(sub)[::-1])


def _zero_letter_frequency(patch):
    # mu(00) = f0 - mu(01) goes below 0.
    patch.setattr(densities, "letter_frequencies", lambda sub: (Fraction(0), Fraction(1)))


def _drop_residue_zero(patch):
    # Only the density engine loses the words cut at residue 0, so the
    # language recursion in recognizability stays whole.
    original = recognizability.desubstitute

    def dropped(sub, length, source):
        return ((r, value, w) for r, value, w in original(sub, length, source) if r)

    patch.setattr(densities, "desubstitute", dropped)


def _density_over_D(patch):
    # The start pairs over D, not D^2.
    def over_D(sub, length):
        D, table = densities._block_frequencies_cached(sub, length + 2)
        return Fraction(densities._start_pairs(table), D)

    patch.setattr(densities, "density_from_frequencies", over_D)


def _empty_length_four(patch):
    original = densities.density_from_frequencies

    def emptied(sub, length):
        return Fraction(0) if length == 4 else original(sub, length)

    patch.setattr(densities, "density_from_frequencies", emptied)


def _neighbouring_base(patch):
    # Lengths from R on scale down to a neighbour of their base inside
    # [R0, R); dens_K's second closed form, in (length + c)^2, then differs
    # from its first, the base's density over q^2k.
    original = densities.decompose

    def moved(constants, length):
        piece = original(constants, length)
        if piece is None:
            return None
        k, base = piece
        return k, base + 1 if base + 1 < constants.R else base - 1

    patch.setattr(densities, "decompose", moved)


def _neighbouring_closed_form_base(patch):
    # Only the closed form reads its tails at (j, l0); the reference route
    # sums the table's tails directly.
    original = asymptotics.closed_form_indices

    def moved(constants, lprime):
        j, l0 = original(constants, lprime)
        return j, l0 + 1 if l0 + 1 < constants.R else l0 - 1

    patch.setattr(asymptotics, "closed_form_indices", moved)


def _raise_closed_entropy(patch):
    original = asymptotics._closed_tail

    def raised(table, lprime):
        s0, s1, neg_slog = original(table, lprime)
        return s0, s1, neg_slog + 1e-6

    patch.setattr(asymptotics, "_closed_tail", raised)


def _raise_alpha_by_q(patch):
    # R starts its search above alpha + beta, so it lands past K + q.
    original = recognizability.alpha_beta

    def raised(sub):
        alpha, beta = original(sub)
        return alpha + sub.q, beta

    patch.setattr(recognizability, "alpha_beta", raised)


FAULTS = [
    pytest.param(
        _flip_prefix_letter, Q5, 2, ReconstructionError, "start pairs at length 1 and size 3126",
        id="prefix-letter-1500-flipped",
    ),
    pytest.param(
        _raise_beta, Q5, 2, ReconstructionError, "scaling check failed for base length 1",
        id="beta-plus-one",
    ),
    pytest.param(
        _halve_start_pairs, Q5, 2, ReconstructionError, "start pairs at length 1 and size 626",
        id="start-pairs-halved",
    ),
    pytest.param(
        _shift_two_blocks, Q5, 2, ReconstructionError, "at length 3 are not shift invariant",
        id="two-blocks-shifted",
    ),
    pytest.param(
        _exchange_letter_frequencies, PD, 2, DiscrepancyError, "not on the 2-word language",
        id="letter-frequencies-exchanged",
    ),
    pytest.param(
        _zero_letter_frequency, Q5, 2, DiscrepancyError, "two-block frequencies must be nonnegative",
        id="letter-frequencies-0-1",
    ),
    pytest.param(
        _drop_residue_zero, Q5, 2, DiscrepancyError,
        "block frequencies at length 3 sum to 40/50, not 1",
        id="residue-0-dropped",
    ),
    pytest.param(
        _density_over_D, Q5, 2, ReconstructionError, "base density at length 1 out of range",
        id="density-over-D",
    ),
    pytest.param(
        _empty_length_four, Q5, 2, ReconstructionError, "emptiness mismatch at length 4",
        id="density-4-emptied",
    ),
    pytest.param(
        _raise_alpha_by_q, Q5, 2, DiscrepancyError, "recognizability constants disagree",
        id="alpha-plus-q",
    ),
    pytest.param(
        _neighbouring_base, Q5, 9, DiscrepancyError, "scaling closed forms disagree at length 9",
        id="neighbouring-base",
    ),
    pytest.param(
        _neighbouring_closed_form_base, Q5, 2, DiscrepancyError,
        "closed form and tail sums disagree on RR1 at \\(m=1, lmin=2, h=1\\): 9/25 vs 1/2",
        id="closed-form-neighbouring-base",
    ),
    pytest.param(
        _raise_closed_entropy, Q5, 2, DiscrepancyError,
        "closed form and tail sums disagree on ENT at \\(m=1, lmin=2, h=1\\)",
        id="closed-form-entropy-raised",
    ),
]


@pytest.mark.parametrize("fault, sub, lmin, error, check", FAULTS)
def test_fault_is_refused(fault, sub, lmin, error, check, request):
    with pytest.MonkeyPatch.context() as patch:
        fault(patch)
        with pytest.raises(error, match=check) as caught:
            asymptotic_quantifiers(sub, 1, lmin)
    _assert_credited(caught, request)
    # Without the patch the same call gives its row.
    _clear_caches()
    assert isinstance(asymptotic_quantifiers(sub, 1, lmin), AsymptoticQuantifiers)


def _empty_families(table):
    floor = table.constants.R0
    return dataclasses.replace(
        table, base={l: Fraction(0) if l >= floor else d for l, d in table.base.items()}
    )


def _raise_base_density_1(table):
    # C_1 = 193/120 > 1: the limit correlation sums fall out of order.
    return dataclasses.replace(table, base={**table.base, 1: Fraction(9, 10)})


TABLE_FAULTS = [
    pytest.param(
        _empty_families, 2, DiscrepancyError, "tail sums must be positive", id="families-emptied",
    ),
    pytest.param(
        _raise_base_density_1, 2, DiscrepancyError,
        "limit correlation sums must satisfy 0 <= C_\\(l\\+1\\) <= C_l <= C_1 <= 1, "
        "got 89/200, 173/300, 193/120 at \\(m=1, lmin=2, h=1\\)",
        id="base-density-1-raised",
    ),
]


@pytest.mark.parametrize("fault, lmin, error, check", TABLE_FAULTS)
def test_inconsistent_table_is_refused(fault, lmin, error, check, request):
    table = densities.reconstruct_base(Q5)
    with pytest.raises(error, match=check) as caught:
        closed_form(fault(table), 1, lmin, 1)
    _assert_credited(caught, request)
    # The table as reconstructed gives its row.
    assert isinstance(closed_form(table, 1, lmin, 1), AsymptoticQuantifiers)


# One case for each check of RecogConstants, each passing the checks before
# it.  Built, the K = 0 and q = 1 constants would make
# closed_form_indices(..., 1) and decompose(..., 5) loop forever.
CONSTANTS_FAULTS = [
    pytest.param(
        dict(alpha=2, beta=2, K=3, R=9, q=5), DiscrepancyError,
        "recognizability constants disagree: K=3, R=9", id="R-past-K-plus-q",
    ),
    pytest.param(dict(alpha=0, beta=0, K=1, R=2, q=1), DomainError, "q must be >= 2, got 1", id="q-1"),
    pytest.param(
        dict(alpha=-1, beta=0, K=1, R=2, q=2), DomainError, "alpha must be >= 0, got -1",
        id="alpha-negative",
    ),
    pytest.param(
        dict(alpha=0, beta=-1, K=1, R=2, q=2), DomainError, "beta must be >= 0, got -1",
        id="beta-negative",
    ),
    pytest.param(dict(alpha=0, beta=0, K=0, R=1, q=2), DomainError, "K must be >= 1, got 0", id="K-0"),
    pytest.param(
        dict(alpha=2, beta=2, K=3, R=4, q=5), DomainError, "R must exceed alpha \\+ beta = 4, got 4",
        id="R-at-alpha-plus-beta",
    ),
]


@pytest.mark.parametrize("values, error, check", CONSTANTS_FAULTS)
def test_impossible_constants_are_refused(values, error, check, request):
    with pytest.raises(error, match=check) as caught:
        recognizability.RecogConstants(**values)
    if error is not DomainError:
        _assert_credited(caught, request)


# Every raise of DiscrepancyError or ReconstructionError in the package, by
# module, enclosing function and message (each replacement field as {}),
# and the ids of the cases above that reach it.
SITES = {
    ("asymptotics", "_row", "limit {} at (m={}, lmin={}, h={})"): {"base-density-1-raised"},
    (
        "asymptotics", "_limit_sums",
        "tail sums must be positive for a primitive aperiodic table, got lineDens={}, RR1={}",
    ): {"families-emptied"},
    (
        "asymptotics", "closed_form",
        "closed form and tail sums disagree on {} at (m={}, lmin={}, h={}): {} vs {}",
    ): {"closed-form-neighbouring-base", "closed-form-entropy-raised"},
    (
        "densities", "_two_block_frequencies", "two-block frequencies must be nonnegative, got {}",
    ): {"letter-frequencies-0-1"},
    (
        "densities", "_two_block_frequencies",
        "two-block frequencies are positive on {}, not on the 2-word language",
    ): {"letter-frequencies-exchanged"},
    (
        "densities", "_block_frequencies_cached",
        "block frequencies at length {} sum to {}/{}, not 1",
    ): {"residue-0-dropped"},
    (
        "densities", "_check_shift_invariance",
        "block frequencies at length {} are not shift invariant",
    ): {"two-blocks-shifted"},
    (
        "densities", "_reconstruct_cached", "base density at length {} out of range: {}",
    ): {"density-over-D"},
    (
        "densities", "_reconstruct_cached",
        "start pairs at length {} and size {}: the suffix order counts {}, "
        "the block recurrence {}",
    ): {"prefix-letter-1500-flipped", "start-pairs-halved"},
    (
        "densities", "_reconstruct_cached",
        "emptiness mismatch at length {}: exact {}, {} start pairs at size {}",
    ): {"density-4-emptied"},
    (
        "densities", "_reconstruct_cached",
        "scaling check failed for base length {}: child {} has {} start pairs at size {}, "
        "the base {} at size {}",
    ): {"beta-plus-one"},
    (
        "densities", "dens_K", "scaling closed forms disagree at length {}: {} vs {}",
    ): {"neighbouring-base"},
    (
        "recognizability", "__post_init__",
        "recognizability constants disagree: K={}, R={} violate K+1 <= R <= K+q for q={}",
    ): {"alpha-plus-q", "R-past-K-plus-q"},
}
REFUSALS = ("DiscrepancyError", "ReconstructionError")


def _assert_credited(caught, request):
    # The refusal came from a site that SITES credits to this case.
    entry = caught.traceback[-1]
    reached = [
        cases
        for (module, function, message), cases in SITES.items()
        if (module, function) == (Path(entry.path).stem, entry.name)
        and re.fullmatch(re.escape(message).replace(re.escape("{}"), ".*"), str(caught.value))
    ]
    assert len(reached) == 1 and request.node.callspec.id in reached[0]


def _raise_sites(node, module, function="<module>"):
    # (module, innermost enclosing function, message) of each refusal raised
    # under node; an f-string's replacement fields read {}.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raise_sites(child, module, child.name)
            continue
        exc = child.exc if isinstance(child, ast.Raise) else None
        if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in REFUSALS:
            text = exc.args[0]
            parts = text.values if isinstance(text, ast.JoinedStr) else [text]
            yield module, function, "".join(
                p.value if isinstance(p, ast.Constant) else "{}" for p in parts
            )
        yield from _raise_sites(child, module, function)


def test_every_refusal_site_has_a_case():
    # An ast walk over the package source, so a new certification check or
    # cross-check cannot land without a case here that reaches it.
    sites = [
        site
        for path in sorted(Path(densities.__file__).parent.glob("*.py"))
        for site in _raise_sites(ast.parse(path.read_text()), path.stem)
    ]
    cases = {param.id for param in FAULTS + TABLE_FAULTS + CONSTANTS_FAULTS}
    assert [site for site in sites if not SITES.get(site, set()) & cases] == []
    # Each site has its own key, and every key is still a site.
    assert sorted(sites) == sorted(SITES)
