# The fault matrix: each case plants one fault with a patch, and the limit
# route refuses it with the exception class and the check its message names.
# Faults that nothing refuses yet are not pinned here; the change that
# closes one adds its case.
from fractions import Fraction

import pytest

from substrqa import (
    BitSequence,
    DiscrepancyError,
    ReconstructionError,
    Substitution,
    densities,
    recognizability,
)
from substrqa.asymptotics import AsymptoticQuantifiers, asymptotic_quantifiers

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
        alpha, beta, _ = original(sub)
        return alpha, beta + 1, Fraction(alpha + beta + 1, sub.q - 1)

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


FAULTS = [
    pytest.param(
        _flip_prefix_letter, Q5, ReconstructionError, "start pairs at length 1 and size 3126",
        id="prefix-letter-1500-flipped",
    ),
    pytest.param(
        _raise_beta, Q5, ReconstructionError, "scaling check failed for base length 1",
        id="beta-plus-one",
    ),
    pytest.param(
        _halve_start_pairs, Q5, ReconstructionError, "start pairs at length 1 and size 626",
        id="start-pairs-halved",
    ),
    pytest.param(
        _shift_two_blocks, Q5, ReconstructionError, "at length 3 are not shift invariant",
        id="two-blocks-shifted",
    ),
    pytest.param(
        _exchange_letter_frequencies, PD, DiscrepancyError, "not on the 2-word language",
        id="letter-frequencies-exchanged",
    ),
]


@pytest.mark.parametrize("fault, sub, error, check", FAULTS)
def test_fault_is_refused(fault, sub, error, check):
    with pytest.MonkeyPatch.context() as patch:
        fault(patch)
        with pytest.raises(error, match=check):
            asymptotic_quantifiers(sub, 1, 2)
    # Without the patch the same call gives its row.
    _clear_caches()
    assert isinstance(asymptotic_quantifiers(sub, 1, 2), AsymptoticQuantifiers)
