"""Recurrence quantification of binary constant-length substitution subshifts.

The package computes recurrence-plot line statistics (recurrence rate,
determinism, average line length, line entropy) and correlation sums for
subshifts generated by binary constant-length substitutions, both
empirically from finite fixed-point prefixes and exactly in closed form,
and cross-validates the two routes against each other.
"""

from .asymptotics import (
    AsymptoticQuantifiers,
    NuTables,
    asymptotic_quantifiers,
    closed_form,
    determinism_limit_scan,
    fixed_point_period,
    nonprimitive_quantifiers,
    nu_tables,
    periodic_quantifiers,
    quantifiers_via_sums,
)
from .densities import (
    DEFAULT_SCALES,
    BaseEvidence,
    Decomposition,
    DensityTable,
    block_frequencies,
    closed_form_indices,
    decompose,
    dens_K,
    density_from_frequencies,
    empirical_delta,
    letter_frequencies,
    reconstruct_base,
    table_to_json_dict,
)
from .errors import (
    DiscrepancyError,
    DomainError,
    ParseError,
    ReconstructionError,
    ResourceLimitError,
    SubstRQAError,
)
from .recognizability import (
    LanguageSlice,
    RecogConstants,
    alpha_beta,
    is_recognizable_word,
    language_slice,
    recognizability_constants,
)
from .recplot import (
    RENDER_CAP,
    Boundary,
    LineHistogram,
    LineTriple,
    extract_lines,
    histogram,
    inner_line_counts,
    inner_line_starts,
    quantize_eps,
    reduce_embedding,
    reduce_eps,
    render_ascii,
    render_pgm,
    rp_entry,
    theta,
)
from .rqa import (
    AsymptoticEstimate,
    CorsumDecomposition,
    CorsumInterval,
    Estimate,
    LinedensEstimate,
    ResidualBounds,
    RQAReport,
    asymptotic_from_corsum,
    correlation_sum,
    corsum_from_histogram,
    corsum_from_rqa,
    linedens_from_corsum,
    measures_from_histogram,
    residuals,
    rqa_from_corsum,
)
from .substitution import (
    ALPHABET,
    FIXED_POINT_CAP,
    BitSequence,
    Classification,
    Normalization,
    SubshiftKind,
    Substitution,
    window_classes,
)

__version__ = "0.1.0"
