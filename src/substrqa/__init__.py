"""Recurrence quantification of binary constant-length substitution subshifts.

The package computes recurrence-plot line statistics (recurrence rate,
determinism, average line length, line entropy) and correlation sums for
subshifts generated by binary constant-length substitutions, both
empirically from finite fixed-point prefixes and exactly in closed form,
and cross-validates the two routes against each other.

The namespace is lazy (PEP 562): ``import substrqa`` loads no submodule
and no numpy.  The first use of a name below imports the module that owns
it and caches the name here, so a caller that needs only the empirical
route never loads the exact one.  numpy itself loads on the first array
operation (see ``_numpy``), so classification, parsing and the limits of
nonprimitive and periodic forms never import it.

``_EXPORTS`` is the one list of public names: a layer declares no
``__all__``, and a new public name is one entry there.
"""

import importlib

# Each module and the names the package exports from it.
_EXPORTS = {
    "asymptotics": (
        "AsymptoticQuantifiers", "NuTables", "asymptotic_quantifiers", "closed_form",
        "determinism_limit_scan", "nu_tables", "quantifiers_via_sums",
    ),
    "densities": (
        "DEFAULT_SCALES", "BaseEvidence", "Decomposition", "DensityTable", "closed_form_indices",
        "decompose", "dens_K", "density_from_frequencies", "empirical_delta",
        "letter_frequencies", "reconstruct_base", "table_to_json_dict",
    ),
    "errors": (
        "DiscrepancyError", "DomainError", "ParseError", "ReconstructionError",
        "ResourceLimitError", "SubstRQAError",
    ),
    "recognizability": (
        "LanguageSlice", "RecogConstants", "alpha_beta", "language_slice",
        "recognizability_constants",
    ),
    "recplot": (
        "RENDER_CAP", "Boundary", "LineHistogram", "LineTriple", "extract_lines", "histogram",
        "inner_line_counts", "quantize_eps", "reduce_embedding", "render_ascii", "render_pgm",
        "rp_entry",
    ),
    "rqa": (
        "AsymptoticEstimate", "CorsumDecomposition", "CorsumInterval", "Estimate",
        "LinedensEstimate", "ResidualBounds", "RQAReport", "asymptotic_from_corsum",
        "correlation_sum", "corsum_from_histogram", "corsum_from_rqa", "linedens_from_corsum",
        "measures_from_histogram", "residuals", "rqa_from_corsum",
    ),
    "substitution": (
        "ALPHABET", "FIXED_POINT_CAP", "BitSequence", "Classification", "Normalization",
        "SubshiftKind", "Substitution",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it here as well.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
