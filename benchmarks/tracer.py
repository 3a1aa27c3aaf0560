"""Span recorder that times the program's layers from outside.

``install`` replaces each public function of a layer with a wrapper at
every name the program looks it up by (module globals and class
attributes), so calls between modules and within a module both pass
through it.  Nothing in the program changes; ``uninstall`` puts the
originals back.

Each span records name, start, end, parent span, op id, a size (plot size
or prefix length) and whether the call raised.  Spans live in memory and
are written out when the run ends.  A layer's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from time import perf_counter

# span name -> (module, attribute, index of the size argument)
TARGETS = {
    "substitution.fixed_point_prefix": ("substitution", "Substitution.fixed_point_prefix", 1),
    "substitution.classify": ("substitution", "Substitution.classify", None),
    "recognizability.recognizability_constants": ("recognizability", "recognizability_constants", None),
    "recognizability.language_slice": ("recognizability", "language_slice", None),
    "recplot.histogram": ("recplot", "histogram", 1),
    "recplot.inner_line_counts": ("recplot", "inner_line_counts", 1),
    "rqa.measures_from_histogram": ("rqa", "measures_from_histogram", None),
    "rqa.correlation_sum": ("rqa", "correlation_sum", 1),
    "densities.density_from_frequencies": ("densities", "density_from_frequencies", None),
    "densities.reconstruct_base": ("densities", "reconstruct_base", None),
    "asymptotics.asymptotic_quantifiers": ("asymptotics", "asymptotic_quantifiers", None),
    "asymptotics.closed_form": ("asymptotics", "closed_form", None),
    "asymptotics.nu_tables": ("asymptotics", "nu_tables", None),
    "asymptotics.quantifiers_via_sums": ("asymptotics", "quantifiers_via_sums", None),
    "asymptotics.determinism_limit_scan": ("asymptotics", "determinism_limit_scan", None),
}

# Plot sizes up to this are eligible for the tracemalloc replay; tracemalloc
# slows numpy-heavy code about 4.5x, so it never runs inside timed spans.
ALLOC_MAX_N = 1 << 12
ALLOC_CALLS = 2


class Tracer:
    """In-memory span log for one process."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []  # [name, start, end, parent, op, size, raised]
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._alloc_calls: list[tuple[int, object, tuple, dict]] = []
        self._recog_constants = lib.recognizability.recognizability_constants

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, size_arg):
        tracer = self
        alloc = name.startswith("recplot.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            size = args[size_arg] if size_arg is not None and len(args) > size_arg else None
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op, size, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if alloc and size is not None and size <= ALLOC_MAX_N:
                tracer._keep_for_alloc(size, fn, args, kwargs)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def _keep_for_alloc(self, size, fn, args, kwargs):
        calls = self._alloc_calls
        calls.append((size, fn, args, kwargs))
        calls.sort(key=lambda c: -c[0])
        del calls[ALLOC_CALLS:]

    def install(self) -> None:
        lib = self.lib
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == lib.__name__]
        for name, (module, attr, size_arg) in TARGETS.items():
            owner = getattr(lib, module)
            if attr.startswith("Substitution."):
                cls, method = lib.Substitution, attr.split(".", 1)[1]
                self._patch(cls, method, self._wrap(name, getattr(cls, method), size_arg))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, size_arg)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def peak_alloc_bytes(self) -> int:
        """Replay the largest eligible recplot calls under tracemalloc and
        return the highest peak, in bytes."""
        peak = 0
        for _, fn, args, kwargs in self._alloc_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak

    def cache_info(self) -> dict:
        info = self._recog_constants.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def dump(self, replay_alloc: bool = True) -> dict:
        return {
            "spans": self.spans,
            "peak_alloc_bytes": self.peak_alloc_bytes() if replay_alloc else 0,
            "recog_cache": self.cache_info(),
        }


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans: list[list], idx: int, prefix: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(dumps: list[dict], ops: int) -> dict[str, float]:
    """Per-op layer figures from span dumps.  Times are self times in
    seconds per op; counts are per op.  Dumps from several processes (one
    per cli child) are merged; span indices are local to each dump."""
    ops = max(ops, 1)
    total: dict[str, float] = {}
    cells = {"recplot.histogram": 0, "recplot.inner_line_counts": 0}
    letters = scanned = 0
    recon_ops: dict[tuple, bool] = {}
    peak = 0
    hits = lookups = 0
    for number, dump in enumerate(dumps):
        spans = dump["spans"]
        for idx, (name, span_self) in enumerate(zip((s[0] for s in spans), self_times(spans))):
            total[name] = total.get(name, 0.0) + span_self
            size = spans[idx][5]
            if name in cells and size is not None:
                cells[name] += size * size
            if name == "substitution.fixed_point_prefix" and size is not None:
                letters += size
                if _has_ancestor(spans, idx, "recognizability."):
                    scanned += size
            if name == "densities.reconstruct_base":
                key = (number, spans[idx][4])
                recon_ops[key] = recon_ops.get(key, True) and not spans[idx][6]
        peak = max(peak, dump["peak_alloc_bytes"])
        hits += dump["recog_cache"]["hits"]
        lookups += dump["recog_cache"]["hits"] + dump["recog_cache"]["misses"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names) / ops

    hist_time = total.get("recplot.histogram", 0.0)
    return {
        "recplot.inner_line_counts_s": t("recplot.inner_line_counts"),
        "recplot.inner_line_counts_cells": cells["recplot.inner_line_counts"] / ops,
        "recplot.histogram_s": t("recplot.histogram"),
        "recplot.histogram_cells": cells["recplot.histogram"] / ops,
        "recplot.histogram_cells_per_s": cells["recplot.histogram"] / hist_time if hist_time else 0.0,
        "recplot.peak_alloc_mb": peak / 2**20,
        "recognizability.constants_s": t(
            "recognizability.recognizability_constants", "recognizability.language_slice"
        ),
        "recognizability.letters_scanned": scanned / ops,
        "recognizability.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "densities.exact_s": t("densities.density_from_frequencies"),
        "densities.reconstruct_base_s": t("densities.reconstruct_base"),
        "densities.certified_ratio": (
            sum(recon_ops.values()) / len(recon_ops) if recon_ops else 0.0
        ),
        "asymptotics.closed_form_s": t("asymptotics.closed_form", "asymptotics.nu_tables"),
        "asymptotics.tail_sums_s": t("asymptotics.quantifiers_via_sums"),
        "asymptotics.scan_s": t("asymptotics.determinism_limit_scan"),
        "rqa.measures_s": t("rqa.measures_from_histogram"),
        "rqa.correlation_sum_s": t("rqa.correlation_sum"),
        "substitution.fixed_point_prefix_s": t("substitution.fixed_point_prefix"),
        "substitution.letters_generated": letters / ops,
        "substitution.classify_s": t("substitution.classify"),
    }
