"""Command-line front end.

Subcommands: classify, analyze (finite-size and/or limiting quantifiers),
densities (exact start-pair density tables), convergence (finite-size
sweep against the limit), render (ASCII/PGM plots), and verify (the
pinned golden-value suite).  Exit codes: 0 success, 1 a verify check
failed, 2 usage or parse problem, 3 a computation refused to certify its
result or to run (reconstruction, resource limit, or cross-check failure).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import click

# Layer imports are eager on purpose: a tracer installed after `import substrqa.cli`
# patches only loaded layers.  numpy stays lazy; see `_numpy`.
from .asymptotics import AsymptoticQuantifiers, _limits, closed_form, quantifiers_via_sums
from .densities import DensityTable, dens_K, reconstruct_base
from .errors import DomainError, ParseError, SubstRQAError, at_least
from .recognizability import RecogConstants, recognizability_constants
from .recplot import _require_renderable, histogram, quantize_eps, render_ascii, render_pgm
from .rqa import RQAReport, correlation_sum, measures_from_histogram, residuals
from .substitution import Normalization, Substitution, SubshiftKind

# -h is the dyadic threshold exponent everywhere, so help is --help only.
HELP_SETTINGS = {"help_option_names": ["--help"]}

QUANTITIES = ("RR", "DET", "Lavg", "ENT", "C")
# The CSV header of analyze: a report's label, plot size and options, then QUANTITIES.
_REPORT_HEADER = ("provenance", "n", "m", "h", "lmin", *QUANTITIES)
# In print order; only classify prints q.
CONSTANTS = ("alpha", "beta", "c", "K", "R", "R0", "q")

# Options shared by several subcommands, declared once.
SPEC = click.argument("spec")
M = click.option("-m", "m", type=int, default=1, help="Embedding window length.")
LMIN = click.option("-l", "--lmin", "lmin", type=int, default=1, help="Minimum line length.")
H = click.option("-h", "h", type=int, default=None, help="Dyadic threshold exponent (eps = 2^-h).")
EPS = click.option(
    "--eps", type=float, default=None, help="Raw threshold; quantized to a power of two."
)
FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text",
    help="Output format.",
)


@click.group(context_settings=HELP_SETTINGS)
def main():
    """Recurrence quantification of binary constant-length substitutions."""


def _subcommand(body):
    """Register `body` as a subcommand of `main`.  The one place where
    errors become exit codes: 2 for a parse or domain problem, 3 for any
    other refusal, and a nonzero return value (verify's 1) as it is."""

    @functools.wraps(body)
    def command(**params):
        try:
            code = body(**params)
        except SubstRQAError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2 if isinstance(exc, (ParseError, DomainError)) else 3)
        if code:
            raise SystemExit(code)

    return main.command()(command)


def _emit(fmt: str, payload: dict, header: tuple[str, ...], rows: list, lines=()) -> None:
    """Print the one format asked for: indented JSON, CSV under a header
    row, or text lines."""
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        click.echo(buffer.getvalue(), nl=False)
    else:
        for line in lines:
            click.echo(line)


# -- shared plumbing ---------------------------------------------------------


def _threshold(
    m: int, lmin: int, h: int | None, eps: float | None, n: int | None = None
) -> tuple[int, str | None]:
    """Validate the plot options; return the effective dyadic exponent plus
    a quantization note when it came from --eps."""
    at_least(m, 1, "m")
    at_least(lmin, 1, "lmin")
    if h is not None:
        at_least(h, 1, "threshold exponent")
    if h is not None and eps is not None:
        raise DomainError("give either -h or --eps, not both")
    if n is not None:
        at_least(n, 2, "plot size")
    if eps is not None:
        h = quantize_eps(eps)
        return h, f"threshold {eps} quantized to 2^-{h}"
    return (h if h is not None else 1), None


def _empirical_report(
    sub: Substitution, n: int, m: int, lmin: int, h: int
) -> tuple[RQAReport, list[str]]:
    norm, how = sub.normalize()
    notes = []
    if how is not Normalization.IDENTITY:
        notes.append(f"analyzed the normalized form {norm} ({how.value})")
    x = norm.fixed_point_prefix(n + lmin + h + m)
    report = measures_from_histogram(histogram(x, n, h, m=m), lmin)
    return replace(report, C=correlation_sum(x, n, lmin, h, m=m)), notes


def _limit_report(limit: AsymptoticQuantifiers) -> RQAReport:
    """An exact limit as a report with no plot size, carrying the single
    exact-length density its query resolved."""
    return RQAReport(
        n=None,
        m=limit.m,
        h=limit.h,
        lmin=limit.lmin,
        linedens={limit.lmin: limit.linedens},
        tail_density=limit.lineDens,
        RR=limit.RR,
        RR1=limit.RR1,
        DET=limit.DET,
        Lavg=limit.Lavg,
        ENT=limit.ENT,
        C=limit.C,
    )


# -- printed forms -----------------------------------------------------------


def _provenance(report: RQAReport) -> str:
    return "asymptotic" if report.n is None else "empirical"


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator, "approx": float(f)}


def _optional_json(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return _frac_json(value)
    if isinstance(value, float) and math.isinf(value):
        return {"infinite": True}
    return value


def _number_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(float(value))


def _report_json(report: RQAReport) -> dict:
    """The provenance, then every field in declaration order; lengths as
    string keys."""
    payload = {"provenance": _provenance(report)}
    payload.update((name, _optional_json(value)) for name, value in vars(report).items())
    payload["linedens"] = {str(l): _frac_json(d) for l, d in sorted(report.linedens.items())}
    return payload


def _report_row(report: RQAReport) -> tuple[str, ...]:
    return (
        _provenance(report),
        "" if report.n is None else str(report.n),
        str(report.m),
        str(report.h),
        str(report.lmin),
        *(_number_text(getattr(report, key)) for key in QUANTITIES),
    )


def _table_json(table: DensityTable) -> dict:
    """A density table and its evidence; exact rationals as [num, den]."""
    return {
        "substitution": str(table.subst),
        "scales": list(next(iter(table.evidence.values())).scales) if table.evidence else [],
        "base": {str(l): [d.numerator, d.denominator] for l, d in table.base.items()},
        "evidence": {str(l): asdict(ev) for l, ev in table.evidence.items()},
    }


def _frac_text(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator} (~{float(value):.6g})"
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    return f"{value:.12g}"


def _ent_text(ent: float | None, log_base: str) -> str:
    if ent is None:
        return "absent"
    in_log2 = ent / math.log(2.0)
    approx = Fraction(in_log2).limit_denominator(12)
    exact = abs(float(approx) - in_log2) < 1e-9
    if log_base == "2":
        return f"{approx} (log base 2)" if exact else f"{in_log2:.12g} (log base 2)"
    if exact and approx != 0:
        factor = "log 2" if approx == 1 else f"{approx}·log 2"
        return f"{ent:.12g} = {factor}"
    return f"{ent:.12g}"


def _report_text(report: RQAReport, log_base: str) -> list[str]:
    where = "limit" if report.n is None else f"n={report.n}"
    lines = [
        f"{_provenance(report)} quantifiers ({where}, m={report.m}, "
        f"h={report.h}, lmin={report.lmin})"
    ]
    lines.append(f"  RR   = {_frac_text(report.RR)}")
    lines.append(f"  DET  = {_frac_text(report.DET)}")
    lines.append(f"  Lavg = {_frac_text(report.Lavg)}")
    lines.append(f"  ENT  = {_ent_text(report.ENT, log_base)}")
    lines.append(f"  C    = {_frac_text(report.C)}")
    lines.append(f"  line density (lengths >= lmin) = {_frac_text(report.tail_density)}")
    return lines


def _value_gap(a, b):
    if a is None or b is None:
        return None
    fa, fb = float(a), float(b)
    if math.isinf(fa) and math.isinf(fb):
        return 0.0
    if math.isinf(fa) or math.isinf(fb):
        return math.inf
    return abs(fa - fb)


def _constants_text(constants: RecogConstants, names=CONSTANTS) -> str:
    return " ".join(f"{name}={getattr(constants, name)}" for name in names)


# -- subcommands -------------------------------------------------------------


@_subcommand
@SPEC
@FORMAT
def classify(spec: str, fmt: str) -> None:
    """Classify SPEC and print its combinatorial constants."""
    sub = Substitution.parse(spec)
    cls = sub.classify()
    constants = None
    if cls.kind is SubshiftKind.PRIMITIVE_APERIODIC:
        constants = recognizability_constants(cls.normalized)
    info = {
        "substitution": str(sub),
        "kind": cls.kind.value,
        "normalization": cls.normalization.value,
        "normalized": str(cls.normalized),
        "absorbing_letter": cls.absorbing_letter,
    }
    values = {name: None if constants is None else getattr(constants, name) for name in CONSTANTS}
    payload = {**info, "constants": None}
    if constants is not None:
        payload["constants"] = {name: _optional_json(v) for name, v in values.items()}
    row = tuple("" if v is None else str(v) for v in (*info.values(), *values.values()))
    lines = [
        f"substitution : {sub}",
        f"kind         : {cls.kind.value}",
        f"normalization: {cls.normalization.value} -> {cls.normalized}",
    ]
    if cls.absorbing_letter is not None:
        lines.append(f"absorbing    : {cls.absorbing_letter}")
    if constants is not None:
        lines.append(f"constants    : {_constants_text(constants)}")
    _emit(fmt, payload, (*info, *CONSTANTS), [row], lines)


@_subcommand
@SPEC
@M
@LMIN
@H
@EPS
@click.option("--n", "n", type=int, default=None, help="Finite plot size for the empirical report.")
@click.option("--asymptotic", is_flag=True, help="Also (or only) compute the exact limit.")
@FORMAT
@click.option("--log-base", type=click.Choice(["e", "2"]), default="e", help="Entropy display base.")
def analyze(spec, m, lmin, h, eps, n, asymptotic, fmt, log_base) -> None:
    """Compute recurrence quantifiers of SPEC, finite-size and/or limiting."""
    h, eps_note = _threshold(m, lmin, h, eps, n)
    sub = Substitution.parse(spec)
    if n is None and not asymptotic:
        raise DomainError("pass --n for a finite plot, --asymptotic, or both")
    notes = [eps_note] if eps_note else []
    payload = {"notes": notes}
    reports = []
    if n is not None:
        empirical, more = _empirical_report(sub, n, m, lmin, h)
        notes.extend(more)
        payload["empirical"] = _report_json(empirical)
        reports.append(empirical)
    if asymptotic:
        exact = _limits(sub, m, lmin, [h])[0]
        if exact.note:
            notes.append(exact.note)
        limit = _limit_report(exact)
        payload["asymptotic"] = _report_json(limit)
        reports.append(limit)
    rows = [_report_row(report) for report in reports]
    lines = [f"note: {note}" for note in notes]
    for report in reports:
        lines.extend(_report_text(report, log_base))
    if len(reports) == 2:
        gap = {key: _value_gap(getattr(empirical, key), getattr(limit, key)) for key in QUANTITIES}
        payload["gap"] = {
            k: (None if v is None else ("inf" if math.isinf(v) else v)) for k, v in gap.items()
        }
        rows.append(("gap", "", str(m), str(h), str(lmin), *map(_number_text, gap.values())))
        shown = ", ".join(
            f"{k}={'absent' if v is None else format(v, '.3g')}" for k, v in gap.items()
        )
        lines.append(f"gap (|empirical - limit|): {shown}")
    _emit(fmt, payload, _REPORT_HEADER, rows, lines)


@_subcommand
@SPEC
@click.option("--lmax", type=int, default=64, help="Largest length to tabulate.")
@FORMAT
def densities(spec: str, lmax: int, fmt: str) -> None:
    """Exact start-pair densities of SPEC up to a length bound."""
    at_least(lmax, 1, "lmax")
    sub = Substitution.parse(spec)
    cls = sub.classify()
    if cls.kind is not SubshiftKind.PRIMITIVE_APERIODIC:
        raise DomainError(
            f"density tables exist for primitive aperiodic substitutions, "
            f"got {cls.kind.value}"
        )
    table = reconstruct_base(cls.normalized)
    values = {l: dens_K(table, l) for l in range(1, lmax + 1)}
    payload = {
        "table": _table_json(table),
        "densities": {str(l): _frac_json(v) for l, v in values.items()},
    }
    rows = [
        (str(l), str(v.numerator), str(v.denominator), repr(float(v))) for l, v in values.items()
    ]
    origin = "" if table.subst == sub else f" (normalized from {sub})"
    lines = [
        f"substitution : {table.subst}{origin}",
        f"constants    : {_constants_text(table.constants, CONSTANTS[:-1])}",
        "base table   : " + "  ".join(f"{l}:{v}" for l, v in sorted(table.base.items())),
        f"start-pair densities up to {lmax} (zero lengths omitted):",
    ]
    lines.extend(f"  {l:4d}  {v}  (~{float(v):.3e})" for l, v in values.items() if v)
    _emit(fmt, payload, ("length", "numerator", "denominator", "approx"), rows, lines)


def _scales_callback(ctx, param, value):
    if not value:
        return ()
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError as exc:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from exc


@_subcommand
@SPEC
@click.option("--quantity", type=click.Choice(QUANTITIES), default="RR", help="Tracked quantifier.")
@click.option("--scales", callback=_scales_callback, default="", help="Comma-separated plot sizes.")
@M
@LMIN
@H
@EPS
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def convergence(spec, quantity, scales, m, lmin, h, eps, fmt) -> None:
    """Sweep plot sizes and chart the gap to the exact limit."""
    h, eps_note = _threshold(m, lmin, h, eps)
    sub = Substitution.parse(spec)
    scales = tuple(at_least(n, 2, "scale") for n in scales) or (256, 512, 1024, 2048, 4096)
    target = getattr(_limits(sub, m, lmin, [h])[0], quantity)
    sweep = []
    for n in sorted(scales):
        report, _ = _empirical_report(sub, n, m, lmin, h)
        value = getattr(report, quantity)
        sweep.append((n, value, _value_gap(value, target)))
    payload = {
        "quantity": quantity,
        "asymptotic": None
        if target is None
        else (_frac_json(target) if isinstance(target, Fraction) else _number_text(target)),
        "rows": [
            {"n": n, "empirical": _number_text(v), "gap": _number_text(g)} for n, v, g in sweep
        ],
    }
    if eps_note:
        payload["note"] = eps_note
    rows = [(str(n), _number_text(v), _number_text(target), _number_text(g)) for n, v, g in sweep]
    _emit(fmt, payload, ("n", "empirical", "asymptotic", "gap"), rows)


@_subcommand
@SPEC
@click.option("--n", "n", type=int, required=True, help="Plot size.")
@M
@H
@EPS
@click.option("--format", "fmt", type=click.Choice(["ascii", "pgm"]), default="ascii")
@click.option("-o", "--output", default=None, help="Write to a file instead of stdout.")
def render(spec, n, m, h, eps, fmt, output) -> None:
    """Render the recurrence plot of SPEC."""
    h, _ = _threshold(m, 1, h, eps)
    norm, _ = Substitution.parse(spec).normalize()
    _require_renderable(n)  # before the prefix: up to 2^26 letters for nothing
    x = norm.fixed_point_prefix(n + h + m)
    data = render_pgm(x, n, h, m=m) if fmt == "pgm" else render_ascii(x, n, h, m=m).encode()
    if output:
        try:
            Path(output).write_bytes(data)
        except OSError as exc:
            raise DomainError(f"cannot write {output}: {exc.strerror}") from exc
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


# -- the golden verification suite -------------------------------------------


@dataclass(frozen=True)
class _Golden:
    name: str
    spec: str
    constants: tuple[int, int, Fraction, int, int, int]  # alpha beta c K R R0
    base: dict[int, Fraction]
    anchors: dict[tuple[int, int, int], dict[str, Fraction]]  # (m, lmin, h) -> fields
    ent_log2: dict[tuple[int, int, int], Fraction] = field(default_factory=dict)


_GOLDENS = (
    _Golden(
        name="thue-morse",
        spec="01,10",
        constants=(0, 0, Fraction(0), 3, 4, 2),
        base={1: Fraction(1, 9), 2: Fraction(1, 18), 3: Fraction(1, 36)},
        anchors={
            (1, 1, 1): {
                "RR": Fraction(1, 2),
                "C": Fraction(1, 2),
                "Lavg": Fraction(9, 4),
                "DET": Fraction(1),
                "tail_density": Fraction(2, 9),
            },
            (1, 2, 1): {
                "RR": Fraction(7, 18),
                "C": Fraction(5, 18),
                "DET": Fraction(7, 9),
            },
        },
        ent_log2={(1, 1, 1): Fraction(2)},
    ),
    _Golden(
        name="period-doubling",
        spec="01,00",
        constants=(1, 0, Fraction(1), 2, 3, 1),
        base={1: Fraction(1, 9), 2: Fraction(1, 18)},
        anchors={
            (1, 1, 1): {"RR": Fraction(5, 9), "C": Fraction(5, 9)},
        },
        ent_log2={(1, 1, 1): Fraction(2)},
    ),
    _Golden(
        name="q5",
        spec="01110,01010",
        constants=(2, 2, Fraction(1), 3, 5, 1),
        base={
            1: Fraction(7, 50),
            2: Fraction(3, 50),
            3: Fraction(1, 50),
            4: Fraction(13, 1250),
        },
        anchors={
            (1, 1, 1): {"RR": Fraction(1, 2), "tail_density": Fraction(6, 25)},
        },
    ),
)

_EXAMPLE_TEXT = "010111010"


def _verify_example() -> list[tuple[str, bool, str]]:
    from .substitution import BitSequence

    x = BitSequence.from_text(_EXAMPLE_TEXT)
    checks = []
    report = measures_from_histogram(histogram(x, 6, 1), 2)
    expected = {
        "RR": Fraction(8, 30),
        "RR1": Fraction(14, 30),
        "DET": Fraction(4, 7),
        "Lavg": Fraction(2),
    }
    for name, want in expected.items():
        got = getattr(report, name)
        checks.append((f"example/{name}", got == want, f"{got} vs {want}"))
    checks.append(("example/ENT", report.ENT == 0.0, f"{report.ENT} vs 0.0"))
    c2 = correlation_sum(x, 6, 2, 1)
    c3 = correlation_sum(x, 6, 3, 1)
    checks.append(("example/C2", c2 == Fraction(12, 36), f"{c2} vs 12/36"))
    checks.append(("example/C3", c3 == Fraction(8, 36), f"{c3} vs 8/36"))
    return checks


def _verify_golden(golden: _Golden) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    sub = Substitution.parse(golden.spec)
    cls = sub.classify()
    name = golden.name

    constants = recognizability_constants(cls.normalized)
    got = tuple(getattr(constants, name) for name in CONSTANTS[:-1])
    checks.append((f"{name}/constants", got == golden.constants, f"{got} vs {golden.constants}"))

    table = reconstruct_base(cls.normalized)
    ok = table.base == golden.base
    detail = "all base densities match"
    if not ok:
        bad = {
            l: (table.base.get(l), golden.base.get(l))
            for l in set(table.base) | set(golden.base)
            if table.base.get(l) != golden.base.get(l)
        }
        detail = f"mismatch at lengths {bad}"
    checks.append((f"{name}/base-densities", ok, detail))

    for (m, lmin, h), fields in golden.anchors.items():
        a = _limit_report(quantifiers_via_sums(table, m, lmin, h))
        for fname, want in fields.items():
            got_value = getattr(a, fname)
            checks.append(
                (
                    f"{name}/limit-{fname}(m={m},l={lmin},h={h})",
                    got_value == want,
                    f"{got_value} vs {want}",
                )
            )
    for (m, lmin, h), factor in golden.ent_log2.items():
        ent = quantifiers_via_sums(table, m, lmin, h).ENT
        want = float(factor) * math.log(2.0)
        checks.append(
            (
                f"{name}/limit-ENT(m={m},l={lmin},h={h})",
                abs(ent - want) < 1e-12,
                f"{ent} vs {factor}*log 2",
            )
        )

    grid_ok, grid_detail = True, "closed form == tail sums on the grid"
    try:
        for lmin in range(1, 7):
            for m in (1, 2):
                for h in (1, 2, 4):
                    closed_form(table, m, lmin, h)
    except SubstRQAError as exc:
        grid_ok, grid_detail = False, str(exc)
    checks.append((f"{name}/closed-form-grid", grid_ok, grid_detail))

    rng = random.Random(0)
    norm = cls.normalized
    bad_cases = []
    for _ in range(10):
        n = rng.randrange(64, 513)
        lmin = rng.randrange(1, 5)
        h = rng.randrange(1, 4)
        x = norm.fixed_point_prefix(n + lmin + h + 2)
        if not residuals(x, n, lmin, h).satisfied():
            bad_cases.append((n, lmin, h))
    checks.append(
        (
            f"{name}/residual-bounds",
            not bad_cases,
            "10 random instances within bounds" if not bad_cases else f"violated at {bad_cases}",
        )
    )
    return checks


@_subcommand
@click.option("--filter", "filter_", default=None, help="Only goldens whose name contains this.")
@FORMAT
# Kept so existing invocations (`verify --no-cache`) still parse.
@click.option(
    "--no-cache", is_flag=True, expose_value=False,
    help="Accepted and ignored; nothing is cached on disk.",
)
def verify(filter_: str | None, fmt: str) -> int:
    """Check every pinned golden value; exit 1 on any failure."""
    checks: list[tuple[str, bool, str]] = []
    if not filter_:
        checks.extend(_verify_example())
    for golden in _GOLDENS:
        if filter_ and filter_ not in golden.name:
            continue
        checks.extend(_verify_golden(golden))
    if not checks:
        raise DomainError(f"filter {filter_!r} matched no golden case")
    failures = [c for c in checks if not c[1]]
    status = {True: "pass", False: "fail"}
    payload = {
        "checks": [
            {"name": name, "status": status[ok], "detail": detail} for name, ok, detail in checks
        ],
        "failures": len(failures),
    }
    rows = [(name, status[ok], detail) for name, ok, detail in checks]
    lines = [
        f"PASS {name}" if ok else f"FAIL {name}: {detail}" for name, ok, detail in checks
    ]
    lines.append(
        f"{len(checks) - len(failures)}/{len(checks)} checks passed"
        + (f", {len(failures)} FAILED" if failures else "")
    )
    _emit(fmt, payload, ("name", "status", "detail"), rows, lines)
    return 1 if failures else 0


if __name__ == "__main__":
    main()
