"""End-to-end tests of the command-line front end via click's runner."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import substrqa
from substrqa import cli
from substrqa.cli import main
from substrqa.densities import reconstruct_base
from substrqa.errors import DiscrepancyError, ReconstructionError
from substrqa.recplot import histogram, render_ascii
from substrqa.rqa import RQAReport, correlation_sum
from substrqa.substitution import Substitution

TM = "0->01,1->10"
PD = "01,00"
PROXIMAL = "0->010,1->111"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


def frac(payload: dict) -> Fraction:
    return Fraction(payload["num"], payload["den"])


class TestClassify:
    def test_thue_morse_text(self, runner):
        result = invoke(runner, "classify", TM)
        assert result.exit_code == 0
        assert "primitive_aperiodic" in result.output
        assert "alpha=0" in result.output
        assert "R=4" in result.output
        assert "R0=2" in result.output

    def test_proximal(self, runner):
        result = invoke(runner, "classify", PROXIMAL)
        assert result.exit_code == 0
        assert "nonprimitive_proximal" in result.output
        # no constants line for degenerate kinds
        assert "alpha=" not in result.output

    def test_json(self, runner):
        result = invoke(runner, "classify", TM, "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "primitive_aperiodic"
        assert payload["constants"]["R"] == 4
        assert payload["constants"]["q"] == 2

    def test_csv_matches_json(self, runner):
        result = invoke(runner, "classify", TM, "--format", "csv")
        assert result.exit_code == 0
        header, row = csv.reader(result.output.splitlines())
        fields = dict(zip(header, row, strict=True))
        payload = json.loads(invoke(runner, "classify", TM, "--format", "json").output)
        for key in ("substitution", "kind", "normalization", "normalized"):
            assert fields[key] == payload[key]
        assert fields["absorbing_letter"] == ""
        for key in ("alpha", "beta", "K", "R", "R0", "q"):
            assert fields[key] == str(payload["constants"][key])
        assert Fraction(fields["c"]) == frac(payload["constants"]["c"])

    def test_csv_leaves_absent_constants_empty(self, runner):
        result = invoke(runner, "classify", PROXIMAL, "--format", "csv")
        assert result.exit_code == 0
        header, row = csv.reader(result.output.splitlines())
        fields = dict(zip(header, row, strict=True))
        assert fields["kind"] == "nonprimitive_proximal"
        assert fields["absorbing_letter"] == "1"
        assert all(fields[key] == "" for key in ("alpha", "beta", "c", "K", "R", "R0", "q"))

    def test_parse_error_exit_2(self, runner):
        result = invoke(runner, "classify", "0->0,1->1")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_garbage_spec_exit_2(self, runner):
        result = invoke(runner, "classify", "banana")
        assert result.exit_code == 2


class TestAnalyze:
    def test_asymptotic_thue_morse(self, runner):
        result = invoke(runner, "analyze", TM, "--asymptotic", "--no-cache")
        assert result.exit_code == 0
        assert "RR   = 1/2" in result.output
        assert "2·log 2" in result.output  # symbolic entropy
        assert "Lavg = 9/4" in result.output

    def test_limit_at_large_h_does_not_build_two_to_the_h(self, runner):
        # The limit at h is cheap; building 2^h and quantizing it back to h
        # peaked at 45.6 MB of traced memory at h = 10^8.
        assert invoke(runner, "analyze", "01,10", "--asymptotic", "-h", "1").exit_code == 0
        tracemalloc.start()
        try:
            result = invoke(runner, "analyze", "01,10", "--asymptotic", "-h", "100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert "h=100000000" in result.output
        assert peak < 2 << 20

    def test_log_base_2(self, runner):
        result = invoke(
            runner, "analyze", TM, "--asymptotic", "--no-cache", "--log-base", "2"
        )
        assert result.exit_code == 0
        assert "2 (log base 2)" in result.output

    def test_requires_a_mode(self, runner):
        result = invoke(runner, "analyze", TM)
        assert result.exit_code == 2
        assert "--n" in result.stderr and "--asymptotic" in result.stderr

    def test_h_and_eps_conflict(self, runner):
        result = invoke(runner, "analyze", TM, "--asymptotic", "-h", "1", "--eps", "0.3")
        assert result.exit_code == 2

    @pytest.mark.parametrize("eps", ["inf", "-inf"])
    def test_infinite_eps_is_a_usage_error(self, runner, eps):
        result = invoke(runner, "analyze", TM, "--asymptotic", "--eps", eps)
        assert result.exit_code == 2
        assert "error: threshold must be a number" in result.stderr

    def test_eps_quantization_note(self, runner):
        result = invoke(runner, "analyze", TM, "--asymptotic", "--eps", "0.3", "--no-cache")
        assert result.exit_code == 0
        assert "quantized to 2^-2" in result.output
        assert "h=2" in result.output

    def test_empirical_close_to_limit(self, runner):
        result = invoke(
            runner, "analyze", TM, "--n", "2048", "--asymptotic", "--no-cache",
            "--format", "json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        emp, asy = payload["empirical"], payload["asymptotic"]
        assert emp["n"] == 2048 and asy["n"] is None
        assert abs(float(frac(emp["RR"])) - float(frac(asy["RR"]))) < 1e-2
        assert payload["gap"]["RR"] < 1e-2

    def test_nonprimitive_asymptotic(self, runner):
        result = invoke(runner, "analyze", PROXIMAL, "--asymptotic")
        assert result.exit_code == 0
        assert "RR   = 1" in result.output
        assert "DET  = 1" in result.output
        assert "C    = 1" in result.output
        assert "Lavg = infinite" in result.output
        assert "ENT  = absent" in result.output

    @pytest.mark.parametrize("spec", ["1010,0000", "1111,0101"])
    def test_square_recognizable_past_64_letters(self, runner, spec):
        # Both normalize by squaring to q = 16 forms with R = 78.
        result = invoke(runner, "analyze", spec, "--asymptotic")
        assert result.exit_code == 0, result.stderr
        assert "RR   = 5/9" in result.output

    def test_json_derived_quantities_round_trip(self, runner):
        # emitted DET and Lavg must be recomputable from the payload exactly
        result = invoke(
            runner, "analyze", TM, "--n", "512", "--asymptotic", "--no-cache",
            "--format", "json", "-l", "2",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        for key in ("empirical", "asymptotic"):
            report = payload[key]
            assert frac(report["DET"]) == frac(report["RR"]) / frac(report["RR1"])
            assert frac(report["Lavg"]) == frac(report["RR"]) / frac(report["tail_density"])

    def test_csv_both_modes(self, runner):
        result = invoke(
            runner, "analyze", TM, "--n", "256", "--asymptotic", "--no-cache",
            "--format", "csv",
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split(",") == list(RQAReport.CSV_HEADER)
        assert len(lines) == 4  # header + empirical + asymptotic + gap
        assert lines[1].startswith("empirical,256,")
        assert lines[2].startswith("asymptotic,,")
        assert lines[3].startswith("gap,")

    def test_long_minimum_line_length(self, runner):
        # The correlation sum at lmin reads n + lmin + h + m - 3 letters.
        result = invoke(runner, "analyze", TM, "--n", "64", "-l", "5", "--format", "json")
        assert result.exit_code == 0, result.stderr
        x = Substitution.parse(TM).fixed_point_prefix(64 + 5 + 1 + 1)
        assert frac(json.loads(result.output)["empirical"]["C"]) == correlation_sum(x, 64, 5, 1)


class TestDensities:
    def test_text_table(self, runner):
        result = invoke(runner, "densities", PD, "--lmax", "12", "--no-cache")
        assert result.exit_code == 0
        assert "1:1/9" in result.output
        assert "2:1/18" in result.output
        # chain lengths 3, 5, 11 present, gap lengths absent
        assert "  11  1/288" in result.output
        assert "\n   4 " not in result.output

    def test_json_dump(self, runner):
        result = invoke(
            runner, "densities", TM, "--lmax", "8", "--format", "json", "--no-cache"
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["table"]["base"]["2"] == [1, 18]
        assert payload["densities"]["8"] == {"num": 1, "den": 288, "approx": 1 / 288}

    def test_rejects_degenerate(self, runner):
        result = invoke(runner, "densities", PROXIMAL, "--no-cache")
        assert result.exit_code == 2
        assert "primitive aperiodic" in result.stderr

    @pytest.mark.parametrize("lmax", ["0", "-5"])
    def test_rejects_nonpositive_lmax(self, runner, lmax):
        result = invoke(runner, "densities", TM, "--lmax", lmax)
        assert result.exit_code == 2
        assert "lmax must be >= 1" in result.stderr


class TestConvergence:
    def test_csv_shape(self, runner):
        result = invoke(
            runner, "convergence", TM, "--scales", "128,256", "--no-cache"
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,empirical,asymptotic,gap"
        assert len(lines) == 3
        n1, emp1, asy1, gap1 = lines[1].split(",")
        assert n1 == "128" and asy1 == "0.5"
        assert abs(float(emp1) - 0.5) == pytest.approx(float(gap1))

    def test_gap_shrinks(self, runner):
        result = invoke(
            runner, "convergence", TM, "--scales", "256,1024", "--no-cache",
            "--format", "json",
        )
        payload = json.loads(result.output)
        gaps = [float(row["gap"]) for row in payload["rows"]]
        assert gaps[1] < gaps[0]

    def test_bad_scales(self, runner):
        result = invoke(runner, "convergence", TM, "--scales", "banana")
        assert result.exit_code == 2

    def test_long_minimum_line_length(self, runner):
        result = invoke(
            runner, "convergence", TM, "-l", "5", "--scales", "64", "--quantity", "C"
        )
        assert result.exit_code == 0, result.stderr
        x = Substitution.parse(TM).fixed_point_prefix(64 + 5 + 1 + 1)
        row = result.output.strip().splitlines()[1].split(",")
        assert row[1] == repr(float(correlation_sum(x, 64, 5, 1)))


class TestRender:
    def test_ascii_matches_library(self, runner):
        result = invoke(runner, "render", TM, "--n", "16")
        assert result.exit_code == 0
        sub, _ = Substitution.parse(TM).normalize()
        expected = render_ascii(sub.fixed_point_prefix(16 + 2), 16, 1)
        assert result.output == expected

    def test_pgm_to_file(self, runner, tmp_path):
        out = tmp_path / "plot.pgm"
        result = invoke(runner, "render", TM, "--n", "32", "--format", "pgm", "-o", str(out))
        assert result.exit_code == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_ascii_to_file(self, runner, tmp_path):
        out = tmp_path / "plot.txt"
        result = invoke(runner, "render", TM, "--n", "8", "-o", str(out))
        assert result.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 8

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_output_is_refused(self, runner, tmp_path, target):
        # A usage problem, not a failed verify check (exit 1) or a traceback.
        out = tmp_path / "no" / "x.pgm" if target == "missing" else tmp_path
        result = invoke(runner, "render", TM, "--n", "16", "-o", str(out))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert result.stderr.count("\n") == 1

    def test_single_cell_plot(self, runner):
        # The renderers draw a 1x1 plot; the analyze rule (n >= 2) does not apply.
        result = invoke(runner, "render", "01,10", "--n", "1")
        assert (result.exit_code, result.stdout, result.stderr) == (0, "#\n", "")

    def test_cap_refused_before_the_prefix(self, runner, monkeypatch):
        calls = []
        monkeypatch.setattr(Substitution, "fixed_point_prefix", lambda self, n: calls.append(n))
        result = invoke(runner, "render", "01,10", "--n", "5000")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "rendering is capped at 4096x4096" in result.stderr
        assert calls == []


class TestVerify:
    def test_full_suite_passes(self, runner):
        result = invoke(runner, "verify")
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "33/33 checks passed" in result.output

    def test_filter(self, runner):
        result = invoke(runner, "verify", "--filter", "q5", "--no-cache")
        assert result.exit_code == 0
        assert "q5/" in result.output
        assert "thue-morse" not in result.output

    def test_filter_no_match(self, runner):
        result = invoke(runner, "verify", "--filter", "nope", "--no-cache")
        assert result.exit_code == 2

    def test_empty_filter_is_no_filter(self, runner):
        result = invoke(runner, "verify", "--filter", "")
        assert result.exit_code == 0
        assert result.output.endswith("33/33 checks passed\n")
        assert result.output == invoke(runner, "verify").output

    def test_tampered_table_fails_by_name(self, runner, monkeypatch):
        def tampered(sub):
            table = reconstruct_base(sub)
            return dataclasses.replace(table, base={**table.base, 2: Fraction(1, 19)})

        monkeypatch.setattr(cli, "reconstruct_base", tampered)
        result = invoke(runner, "verify", "--filter", "thue-morse")
        assert result.exit_code == 1
        assert "FAIL thue-morse/base-densities" in result.output

    def test_csv_format(self, runner):
        result = invoke(runner, "verify", "--filter", "thue-morse", "--format", "csv")
        assert result.exit_code == 0
        header, *rows = csv.reader(result.output.splitlines())
        assert header == ["name", "status", "detail"]
        assert rows and all(status == "pass" for _, status, _ in rows)
        assert "thue-morse/base-densities" in {name for name, _, _ in rows}

    def test_csv_format_fails_by_name(self, runner, monkeypatch):
        def tampered(sub):
            table = reconstruct_base(sub)
            return dataclasses.replace(table, base={**table.base, 2: Fraction(1, 19)})

        monkeypatch.setattr(cli, "reconstruct_base", tampered)
        result = invoke(runner, "verify", "--filter", "thue-morse", "--format", "csv")
        assert result.exit_code == 1
        rows = list(csv.reader(result.output.splitlines()))[1:]
        assert ["thue-morse/base-densities", "fail"] in [row[:2] for row in rows]

    def test_json_format(self, runner):
        result = invoke(runner, "verify", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["failures"] == 0
        names = {check["name"] for check in payload["checks"]}
        assert "example/DET" in names
        assert all(check["status"] == "pass" for check in payload["checks"])



# Every non-convergence command of the benchmark reference, plus the
# convergence sweeps of one form, prints the bytes the reference recorded.
REFERENCE = json.loads(
    (Path(__file__).parents[1] / "benchmarks" / "reference" / "cli-cold.json").read_text()
)
REFERENCE_OPS = sorted(
    op
    for op in REFERENCE
    if not op.startswith("convergence") or op.startswith("convergence 01,10 ")
)
# Formats the reference never runs, pinned the same way.
PINNED = {
    "analyze 01,10 --n 64 --asymptotic --format json": "b9416836bfc19165",
    "analyze 01,10 --n 64 --asymptotic --format csv": "44f266b8a6f91c33",
    "analyze 010,111 --n 64 --asymptotic --format csv": "b71444e026001b5f",
    "convergence 010,111 --scales 64 --format json --quantity Lavg": "f76654d73ef2e4af",
    "classify 01,10 --format json": "4066d691267ed178",
    "densities 01,00 --format json": "7b41eafaa4d38922",
    "verify --format json": "66496b85e4f4f275",
    "classify 01,10 --format csv": "495bf4d199246297",
    "classify 010,111 --format csv": "8de46c8727e8c67e",
    "classify 11,10": "b89b818fd9619033",
    "classify 10,01": "7380346ef8dadd99",
    "analyze 01,10 --asymptotic": "7ef91bb512b8998a",
    "analyze 01,10 --asymptotic --log-base 2": "fb3ce27794cc652f",
    "analyze 01,10 --asymptotic --eps 0.3": "e097d655ee19c716",
    "analyze 01,10 --n 64 --format json": "2ed0a02612c22727",
    "analyze 01,10 --n 64 --format csv": "8fbb3e5c71a091da",
    "densities 01,00 --format csv": "a29418e5c9add273",
    "densities 10,00 --lmax 8 --format json": "ca8d20cab3b325f4",
    "densities 10,00 --lmax 8": "c2b47cd12578ad22",
    "verify --format csv": "ea6d9e43532be305",
    "convergence 01,10 --scales 64,128 --format json --eps 0.3": "7fd27aaa50e55cbb",
    "render 01,10 --n 16": "9aec2257bd2dcb0d",
    "render 01,10 --n 16 --format pgm": "42dd3656297f20f2",
    # A 70-letter window: wider than one 57-letter key.
    "render 01110,01010 --n 64 -h 70 --format pgm": "ad1535090eec961d",
}
# Refusals: exit code and a digest of stderr; stdout stays empty.
PINNED_ERRORS = {
    "classify banana": (2, "2c7334c8220b0f6a"),  # ParseError
    "densities 010,111": (2, "20645077e017bdc7"),  # DomainError
    "render 01,10 --n 5000": (3, "72bcb1747bee4142"),  # ResourceLimitError
    "analyze 01,10 --n 100000000": (3, "48c3ef39c596a6e7"),
}


def _stdout_digest(runner, op: str) -> tuple[int, str]:
    result = runner.invoke(main, op.split())
    return result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest()[:16]


@pytest.mark.parametrize("op", REFERENCE_OPS)
def test_output_matches_reference(runner, op):
    want = REFERENCE[op]
    assert _stdout_digest(runner, op) == (want["exit"], want["stdout"])


@pytest.mark.parametrize("op", sorted(PINNED))
def test_output_matches_pinned_digest(runner, op):
    assert _stdout_digest(runner, op) == (0, PINNED[op])


@pytest.mark.parametrize("op", sorted(PINNED_ERRORS))
def test_refusal_matches_pinned_digest(runner, op):
    result = runner.invoke(main, op.split())
    digest = hashlib.sha256(result.stderr_bytes).hexdigest()[:16]
    assert (result.exit_code, digest) == PINNED_ERRORS[op]
    assert result.stdout_bytes == b""


def test_failed_check_matches_pinned_digest(runner, monkeypatch):
    def tampered(sub):
        table = reconstruct_base(sub)
        return dataclasses.replace(table, base={**table.base, 2: Fraction(1, 19)})

    monkeypatch.setattr(cli, "reconstruct_base", tampered)
    assert _stdout_digest(runner, "verify --filter thue-morse") == (1, "89a0c3161c058680")


@pytest.mark.parametrize("error", [ReconstructionError, DiscrepancyError])
@pytest.mark.parametrize(
    "layer, args",
    [
        ("_limits", ["analyze", TM, "--n", "64", "--asymptotic"]),
        ("reconstruct_base", ["densities", TM]),
        ("_limits", ["convergence", TM, "--scales", "64"]),
        ("reconstruct_base", ["verify"]),
    ],
)
def test_refused_computation_exits_3(runner, monkeypatch, layer, args, error):
    def refuse(*args, **kwargs):
        raise error("refused on purpose")

    monkeypatch.setattr(cli, layer, refuse)
    result = invoke(runner, *args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: refused on purpose\n"


def test_correlation_sums_out_of_order_exit_3(runner, monkeypatch):
    # A table with base 1 raised to 9/10 gives a limit correlation sum above
    # 1: a fault of the exact route (exit 3), not of the input (exit 2).
    table = reconstruct_base(Substitution.parse(TM))
    raised = dataclasses.replace(table, base={**table.base, 1: Fraction(9, 10)})
    monkeypatch.setattr("substrqa.asymptotics.reconstruct_base", lambda sub: raised)
    result = invoke(runner, "analyze", "01,10", "--asymptotic")
    assert result.exit_code == 3
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def _readme_examples() -> dict[str, str]:
    """Output of each `$ substrqa` example in README's command line block
    whose output is shown in full: not elided with `...` and not empty (the
    render examples print no text)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = {}
    for chunk in block.split("\n$ ")[1:]:
        command, *output = chunk.split("\n\n", 1)[0].splitlines()
        if command.startswith("substrqa ") and output and "..." not in output:
            examples[command] = "".join(line + "\n" for line in output)
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command", sorted(README_EXAMPLES))
def test_readme_example_output(runner, command):
    result = runner.invoke(main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == README_EXAMPLES[command]


def test_names_the_benchmark_reads_resolve():
    # benchmarks/ imports the package by name; it is read here, not changed.
    n1, n2 = substrqa.DEFAULT_SCALES
    assert type(n1) is int and type(n2) is int
    path = Path(__file__).parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS.values():
        owner = getattr(substrqa, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_exact_route_does_not_import_sympy():
    code = (
        "import sys\n"
        "from substrqa.cli import main\n"
        "main(['analyze', '01,10', '--asymptotic'], standalone_mode=False)\n"
        "main(['densities', '01,10'], standalone_mode=False)\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(substrqa.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "RR   = 1/2" in proc.stdout
