"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SMOKE_OPS = 4


@pytest.fixture(scope="module")
def lib():
    return env.import_program()


def test_metric_names_match_benchmark_json():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(t) for t in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0, 10)
    assert run.tail(list(reversed(times))) == (90.0, 90.0, 10)
    value, pct, beyond = run.tail([float(t) for t in range(1, 12)])
    assert (value, beyond) == (1.0, 10) and pct == pytest.approx(100 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_same_seed_same_plan(lib):
    for workload in W.WORKLOADS:
        first = W.plan_hash(W.plan(workload, 7, lib))
        assert first == W.plan_hash(W.plan(workload, 7, lib))
        assert first != W.plan_hash(W.plan(workload, 8, lib))


def test_limit_plan_holds_goldens_first_and_never_repeats(lib):
    blocks = W.plan("limit-sweep", 3, lib)
    assert set(W.GOLDEN_SPECS) <= {op["spec"] for op in blocks[0]}
    specs = [op["spec"] for block in blocks for op in block]
    assert len(specs) == len(set(specs))
    assert W.WARMUP_SPEC not in specs


def test_finite_plot_blocks_hold_the_same_slots(lib):
    def slots(block):
        return sorted((op["spec"], op["n"], op["h"] + op["m"] - 1) for op in block)

    blocks = W.plan("finite-plot", 3, lib)[:5] + W.plan("finite-plot", 4, lib)[:1]
    for block in blocks:
        assert slots(block) == slots(blocks[0])
    sizes = sorted(op["n"] for op in blocks[0])
    assert sizes == sorted(list(W.PLOT_SWEEP) + [n for n, k in W.PLOT_EXTRA.items() for _ in range(k)])
    assert min(sizes) == 1 << 8 and max(sizes) == W.PLOT_SIZES[26]
    assert run.tail(sizes * W.PASSES["finite-plot"])[0] == 1 << 14


def test_cli_blocks_fix_what_each_run_pays(lib):
    for block in W.plan("cli-cold", 3, lib)[:5]:
        kinds = [op["kind"] for op in block]
        assert {kind: kinds.count(kind) for kind in W.CLI_KINDS} == W.CLI_BLOCK
        dens = [op["args"][1] for op in block if op["kind"] == "densities"]
        assert len(dens) == 2 and len(set(dens)) == 1 and dens[0] not in W.GOLDEN_SPECS
        sizes = [int(op["args"][3]) for op in block if op["kind"] == "analyze_n"]
        assert sorted(sizes) == sorted(W.CLI_N_BLOCK)
        forms = [op["args"][1] for op in block if op["kind"] in W.CLI_FORM_KINDS]
        assert sorted(forms) == sorted(W.cli_pool(lib))


def test_a_run_holds_whole_blocks():
    for workload in W.WORKLOADS:
        size = W.block_size(workload)
        assert W.ops_per_pass(workload, 1) == size
        assert W.ops_per_pass(workload, 2 * W.PASSES[workload] * W.BLOCK_SECONDS[workload]) == 2 * size


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_run_passes_checks_and_trace_keeps_outputs(workload):
    plain = run._run_worker(workload, 1, "run", ops=SMOKE_OPS)
    traced = run._run_worker(workload, 1, "run", ops=SMOKE_OPS, trace=True)
    assert len(plain["ops"]) == SMOKE_OPS
    check = W.checker(workload, env.import_program())
    checked = [check(op, out) for op, out in zip(plain["ops"], plain["outputs"])]
    assert all(status != "fail" for status, _ in checked), checked
    assert json.dumps(traced["outputs"]) == json.dumps(plain["outputs"])
    layers = run.T.layer_metrics(traced["dumps"], len(traced["ops"]))
    assert set(layers) | {"trace.overhead_frac"} <= set(run.LAYER_UNITS)


def test_golden_check_catches_a_wrong_value(lib):
    out = W.limit_op(lib, {"spec": W.TM})
    ref = W.load_reference("limit-sweep")
    assert W.check_limit(lib, {"spec": W.TM}, out, ref)[0] == "ok"
    out["exact"][0][2] = "1/3"  # RR at (m, lmin, h) = (1, 1, 1)
    assert W.check_limit(lib, {"spec": W.TM}, out, ref)[0] == "fail"


def test_cli_check_catches_a_wrong_golden_limit():
    op = {"kind": "analyze_asymptotic", "args": ["analyze", W.TM, "--asymptotic", "--format", "json", "-l", "2"]}
    with tempfile.TemporaryDirectory(dir=env.scratch_dir()) as cache:
        out = W.cli_op(sys.executable, env.child_env(cache), op)
    ref = W.load_reference("cli-cold")
    assert out["limit"]["RR"] == "7/18"
    assert W.check_cli(op, out, ref)[0] == "ok"
    out["limit"]["DET"] = "1/1"
    assert W.check_cli(op, out, ref)[0] == "fail"


def test_plot_check_catches_a_wrong_histogram(lib):
    op = {"spec": W.PD, "n": 256, "h": 1, "m": 1, "lmin": 2}
    out = W.plot_op(lib, op)
    ref = W.load_reference("finite-plot")
    assert W.check_plot(lib, op, out, ref)[0] == "ok"
    out["hist"][0][1] += 2
    assert W.check_plot(lib, op, out, ref)[0] == "fail"


def test_fails_without_the_program():
    bare = Path(tempfile.mkdtemp(dir=env.scratch_dir()))
    try:
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            env.ROOT / "benchmarks", bare / "benchmarks",
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "finite-plot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
