"""The substrqa benchmark: one seeded workload, checked outputs, metrics.

    python3 benchmarks/run.py --workload finite-plot --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics (set-up time, median and tail op time, throughput, peak
memory); with ``--trace 1`` it prints per-layer metrics from a separate
traced pass, plus the tracing overhead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out FILE`` also writes the full record (metadata, every op's status).

Workloads, metric definitions and the layer table are in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import env
import speed
import tracer as T
import workloads as W

WORKER_TIMEOUT = 150  # seconds; a worker still running then is killed and the run fails
PROBE_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
CLI_KINDS_S = {kind: f"cli.{kind}_s" for kind in W.CLI_KINDS}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it): the highest percentile that still
    has at least TAIL_BEYOND ops beyond it.  With fewer ops than that, the
    slowest op, with the count actually beyond it (zero)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _run_worker(workload: str, seed: int, mode: str, *, ops=0, repeat_s=0.0, trace=False) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=env.scratch_dir()))
    cmd = [
        sys.executable,
        str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--ops", str(ops),
        "--repeat-s", repr(repeat_s),
        "--workdir", str(workdir),
    ]
    if trace:
        cmd.append("--trace")
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=env.child_env(workdir / "cache"))
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} ran past {WORKER_TIMEOUT} s")
    if code != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {code}")
    result = json.loads((workdir / "result.json").read_text())
    shutil.rmtree(workdir)
    return result


def _timed(cmd: list[str], child_env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=child_env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cli_floor() -> dict[str, float]:
    """Interpreter start, `import substrqa.cli` on top of it, and sympy's
    import time (from -X importtime), each the median of a few processes."""
    with tempfile.TemporaryDirectory(dir=env.scratch_dir()) as cache:
        child_env = env.child_env(cache)
        py = sys.executable
        interp = statistics.median(_timed([py, "-c", "pass"], child_env) for _ in range(PROBE_REPEATS))
        imp = statistics.median(
            _timed([py, "-c", "import substrqa.cli"], child_env) for _ in range(PROBE_REPEATS)
        )
        sympy = []
        for _ in range(PROBE_REPEATS):
            proc = subprocess.run(
                [py, "-X", "importtime", "-c", "import substrqa.cli, sympy"],
                env=child_env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            match = re.search(r"\|\s*(\d+)\s*\|\s*sympy\s*$", proc.stderr, re.MULTILINE)
            sympy.append(int(match.group(1)) / 1e6 if match else 0.0)
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": imp - interp,
        "cli.import_sympy_s": statistics.median(sympy),
    }


def _tally(result: dict, check) -> tuple[int, int, list[str], list[str]]:
    """Check every op's output; (attempted, failed, not-certified notes,
    failure details).  Sets result["statuses"]."""
    checked = [check(op, out) for op, out in zip(result["ops"], result["outputs"])]
    result["statuses"] = [status for status, _ in checked]
    failed = [d for s, d in checked if s == "fail"]
    notes = [d for s, d in checked if s in ("refused", "new")]
    return len(checked), len(failed), notes, failed


def end_to_end(workload: str, seed: int, seconds: float, check) -> tuple[dict, dict]:
    """Run the same ops in a few fresh processes, one after the other.

    Every pass starts cold (fresh process, fresh density cache) and runs the
    ops in the same order, so each pass pays the same costs, at a different
    moment.  Each process's timings are scaled to the reference host speed
    by its speed probes (see speed.py); the timings are over every op of
    every pass.  Set-up time is the median of every pass's and of a
    set-up-only process on each side of the passes.
    """
    count = W.ops_per_pass(workload, seconds)
    repeat_s = W.REPEAT_S.get(workload, 0.0)
    probes = [_run_worker(workload, seed, "setup")]
    passes = []
    for _ in range(W.PASSES[workload]):
        passes.append(_run_worker(workload, seed, "run", ops=count, repeat_s=repeat_s))
    probes.append(_run_worker(workload, seed, "setup"))
    for p in probes + passes:
        p["scale"] = speed.REFERENCE_S / statistics.median(p["probes"])
    setups = [p["setup_s"] * p["scale"] for p in probes[:1] + passes + probes[1:]]
    first = passes[0]
    attempted, failed, notes, failures = _tally(first, check)
    # Later passes are checked against the first, byte for byte.
    digests = [W.digest(out) for out in first["outputs"]]
    for p in passes[1:]:
        attempted += len(p["outputs"])
        differ = sum(W.digest(out) != d for out, d in zip(p["outputs"], digests))
        failed += differ
        if differ:
            failures.append(f"{differ} ops of a later pass differ from the first pass")
    by_op = list(zip(*(p["times"] for p in passes)))
    raw = [t for ts in by_op for t in ts]
    times = [t * p["scale"] for p in passes for t in p["times"]]
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": (attempted - failed) / sum(times),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    info = {
        "plan_hash": first["plan_hash"],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "refused_frac": first["statuses"].count("refused") / len(first["ops"]),
        "op_tail": {"percentile": pct, "ops": len(times), "beyond": beyond},
        "passes": len(passes),
        "setup_samples": setups,
        "speed_scales": [p["scale"] for p in passes],
        "unscaled": {
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[0],
            "ops_per_s": (attempted - failed) / sum(raw),
        },
        "wall_s": [p["wall_s"] for p in passes],
        "notes": notes,
        "failures": failures,
        "ops": [
            {"op": op, "s": list(ts), "status": s}
            for op, ts, s in zip(first["ops"], by_op, first["statuses"])
        ],
    }
    return metrics, info


def layered(workload: str, seed: int, check) -> tuple[dict, dict]:
    k = W.block_size(workload)  # a whole block: every cli-cold op kind
    # Untraced, traced, untraced passes over the same ops: the traced pass
    # sits at the mean time of the two others, so drift that is linear in
    # time cancels out of the overhead.
    before = _run_worker(workload, seed, "run", ops=k)
    traced = _run_worker(workload, seed, "run", ops=k, trace=True)
    after = _run_worker(workload, seed, "run", ops=k)
    plain = [before, after]
    attempted, failed, notes, failures = _tally(before, check)
    first = [W.digest(o) for o in before["outputs"]]
    same = all([W.digest(o) for o in p["outputs"]] == first for p in (traced, after))
    if not same:
        failures.append("traced or repeated outputs differ from the first untraced outputs")
    untraced_s = [sum(p["times"]) for p in plain]
    traced_s = sum(traced["times"])
    metrics = T.layer_metrics(traced["dumps"], len(traced["ops"]))
    metrics["trace.overhead_frac"] = traced_s / statistics.mean(untraced_s) - 1
    cli = dict.fromkeys(CLI_KINDS_S.values(), 0.0)
    cli.update(dict.fromkeys(("cli.interpreter_s", "cli.import_s", "cli.import_sympy_s", "cli.cache_hit_ratio"), 0.0))
    if workload == "cli-cold":
        cli.update(cli_floor())
        hits = sum(p["cache_hits"][0] for p in plain)
        looked = sum(p["cache_hits"][1] for p in plain)
        cli["cli.cache_hit_ratio"] = hits / looked if looked else 0.0
        for kind, name in CLI_KINDS_S.items():
            times = [t for p in plain for op, t in zip(p["ops"], p["times"]) if op["kind"] == kind]
            cli[name] = statistics.median(times) if times else 0.0
    metrics.update(cli)
    info = {
        "plan_hash": plain[0]["plan_hash"],
        "attempted": attempted,
        "failed": failed + (0 if same else 1),
        "traced_outputs_identical": same,
        "untraced_op_s_totals": untraced_s,
        "traced_op_s_total": traced_s,
        # How far the two untraced passes of the same ops differ; an
        # overhead inside this is not told apart from drift.
        "untraced_spread": abs(untraced_s[0] - untraced_s[1]) / statistics.mean(untraced_s),
        "notes": notes,
        "failures": failures,
    }
    return metrics, info


def _git_sha() -> str:
    if not (env.ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def meta(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "git_sha": _git_sha(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the full record here")
    args = parser.parse_args(argv)
    try:
        # Fails fast, before any timing, if there is no program to check against.
        check = W.checker(args.workload, env.import_program())
        if args.trace:
            metrics, info = layered(args.workload, args.seed, check)
            units = LAYER_UNITS
        else:
            metrics, info = end_to_end(args.workload, args.seed, args.seconds, check)
            units = END_TO_END_UNITS
    except (BenchError, env.MissingProgram) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {"meta": meta(args.workload, args.seed, args.seconds, args.trace), **info}
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print(f"ops: {info['attempted']} attempted, {info['failed']} failed, plan {info['plan_hash']}")
    if not args.trace:
        print(
            f"fail_frac = {info['fail_frac']!r} ratio ({info['failed']}/{info['attempted']})"
        )
        print(f"refused_frac = {info['refused_frac']!r} ratio (documented refusals, named below)")
        tail_info = info["op_tail"]
        print(
            f"op_tail_s is p{tail_info['percentile']:.1f} of {tail_info['ops']} op times "
            f"({tail_info['beyond']} beyond it)"
        )
        scales = " ".join(f"{x:.3f}" for x in info["speed_scales"])
        print(f"timings are scaled to the reference host speed; scale per pass: {scales}")
        for name, value in info["unscaled"].items():
            print(f"unscaled {name} = {value!r}")
    else:
        print(
            f"trace.overhead_frac is traced over untraced op time - 1, passes U T U; "
            f"the two untraced passes differ by {info['untraced_spread']:.3f} of their mean"
        )
    for note in info["notes"]:
        print(f"not certified (as at the reference): {note}")
    for failure in info["failures"]:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out is not None:
        record["result"] = result
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


LAYER_UNITS = {
    "recplot.inner_line_counts_s": "s",
    "recplot.inner_line_counts_cells": "count",
    "recplot.histogram_s": "s",
    "recplot.histogram_cells": "count",
    "recplot.histogram_cells_per_s": "1/s",
    "recplot.peak_alloc_mb": "MB",
    "recognizability.constants_s": "s",
    "recognizability.letters_scanned": "count",
    "recognizability.cache_hit_ratio": "ratio",
    "densities.exact_s": "s",
    "densities.reconstruct_base_s": "s",
    "densities.certified_ratio": "ratio",
    "asymptotics.closed_form_s": "s",
    "asymptotics.tail_sums_s": "s",
    "asymptotics.scan_s": "s",
    "rqa.measures_s": "s",
    "rqa.correlation_sum_s": "s",
    "substitution.fixed_point_prefix_s": "s",
    "substitution.letters_generated": "count",
    "substitution.classify_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_sympy_s": "s",
    "cli.cache_hit_ratio": "ratio",
    **{name: "s" for name in CLI_KINDS_S.values()},
    "trace.overhead_frac": "ratio",
}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
