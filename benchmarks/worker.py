"""One benchmark process: set up, warm up, run ops, write what it measured.

Started by run.py, never by hand.  ``--spawned-at`` is the parent's
``perf_counter()`` just before it started this process (the clock is
CLOCK_MONOTONIC, shared by all processes), so set-up time covers
interpreter start, imports, plan generation and one warm-up op.

Both modes also time speed.probe (see speed.py).

Modes:
  setup  stop after the warm-up and report set-up time only;
  run    then run the first --ops ops of the seeded plan; an op that
         takes less than --repeat-s runs again, back to back, until its
         runs add up to that, and its fastest run counts; --trace records
         spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import env
import speed
import workloads as W


def _op_runner(workload: str, lib, cache_dir: Path, trace_dir: Path | None):
    """A function op -> output record, for the given workload."""
    if workload == "limit-sweep":
        return lambda op: W.limit_op(lib, op)
    if workload == "finite-plot":
        return lambda op: W.plot_op(lib, op)
    child_env = env.child_env(cache_dir)
    if trace_dir is None:
        return lambda op: W.cli_op(sys.executable, child_env, op)
    shim = str(Path(__file__).resolve().parent / "cli_shim.py")

    def traced(op):
        spans = trace_dir / f"op{traced.count}.json"
        traced.count += 1
        child = dict(child_env, BENCH_SPANS=str(spans))
        return W.cli_op(sys.executable, child, op, launcher=[shim])

    traced.count = 0
    return traced


def _cache_hits(lib, cache_dir: Path, op: dict) -> tuple[int, int]:
    """(tables already on disk, tables looked up) for one cli op."""
    if op["kind"] == "densities":
        specs = [op["args"][1]]
    elif op["kind"] == "verify":
        specs = list(W.GOLDEN_SPECS)
    else:
        return 0, 0
    n1, n2 = lib.DEFAULT_SCALES
    hits = 0
    for spec in specs:
        norm = lib.Substitution.parse(spec).classify().normalized
        hits += (cache_dir / f"dens-{norm.image0}-{norm.image1}-{n1}-{n2}.json").exists()
    return hits, len(specs)


def _timed(run_op, op: dict, repeat_s: float) -> tuple[dict, float]:
    """Run an op until its runs add up to repeat_s (at least once); its
    output and its fastest run."""
    best, spent = float("inf"), 0.0
    while True:
        t0 = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:  # an op that crashes is a failed op
            return {"crash": f"{type(exc).__name__}: {exc}"}, time.perf_counter() - t0
        took = time.perf_counter() - t0
        best = min(best, took)
        spent += took
        if spent >= repeat_s:
            return out, best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--repeat-s", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    lib = env.import_program()
    blocks = W.plan(args.workload, args.seed, lib)
    cache_dir = args.workdir / "cache"
    cache_dir.mkdir()
    run_op = _op_runner(args.workload, lib, cache_dir, None)
    warm = W.warmup_op(args.workload)
    run_op(warm)
    setup_s = time.perf_counter() - args.spawned_at
    result = {"setup_s": setup_s, "plan_hash": W.plan_hash(blocks)}
    if args.mode == "setup":
        result["probes"] = [speed.probe() for _ in range(5)]
        (args.workdir / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    trace_dir = None
    if args.trace:
        import tracer as T

        trace_dir = args.workdir / "spans"
        trace_dir.mkdir()
        tracer = T.Tracer(lib)
        tracer.install()
        run_op = _op_runner(args.workload, lib, cache_dir, trace_dir)

    # Outputs are checked by the parent after this process ends, so the
    # checks (extract_lines builds large Python lists) cannot disturb op
    # timings or this process's peak memory.
    ops, times, outputs, probes = [], [], [], []
    cache = [0, 0]
    start = time.perf_counter()
    for op in [op for block in blocks for op in block][: args.ops]:
        if args.workload == "cli-cold":
            hit, looked = _cache_hits(lib, cache_dir, op)
            cache[0] += hit
            cache[1] += looked
        probes.append(speed.probe())
        if tracer is not None:
            tracer.op = len(ops)
        out, best = _timed(run_op, op, args.repeat_s)
        times.append(best)
        if tracer is not None:
            tracer.op = None
        ops.append(op)
        outputs.append(out)
    wall = time.perf_counter() - start

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    )
    result.update(
        ops=ops,
        times=times,
        probes=probes,
        outputs=outputs,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,
        cache_hits=cache,
    )
    if tracer is not None:
        tracer.uninstall()
        dumps = [tracer.dump()]
        if trace_dir is not None:
            dumps.extend(
                json.loads(p.read_text()) for p in sorted(trace_dir.glob("op*.json"))
            )
        result["dumps"] = dumps
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
