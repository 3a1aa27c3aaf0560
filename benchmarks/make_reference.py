"""Record the reference outputs every benchmark op is checked against.

Run from the repository root, once per workload:

    python3 benchmarks/make_reference.py limit-sweep

It writes benchmarks/reference/<workload>.json.  The files hold the outputs
of the program as it stood when they were recorded; a later mismatch is a
failed op (see NOTES.md for how refusals that later certify are treated).
"""

from __future__ import annotations

import json
import sys
import tempfile

import env
import workloads as W


def limit_reference(lib) -> dict:
    out = {}
    for specs in W.limit_population(lib).values():
        for spec in specs:
            key = W._spec(lib.Substitution.parse(spec).classify().normalized)
            out[key] = W.limit_record(W.limit_op(lib, {"spec": spec}))
    return out


def plot_reference(lib) -> dict:
    out = {}
    for spec in W.plot_pool(lib):
        for n in W.PLOT_SIZES:
            for window in range(1, max(W.PLOT_H) + max(W.PLOT_M)):
                # (h, m) only enter through the window h + m - 1.
                h, m = (window, 1) if window <= max(W.PLOT_H) else (window - 1, 2)
                op = {"spec": spec, "n": n, "h": h, "m": m}
                results = W.plot_outputs(lib, op, W.PLOT_LMIN)
                out[W.plot_key(op)] = {
                    "hist": W.digest(results[0]["hist"]),
                    "lmin": {
                        str(lmin): [W.digest(res["measures"]), res["ent"]]
                        for lmin, res in zip(W.PLOT_LMIN, results)
                    },
                }
    return out


def cli_reference(lib) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=env.scratch_dir()) as cache:
        child_env = env.child_env(cache)
        for args in W.all_cli_args(lib):
            out[W.cli_key(args)] = W.cli_op(sys.executable, child_env, {"args": args})
    return out


def main(argv: list[str]) -> int:
    workload = argv[0]
    lib = env.import_program()
    make = {
        "limit-sweep": limit_reference,
        "finite-plot": plot_reference,
        "cli-cold": cli_reference,
    }[workload]
    data = make(lib)
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    path = W.REFERENCE_DIR / f"{workload}.json"
    lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in sorted(data.items()))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
