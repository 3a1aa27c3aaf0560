"""Workload definitions: seeded op plans, the ops themselves, and their checks.

Three workloads, each a list of ops drawn from a seed:

- ``limit-sweep``: the exact route.  One op certifies one substitution:
  ``asymptotic_quantifiers`` over a small (m, lmin, h) grid, then
  ``determinism_limit_scan`` at lmin=3, h=1..24.  Forms are distinct
  normalized forms of all binary substitutions with q=2..5, so no
  ``lru_cache`` entry is ever reused within a process.
- ``finite-plot``: the empirical route.  One op runs ``fixed_point_prefix``
  -> ``histogram`` -> ``measures_from_histogram`` -> ``correlation_sum``.
- ``cli-cold``: one op is one ``python -m substrqa.cli ...`` subprocess.

Ops come in blocks with a fixed composition (a stratified sample), and a
timed run is a whole number of blocks, so every run measures the same mix
of cheap and expensive ops whatever the seed.  A run repeats its ops in
``PASSES[workload]`` fresh processes (see run.py).

The library is passed in as ``lib`` (the imported ``substrqa`` package) so
that this module imports nothing from the program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("limit-sweep", "finite-plot", "cli-cold")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TM, PD, Q5 = "01,10", "01,00", "01110,01010"
GOLDEN_SPECS = (TM, PD, Q5)

# Kept out of every sample: the warm-up op runs on it, so its lazy imports
# and caches never help a timed op.
WARMUP_SPEC = "001,110"

# Pinned limit values for the goldens at (m, lmin, h), copied (not
# imported) from the package's verify suite.
GOLDEN_LIMITS = {
    TM: {
        (1, 1, 1): {"RR": Fraction(1, 2), "C": Fraction(1, 2), "Lavg": Fraction(9, 4),
                    "DET": Fraction(1), "lineDens": Fraction(2, 9)},
        (1, 2, 1): {"RR": Fraction(7, 18), "C": Fraction(5, 18), "DET": Fraction(7, 9)},
    },
    PD: {(1, 1, 1): {"RR": Fraction(5, 9), "C": Fraction(5, 9)}},
    Q5: {(1, 1, 1): {"RR": Fraction(1, 2), "lineDens": Fraction(6, 25)}},
}
# Limit DET at lmin=3, h=24 (the values acceptance criterion 10 reports).
GOLDEN_DET24 = {TM: Fraction(33, 34), Q5: Fraction(49, 50)}
ENT_TOLERANCE = 1e-9

# -- limit-sweep -------------------------------------------------------------

LIMIT_GRID = tuple((m, lmin, h) for m in (1, 2) for lmin in (1, 2, 3) for h in (1, 2))
SCAN_LMIN = 3
SCAN_H = range(1, 25)
# Block composition, close to the population shares (54% / 32% / 14%).
LIMIT_BLOCK = (("aperiodic", 8), ("square", 4), ("degenerate", 2))

# -- finite-plot -------------------------------------------------------------

# The reference grid: 2^8..2^15, four sizes per octave.
PLOT_SIZES = tuple(round(2 ** (8 + k / 4)) for k in range(29))
# A block is one sweep of 2^8..2^14.5 at two sizes per octave plus extra
# plots (size -> copies).  The small ones put the median op on small plots;
# two more at 2^14 put the tail (the 11th slowest op time of the five
# passes, see run.tail) among fifteen op times at 2^14 rather than on one
# op.  2^15 is left out: it took 4 s of a 13.5 s pass.
PLOT_SWEEP = PLOT_SIZES[:28:2]
PLOT_EXTRA = {256: 3, 362: 3, 512: 4, 724: 3, 1024: 3, 16384: 2}
PLOT_H = (1, 2, 3)
PLOT_M = (1, 2)
PLOT_LMIN = (1, 2, 3, 4)
# Plots up to this size also have their histogram checked against extract_lines.
EXTRACT_CHECK_MAX = 1 << 10
# Five primitive aperiodic forms drawn once (seed 2310) from the q<=5 population.
PLOT_POOL_EXTRA = 5
PLOT_POOL_SEED = 2310
PLAN_BLOCKS = 20

# Each run repeats its ops in this many fresh processes (see run.py);
# BLOCK_SECONDS is one block's time on a 2-core VM, so a run of --seconds S
# holds S / (passes x block) blocks in each pass, and at least one.
PASSES = {"limit-sweep": 3, "finite-plot": 5, "cli-cold": 3}
# An op of these workloads that runs shorter than this is run again, back
# to back, until its runs add up to it, and its fastest run counts.  Only
# pure ops qualify: a finite-plot op holds no cache between runs, so every
# run of it does the same work.
REPEAT_S = {"finite-plot": 0.1}
BLOCK_SECONDS = {"limit-sweep": 10.0, "finite-plot": 10.0, "cli-cold": 16.0}

# -- cli-cold ----------------------------------------------------------------

CLI_KINDS = ("classify", "analyze_asymptotic", "analyze_n", "densities", "convergence", "verify")
CLI_EXTRA = 3
CLI_FORM_KINDS = ("analyze_asymptotic", "analyze_n", "convergence")  # see _cli_plan
# One block: each form op twice (six ops, one per form of the pool),
# `densities` twice on one sampled form and `verify` twice, so exactly one
# of each pair finds its density tables cached; and one `classify`.
CLI_BLOCK = {"classify": 1, "analyze_asymptotic": 2, "analyze_n": 2, "densities": 2,
             "convergence": 2, "verify": 2}
CLI_N = (512, 1024, 2048)
CLI_N_BLOCK = (1024, 2048)  # the analyze --n sizes of one block
CLI_LMIN = (1, 2)
CLI_QUANTITIES = ("RR", "DET", "Lavg", "ENT", "C")


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _spec(sub) -> str:
    return f"{sub.image0},{sub.image1}"


# -- populations ---------------------------------------------------------------


def limit_population(lib) -> dict[str, list[str]]:
    """Distinct normalized forms of every binary substitution with q=2..5,
    one representative each (the first in enumeration order), by stratum."""
    seen: dict[str, tuple[str, str]] = {}
    for q in range(2, 6):
        words = ["".join(p) for p in itertools.product("01", repeat=q)]
        for a, b in itertools.product(words, words):
            sub = lib.Substitution(a, b)
            cls = sub.classify()
            key = _spec(cls.normalized)
            if key in seen:
                continue
            if cls.kind is not lib.SubshiftKind.PRIMITIVE_APERIODIC:
                stratum = "degenerate"
            elif cls.normalization is lib.Normalization.SQUARE:
                stratum = "square"
            else:
                stratum = "aperiodic"
            seen[key] = (f"{a},{b}", stratum)
    strata: dict[str, list[str]] = {"aperiodic": [], "square": [], "degenerate": []}
    for spec, stratum in seen.values():
        if spec != WARMUP_SPEC:
            strata[stratum].append(spec)
    return strata


def plot_pool(lib) -> list[str]:
    """Goldens plus a fixed draw of primitive aperiodic normalized forms."""
    candidates = [
        s for s in limit_population(lib)["aperiodic"] if s not in GOLDEN_SPECS
    ]
    extra = random.Random(PLOT_POOL_SEED).sample(candidates, PLOT_POOL_EXTRA)
    return list(GOLDEN_SPECS) + [
        _spec(lib.Substitution.parse(s).classify().normalized) for s in extra
    ]


def cli_pool(lib) -> list[str]:
    return plot_pool(lib)[: len(GOLDEN_SPECS) + CLI_EXTRA]


# -- plans ---------------------------------------------------------------------


def plan(workload: str, seed: int, lib) -> list[list[dict]]:
    """The seeded op list, as blocks of ops with a fixed composition."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "limit-sweep":
        return _limit_plan(rng, lib)
    if workload == "finite-plot":
        return _plot_plan(rng, lib)
    if workload == "cli-cold":
        return _cli_plan(rng, lib)
    raise ValueError(f"unknown workload {workload!r}")


def _limit_plan(rng: random.Random, lib) -> list[list[dict]]:
    strata = limit_population(lib)
    queues = {}
    for name, specs in strata.items():
        specs = [s for s in specs if s not in GOLDEN_SPECS]
        rng.shuffle(specs)
        queues[name] = specs
    # The goldens are always in the first block.
    queues["aperiodic"][:0] = list(GOLDEN_SPECS)
    blocks = []
    while all(len(queues[name]) >= count for name, count in LIMIT_BLOCK):
        block = []
        for name, count in LIMIT_BLOCK:
            block.extend({"spec": queues[name].pop(0)} for _ in range(count))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _plot_plan(rng: random.Random, lib) -> list[list[dict]]:
    """Every block holds the same (form, size, window) slots, so every seed
    pays the same work; the seed orders them and draws lmin and the split
    of the window h + m - 1 into h and m."""
    pool = plot_pool(lib)
    sizes = sorted(
        list(PLOT_SWEEP) + [n for n, k in PLOT_EXTRA.items() for _ in range(k)], reverse=True
    )
    windows = range(1, max(PLOT_H) + max(PLOT_M))
    slots = [
        (pool[i % len(pool)], n, windows[(i + i // len(pool)) % len(windows)])
        for i, n in enumerate(sizes)
    ]
    blocks = []
    for _ in range(PLAN_BLOCKS):
        block = []
        for spec, n, window in rng.sample(slots, len(slots)):
            h, m = rng.choice([(h, m) for h in PLOT_H for m in PLOT_M if h + m - 1 == window])
            block.append({"spec": spec, "n": n, "h": h, "m": m, "lmin": rng.choice(PLOT_LMIN)})
        blocks.append(block)
    return blocks


def cli_args(kind: str, spec: str, rng: random.Random, n: int) -> list[str]:
    if kind == "classify":
        return ["classify", spec]
    if kind == "analyze_asymptotic":
        return ["analyze", spec, "--asymptotic", "--format", "json", "-l", str(rng.choice(CLI_LMIN))]
    if kind == "analyze_n":
        return ["analyze", spec, "--n", str(n), "--asymptotic"]
    if kind == "densities":
        return ["densities", spec]
    if kind == "convergence":
        return ["convergence", spec, "--quantity", rng.choice(CLI_QUANTITIES)]
    if kind == "verify":
        return ["verify"]
    raise ValueError(f"unknown cli op kind {kind!r}")


def all_cli_args(lib) -> list[list[str]]:
    """Every command a cli-cold plan can contain (the reference's key set)."""
    out = []
    for spec in cli_pool(lib):
        out.append(["classify", spec])
        out.extend(["analyze", spec, "--asymptotic", "--format", "json", "-l", str(l)] for l in CLI_LMIN)
        out.extend(["analyze", spec, "--n", str(n), "--asymptotic"] for n in CLI_N)
        out.append(["densities", spec])
        out.extend(["convergence", spec, "--quantity", q] for q in CLI_QUANTITIES)
    out.append(["verify"])
    return out


def _cli_plan(rng: random.Random, lib) -> list[list[dict]]:
    pool = cli_pool(lib)
    sampled = pool[len(GOLDEN_SPECS):]
    blocks = []
    for _ in range(PLAN_BLOCKS):
        kinds = [kind for kind, count in CLI_BLOCK.items() for _ in range(count)]
        rng.shuffle(kinds)
        # Fixed per block, so every run pays the same costs: plot sizes,
        # which density tables are cached, and the forms of the analyze and
        # convergence ops, which set the median and the tail (each form of
        # the pool once; the seed moves which op gets which form).
        sizes = rng.sample(CLI_N_BLOCK, len(CLI_N_BLOCK))
        dens = rng.choice(sampled)
        forms = rng.sample(pool, len(pool))
        block = []
        for kind in kinds:
            if kind == "densities":
                spec = dens
            elif kind in CLI_FORM_KINDS:
                spec = forms.pop()
            else:
                spec = rng.choice(pool)
            n = sizes.pop() if kind == "analyze_n" else 0
            block.append({"kind": kind, "args": cli_args(kind, spec, rng, n)})
        blocks.append(block)
    return blocks


def block_size(workload: str) -> int:
    if workload == "limit-sweep":
        return sum(count for _, count in LIMIT_BLOCK)
    if workload == "finite-plot":
        return len(PLOT_SWEEP) + sum(PLOT_EXTRA.values())
    return sum(CLI_BLOCK.values())


def ops_per_pass(workload: str, seconds: float) -> int:
    """Ops in each pass of a run of `seconds`: whole blocks, at least one."""
    blocks = int(seconds / (PASSES[workload] * BLOCK_SECONDS[workload]))
    return max(1, blocks) * block_size(workload)


def plan_hash(blocks: list[list[dict]]) -> str:
    return digest(blocks)


def warmup_op(workload: str) -> dict:
    if workload == "limit-sweep":
        return {"spec": WARMUP_SPEC}
    if workload == "finite-plot":
        return {"spec": WARMUP_SPEC, "n": 256, "h": 1, "m": 1, "lmin": 1}
    return {"kind": "classify", "args": ["classify", WARMUP_SPEC]}


# -- the ops -------------------------------------------------------------------
#
# Each op returns a JSON-serialisable output record; `check` compares it with
# the reference.  Only the op call itself is timed.


def limit_op(lib, op: dict) -> dict:
    sub = lib.Substitution.parse(op["spec"])
    try:
        rows = [
            lib.asymptotic_quantifiers(sub, m, lmin, Fraction(1, 2**h))
            for m, lmin, h in LIMIT_GRID
        ]
        scan = lib.determinism_limit_scan(sub, 1, SCAN_LMIN, SCAN_H)
    except lib.SubstRQAError as exc:
        return {"outcome": type(exc).__name__}
    exact = [
        [str(a.linedens), str(a.lineDens), str(a.RR), str(a.RR1), str(a.DET), str(a.Lavg), str(a.C)]
        for a in rows
    ]
    exact.append([str(det) for _, det in scan])
    return {"outcome": "ok", "exact": exact, "ent": [a.ENT for a in rows]}


def plot_op(lib, op: dict) -> dict:
    return plot_outputs(lib, op, (op["lmin"],))[0]


def plot_outputs(lib, op: dict, lmins) -> list[dict]:
    """The finite-plot op's output at each minimum line length in lmins,
    sharing one prefix and one histogram."""
    n, h, m = op["n"], op["h"], op["m"]
    sub = lib.Substitution.parse(op["spec"])
    x = sub.fixed_point_prefix(n + max(lmins) + h + m)
    hist = lib.histogram(x, n, h, m=m)
    rows = [[length, *hist.counts[length]] for length in hist.lengths()]
    out = []
    for lmin in lmins:
        report = lib.measures_from_histogram(hist, lmin)
        corsum = lib.correlation_sum(x, n, lmin, h, m=m)
        out.append({
            "hist": rows,
            "measures": [str(report.RR), str(report.DET), str(report.Lavg), str(corsum)],
            "ent": report.ENT,
            "tail": str(report.tail_density),
        })
    return out


# -- reference records ---------------------------------------------------------


def limit_record(out: dict) -> dict:
    if out["outcome"] != "ok":
        return {"outcome": out["outcome"]}
    return {"outcome": "ok", "exact": digest(out["exact"]), "ent": out["ent"]}


def plot_key(op: dict) -> str:
    return f"{op['spec']}|{op['n']}|{op['h'] + op['m'] - 1}"


def cli_key(args: list[str]) -> str:
    return " ".join(args)


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())


def _ent_close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= ENT_TOLERANCE


# -- checks --------------------------------------------------------------------
#
# Each check returns (status, detail).  status is "ok", "refused" (the
# program declined to certify, exactly as it did when the reference was
# recorded), "new" (it declined then and certifies now; the value is
# reported) or "fail".


def checker(workload: str, lib):
    """A function (op, output) -> (status, detail) against the reference."""
    ref = load_reference(workload)
    check = {
        "limit-sweep": lambda op, out: check_limit(lib, op, out, ref),
        "finite-plot": lambda op, out: check_plot(lib, op, out, ref),
        "cli-cold": lambda op, out: check_cli(op, out, ref),
    }[workload]

    def run(op: dict, out: dict) -> tuple[str, str]:
        if "crash" in out:
            return "fail", out["crash"]
        return check(op, out)

    return run


def check_limit(lib, op: dict, out: dict, ref: dict) -> tuple[str, str]:
    spec = op["spec"]
    key = _spec(lib.Substitution.parse(spec).classify().normalized)
    want = ref.get(key)
    if want is None:
        return "fail", f"{spec}: no reference"
    if spec in GOLDEN_SPECS:
        problem = _golden_problem(spec, out)
        if problem:
            return "fail", f"{spec}: {problem}"
    if want["outcome"] != "ok":
        if out["outcome"] == want["outcome"]:
            return "refused", f"{spec}: {out['outcome']}"
        if out["outcome"] == "ok":
            # Certified now: closed form and tail sums agreed inside the
            # program; report the new value.
            return "new", f"{spec}: certifies now, RR(1,1,1) = {out['exact'][0][2]}"
        return "fail", f"{spec}: {out['outcome']}, reference {want['outcome']}"
    if out["outcome"] != "ok":
        return "fail", f"{spec}: {out['outcome']}, reference certified"
    if digest(out["exact"]) != want["exact"]:
        return "fail", f"{spec}: exact limit values differ from the reference"
    if not all(_ent_close(g, w) for g, w in zip(out["ent"], want["ent"])):
        return "fail", f"{spec}: ENT differs from the reference by more than {ENT_TOLERANCE}"
    return "ok", ""


def _golden_problem(spec: str, out: dict) -> str | None:
    if out["outcome"] != "ok":
        return f"golden refused: {out['outcome']}"
    fields = ("linedens", "lineDens", "RR", "RR1", "DET", "Lavg", "C")
    for point, want in GOLDEN_LIMITS[spec].items():
        row = out["exact"][LIMIT_GRID.index(point)]
        for name, value in want.items():
            got = row[fields.index(name)]
            if Fraction(got) != value:
                return f"{name}{point} = {got}, pinned {value}"
    if spec in GOLDEN_DET24:
        got = Fraction(out["exact"][-1][SCAN_H.index(24)])
        if got != GOLDEN_DET24[spec]:
            return f"DET(lmin=3, h=24) = {got}, pinned {GOLDEN_DET24[spec]}"
    return None


def check_plot(lib, op: dict, out: dict, ref: dict) -> tuple[str, str]:
    n, lmin = op["n"], op["lmin"]
    want = ref.get(plot_key(op))
    label = f"{op['spec']} n={n} h={op['h']} m={op['m']} lmin={lmin}"
    if want is None:
        return "fail", f"{label}: no reference"
    if digest(out["hist"]) != want["hist"]:
        return "fail", f"{label}: histogram differs from the reference"
    exact, ent = want["lmin"][str(lmin)]
    if digest(out["measures"]) != exact:
        return "fail", f"{label}: RR/DET/Lavg/C differ from the reference"
    if not _ent_close(out["ent"], ent):
        return "fail", f"{label}: ENT differs from the reference"
    # ResidualBounds identity: C - corsum_from_rqa(RR, tail) lies in [1/n, 2 lmin/n).
    rr = Fraction(out["measures"][0])
    corsum = Fraction(out["measures"][3])
    interval = lib.corsum_from_rqa(rr, Fraction(out["tail"]), n, lmin)
    residual = corsum - interval.value
    if not interval.low <= residual < interval.high:
        return "fail", f"{label}: C residual {residual} outside [{interval.low}, {interval.high})"
    if n <= EXTRACT_CHECK_MAX:
        sub = lib.Substitution.parse(op["spec"])
        x = sub.fixed_point_prefix(n + lmin + op["h"] + op["m"])
        totals: dict[int, int] = {}
        for line in lib.extract_lines(x, n, op["h"], m=op["m"]):
            totals[line.length] = totals.get(line.length, 0) + 1
        got = {row[0]: sum(row[1:]) for row in out["hist"]}
        if got != totals:
            return "fail", f"{label}: histogram totals differ from extract_lines"
    return "ok", ""


def check_cli(op: dict, out: dict, ref: dict) -> tuple[str, str]:
    key = cli_key(op["args"])
    want = ref.get(key)
    if want is None:
        return "fail", f"{key}: no reference"
    if "limit" in out:
        lmin = int(op["args"][op["args"].index("-l") + 1])
        pinned = GOLDEN_LIMITS[op["args"][1]].get((1, lmin, 1), {})
        for name, value in pinned.items():
            if name in out["limit"] and Fraction(out["limit"][name]) != value:
                return "fail", f"{key}: {name} = {out['limit'][name]}, pinned {value}"
    if out["exit"] == want["exit"] and out["stdout"] == want["stdout"]:
        return ("ok" if want["exit"] == 0 else "refused"), ""
    if want["exit"] == 3 and out["exit"] == 0:
        return "new", f"{key}: certifies now (stdout {out['stdout']})"
    return "fail", f"{key}: exit {out['exit']} stdout {out['stdout']}, reference {want}"


def cli_op(python: str, env: dict, op: dict, launcher=("-m", "substrqa.cli")) -> dict:
    """One cold `python -m substrqa.cli` process; its exit code and a hash of
    its standard output, and for `analyze GOLDEN --asymptotic --format json`
    the limit values that check_cli compares with the pinned ones."""
    import subprocess

    proc = subprocess.run(
        [python, *launcher, *op["args"]],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    out = {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest()[:16]}
    args = op["args"]
    if args[0] == "analyze" and args[1] in GOLDEN_SPECS and "json" in args and proc.returncode == 0:
        limit = json.loads(proc.stdout)["asymptotic"]
        out["limit"] = {
            name: f"{limit[name]['num']}/{limit[name]['den']}" for name in ("RR", "DET", "Lavg", "C")
        }
    return out
