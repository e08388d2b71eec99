"""Layered benchmark for otl.

    python3 perfbench/run.py --workload author|query|deep --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; otl is imported from ``src/`` and the CLI
runs as ``python -m otl.cli`` with ``PYTHONPATH=src``, so nothing needs to
be installed.  Inputs are generated from the seed into ``.bench_work/``.

Workloads (closed loop, one client, one process at a time):

* author - ``otl check``, ``otl export --format json`` and
  ``otl tree --derived --objects`` as subprocesses on a 2000-concept tree;
* query  - a fixed seeded mix of reads on a tree+poly-hierarchy model
  loaded once;
* deep   - genus chain, subset poly-hierarchy and part chain closed by a
  cycle, each at n and 2n: DSL load, then JSON round trip of the valid
  ones; plus, once per process, `not` chains thousands deep on which otl
  raises RecursionError today.  Those are known failures: the row's
  ``known_failed`` and ``failed_ratio`` count them, the result's
  ``attempted`` and ``failed`` do not, so the workload's own operations
  show no failures.  A wrong answer on them still makes ``correct`` false.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it holds the per-layer metrics from spans
around every call into otl, and the spans are written to
``.bench_work/<workload>-s<seed>/trace.json``.  The last line of stdout is
the JSON result; the lines before it give the environment and one row with
the workload's own named metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODULES = ("cli", "parser", "reasoner", "model", "classes", "definitions", "exporters")
WORKLOADS = ("author", "query", "deep")
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_PROBES = 5
STARTUP_PROBES = 3
WORKERS = 4
# Untraced runs time spans.Reference before an op whenever REFERENCE_EVERY
# seconds have passed (before every op in the set-up probes and the author
# loop, as the median of AUTHOR_REFERENCE_REPEAT runs) and report each op's
# time scaled to a host on which it takes REFERENCE_S, by the samples just
# before and after the op: the host's speed can swing by 2x within seconds
# on shared hardware, and unscaled medians of separate runs then spread too
# widely to compare.
REFERENCE_EVERY = 0.25
AUTHOR_REFERENCE_REPEAT = 3
REFERENCE_S = 0.02


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(args: argparse.Namespace) -> dict:
    import gen

    return {
        "workload": args.workload,
        "why": gen.WHY.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, work: Path, launcher):
    import workloads as w

    if workload == "author":
        return w.Author(work, seed, launcher)
    return w.Query(work, seed) if workload == "query" else w.Deep(work, seed)


def section(workload: str, state, traced: bool):
    if workload == "author":
        return state.replay_pass if traced else state.cli_pass
    if workload == "query":
        return state.read_pass
    return state.shape_pass


def loop(workload: str, state, rec, seconds: float) -> list[range]:
    """Closed loop of passes for ``seconds``; each pass is the range of its
    ops in ``rec.log``.  The reference is sampled once more at the end, so
    every op has a sample after it."""
    one_pass = section(workload, state, traced=False)
    passes: list[range] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        first = len(rec.log)
        one_pass(rec)
        passes.append(range(first, len(rec.log)))
    rec.sample_reference()
    return passes


def scaled(rec, ops: range) -> dict[str, float]:
    """The ops' times scaled to a host on which the reference takes
    REFERENCE_S, each by the samples just before and after it, keyed by op
    name and occurrence within ``ops``."""
    times: dict[str, float] = {}
    seen: Counter = Counter()
    for name, start, end, seconds, _ in (rec.log[i] for i in ops):
        seen[name] += 1
        times[f"{name}#{seen[name]}"] = seconds * rec.scale(start, end, REFERENCE_S)
    return times


def scaled_passes(rec, passes: list[range]) -> list[dict]:
    return [{"ops": scaled(rec, ops), "ok": sum(rec.log[i][4] for i in ops)} for ops in passes]


def part_of(workload: str, key: str) -> str:
    """The part of a pass an op belongs to: author.check#1 -> check,
    deep.reload.poly#2 -> reload; every query op is a read."""
    return "reads" if workload == "query" else key.split(".")[1].split("#")[0]


def summarise(workload: str, passes: list[dict]) -> tuple[dict[str, float], float]:
    """Seconds per part of a pass, each the sum over its ops of the op's
    median time over all passes, and the mean number of right answers per
    pass.  Medians per op, not per pass total, use every sample of a slow
    op however few passes fit in the run."""
    values: dict[str, list[float]] = {}
    for p in passes:
        for key, seconds in p["ops"].items():
            values.setdefault(key, []).append(seconds)
    parts: dict[str, float] = {}
    for key, seconds in values.items():
        part = part_of(workload, key)
        parts[part] = parts.get(part, 0.0) + statistics.median(seconds)
    return parts, statistics.fmean(p["ok"] for p in passes)


COUNTS = ("attempted", "failed", "wrong", "known_attempted", "known_failed")


def counts_of(rec) -> dict[str, int]:
    return {key: getattr(rec, key) for key in COUNTS}


def failed_ratio(counts: dict[str, int]) -> dict:
    """Failed operations, known failures included, per operation attempted."""
    failed = counts["failed"] + counts["known_failed"]
    return metric(failed / (counts["attempted"] + counts["known_attempted"]), "1")


def run_worker(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """One fresh process's share of a query or deep run, times scaled by
    the reference workload timed in this process."""
    from spans import Recorder

    rec = Recorder(reference_every=REFERENCE_EVERY)
    state = build(workload, seed, work, None)
    if workload == "query":
        state.load(rec)
    else:
        state.load_robust(rec)
    passes = loop(workload, state, rec, seconds)
    if workload == "deep":
        state.robust_pass(rec)
    return {
        "passes": scaled_passes(rec, passes),
        **counts_of(rec),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_plain(args: argparse.Namespace, work: Path, launcher) -> tuple[dict, dict, dict]:
    """Set-up probes, then the loop: in this process for author (each
    command is a fresh process already), else in WORKERS fresh processes
    in turn, so no one process's hash seed or memory layout sets the result."""
    import workloads as w
    from spans import Recorder

    workload, seed, seconds = args.workload, args.seed, args.seconds
    rec = Recorder(reference_every=0, reference_repeat=AUTHOR_REFERENCE_REPEAT)
    state = build(workload, seed, work, launcher)
    if workload == "author":
        module, path = "otl.cli", None
    else:
        module, path = "otl", state.path if workload == "query" else state.robust_path
    w.probe(rec, launcher, "setup", 0, module, path)  # fills the bytecode cache
    probes = range(len(rec.log), len(rec.log) + SETUP_PROBES)
    for index in range(SETUP_PROBES):
        w.probe(rec, launcher, "setup", index, module, path)
    rec.sample_reference()
    setups = scaled(rec, probes).values()

    if workload == "author":
        passes = scaled_passes(rec, loop(workload, state, rec, seconds))
        rss_kb = launcher.children_maxrss_kb
    counts = counts_of(rec)
    if workload != "author":
        passes, rss_kb = [], 0
        for index in range(WORKERS):
            args = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds / WORKERS), "--worker"]
            done = launcher.run(args, w.hashseed(index))
            if done["returncode"] != 0:
                raise RuntimeError(f"worker failed: {done['stderr'][-2000:]}")
            part = json.loads(done["stdout"].splitlines()[-1])
            passes += part["passes"]
            rss_kb = max(rss_kb, part["maxrss_kb"])
            for key in counts:
                counts[key] += part[key]

    parts, ok = summarise(workload, passes)
    pass_s = sum(parts.values())
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_s": metric(pass_s, "s"),
        "ops_per_s": metric(ok / pass_s, "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    if workload == "query":
        named = {"query_ops_per_s": metrics["ops_per_s"]}
    else:
        named = {f"{part}_s": metric(seconds, "s") for part, seconds in parts.items()}
    row = {
        **metrics,
        **named,
        "failed_ratio": failed_ratio(counts),
        "known_failed": metric(counts["known_failed"], "count"),
        "passes": metric(len(passes), "count"),
        "raw_setup_s": metric(statistics.median(rec.log[i][3] for i in probes), "s"),
        "reference_ms": metric(statistics.median(rec.references) * 1e3, "ms"),
    }
    return metrics, row, counts


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def run_traced(args: argparse.Namespace, work: Path, launcher) -> tuple[dict, dict, dict]:
    """Loop the workload's own section with tracing on and off in turn (the
    difference is the tracing overhead), then run every other section once
    traced, so each layer metric is measured in every traced run."""
    import workloads as w
    from spans import Recorder

    workload, seed, seconds = args.workload, args.seed, args.seconds
    rec = Recorder(tracing=True)
    states = {name: build(name, seed, work, launcher) for name in WORKLOADS}
    rec.tracing = False
    w.probe(rec, launcher, "cli.startup", 0, "otl.cli")  # fills the bytecode cache
    rec.tracing = True
    for index in range(STARTUP_PROBES):
        w.probe(rec, launcher, "cli.startup", index, "otl.cli")
    states["query"].load(rec)
    states["deep"].load_robust(rec)

    own = section(workload, states[workload], traced=True)
    timed: dict[bool, list[float]] = {True: [], False: []}
    start = perf_counter()
    order = [True, False]
    while not timed[False] or perf_counter() - start < seconds:
        for tracing in order:
            rec.tracing = tracing
            timed[tracing].append(sum(own(rec).values()))
        order.reverse()
    rec.tracing = True
    for name, state in states.items():
        if name != workload:
            section(name, state, traced=True)(rec)
    states["deep"].robust_pass(rec)

    overhead = statistics.median(timed[True]) / statistics.median(timed[False]) - 1
    metrics = layer_metrics(rec.spans, overhead)
    row = {
        "trace.overhead_pct": metrics["trace.overhead_pct"],
        "traced_passes": metric(len(timed[True]), "count"),
        "failed_ratio": failed_ratio(counts_of(rec)),
        "known_failed": metric(rec.known_failed, "count"),
    }
    rec.write(work / "trace.json", environment(args))
    return metrics, row, counts_of(rec)


def module_lines() -> dict[str, int]:
    lines = {}
    for mod in MODULES:
        with open(SRC / "otl" / f"{mod}.py", encoding="utf-8") as handle:
            lines[mod] = sum(1 for _ in handle)
    return lines


def layer_metrics(spans: list, overhead: float) -> dict:
    from spans import END, NAME, SIZE, START, median, module_totals

    out = {"cli.startup_s": metric(median(spans, "cli.startup", 1), "s")}
    inputs = {"author": "author", "query": "query", "chain": "chain.2n", "poly": "poly.2n", "parts": "parts.2n"}
    for label, key in inputs.items():
        out[f"parser.parse_ms.{label}"] = metric(median(spans, f"parser.parse.{key}", 1e3), "ms")
    parses = [s for s in spans if s[NAME].startswith("parser.parse.")]
    out["parser.bytes_per_s"] = metric(
        sum(s[SIZE] for s in parses) / sum(s[END] - s[START] for s in parses), "B/s"
    )
    for label, key in inputs.items():
        out[f"reasoner.validate_ms.{label}"] = metric(median(spans, f"reasoner.validate.{key}", 1e3), "ms")
    for shape in ("chain", "poly", "parts"):
        ratio = median(spans, f"reasoner.validate.{shape}.2n", 1) / median(
            spans, f"reasoner.validate.{shape}.n", 1
        )
        out[f"reasoner.validate.x2.{shape}"] = metric(ratio, "ratio")
    reads = {
        "reasoner.classify_object_us": ("reasoner.classify_object", 1e6, "us"),
        "reasoner.subsumes_us": ("reasoner.subsumes", 1e6, "us"),
        "reasoner.coordinates_us": ("reasoner.coordinates", 1e6, "us"),
        "model.extension_us": ("model.extension", 1e6, "us"),
        "classes.evaluate_class_ms.wide_or": ("classes.evaluate_class.wide_or", 1e3, "ms"),
        "classes.evaluate_class_ms.attr": ("classes.evaluate_class.attr", 1e3, "ms"),
        "classes.evaluate_class_ms.nested": ("classes.evaluate_class.nested", 1e3, "ms"),
        "definitions.intensional_us": ("definitions.intensional_definition", 1e6, "us"),
        "definitions.extensional_us": ("definitions.extensional_definition", 1e6, "us"),
        "definitions.describe_us": ("definitions.describe_object", 1e6, "us"),
        "definitions.lexicon_ms": ("definitions.lexicon", 1e3, "ms"),
        "exporters.to_json_ms": ("exporters.to_json.author", 1e3, "ms"),
        "exporters.print_dsl_ms": ("exporters.print_dsl.author", 1e3, "ms"),
        "exporters.to_dot_ms": ("exporters.to_dot.author", 1e3, "ms"),
        "exporters.from_json_ms.chain": ("exporters.from_json.chain.2n", 1e3, "ms"),
        "exporters.from_json_ms.poly": ("exporters.from_json.poly.2n", 1e3, "ms"),
    }
    for key, (name, scale, unit) in reads.items():
        out[key] = metric(median(spans, name, scale), unit)
    for name in ("to_json", "to_dot"):
        sizes = [s[SIZE] for s in spans if s[NAME] == f"exporters.{name}.author"]
        out[f"exporters.{name}.bytes"] = metric(sizes[-1], "count")
    lines = module_lines()
    for mod, totals in module_totals(spans, MODULES).items():
        out[f"{mod}.lines"] = metric(lines[mod], "count")
        out[f"{mod}.calls"] = metric(totals["calls"], "count")
        out[f"{mod}.busy_ms"] = metric(totals["busy_ms"], "ms")
        out[f"{mod}.failures"] = metric(totals["failures"], "count")
    out["trace.overhead_pct"] = metric(overhead * 100, "%")
    out["trace.spans"] = metric(len(spans), "count")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def format_row(workload: str, row: dict) -> str:
    cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in row.items()]
    return f"row {workload:<6} " + "  ".join(cells)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one row of named metrics each."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        rows = [line for line in done.stdout.splitlines() if line.startswith(("row ", "env "))]
        print("\n".join(rows) if rows else f"{workload}: failed\n{done.stderr}", flush=True)
        status |= done.returncode
    return status


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "otl" / "__init__.py").is_file():
        print(f"error: no otl sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    work = WORK / f"{args.workload}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    if args.worker:
        print(json.dumps(run_worker(args.workload, args.seed, args.seconds, work)))
        return 0

    from launch import Launcher

    with Launcher(ROOT, CHILD_ENV) as launcher:
        run = run_traced if args.trace else run_plain
        metrics, row, counts = run(args, work, launcher)
    print("env " + json.dumps(environment(args)), flush=True)
    print(format_row(args.workload, row), flush=True)
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
