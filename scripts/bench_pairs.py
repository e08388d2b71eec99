#!/usr/bin/env python3
"""Run perfbench/run.py in alternating pairs on a parent and a change
checkout, and summarise the pairs in the shape of BENCH_<N>.json.

The change is this checkout, working tree included; the parent is the
checkout --parent-tree names, for example a ``git archive`` copy of the
parent commit.
Each pair runs both sides once, one after the other, and which side goes
first alternates from one pair to the next, so a host that speeds up or
slows down during a pair favours each side as often.

For each --run WORKLOAD:SEED the output's "summary" holds, under
"WORKLOAD sSEED" (with " traced" appended for --trace 1): the seed, the
pair count, the side that went first in each pair, each side's `correct`,
`failed` and `known_failed` (read from the run's row line) per run, and
for each metric of the runs' results both sides' medians and inclusive
quartiles (statistics.quantiles(n=4, method='inclusive')), the change's
median against the parent's in percent, `change_wins` (the pairs in
which the change did better, by the metric's direction in BENCHMARK.json),
the metric's `verdict` (see `verdict`; an end-to-end metric is read
against its BENCHMARK.json bound) and the values in run order.  "runs"
holds every run's result as printed, and "src_otl_lines" each side's lines
of src/otl/*.py, per file and in total.  An existing --out file is
updated: its other keys and other runs stay.

The test suite runs `summarise` on made-up runs, never the pairs.  The
script writes only to the --out path (perfbench/run.py writes its inputs
under each checkout's own .bench_work/).
Each run keeps its bytecode under a fresh PYTHONPYCACHEPREFIX, so a side
whose checkout holds a __pycache__ from earlier runs does not import faster
than a fresh checkout would.

Usage: python scripts/bench_pairs.py --run author:1 [--run query:1 ...]
           --parent-tree DIR [--pairs 10] [--seconds 30] [--trace 0|1]
           [--out BENCH_N.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED",
                   help="a workload and seed to pair; repeatable")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="the JSON file to write or update (default: print it)")
    p.add_argument("--parent-tree", type=Path, required=True, help="the parent's checkout")
    args = p.parse_args(argv)
    for item in args.run:
        if not re.fullmatch(r"(author|query|deep):\d+", item):
            p.error(f"--run {item!r}: expected WORKLOAD:SEED, WORKLOAD one of author, query, deep")
    return args


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its JSON result, with the row's
    known_failed added under that key."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as prefix:  # so no bytecode an earlier run left in the checkout is read
        done = subprocess.run(command, cwd=tree, env={**os.environ, "PYTHONPYCACHEPREFIX": prefix},
                              capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {tree} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    row = next((line for line in lines if line.startswith("row ")), None)
    if row is None:
        raise RuntimeError(f"{' '.join(command)} in {tree} printed no row line:\n{done.stdout[-2000:]}")
    result["known_failed"] = int(float(re.search(r"\bknown_failed=(\S+)", row)[1]))
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def verdict(parent: list[float], change: list[float], better: str, bound: Optional[float]) -> str:
    """One metric's reading of the pairs, the first rule that holds.  With a
    bound (an end-to-end metric, a fraction of the parent's median): `worse`
    when the change's median is worse by more than the bound; `unresolved`
    when the parent's quartile spread over its median exceeds the bound and
    some change run is not better than every parent run; `better` when the
    change wins at least 9 pairs in 10 and its median differs by more than
    the parent's interquartile range; else `no change`.  Without a bound (a
    per-layer metric): `better` by that rule, `worse` by its mirror (losing
    at least 9 pairs in 10), else `within noise`."""
    sign = -1 if better == "lower" else 1  # sign * (change - parent) > 0: the change did better
    low, _, high = quartiles(parent)
    median, spread = statistics.median(parent), high - low
    gain = sign * (statistics.median(change) - median)
    pairs = list(zip(parent, change))

    def won(side: int) -> bool:  # side 1: the change won 9 pairs in 10 and moved past the spread
        return sum(side * sign * (c - p) > 0 for p, c in pairs) >= 0.9 * len(pairs) and side * gain > spread

    if bound is None:
        return "better" if won(1) else "worse" if won(-1) else "within noise"
    if -gain > bound * abs(median):
        return "worse"
    best = max(sign * p for p in parent)  # the best parent run, as sign * value
    if spread > bound * abs(median) and any(sign * c <= best for c in change):
        return "unresolved"
    return "better" if won(1) else "no change"


def summarise(seed: int, first: list[str], runs: dict[str, list[dict]], declared: dict[str, dict]) -> dict:
    """The BENCH_<N>.json summary of one workload's pairs; `declared` maps a
    metric to its BENCHMARK.json entry (`better`, and `bound` if end to end)."""
    summary: dict = {"seed": seed, "pairs": len(first), "first": first}
    for count in ("correct", "failed", "known_failed"):
        summary[count] = {side: [run[count] for run in runs[side]] for side in SIDES}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [round(run["metrics"][name]["value"], 6) for run in runs[side]] for side in SIDES}
        medians = {side: round(statistics.median(values[side]), 6) for side in SIDES}
        entry = declared.get(name, {})
        better, bound = entry.get("better", "lower"), entry.get("bound")
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "parent_median": medians["parent"],
            "parent_quartiles": quartiles(values["parent"]),
            "change_median": medians["change"],
            "change_quartiles": quartiles(values["change"]),
            "change_pct": round((medians["change"] / medians["parent"] - 1) * 100, 2) if medians["parent"] else None,
            "change_wins": wins,
            "verdict": verdict(values["parent"], values["change"], better, bound),
            **values,
        }
    return summary


def line_counts(tree: Path) -> dict[str, int]:
    """The lines of each of the tree's src/otl/*.py files, and their total."""
    paths = sorted((tree / "src" / "otl").glob("*.py"))
    counts = {path.name: len(path.read_text("utf-8").splitlines()) for path in paths}
    return {**counts, "total": sum(counts.values())}


def declarations() -> dict[str, dict]:
    """Each metric's entry in this checkout's BENCHMARK.json: its better
    direction, and its bound if it is end to end."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m for key in ("end_to_end", "per_layer") for m in declared[key]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "change": ROOT}
    doc = json.loads(args.out.read_text("utf-8")) if args.out and args.out.is_file() else {}
    doc.update({
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "method": "scripts/bench_pairs.py: parent and change each from its own checkout, run alternately, "
                  "which side first alternating from one pair to the next; quartiles by "
                  "statistics.quantiles(n=4, method='inclusive'); change_wins counts the pairs the change won; "
                  "keys ending in ' traced' ran with --trace 1",
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "src_otl_lines": {side: line_counts(tree) for side, tree in trees.items()},
    })
    summaries, all_runs = doc.setdefault("summary", {}), doc.setdefault("runs", {})
    declared = declarations()
    for item in args.run:
        workload, seed = item.split(":")[0], int(item.split(":")[1])
        key = f"{workload} s{seed}" + (" traced" if args.trace else "")
        first: list[str] = []
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, args.seconds, args.trace))
                print(f"{key} pair {pair + 1}/{args.pairs} {side}: "
                      + json.dumps({k: round(m["value"], 4) for k, m in runs[side][-1]["metrics"].items()}
                                   if not args.trace else runs[side][-1]["correct"]),
                      file=sys.stderr, flush=True)
        summaries[key] = summarise(seed, first, runs, declared)
        all_runs[key] = runs
        if args.out:  # after each workload, so a later failure loses only its own runs
            args.out.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    if not args.out:
        sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
