#!/usr/bin/env python3
"""Sweep randomly generated models and measure the order-theoretic guarantees.

Generates N valid random models, then checks on every one of them that the
derived subsumption relation is a strict partial order, that it and its
covering relation agree with a brute-force strict-subset comparison of
independently recomputed intensions, and that extensions are
anti-monotone.  Prints counts and timings; exits non-zero on any
counterexample.  The four checks are functions of a list of validated
models, which the test suite also runs.

Usage: python scripts/order_sweep.py [N] [--seed BASE]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from otl import compute_hierarchy, extension, subsumes  # noqa: E402
from gen import valid_random_model  # noqa: E402
from oracles import oracle_direct_super, oracle_intension  # noqa: E402


def strict_order_violations(models: list) -> int:
    """Reflexive, symmetric or non-transitive subsumptions found."""
    violations = 0
    for model in models:
        sup = model.superiors
        for c in model.concepts:
            violations += c in sup[c]
        for c2 in model.concepts:
            for c1 in sup[c2]:
                violations += c2 in sup[c1]
                violations += not sup[c1] <= sup[c2] - {c1}
    return violations


def oracle_disagreements(models: list) -> tuple[int, int]:
    """(pairs where subsumes differs from strict intension inclusion, pairs tested)."""
    disagreements = pairs = 0
    for model in models:
        oracle = {c: oracle_intension(model, c) for c in model.concepts}
        for c1 in model.concepts:
            for c2 in model.concepts:
                pairs += 1
                disagreements += subsumes(model, c1, c2) != (oracle[c1] < oracle[c2])
    return disagreements, pairs


def covering_disagreements(models: list) -> tuple[int, int]:
    """(concepts whose covering superiors differ from the oracle's, concepts tested)."""
    disagreements = concepts = 0
    for model in models:
        direct_super = compute_hierarchy(model).direct_super
        for c, covering in oracle_direct_super(model).items():
            concepts += 1
            disagreements += direct_super[c] != covering
    return disagreements, concepts


def duality_breaks(models: list) -> int:
    """Subsumptions whose subordinate's extension is not within its superior's."""
    breaks = 0
    for model in models:
        extensions = {c: extension(model, c) for c in model.concepts}
        for c2 in model.concepts:
            for c1 in model.superiors[c2]:
                breaks += not extensions[c2] <= extensions[c1]
    return breaks


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("count", nargs="?", type=int, default=1000)
    cli.add_argument("--seed", type=int, default=0)
    args = cli.parse_args()

    t0 = time.perf_counter()
    models = [valid_random_model(args.seed + i) for i in range(args.count)]
    t_gen = time.perf_counter() - t0
    total_concepts = sum(len(m.concepts) for m in models)
    total_objects = sum(len(m.objects) for m in models)
    print(f"generated {args.count} valid models "
          f"({total_concepts} concepts, {total_objects} objects) in {t_gen:.2f}s")

    t0 = time.perf_counter()
    violations = strict_order_violations(models)
    print(f"strict-order check: {violations} violations in "
          f"{time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    disagreements, pairs = oracle_disagreements(models)
    print(f"oracle agreement: {disagreements} disagreements over {pairs} pairs "
          f"in {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    wrong, tested = covering_disagreements(models)
    print(f"covering relation: {wrong} of {tested} concepts differ from the oracle "
          f"in {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    breaks = duality_breaks(models)
    print(f"extension duality: {breaks} counterexamples in "
          f"{time.perf_counter() - t0:.2f}s")

    failed = violations or disagreements or wrong or breaks
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
