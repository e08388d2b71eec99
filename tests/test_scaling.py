"""Doubling-ratio gates on the load path: the time at 2n over the time at n.

Ratios rather than absolute times, so the gates mean the same on a slow or
a shared machine.  The n and 2n runs are timed back to back in CPU time,
after a garbage collection, and the gate takes the median ratio of five
such pairs, so a burst of load on the machine skews one pair, not the
result.  The heap is frozen around each timed call, so the collections it
triggers scan only what the call allocates, not what earlier tests left.
A stage linear in its input doubles (gate 2.5); the genus chain's
superiors are quadratic in n, so its gate is 4.5.
"""

import gc
import statistics
import time

from otl import has_errors, parse, validate

PAIRS = 5


def chain_source(n):
    lines = ["concept C0"]
    lines += [f"concept C{i} := C{i - 1} + d{i}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def part_cycle_source(n):
    """A part chain through n root concepts, closed by one cycle over its
    second half."""
    lines = [f"concept P{i} := p{i}" for i in range(n)]
    lines += [f"part P{i} has P{i + 1}" for i in range(n - 1)]
    lines.append(f"part P{n - 1} has P{n // 2}")
    return "\n".join(lines) + "\n"


def wide_tree_source(n):
    """n concepts under one root, each with a term and an object."""
    lines = ["concept T0", "attribute size : number on T0"]
    for i in range(1, n):
        lines.append(f"concept T{i} := T{(i - 1) // 8} + t{i}")
        lines.append(f'term "tree node {i}" (en, preferred) for T{i}')
        lines.append(f"object o{i} : T{i} {{ size = {i}.5 }}")
    return "\n".join(lines) + "\n"


def time_validate(source):
    model = parse(source).model
    gc.collect()
    gc.freeze()
    try:
        start = time.process_time()
        diagnostics = validate(model)
        elapsed = time.process_time() - start
    finally:
        gc.unfreeze()
    return elapsed, diagnostics


def time_parse(source):
    gc.collect()
    gc.freeze()
    try:
        start = time.process_time()
        result = parse(source)
        elapsed = time.process_time() - start
    finally:
        gc.unfreeze()
    return elapsed, result.diagnostics


def doubling_ratio(timed, make_source, n):
    small, large = make_source(n), make_source(2 * n)
    ratios = []
    for _ in range(PAIRS):
        elapsed_small, _ = timed(small)
        elapsed_large, diagnostics = timed(large)
        ratios.append(elapsed_large / elapsed_small)
    return statistics.median(ratios), diagnostics


def test_genus_chain_validate_grows_with_its_quadratic_output():
    ratio, diagnostics = doubling_ratio(time_validate, chain_source, 128)
    assert diagnostics == []
    assert ratio <= 4.5


def test_part_cycle_validate_is_linear():
    ratio, diagnostics = doubling_ratio(time_validate, part_cycle_source, 2000)
    assert [d.code for d in diagnostics] == ["E_PART_CYCLE"]
    assert ratio <= 2.5


def test_wide_tree_parse_is_linear():
    ratio, diagnostics = doubling_ratio(time_parse, wide_tree_source, 1000)
    assert not has_errors(diagnostics)
    assert ratio <= 2.5
