"""Doubling-ratio gates on the load path, print_dsl and two reads: the
cost at 2n over the cost at n; and, at the end, gates on the memory a parsed
model and a JSON export hold for the size of their input and output.

Ratios rather than absolute costs, so the gates mean the same on a slow or
a shared machine.  The doubling gates are the rows of one table, GATES, and
each row checks two ratios of one stage on one shape:

* CPU time: the median ratio of PAIRS pairs of back-to-back n and 2n runs,
  after a garbage collection each, with the order of the two sizes
  alternating from pair to pair, so a machine that speeds up or slows down
  during a pair pushes as many ratios up as down.  The heap is frozen
  around each timed call, so the collections it triggers scan only what
  the call allocates, not what earlier tests left.
* Memory: the peak bytes tracemalloc sees during one run of each size,
  which does not depend on the machine's load at all.

A stage linear in its input doubles (gate 2.5).  On the genus chain the
intensions and superiors are bitsets of n bits per concept: their memory
doubles with n at these sizes, but the operations on them do O(n) work
each, so the chain's time gate is 4.5.  Its JSON document lists every
concept's intension, n²/2 names, so the JSON round trip's gates are 4.5.
The poly-hierarchy is sized by k differences, not by n, and its gates are
written against the growth of its output: the covering edges of validate,
the document of to_json, and both for from_json, which reads the one and
derives the other.
"""

import gc
import io
import itertools
import math
import statistics
import time
import tracemalloc
from functools import cache, partial

import pytest

from otl import (
    ExportOptions,
    describe_object,
    from_json,
    has_errors,
    lexicon,
    parse,
    print_dsl,
    to_dot,
    to_json,
    validate,
)
from otl.cli import run

PAIRS = 9


def timed(call):
    gc.collect()
    gc.freeze()
    try:
        start = time.process_time()
        result = call()
        elapsed = time.process_time() - start
    finally:
        gc.unfreeze()
    return elapsed, result


def peak_bytes(call):
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def doubling_ratios(make_call, make_source, n, larger=None):
    """(time ratio, memory ratio, result at 2n, evidence) of the stage that
    `make_call` readies for one run on a source; `larger` sizes the second
    source in place of 2n.  The evidence, each gate's assert message, shows
    the PAIRS time ratios in run order and both tracemalloc peaks, so a
    failure in a CI log tells one slow pair from a stage that grew."""
    sources = {"n": make_source(n), "2n": make_source(larger or 2 * n)}
    ratios = []
    elapsed, results = {}, {}
    for pair in range(PAIRS):
        for size in ("n", "2n") if pair % 2 == 0 else ("2n", "n"):
            elapsed[size], results[size] = timed(make_call(sources[size]))
        ratios.append(elapsed["2n"] / elapsed["n"])
    peaks = {size: peak_bytes(make_call(source)) for size, source in sources.items()}
    evidence = f"pair time ratios {' '.join(f'{r:.2f}' for r in ratios)}; peak bytes {peaks['n']} -> {peaks['2n']}"
    return statistics.median(ratios), peaks["2n"] / peaks["n"], results["2n"], evidence


# -- the shapes --------------------------------------------------------------


def chain_source(n):
    lines = ["concept C0"]
    lines += [f"concept C{i} := C{i - 1} + d{i}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def child_first_chain_source(n):
    """The genus chain of chain_source declared child first."""
    lines = [f"concept C{i} := C{i - 1} + d{i}" for i in range(n - 1, 0, -1)]
    return "\n".join(lines + ["concept C0"]) + "\n"


def poly_source(k):
    """All 1-3-subsets of k differences, each declared with its last
    difference on the subset before it as genus.  Every subset one smaller
    covers it, so most covering edges are derived, not declared."""
    lines = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(k), size):
            genus = f"S{'_'.join(map(str, combo[:-1]))} + " if size > 1 else ""
            lines.append(f"concept S{'_'.join(map(str, combo))} := {genus}q{combo[-1]}")
    return "\n".join(lines) + "\n"


def covering_edges(k):
    return 3 * math.comb(k, 3) + 2 * math.comb(k, 2)


def part_cycle_source(n):
    """A part chain through n root concepts, closed by one cycle over its
    second half."""
    lines = [f"concept P{i} := p{i}" for i in range(n)]
    lines += [f"part P{i} has P{i + 1}" for i in range(n - 1)]
    lines.append(f"part P{n - 1} has P{n // 2}")
    return "\n".join(lines) + "\n"


def part_cycles_source(n):
    """n root concepts, each three in a row a part cycle: n // 3 cycles, so
    validate groups, sorts and locates n // 3 diagnostics."""
    lines = [f"concept P{i} := p{i}" for i in range(n)]
    lines += [f"part P{i} has P{i + 1 if i % 3 < 2 else i - 2}" for i in range(n - n % 3)]
    return "\n".join(lines) + "\n"


def wide_tree_source(n):
    """n concepts under one root, each with a term and an object."""
    lines = ["concept T0", "attribute size : number on T0"]
    for i in range(1, n):
        lines.append(f"concept T{i} := T{(i - 1) // 8} + t{i}")
        lines.append(f'term "tree node {i}" (en, preferred) for T{i}')
        lines.append(f"object o{i} : T{i} {{ size = {i}.5 }}")
    return "\n".join(lines) + "\n"


def wide_tree_with_axes_source(n):
    """n concepts under one root, eight children to a concept, the
    children's differences the members of one exclusive axis scoped at
    their genus: an exclusive axis at every level, and no clash."""
    lines = ["concept T0"]
    lines += [f"concept T{i} := T{(i - 1) // 8} + t{i}" for i in range(1, n)]
    for genus in range((n - 2) // 8 + 1):
        members = ", ".join(f"t{i}" for i in range(8 * genus + 1, min(8 * genus + 9, n)))
        lines.append(f"axis K{genus} of T{genus} {{ {members} }}")
    return "\n".join(lines) + "\n"


def wide_tree_with_distinct_values_source(n):
    """The wide tree without terms, each concept with two objects whose
    text and number literals are each spelt once in the source: the worst
    case for tables of the values read or written once per spelling."""
    lines = ["concept T0", "attribute name : text on T0", "attribute size : number on T0"]
    for i in range(1, n):
        lines.append(f"concept T{i} := T{(i - 1) // 8} + t{i}")
        lines += [f'object o{i}{s} : T{i} {{ name = "n{i}{s}", size = {i}.{k} }}' for k, s in enumerate("ab", 1)]
    return "\n".join(lines) + "\n"


def wide_tree_with_parts_source(n):
    """The wide tree, each concept also a part of its genus."""
    return wide_tree_source(n) + "".join(f"part T{(i - 1) // 8} has T{i}\n" for i in range(1, n))


# Lines the regex reader takes up to their last character and then
# rejects, so the token reader reads them again: each must still cost time
# and memory linear in its length.


def differentiae_then_plus_source(n):
    """A concept listing n differentiae, then a '+'."""
    return "concept A := " + ", ".join(f"d{i}" for i in range(n)) + " +\n"


def unclosed_block_source(n):
    """An object block of n values without its '}'."""
    return "object o : A { " + ", ".join(f"a{i} = {i}" for i in range(n)) + "\n"


def blanks_then_stray_source(n):
    return " " * n + "@\n"


# -- the stages --------------------------------------------------------------


def validated(source):
    model = parse(source).model
    assert validate(model) == []
    return model


def parse_call(source):
    return partial(parse, source)


def validate_call(source):
    return partial(validate, parse(source).model)


def to_json_call(source):
    return partial(to_json, validated(source))


def from_json_call(source):
    return partial(from_json, to_json(validated(source)))


def json_round_trip_call(source):
    model = validated(source)
    return lambda: from_json(to_json(model))


def print_dsl_call(source):
    return partial(print_dsl, validated(source))


def lexicon_call(source):
    return partial(lexicon, validated(source), "en")


def describe_every_object_call(source):
    model = validated(source)
    return lambda: [describe_object(model, oid) for oid in model.objects]


# k = 14 -> 18: 469 -> 987 concepts, 1274 -> 2754 covering edges; the
# linear gate, 2.5 for an output twice as large, scaled to the edges
POLY_EDGES_BOUND = 1.25 * covering_edges(18) / covering_edges(14)


@cache
def poly_document_bound():
    # k = 14 -> 18: 93643 -> 199081 bytes
    return 1.25 * len(to_json(validated(poly_source(18)))) / len(to_json(validated(poly_source(14))))


def poly_document_and_edges_bound():
    return max(poly_document_bound(), POLY_EDGES_BOUND)


def gate(name, make_call, make_source, n, done, time_bound=2.5, memory_bound=2.5, larger=None):
    """One row of GATES: the stage `make_call` readies, run on
    `make_source` at n and at `larger` (2n if None); `done(result, size)`
    checks its result at the larger size.  A bound is a number, or a
    function of nothing for a bound written against an output's growth."""
    return pytest.param(make_call, make_source, n, larger, done, time_bound, memory_bound, id=name)


def no_errors(diagnostics, size):
    return diagnostics == []


def one_syntax_error(code, message):
    return lambda result, size: [(d.code, d.message) for d in result.diagnostics] == [(code, message)]


GATES = [
    gate("genus_chain-validate", validate_call, chain_source, 128, no_errors, 4.5, 2.5),
    gate("genus_chain-json_round_trip", json_round_trip_call, chain_source, 128,
         lambda model, size: model == validated(chain_source(size)), 4.5, 4.5),
    gate("poly-validate", validate_call, poly_source, 14, no_errors, POLY_EDGES_BOUND, POLY_EDGES_BOUND, 18),
    gate("poly-to_json", to_json_call, poly_source, 14,
         lambda text, size: text == to_json(validated(poly_source(size))),
         poly_document_bound, poly_document_bound, 18),
    gate("poly-from_json", from_json_call, poly_source, 14, lambda model, size: model == validated(poly_source(size)),
         poly_document_and_edges_bound, poly_document_and_edges_bound, 18),
    gate("part_cycle-validate", validate_call, part_cycle_source, 2000,
         lambda diagnostics, size: [d.code for d in diagnostics] == ["E_PART_CYCLE"]),
    gate("part_cycles-validate", validate_call, part_cycles_source, 2000,
         lambda diagnostics, size: [d.code for d in diagnostics] == ["E_PART_CYCLE"] * (size // 3)),
    gate("wide_tree-parse", parse_call, wide_tree_source, 1000,
         lambda result, size: not has_errors(result.diagnostics)),
    gate("wide_tree_with_axes-validate", validate_call, wide_tree_with_axes_source, 1000, no_errors),
    gate("wide_tree-from_json", from_json_call, wide_tree_source, 1000,
         lambda model, size: model == validated(wide_tree_source(size))),
    gate("distinct_values-parse", parse_call, wide_tree_with_distinct_values_source, 200,
         lambda result, size: len(result.model.objects) == 2 * (size - 1)),
    gate("distinct_values-validate", validate_call, wide_tree_with_distinct_values_source, 200, no_errors),
    gate("distinct_values-to_json", to_json_call, wide_tree_with_distinct_values_source, 200,
         lambda text, size: text.count('"kind": "text"') == 2 * (size - 1)),
    # a scan of every term or part link per concept or object grows about
    # three times a doubling here
    gate("wide_tree_with_parts-lexicon", lexicon_call, wide_tree_with_parts_source, 1000,
         lambda result, size: len(result) > 0),
    gate("wide_tree_with_parts-describe_object", describe_every_object_call, wide_tree_with_parts_source,
         1000, lambda result, size: len(result) > 0),
    gate("differentiae_then_plus-parse", parse_call, differentiae_then_plus_source, 2000,
         one_syntax_error("E_SYN", "expected end of statement, found '+'")),
    gate("unclosed_block-parse", parse_call, unclosed_block_source, 1000,
         one_syntax_error("E_SYN", "expected '}', found end of input")),
    gate("blanks_then_stray-parse", parse_call, blanks_then_stray_source, 20_000,
         one_syntax_error("E_LEX", "unexpected character '@'")),
    gate("child_first_chain-print_dsl", print_dsl_call, child_first_chain_source, 500,
         lambda text, size: text == chain_source(size)),
]


@pytest.mark.parametrize("make_call, make_source, n, larger, done, time_bound, memory_bound", GATES)
def test_doubling_gate(make_call, make_source, n, larger, done, time_bound, memory_bound):
    time_ratio, memory_ratio, result, evidence = doubling_ratios(make_call, make_source, n, larger)
    assert done(result, larger or 2 * n)
    assert time_ratio <= (time_bound() if callable(time_bound) else time_bound), evidence
    assert memory_ratio <= (memory_bound() if callable(memory_bound) else memory_bound), evidence


def test_long_genus_chain_validate_retains_little_memory():
    # 4000 concepts hold 8 million (concept, difference) and (concept,
    # superior) pairs: as sets of ids they took about 660 MB, as bitsets 4 MB
    model = parse(chain_source(4000)).model
    gc.collect()
    tracemalloc.start()
    try:
        assert validate(model) == []
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 20 * 2**20


# Memory held, not its growth: what a model, a writer and a CLI command
# keep for the size of their input and output.


def object_heavy_source(n):
    """n objects with six values each, of all three kinds."""
    lines = ["concept T0"] + [f"attribute a{k} : {('number', 'text', 'boolean')[k % 3]} on T0" for k in range(6)]
    for i in range(n):
        values = ", ".join(f"a{k} = " + (str(i + k), f'"v{i}"', "true")[k % 3] for k in range(6))
        lines.append(f"object o{i} : T0 {{ {values} }}")
    return "\n".join(lines) + "\n"


def test_a_parsed_model_holds_few_bytes_per_source_byte():
    # an object's values keep no source position of their own: with one per
    # value the model held about 30 bytes per source byte, without 15
    source = object_heavy_source(1000)
    parse("concept A\n")  # compiles the statement regex once for the process
    gc.collect()
    tracemalloc.start()
    try:
        result = parse(source)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.diagnostics == []
    assert held <= 20 * len(source)


@pytest.mark.parametrize(
    "write", [print_dsl, partial(to_dot, opts=ExportOptions(True, True))], ids=["print_dsl", "to_dot"]
)
def test_text_writers_copy_their_text_once(write):
    # a list of lines, then one join: a second copy of the text to add the
    # final newline took the peak from 3.5 and 3.7 times the text to 4.5
    # and 4.7 times
    model = validated(wide_tree_source(4000))
    text = write(model)
    assert peak_bytes(partial(write, model)) <= 4.0 * len(text)


class Discard:
    """A stream that keeps nothing written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_export_json_holds_no_whole_document(tmp_path):
    # the document is written in batches as it is made, so exporting needs
    # little more than checking; holding the document and its copies took
    # about 1.7 times its length more
    path = str(tmp_path / "wide.otl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(wide_tree_source(1000))
    payload = io.StringIO()
    assert run(["export", path, "--format", "json"], stdout=payload, stderr=Discard()) == 0
    peaks = {
        command: peak_bytes(partial(run, [command, path, *flags], stdout=Discard(), stderr=Discard()))
        for command, flags in (("check", []), ("export", ["--format", "json"]))
    }
    assert peaks["export"] - peaks["check"] < 0.25 * len(payload.getvalue())


class HeldAtWrite(io.RawIOBase):
    """A binary sink that discards what it gets and notes the most memory
    tracemalloc saw held at one of its writes."""

    held = 0

    def writable(self):
        return True

    def write(self, data):
        self.held = max(self.held, tracemalloc.get_traced_memory()[0])
        return len(data)


def test_tree_holds_no_encoded_copy_of_its_text(tmp_path):
    # The DOT text is made whole, then written in slices of 64 K characters:
    # written as one piece, its encoded copy was held beside it as well.
    path = str(tmp_path / "wide.otl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(wide_tree_source(4000))
    text = io.StringIO()
    assert run(["tree", path, "--derived", "--objects"], stdout=text, stderr=Discard()) == 0
    assert run(["define", path, "T1"], stdout=io.StringIO(), stderr=Discard()) == 0  # imports what it uses

    def held(argv):
        sink = HeldAtWrite()
        gc.collect()
        tracemalloc.start()
        try:
            assert run(argv, stdout=io.TextIOWrapper(sink, encoding="utf-8"), stderr=Discard()) == 0
        finally:
            tracemalloc.stop()
        return sink.held

    # a one-line payload: what the loaded model and the command hold
    loaded = held(["define", path, "T1"])
    tree = held(["tree", path, "--derived", "--objects"])
    assert tree - loaded <= len(text.getvalue()) + 4 * (1 << 16)
