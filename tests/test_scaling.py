"""Doubling-ratio gates on the load path and on print_dsl: the cost at 2n
over the cost at n; and, at the end, gates on the memory a parsed model and
a JSON export hold for the size of their input and output.

Ratios rather than absolute costs, so the gates mean the same on a slow or
a shared machine.  Each gate checks two ratios of one stage:

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
from functools import partial

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


def validate_call(source):
    return partial(validate, parse(source).model)


def parse_call(source):
    return partial(parse, source)


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


def test_genus_chain_validate_grows_with_its_bitsets():
    time_ratio, memory_ratio, diagnostics, evidence = doubling_ratios(validate_call, chain_source, 128)
    assert diagnostics == []
    assert time_ratio <= 4.5, evidence
    assert memory_ratio <= 2.5, evidence


def validated(source):
    model = parse(source).model
    assert validate(model) == []
    return model


def json_round_trip_call(source):
    model = validated(source)
    return lambda: from_json(to_json(model))


def test_genus_chain_json_round_trip_grows_with_its_output():
    time_ratio, memory_ratio, rebuilt, evidence = doubling_ratios(json_round_trip_call, chain_source, 128)
    assert rebuilt == validated(chain_source(256))
    assert time_ratio <= 4.5, evidence
    assert memory_ratio <= 4.5, evidence


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


def test_poly_hierarchy_validate_grows_with_its_covering_edges():
    # k = 14 -> 18: 469 -> 987 concepts, 1274 -> 2754 covering edges; the
    # linear gate, 2.5 for an output twice as large, scaled to the edges
    time_ratio, memory_ratio, diagnostics, evidence = doubling_ratios(validate_call, poly_source, 14, 18)
    assert diagnostics == []
    bound = 1.25 * covering_edges(18) / covering_edges(14)
    assert time_ratio <= bound, evidence
    assert memory_ratio <= bound, evidence


def to_json_call(source):
    return partial(to_json, validated(source))


def test_poly_hierarchy_to_json_grows_with_its_document():
    # k = 14 -> 18: 93643 -> 199081 bytes
    time_ratio, memory_ratio, text, evidence = doubling_ratios(to_json_call, poly_source, 14, 18)
    bound = 1.25 * len(text) / len(to_json(validated(poly_source(14))))
    assert time_ratio <= bound, evidence
    assert memory_ratio <= bound, evidence


def test_poly_hierarchy_from_json_grows_with_its_document_and_covering_edges():
    time_ratio, memory_ratio, model, evidence = doubling_ratios(from_json_call, poly_source, 14, 18)
    assert model == validated(poly_source(18))
    small, large = (len(to_json(validated(poly_source(k)))) for k in (14, 18))
    bound = 1.25 * max(large / small, covering_edges(18) / covering_edges(14))
    assert time_ratio <= bound, evidence
    assert memory_ratio <= bound, evidence


def test_part_cycle_validate_is_linear():
    time_ratio, memory_ratio, diagnostics, evidence = doubling_ratios(validate_call, part_cycle_source, 2000)
    assert [d.code for d in diagnostics] == ["E_PART_CYCLE"]
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


def test_wide_tree_parse_is_linear():
    time_ratio, memory_ratio, result, evidence = doubling_ratios(parse_call, wide_tree_source, 1000)
    assert not has_errors(result.diagnostics)
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


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


def test_wide_tree_with_exclusive_axes_validate_is_linear():
    time_ratio, memory_ratio, diagnostics, evidence = doubling_ratios(validate_call, wide_tree_with_axes_source, 1000)
    assert diagnostics == []
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


def from_json_call(source):
    return partial(from_json, to_json(validated(source)))


def test_wide_tree_from_json_is_linear():
    time_ratio, memory_ratio, model, evidence = doubling_ratios(from_json_call, wide_tree_source, 1000)
    assert model == validated(wide_tree_source(2000))
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


def wide_tree_with_distinct_values_source(n):
    """The wide tree without terms, each concept with two objects whose
    text and number literals are each spelt once in the source: the worst
    case for tables of the values read or written once per spelling."""
    lines = ["concept T0", "attribute name : text on T0", "attribute size : number on T0"]
    for i in range(1, n):
        lines.append(f"concept T{i} := T{(i - 1) // 8} + t{i}")
        lines += [f'object o{i}{s} : T{i} {{ name = "n{i}{s}", size = {i}.{k} }}' for k, s in enumerate("ab", 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "make_call, done",
    [
        (parse_call, lambda result, n: len(result.model.objects) == 2 * (n - 1)),
        (validate_call, lambda diagnostics, n: diagnostics == []),
        (to_json_call, lambda text, n: text.count('"kind": "text"') == 2 * (n - 1)),
    ],
    ids=["parse", "validate", "to_json"],
)
def test_wide_tree_with_distinct_values_loads_and_writes_in_linear_time(make_call, done):
    time_ratio, memory_ratio, result, evidence = doubling_ratios(make_call, wide_tree_with_distinct_values_source, 200)
    assert done(result, 400)
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


def wide_tree_with_parts_source(n):
    """The wide tree, each concept also a part of its genus."""
    return wide_tree_source(n) + "".join(f"part T{(i - 1) // 8} has T{i}\n" for i in range(1, n))


def lexicon_call(source):
    return partial(lexicon, validated(source), "en")


def describe_every_object_call(source):
    model = validated(source)
    return lambda: [describe_object(model, oid) for oid in model.objects]


@pytest.mark.parametrize("make_call", [lexicon_call, describe_every_object_call], ids=["lexicon", "describe_object"])
def test_wide_tree_reads_grow_with_their_output(make_call):
    # a scan of every term or part link per concept or object grows about
    # three times a doubling here
    time_ratio, memory_ratio, result, evidence = doubling_ratios(make_call, wide_tree_with_parts_source, 1000)
    assert len(result) > 0
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


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


@pytest.mark.parametrize(
    "make_source, n, diagnostic",
    [
        (differentiae_then_plus_source, 2000, ("E_SYN", "expected end of statement, found '+'")),
        (unclosed_block_source, 1000, ("E_SYN", "expected '}', found end of input")),
        (blanks_then_stray_source, 20_000, ("E_LEX", "unexpected character '@'")),
    ],
)
def test_lines_rejected_at_their_end_parse_in_linear_time(make_source, n, diagnostic):
    time_ratio, memory_ratio, result, evidence = doubling_ratios(parse_call, make_source, n)
    assert [(d.code, d.message) for d in result.diagnostics] == [diagnostic]
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


def child_first_chain_source(n):
    """The genus chain of chain_source declared child first."""
    lines = [f"concept C{i} := C{i - 1} + d{i}" for i in range(n - 1, 0, -1)]
    return "\n".join(lines + ["concept C0"]) + "\n"


def print_dsl_call(source):
    return partial(print_dsl, validated(source))


def test_child_first_chain_print_dsl_is_linear():
    time_ratio, memory_ratio, text, evidence = doubling_ratios(print_dsl_call, child_first_chain_source, 500)
    assert text == chain_source(1000)
    assert time_ratio <= 2.5, evidence
    assert memory_ratio <= 2.5, evidence


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
